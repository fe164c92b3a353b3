#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// Runs one workload on fixtures in `fixture_dir` for about `seconds` of
/// measurement, writing scratch output (merged checkpoints) under
/// `work_dir`. `traced` adds the in-memory span recorder and the kernel
/// probe; end-to-end numbers are only taken from untraced runs.
RunReport run_workload(const Json& config, const std::string& workload,
                       const std::string& fixture_dir,
                       const std::string& work_dir, double seconds,
                       bool traced);

}  // namespace perfbench
