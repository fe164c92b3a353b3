#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

/// Writes the seeded inputs of `workload` into `dir` (created if needed).
void build_fixtures(const Json& config, const std::string& workload,
                    std::uint64_t seed, const std::string& dir);

}  // namespace perfbench
