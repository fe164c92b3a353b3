#pragma once
/// \file common.hpp
/// \brief Small helpers shared by the fixture generator and the workloads.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "model/model_config.hpp"

namespace perfbench {

using chipalign::Json;

Json read_json(const std::string& path);
void write_json(const std::string& path, const Json& value);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
double median(std::vector<double> values);

/// The served model's architecture, from the "model" block of the
/// workload configuration (vocabulary from the repository tokenizer).
chipalign::ModelConfig model_config(const Json& config);

/// Name of the filesystem holding `path` (ext4, tmpfs, overlay, ...).
std::string filesystem_name(const std::string& path);

/// Flat metric sink: name -> value. Per-layer and end-to-end metrics use
/// disjoint names; the wrapper script picks the set it reports.
using Metrics = std::map<std::string, double>;

/// What one measured process reports.
struct RunReport {
  Metrics e2e;
  Metrics layers;
  Json fingerprint = Json::object();
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t checked = 0;  ///< outputs compared against a reference
  std::int64_t matched = 0;  ///< ... of which bitwise equal
  /// Time inside the measured calls per output token; traced minus
  /// untraced is the tracing overhead.
  double us_per_token = 0.0;
};

}  // namespace perfbench
