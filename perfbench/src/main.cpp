// perfbench — the benchmark's measured program. run.py drives it:
//
//   perfbench fixtures --config C --workload W --seed N --dir D
//       builds the seeded inputs of one workload (a separate process, so the
//       measured process never pays for them);
//   perfbench run --config C --workload W --fixtures D --work-dir R
//                 --seconds S [--trace-out FILE]
//       runs the workload and prints one JSON object with its end-to-end
//       and per-layer numbers and the run fingerprint. --trace-out records
//       spans and writes them to FILE as Chrome trace-event JSON.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "common.hpp"
#include "fixtures.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench fixtures --config C --workload W --seed N "
               "--dir D\n"
               "       perfbench run --config C --workload W --fixtures D "
               "--work-dir R --seconds S [--trace-out FILE]\n");
  return 2;
}

Json metrics_json(const Metrics& metrics) {
  Json out = Json::object();
  for (const auto& [name, value] : metrics) out.set(name, value);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  const auto need = [&](const char* key) -> const std::string& {
    const auto it = args.find(key);
    if (it == args.end()) {
      std::fprintf(stderr, "perfbench: missing --%s\n", key);
      std::exit(usage());
    }
    return it->second;
  };
  try {
    const Json config = read_json(need("config"));
    const std::string workload = need("workload");
    if (mode == "fixtures") {
      build_fixtures(config, workload, std::stoull(need("seed")),
                     need("dir"));
      return 0;
    }
    if (mode != "run") return usage();
    const auto trace_it = args.find("trace-out");
    Tracer tracer;
    if (trace_it != args.end()) g_tracer = &tracer;
    RunReport report = run_workload(config, workload, need("fixtures"),
                                    need("work-dir"),
                                    std::stod(need("seconds")),
                                    g_tracer != nullptr);
    if (g_tracer != nullptr) {
      for (const auto& [layer, self] : tracer.self_seconds_by_layer()) {
        report.layers["trace.self_s." + layer] = self;
      }
      report.layers["trace.spans"] =
          static_cast<double>(tracer.span_count());
      tracer.write_chrome(trace_it->second);
      g_tracer = nullptr;
    }
    Json out = Json::object();
    out.set("e2e", metrics_json(report.e2e));
    out.set("layers", metrics_json(report.layers));
    out.set("fingerprint", report.fingerprint);
    out.set("attempted", report.attempted);
    out.set("failed", report.failed);
    out.set("checked", report.checked);
    out.set("matched", report.matched);
    out.set("us_per_token", report.us_per_token);
    std::printf("%s\n", out.dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
