// bench_stream_merge — streaming vs in-memory merge: wall clock, throughput
// and peak RSS, plus byte-identity checks between all three paths.
//
// The bench fabricates synthetic sharded checkpoints tensor-by-tensor (so
// fabrication itself stays small), then:
//   1. streams the merge through the three-stage pipelined engine under a
//      bounded in-flight budget and records the process peak RSS (VmHWM) —
//      which must stay under baseline + budget + a fixed overhead allowance;
//   2. streams the same merge through the strictly serial escape hatch
//      (pipeline = false), its runs alternating with the pipelined ones,
//      and gates the pipelined speedup at >= 1.3x (skipped on single-core
//      hosts, where no overlap win is possible);
//   3. runs the same merge through the in-memory path (load everything,
//      merge, save) — whose peak must strictly exceed the streaming peak;
//   4. verifies pipelined, serial, and in-memory outputs are byte-identical,
//      tensor by tensor.
//
// Exit status is non-zero when any of those checks fail, so the bench
// doubles as an acceptance gate. `--quick` shrinks the workload for CI.
// `--json FILE` additionally writes a machine-readable record of the
// timings and gate results, including the fault-injection status: the
// failpoint sites are compiled into this binary (the numbers include their
// disarmed-path cost, one relaxed atomic load per site) and stay disarmed
// unless CHIPALIGN_FAILPOINTS says otherwise.
//
// Usage: bench_stream_merge [--quick] [--method chipalign|ties|...]
//                           [--json FILE]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/safetensors.hpp"
#include "merge/registry.hpp"
#include "model/checkpoint.hpp"
#include "stream/shard_layout.hpp"
#include "stream/shard_writer.hpp"
#include "stream/streaming_merge.hpp"
#include "stream/tensor_source.hpp"
#include "tensor/kernels/kernels.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"
#include "util/mem_probe.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace chipalign;

namespace {

struct BenchConfig {
  int tensor_count = 48;
  std::int64_t rows = 1024;
  std::int64_t cols = 680;               // ~2.8 MB per tensor, ~133 MB total
  std::uint64_t shard_size_bytes = 16ull << 20;
  std::uint64_t max_inflight_bytes = 48ull << 20;
  // Allowance for everything outside the accounted working set: binary +
  // heap baseline growth, thread stacks, allocator slack.
  std::uint64_t overhead_bytes = 96ull << 20;
  int timing_runs = 2;  // per engine, alternating; speedup uses each's best
};

BenchConfig quick_config() {
  BenchConfig config;
  config.tensor_count = 24;
  config.rows = 768;
  config.cols = 512;                     // 1.5 MB per tensor, 36 MB total
  config.shard_size_bytes = 4u << 20;
  config.max_inflight_bytes = 48u << 20;
  config.overhead_bytes = 64ull << 20;
  config.timing_runs = 3;
  return config;
}

/// Writes one synthetic sharded checkpoint without ever holding more than a
/// single tensor in memory, so fabrication barely moves the RSS baseline.
void fabricate_checkpoint(const std::string& dir, const BenchConfig& bench,
                          std::uint64_t seed) {
  std::vector<std::pair<std::string, Shape>> entries;
  for (int i = 0; i < bench.tensor_count; ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "layers.%03d.weight", i);
    entries.emplace_back(name, Shape{bench.rows, bench.cols});
  }
  ModelConfig config;
  config.name = "synthetic-" + std::to_string(seed);
  config.vocab_size = 1;
  config.d_model = bench.rows;
  config.n_layers = bench.tensor_count;
  config.n_heads = 1;
  config.n_kv_heads = 1;
  config.d_ff = bench.cols;
  config.max_seq_len = 1;

  ShardSetWriter writer(
      dir, plan_shards(entries, DType::kF32, bench.shard_size_bytes),
      checkpoint_metadata(config));
  std::map<std::string, std::string> checksums;
  for (const auto& [name, shape] : entries) {
    Rng rng(seed ^ xxh64(name));
    const Tensor tensor = Tensor::randn(shape, rng, 0.05F);
    const std::vector<std::uint8_t> bytes =
        encode_tensor_bytes(tensor, DType::kF32);
    checksums[name] = hash_to_hex(xxh64(bytes.data(), bytes.size()));
    writer.write_tensor(name, bytes);
  }
  writer.finish(checksums);
}

double mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    failpoint::arm_from_env();  // benches accept injected faults too
    bool quick = false;
    std::string method = "chipalign";
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--quick") == 0) {
        quick = true;
      } else if (std::strcmp(argv[i], "--method") == 0 && i + 1 < argc) {
        method = argv[++i];
      } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        json_path = argv[++i];
      } else {
        std::fprintf(stderr,
                     "usage: bench_stream_merge [--quick] [--method M] "
                     "[--json FILE]\n");
        return 2;
      }
    }
    const BenchConfig bench = quick ? quick_config() : BenchConfig{};
    const auto merger = create_merger(method);
    const std::string root =
        std::string("/tmp/ca_bench_stream_merge") + (quick ? "_quick" : "");
    std::filesystem::remove_all(root);

    const std::uint64_t tensor_bytes = static_cast<std::uint64_t>(
        bench.rows * bench.cols * static_cast<std::int64_t>(sizeof(float)));
    std::printf("bench_stream_merge (%s): %d tensors x %.1f MB = %.1f MB "
                "per model, method '%s'\n",
                quick ? "quick" : "full", bench.tensor_count, mb(tensor_bytes),
                mb(tensor_bytes * bench.tensor_count), method.c_str());

    Timer fab_timer;
    fabricate_checkpoint(root + "/chip", bench, 101);
    fabricate_checkpoint(root + "/instruct", bench, 202);
    if (merger->requires_base()) fabricate_checkpoint(root + "/base", bench,
                                                      303);
    std::printf("fabricated inputs in %.2f s\n", fab_timer.seconds());

    const MergeOptions options;
    const ShardedTensorSource chip = ShardedTensorSource::open(root + "/chip");
    const ShardedTensorSource instruct =
        ShardedTensorSource::open(root + "/instruct");
    ShardedTensorSource base;
    if (merger->requires_base()) {
      base = ShardedTensorSource::open(root + "/base");
    }
    const TensorSource* base_ptr = merger->requires_base() ? &base : nullptr;

    StreamingMergeConfig config;
    config.shard_size_bytes = bench.shard_size_bytes;
    config.max_inflight_bytes = bench.max_inflight_bytes;
    config.log_every = 0;

    auto stream_once = [&](bool pipeline, const std::string& out) {
      StreamingMergeConfig run_config = config;
      run_config.pipeline = pipeline;
      return merge_streaming(*merger, chip, instruct, base_ptr, options,
                             run_config, out);
    };

    const std::uint64_t baseline_rss = peak_rss_bytes();
    // Read every input once, untimed, so the first timed merge pays no
    // first-read cost the later ones skip. One tensor buffer at a time
    // stays far under a merge's in-flight peak, so the VmHWM sample below
    // still measures the merge.
    const TensorSource* const inputs[] = {base_ptr, &chip, &instruct};
    for (const TensorSource* source : inputs) {
      if (source == nullptr) continue;
      for (const std::string& name : source->names()) source->read_bytes(name);
    }

    // Phase 1+2: the pipelined engine and the strictly serial escape hatch
    // on the same workload, timed alternately run by run (pipelined first)
    // so a swing in host speed reaches both sides of the speedup ratio. The
    // streaming VmHWM is sampled after every streaming run and before the
    // in-memory path, whose allocations would mask it (the kernel
    // high-water mark only grows).
    StreamingMergeReport report = stream_once(true, root + "/merged_streaming");
    StreamingMergeReport serial_report =
        stream_once(false, root + "/merged_serial");
    double best_pipelined = report.seconds;
    double best_serial = serial_report.seconds;
    for (int run = 1; run < bench.timing_runs; ++run) {
      best_pipelined = std::min(
          best_pipelined,
          stream_once(true, root + "/merged_streaming").seconds);
      best_serial = std::min(
          best_serial, stream_once(false, root + "/merged_serial").seconds);
    }
    const std::uint64_t streaming_rss = peak_rss_bytes();
    std::printf(
        "[pipelined] %zu tensors -> %zu shard(s), %s written, %.1f MB/s in "
        "%.2f s (best of %d: %.2f s)\n",
        report.tensor_count, report.shard_count,
        format_bytes(report.bytes_written).c_str(), report.mb_per_second(),
        report.seconds, bench.timing_runs, best_pipelined);
    std::printf(
        "[pipelined] stage busy: read %.2f s, merge %.2f s, write %.2f s "
        "(%zu reads checksum-verified)\n",
        report.read_seconds, report.merge_seconds, report.write_seconds,
        report.source_checksums_verified);
    std::printf(
        "[streaming] peak RSS %s (baseline %s, accounted in-flight max %s, "
        "budget %s)\n",
        format_bytes(streaming_rss).c_str(), format_bytes(baseline_rss).c_str(),
        format_bytes(report.max_inflight_bytes_observed).c_str(),
        format_bytes(config.max_inflight_bytes).c_str());

    std::printf(
        "[serial]    %s written at %.1f MB/s in %.2f s (best of %d: %.2f s)\n",
        format_bytes(serial_report.bytes_written).c_str(),
        serial_report.mb_per_second(), serial_report.seconds,
        bench.timing_runs, best_serial);

    // Phase 3: in-memory.
    Timer mem_timer;
    const Checkpoint chip_mem = load_sharded_checkpoint(root + "/chip");
    const Checkpoint instruct_mem = load_sharded_checkpoint(root + "/instruct");
    Checkpoint base_mem;
    if (merger->requires_base()) {
      base_mem = load_sharded_checkpoint(root + "/base");
    }
    const Checkpoint merged =
        merge_checkpoints(*merger, chip_mem, instruct_mem,
                          merger->requires_base() ? &base_mem : nullptr,
                              options);
    merged.save(root + "/merged_inmemory.safetensors", DType::kF32);
    const std::uint64_t inmemory_rss = peak_rss_bytes();
    std::printf("[in-memory] merged + saved in %.2f s, peak RSS %s\n",
                mem_timer.seconds(), format_bytes(inmemory_rss).c_str());

    // Phase 4: byte-identity between all three outputs.
    const ShardedTensorSource streamed =
        ShardedTensorSource::open(root + "/merged_streaming");
    const ShardedTensorSource serial =
        ShardedTensorSource::open(root + "/merged_serial");
    std::size_t identical = 0;
    for (const auto& [name, tensor] : merged.tensors()) {
      const std::vector<std::uint8_t> expected =
          encode_tensor_bytes(tensor, DType::kF32);
      if (streamed.read_bytes(name) == expected &&
          serial.read_bytes(name) == expected) {
        ++identical;
      }
    }
    const bool bytes_ok = identical == merged.tensors().size() &&
                          identical == streamed.names().size() &&
                          identical == serial.names().size();
    std::printf("byte-identity: %zu/%zu tensors identical across pipelined/"
                "serial/in-memory -> %s\n",
                identical, merged.tensors().size(), bytes_ok ? "OK" : "FAIL");

    bool ok = bytes_ok;

    // Gate: pipelining must buy >= 1.3x wall clock over the serial engine.
    // On a single hardware thread there is nothing to overlap with, so the
    // gate is reported as skipped rather than failed.
    const unsigned hw_threads = std::thread::hardware_concurrency();
    const double speedup =
        best_pipelined > 0.0 ? best_serial / best_pipelined : 0.0;
    const char* speedup_gate = "skipped (1 core)";
    if (hw_threads >= 2) {
      const bool speedup_ok = speedup >= 1.3;
      speedup_gate = speedup_ok ? "pass" : "fail";
      std::printf("pipelined speedup %.2fx over serial (>= 1.3x, %u hw "
                  "threads) -> %s\n",
                  speedup, hw_threads, speedup_ok ? "OK" : "FAIL");
      ok = ok && speedup_ok;
    } else {
      std::printf("pipelined speedup %.2fx over serial — gate skipped "
                  "(single-core host)\n", speedup);
    }

    const char* budget_gate = "skipped (no /proc/self/status)";
    const char* below_inmemory_gate = "skipped (no /proc/self/status)";
    if (peak_rss_bytes() == 0) {
      std::printf("peak-RSS checks skipped (no /proc/self/status)\n");
    } else {
      const std::uint64_t bound =
          baseline_rss + config.max_inflight_bytes + bench.overhead_bytes;
      const bool budget_ok = streaming_rss <= bound;
      budget_gate = budget_ok ? "pass" : "fail";
      std::printf("streaming peak %s <= baseline + budget + overhead %s -> "
                  "%s\n",
                  format_bytes(streaming_rss).c_str(),
                  format_bytes(bound).c_str(), budget_ok ? "OK" : "FAIL");
      const bool below_inmemory = streaming_rss < inmemory_rss;
      below_inmemory_gate = below_inmemory ? "pass" : "fail";
      std::printf("streaming peak %s < in-memory peak %s -> %s\n",
                  format_bytes(streaming_rss).c_str(),
                  format_bytes(inmemory_rss).c_str(),
                  below_inmemory ? "OK" : "FAIL");
      ok = ok && budget_ok && below_inmemory;
    }

    if (!json_path.empty()) {
      // The failpoints block records that fault-injection sites are
      // compiled into these numbers (their disarmed cost is included) and
      // whether anything was armed while measuring.
      const char* env = std::getenv("CHIPALIGN_FAILPOINTS");
      std::ofstream json(json_path, std::ios::trunc);
      CA_CHECK(json.good(), "cannot write '" << json_path << "'");
      json << "{\n"
           << "  \"bench\": \"stream_merge\",\n"
           << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n"
           << "  \"backend\": \"" << kernels::backend_name() << "\",\n"
           << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
           << "  \"method\": \"" << method << "\",\n"
           << "  \"tensor_count\": " << bench.tensor_count << ",\n"
           << "  \"pipelined_best_s\": " << best_pipelined << ",\n"
           << "  \"serial_best_s\": " << best_serial << ",\n"
           << "  \"speedup\": " << speedup << ",\n"
           << "  \"baseline_rss_bytes\": " << baseline_rss << ",\n"
           << "  \"streaming_peak_rss_bytes\": " << streaming_rss << ",\n"
           << "  \"inmemory_peak_rss_bytes\": " << inmemory_rss << ",\n"
           << "  \"failpoints\": {\n"
           << "    \"compiled\": true,\n"
           << "    \"site_count\": " << failpoint::all_sites().size() << ",\n"
           << "    \"armed\": \"" << (env != nullptr ? env : "") << "\"\n"
           << "  },\n"
           << "  \"gates\": {\n"
           << "    \"byte_identity\": \"" << (bytes_ok ? "pass" : "fail")
           << "\",\n"
           << "    \"pipelined_speedup\": \"" << speedup_gate << "\",\n"
           << "    \"rss_budget\": \"" << budget_gate << "\",\n"
           << "    \"streaming_below_inmemory\": \"" << below_inmemory_gate
           << "\"\n"
           << "  }\n"
           << "}\n";
      std::printf("wrote %s\n", json_path.c_str());
    }

    std::filesystem::remove_all(root);
    return ok ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
