// bench_serve — the multi-tenant serving engine (src/serve).
//
// Two phases, mirroring the two serving claims:
//
//   throughput  N distinct sessions served to completion at batch widths
//               1/4/16/64 (prefix cache off). Aggregate tokens/sec =
//               tokens advanced across all sessions / wall time. Batching
//               streams each weight matrix once per step instead of once
//               per session, so throughput must not degrade as the width
//               grows.
//   prefix      N sessions sharing a long QA instruction header, served
//               with the radix prefix cache on and a small residency
//               window (later sessions admit after earlier prompts were
//               published). Reports the per-token cache hit rate.
//
// A third phase serves the same workload with int8 weights and an fp16 KV
// cache (the production memory configuration) and pins run-to-run bitwise
// determinism of the quantized engine; its tokens/s is trend-tracked in CI.
//
// A fourth phase turns on speculative decoding (ServeConfig::speculative:
// prompt-lookup drafting, each greedy session's pending token plus drafts
// scored as one row group of the step's forward()) in three
// configurations — fp32, fp32 + prefix cache on the QA workload, and
// int8 + fp16 KV — and requires every output byte-identical
// to its non-speculative counterpart (fatal): greedy acceptance makes
// speculation a pure throughput knob. Per-phase acceptance length and
// draft hit rate land in BENCH_serve.json.
//
// A fifth phase exercises the request lifecycle deterministically (fake
// clock, no failpoints): a mix of plain, cancelled, and deadlined sessions
// plus a shed-oldest overload burst, finished by a graceful drain. It
// reports the terminal-status counters (lifecycle_completed / _cancelled /
// _expired / _shed) and a `drain_clean` boolean: every accepted session
// terminal, completed outputs bitwise equal to the plain serving run,
// early-exited outputs a prefix of it, zero resident KV bytes and zero
// prefix-cache pins after drain, and the lifecycle counters balanced.
//
// Gates (--gate):
//
//   serve_batch_scaling  min(tps@4/tps@1, tps@16/tps@4) >= 1.0 — batched
//                        decode is monotonically no slower through width
//                        16. Skipped on single-core hosts, where wider
//                        batches only add scheduling overhead.
//   serve_prefix_hit     prefix-cache hit rate > 0.90 on the shared-header
//                        QA workload. Always enforced.
//   drain_clean          boolean, enforced by the CI trend checker: a
//                        baseline-true value must stay true.
//
// Correctness is fatal in every mode: every width (and the prefix run)
// must emit bit-identical outputs, equal to serial generate() anchors.
//
//   bench_serve            full sizes, report only
//   bench_serve --gate     full sizes, enforce the gates (exit 1 on miss)
//   bench_serve --quick    tiny sizes, no gates (CI smoke / sanitizers)
//   bench_serve --json P   also write a machine-readable summary to P

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/corpus.hpp"
#include "data/fact_base.hpp"
#include "data/qa_bench.hpp"
#include "nn/infer.hpp"
#include "serve/server.hpp"
#include "tensor/kernels/kernels.hpp"
#include "text/tokenizer.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace chipalign;

namespace {

struct Sizes {
  // Serving-shaped model over the real tokenizer vocab.
  std::int64_t d_model = 128;
  std::int64_t n_layers = 2;
  std::int64_t n_heads = 4;
  std::int64_t n_kv_heads = 2;
  std::int64_t d_ff = 256;
  // Throughput phase.
  int sessions = 64;
  std::vector<std::int64_t> widths = {1, 4, 16, 64};
  std::int64_t max_new = 24;
  int reps = 2;
  // Prefix phase.
  int prefix_sessions = 64;
  std::size_t header_chars = 1600;
  std::int64_t prefix_max_new = 8;
};

Sizes quick_sizes() {
  Sizes s;
  s.d_model = 32;
  s.n_layers = 2;
  s.n_heads = 2;
  s.n_kv_heads = 1;
  s.d_ff = 64;
  s.sessions = 8;
  s.widths = {1, 2, 4};
  s.max_new = 4;
  s.reps = 10;  // short reps: best-of-many for trend-stable tokens/s
  s.prefix_sessions = 8;
  s.header_chars = 120;
  s.prefix_max_new = 2;
  return s;
}

/// Best-of-reps wall time of fn() in seconds.
template <typename Fn>
double best_seconds(int reps, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

struct GateResult {
  std::string name;
  double value = 0.0;
  double floor = 0.0;
  bool skipped = false;
  std::string skip_reason;
  bool pass() const { return skipped || value >= floor; }
  /// Explicit status for machine consumers (the CI trend checker keys off
  /// the "skipped" prefix rather than gating on a noise value).
  std::string status() const {
    if (skipped) return "skipped (" + skip_reason + ")";
    return pass() ? "pass" : "fail";
  }
};

/// Writes the `"gates": {...}` JSON object (no trailing comma).
void write_gates_json(std::FILE* f, const std::vector<GateResult>& gates) {
  std::fprintf(f, "  \"gates\": {\n");
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const GateResult& g = gates[i];
    std::fprintf(f,
                 "    \"%s\": {\"value\": %.4f, \"floor\": %.4f, "
                 "\"status\": \"%s\"}%s\n",
                 g.name.c_str(), g.value, g.floor, g.status().c_str(),
                 i + 1 < gates.size() ? "," : "");
  }
  std::fprintf(f, "  }\n");
}

void print_gate(const GateResult& g) {
  if (g.skipped) {
    std::printf("{\"gate\":\"%s\",\"status\":\"skip\",\"reason\":\"%s\"}\n",
                g.name.c_str(), g.skip_reason.c_str());
  } else {
    std::printf(
        "{\"gate\":\"%s\",\"value\":%.2f,\"floor\":%.2f,\"status\":\"%s\"}\n",
        g.name.c_str(), g.value, g.floor, g.pass() ? "pass" : "fail");
  }
}

/// Serves `prompts` to completion on a fresh Server and returns every
/// result text (submission order) plus the final server stats.
std::vector<std::string> serve_all(const TransformerModel& model,
                                   const ServeConfig& serve,
                                   const std::vector<std::string>& prompts,
                                   const GenerateOptions& options,
                                   ServerStats* stats_out) {
  Server server(model, serve);
  std::vector<SessionId> ids;
  ids.reserve(prompts.size());
  for (const auto& prompt : prompts) {
    ids.push_back(server.submit(server.text_request(prompt, options)));
  }
  server.run();
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (const SessionId id : ids) {
    out.push_back(server.wait_result(id).text);
  }
  if (stats_out != nullptr) *stats_out = server.stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool gate = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  const Sizes sizes = quick ? quick_sizes() : Sizes{};

  std::printf("{\"backend\":\"%s\",\"simd_available\":%s,\"cores\":%u}\n",
              kernels::backend_name(),
              kernels::simd_available() ? "true" : "false",
              std::thread::hardware_concurrency());

  ModelConfig config;
  config.name = "bench-serve";
  config.vocab_size = tokenizer().vocab_size();
  config.d_model = sizes.d_model;
  config.n_layers = sizes.n_layers;
  config.n_heads = sizes.n_heads;
  config.n_kv_heads = sizes.n_kv_heads;
  config.d_ff = sizes.d_ff;
  config.max_seq_len = 2048;
  config.validate();
  Rng rng(0x5E27EULL);
  const TransformerModel model(config, rng);

  // -- throughput: aggregate tokens/sec vs batch width -----------------------
  std::vector<std::string> prompts;
  for (int i = 0; i < sizes.sessions; ++i) {
    prompts.push_back("do: report the design state\nq: status of block " +
                      std::to_string(100 + i * 7) + "\nout: ");
  }
  GenerateOptions options;
  options.max_new_tokens = sizes.max_new;

  // Serial anchors: plain generate() for a handful of sessions pins the
  // batched outputs to the single-session engine bit-for-bit.
  std::vector<std::string> anchors;
  for (std::size_t i = 0; i < std::min<std::size_t>(4, prompts.size()); ++i) {
    anchors.push_back(generate(model, prompts[i], options));
  }

  bool outputs_equal = true;
  std::vector<std::string> first_outputs;
  std::vector<double> width_tps;
  for (const std::int64_t width : sizes.widths) {
    ServeConfig serve;
    serve.max_sessions = static_cast<std::size_t>(sizes.sessions);
    serve.max_batch = width;
    ServerStats stats;
    std::vector<std::string> outputs;
    const double seconds = best_seconds(sizes.reps, [&] {
      outputs = serve_all(model, serve, prompts, options, &stats);
    });
    const double tps = static_cast<double>(stats.step_tokens) / seconds;
    width_tps.push_back(tps);
    if (first_outputs.empty()) {
      first_outputs = outputs;
      for (std::size_t i = 0; i < anchors.size(); ++i) {
        if (outputs[i] != anchors[i]) outputs_equal = false;
      }
    } else if (outputs != first_outputs) {
      outputs_equal = false;
    }
    std::printf(
        "{\"bench\":\"serve_throughput\",\"batch\":%lld,\"sessions\":%d,"
        "\"step_tokens\":%lld,\"seconds\":%.3f,\"tokens_per_s\":%.1f,"
        "\"steps\":%lld}\n",
        static_cast<long long>(width), sizes.sessions,
        static_cast<long long>(stats.step_tokens), seconds, tps,
        static_cast<long long>(stats.steps));
  }

  // -- prefix cache: shared-header QA workload -------------------------------
  const FactBase facts;
  const auto items = build_openroad_eval(facts, 901, sizes.prefix_sessions);
  std::string header = "follow the openroad flow rules ";
  while (header.size() < sizes.header_chars) {
    header += "and answer from the retrieved timing context only ";
  }
  std::vector<std::string> qa_prompts;
  for (int i = 0; i < sizes.prefix_sessions; ++i) {
    const auto& item = items[static_cast<std::size_t>(i) % items.size()];
    qa_prompts.push_back(qa_prompt(
        header, {}, item.question + " [" + std::to_string(i) + "]"));
  }
  GenerateOptions qa_options;
  qa_options.max_new_tokens = sizes.prefix_max_new;

  std::vector<std::string> qa_anchors;
  for (std::size_t i = 0; i < std::min<std::size_t>(2, qa_prompts.size());
       ++i) {
    qa_anchors.push_back(generate(model, qa_prompts[i], qa_options));
  }

  ServeConfig prefix_serve;
  // A small residency window is what makes sharing possible: sessions
  // admitted later reuse the header KV that earlier sessions published.
  prefix_serve.max_sessions = 2;
  prefix_serve.max_batch = 2;
  prefix_serve.prefix_cache_bytes = std::size_t{1} << 26;
  ServerStats prefix_stats;
  Timer prefix_timer;
  const auto qa_outputs =
      serve_all(model, prefix_serve, qa_prompts, qa_options, &prefix_stats);
  const double prefix_seconds = prefix_timer.seconds();
  for (std::size_t i = 0; i < qa_anchors.size(); ++i) {
    if (qa_outputs[i] != qa_anchors[i]) outputs_equal = false;
  }
  const double hit_rate = prefix_stats.cache.hit_rate();
  std::printf(
      "{\"bench\":\"serve_prefix\",\"sessions\":%d,\"header_chars\":%zu,"
      "\"seconds\":%.3f,\"hit_rate\":%.4f,\"hit_tokens\":%lld,"
      "\"lookup_tokens\":%lld,\"evictions\":%lld}\n",
      sizes.prefix_sessions, sizes.header_chars, prefix_seconds, hit_rate,
      static_cast<long long>(prefix_stats.cache.hit_tokens),
      static_cast<long long>(prefix_stats.cache.lookup_tokens),
      static_cast<long long>(prefix_stats.cache.evictions));

  // -- quantized serving: int8 weights + fp16 KV -----------------------------
  // The production memory configuration: weights dequantize on the fly in
  // the batched kernels, the KV cache (per-session and radix) stores fp16
  // rows at half the bytes. Outputs can differ from the fp32 model's (it
  // is a different rounding of the same weights) but must be bitwise
  // identical run-to-run and to the quantized model's serial generate().
  TransformerModel qmodel =
      TransformerModel::from_checkpoint(model.to_checkpoint());
  qmodel.quantize_weights(DType::kI8);
  const std::int64_t quant_width = sizes.widths.back();
  ServeConfig quant_serve;
  quant_serve.max_sessions = static_cast<std::size_t>(sizes.sessions);
  quant_serve.max_batch = quant_width;
  quant_serve.kv_dtype = DType::kF16;
  ServerStats quant_stats;
  std::vector<std::string> quant_outputs;
  const double quant_seconds = best_seconds(sizes.reps, [&] {
    quant_outputs = serve_all(qmodel, quant_serve, prompts, options,
                              &quant_stats);
  });
  const double quant_tps =
      static_cast<double>(quant_stats.step_tokens) / quant_seconds;
  bool quant_deterministic =
      serve_all(qmodel, quant_serve, prompts, options, nullptr) ==
      quant_outputs;
  for (std::size_t i = 0; i < std::min<std::size_t>(2, prompts.size());
       ++i) {
    if (quant_outputs[i] != generate(qmodel, prompts[i], options)) {
      quant_deterministic = false;
    }
  }
  const std::size_t kv_row_f32 =
      SessionState::kv_bytes_for(config, 64, DType::kF32);
  const std::size_t kv_row_f16 =
      SessionState::kv_bytes_for(config, 64, DType::kF16);
  std::printf(
      "{\"bench\":\"serve_quant\",\"dtype\":\"int8\",\"kv_dtype\":\"f16\","
      "\"batch\":%lld,\"tokens_per_s\":%.1f,\"vs_fp32\":%.2f,"
      "\"deterministic\":%s,\"kv_bytes_f16_over_f32\":%.2f}\n",
      static_cast<long long>(quant_width), quant_tps,
      quant_tps / width_tps.back(), quant_deterministic ? "true" : "false",
      static_cast<double>(kv_row_f16) / static_cast<double>(kv_row_f32));

  // -- speculative serving: draft + verify for greedy sessions ---------------
  // Identity is the claim under test: with greedy acceptance, a served
  // session's bytes must not move when speculation is enabled — across the
  // throughput workload, the prefix-cache QA workload (drafting composes
  // with radix reuse: the cache only ever sees accepted prefixes), and the
  // quantized configuration. Throughput and acceptance are reported and
  // trend-tracked; identity misses are fatal.
  ServeConfig spec_serve;
  spec_serve.max_sessions = static_cast<std::size_t>(sizes.sessions);
  spec_serve.max_batch = quant_width;
  spec_serve.speculative = true;
  ServerStats spec_stats;
  std::vector<std::string> spec_outputs;
  const double spec_seconds = best_seconds(sizes.reps, [&] {
    spec_outputs = serve_all(model, spec_serve, prompts, options,
                             &spec_stats);
  });
  const double spec_tps =
      static_cast<double>(spec_stats.step_tokens) / spec_seconds;
  bool spec_outputs_equal = spec_outputs == first_outputs;
  std::printf(
      "{\"bench\":\"serve_spec\",\"batch\":%lld,\"tokens_per_s\":%.1f,"
      "\"vs_plain\":%.2f,\"accept_len\":%.2f,\"draft_hit_rate\":%.2f,"
      "\"outputs_equal\":%s}\n",
      static_cast<long long>(quant_width), spec_tps,
      spec_tps / width_tps.back(), spec_stats.spec.accept_len_mean(),
      spec_stats.spec.draft_hit_rate(),
      spec_outputs_equal ? "true" : "false");

  ServeConfig spec_prefix_serve = prefix_serve;
  spec_prefix_serve.speculative = true;
  ServerStats spec_prefix_stats;
  const auto spec_qa_outputs = serve_all(model, spec_prefix_serve,
                                         qa_prompts, qa_options,
                                         &spec_prefix_stats);
  if (spec_qa_outputs != qa_outputs) spec_outputs_equal = false;
  std::printf(
      "{\"bench\":\"serve_spec_prefix\",\"hit_rate\":%.4f,"
      "\"accept_len\":%.2f,\"draft_hit_rate\":%.2f,\"outputs_equal\":%s}\n",
      spec_prefix_stats.cache.hit_rate(),
      spec_prefix_stats.spec.accept_len_mean(),
      spec_prefix_stats.spec.draft_hit_rate(),
      spec_qa_outputs == qa_outputs ? "true" : "false");

  ServeConfig spec_quant_serve = quant_serve;
  spec_quant_serve.speculative = true;
  ServerStats spec_quant_stats;
  const auto spec_quant_outputs = serve_all(qmodel, spec_quant_serve,
                                            prompts, options,
                                            &spec_quant_stats);
  if (spec_quant_outputs != quant_outputs) spec_outputs_equal = false;
  std::printf(
      "{\"bench\":\"serve_spec_quant\",\"accept_len\":%.2f,"
      "\"draft_hit_rate\":%.2f,\"outputs_equal\":%s}\n",
      spec_quant_stats.spec.accept_len_mean(),
      spec_quant_stats.spec.draft_hit_rate(),
      spec_quant_outputs == quant_outputs ? "true" : "false");

  // -- request lifecycle: cancel/deadline/shed/drain -------------------------
  // Deterministic by construction: a fake millisecond clock, no driver
  // thread, no failpoints. The workload reuses the throughput prompts so
  // completed sessions can be pinned bitwise against `first_outputs`.
  const auto is_text_prefix = [](const std::string& full,
                                 const std::string& part) {
    return part.size() <= full.size() &&
           full.compare(0, part.size(), part) == 0;
  };
  bool drain_clean = true;
  long long lifecycle_completed = 0;
  long long lifecycle_cancelled = 0;
  long long lifecycle_expired = 0;
  long long lifecycle_shed = 0;
  {
    // Overload burst: bounded queue with the shed-oldest policy, no driver
    // running. The four oldest submissions are shed with explicit results;
    // the survivors complete.
    ServeConfig shed_serve;
    shed_serve.max_queue = 2;
    shed_serve.shed_oldest_on_full = true;
    Server shed_server(model, shed_serve);
    std::vector<SessionId> shed_ids;
    for (int i = 0; i < 6; ++i) {
      shed_ids.push_back(shed_server.submit(shed_server.text_request(
          prompts[static_cast<std::size_t>(i) % prompts.size()], options)));
    }
    shed_server.run();
    for (const SessionId id : shed_ids) {
      const auto result = shed_server.wait_result_for(id, 0);
      if (!result.has_value()) drain_clean = false;
    }
    const ServerStats shed_stats = shed_server.stats();
    lifecycle_shed = shed_stats.shed;
    if (shed_stats.shed != 4 || shed_stats.completed != 2) {
      drain_clean = false;
    }
  }
  {
    auto fake_ms = std::make_shared<std::atomic<std::int64_t>>(0);
    ServeConfig life_serve;
    life_serve.max_sessions = 4;
    life_serve.max_batch = 4;
    life_serve.prefix_cache_bytes = std::size_t{1} << 26;
    life_serve.now_ms = [fake_ms] { return fake_ms->load(); };
    Server server(model, life_serve);
    const int life_sessions = std::min<int>(sizes.sessions, 16);
    std::vector<SessionId> ids;
    for (int i = 0; i < life_sessions; ++i) {
      Request request = server.text_request(
          prompts[static_cast<std::size_t>(i)], options);
      if (i % 4 == 2) request.deadline_ms = 5;
      const SessionId id = server.submit(std::move(request));
      ids.push_back(id);
      if (i % 4 == 1) server.cancel(id);  // cancelled while queued
    }
    // Decode past prefill so resident deadlined sessions are evicted
    // mid-stream (token granularity). One step after the clock advance
    // expires both residents (mid-decode) and queued deadlined sessions
    // (queue sweep) before the drain flushes the rest as kShuttingDown.
    const std::int64_t warm_steps = static_cast<std::int64_t>(
        server.text_request(prompts[0], options).prompt.size() + 1);
    for (std::int64_t s = 0; s < warm_steps && server.step(); ++s) {
    }
    fake_ms->fetch_add(10);
    server.step();
    server.drain();
    server.run();

    for (int i = 0; i < life_sessions; ++i) {
      const auto result =
          server.wait_result_for(ids[static_cast<std::size_t>(i)], 0);
      if (!result.has_value()) {
        drain_clean = false;
        continue;
      }
      if (result->status == SessionStatus::kCompleted) {
        if (result->text != first_outputs[static_cast<std::size_t>(i)]) {
          drain_clean = false;
        }
      } else if (!is_text_prefix(first_outputs[static_cast<std::size_t>(i)],
                                 result->text)) {
        drain_clean = false;
      }
    }
    const ServerStats stats = server.stats();
    lifecycle_completed = stats.completed;
    lifecycle_cancelled = stats.cancelled;
    lifecycle_expired = stats.expired;
    const bool balanced =
        stats.submitted == stats.completed + stats.cancelled +
                               stats.expired + stats.shed +
                               stats.shutdown_terminated + stats.failed +
                               stats.waiting + stats.resident;
    if (!balanced || stats.waiting != 0 || stats.resident != 0 ||
        stats.resident_kv_bytes != 0 || stats.cache.pinned_nodes != 0 ||
        stats.expired == 0 || stats.cancelled == 0) {
      drain_clean = false;
    }
    std::printf(
        "{\"bench\":\"serve_lifecycle\",\"sessions\":%d,\"completed\":%lld,"
        "\"cancelled\":%lld,\"expired\":%lld,\"shed\":%lld,"
        "\"shutdown_terminated\":%lld,\"drain_clean\":%s}\n",
        life_sessions, static_cast<long long>(stats.completed),
        static_cast<long long>(stats.cancelled),
        static_cast<long long>(stats.expired), lifecycle_shed,
        static_cast<long long>(stats.shutdown_terminated),
        drain_clean ? "true" : "false");
  }

  // -- gates -----------------------------------------------------------------
  double scaling = 1e300;
  for (std::size_t i = 1; i < width_tps.size() && sizes.widths[i] <= 16;
       ++i) {
    scaling = std::min(scaling, width_tps[i] / width_tps[i - 1]);
  }
  std::vector<GateResult> gates;
  gates.push_back({"serve_batch_scaling", scaling, 1.0, false, {}});
  if (std::thread::hardware_concurrency() < 2) {
    gates.back().skipped = true;
    gates.back().skip_reason = "1 core";
  }
  gates.push_back({"serve_prefix_hit", hit_rate, 0.90, false, {}});

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_serve: cannot write %s\n", json_path);
      return 2;
    }
    std::fprintf(f,
                 "{\n  \"backend\": \"%s\",\n  \"nproc\": %u,\n"
                 "  \"quick\": %s,\n",
                 kernels::backend_name(), std::thread::hardware_concurrency(),
                 quick ? "true" : "false");
    for (std::size_t i = 0; i < sizes.widths.size(); ++i) {
      std::fprintf(f, "  \"tokens_per_s_batch%lld\": %.1f,\n",
                   static_cast<long long>(sizes.widths[i]), width_tps[i]);
    }
    std::fprintf(f,
                 "  \"batch_scaling\": %.3f,\n"
                 "  \"prefix_hit_rate\": %.4f,\n"
                 "  \"prefix_seconds\": %.3f,\n"
                 "  \"tokens_per_s_quant\": %.1f,\n"
                 "  \"quant_deterministic\": %s,\n"
                 "  \"tokens_per_s_spec\": %.1f,\n"
                 "  \"spec_accept_len\": %.4f,\n"
                 "  \"spec_draft_hit_rate\": %.4f,\n"
                 "  \"spec_prefix_accept_len\": %.4f,\n"
                 "  \"spec_prefix_draft_hit_rate\": %.4f,\n"
                 "  \"spec_quant_accept_len\": %.4f,\n"
                 "  \"spec_quant_draft_hit_rate\": %.4f,\n"
                 "  \"spec_outputs_equal\": %s,\n"
                 "  \"outputs_equal\": %s,\n"
                 "  \"lifecycle_completed\": %lld,\n"
                 "  \"lifecycle_cancelled\": %lld,\n"
                 "  \"lifecycle_expired\": %lld,\n"
                 "  \"lifecycle_shed\": %lld,\n"
                 "  \"drain_clean\": %s,\n",
                 scaling, hit_rate, prefix_seconds, quant_tps,
                 quant_deterministic ? "true" : "false", spec_tps,
                 spec_stats.spec.accept_len_mean(),
                 spec_stats.spec.draft_hit_rate(),
                 spec_prefix_stats.spec.accept_len_mean(),
                 spec_prefix_stats.spec.draft_hit_rate(),
                 spec_quant_stats.spec.accept_len_mean(),
                 spec_quant_stats.spec.draft_hit_rate(),
                 spec_outputs_equal ? "true" : "false",
                 outputs_equal ? "true" : "false", lifecycle_completed,
                 lifecycle_cancelled, lifecycle_expired, lifecycle_shed,
                 drain_clean ? "true" : "false");
    write_gates_json(f, gates);
    std::fprintf(f, "}\n");
    std::fclose(f);
  }

  // A serving engine that changes any session's bits is broken, not slow.
  if (!outputs_equal) {
    std::fprintf(stderr,
                 "bench_serve: FAILED (batched outputs differ across widths "
                 "or from serial generate)\n");
    return 1;
  }
  if (!quant_deterministic) {
    std::fprintf(stderr,
                 "bench_serve: FAILED (quantized serving outputs not "
                 "bitwise deterministic)\n");
    return 1;
  }
  if (!spec_outputs_equal) {
    std::fprintf(stderr,
                 "bench_serve: FAILED (speculative serving outputs differ "
                 "from non-speculative serving)\n");
    return 1;
  }
  if (!drain_clean) {
    std::fprintf(stderr,
                 "bench_serve: FAILED (lifecycle drain left residue, "
                 "unterminated sessions, or non-reference outputs)\n");
    return 1;
  }

  if (gate) {
    bool ok = true;
    for (const GateResult& g : gates) {
      print_gate(g);
      if (!g.pass()) {
        std::fprintf(stderr, "GATE MISS: %s %.2f < required %.2f\n",
                     g.name.c_str(), g.value, g.floor);
        ok = false;
      }
    }
    if (!ok) {
      std::fprintf(stderr, "bench_serve: FAILED (serving gate)\n");
      return 1;
    }
    std::printf("{\"gate\":\"pass\"}\n");
  }
  return 0;
}
