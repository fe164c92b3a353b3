// The two workloads. Each one: timed set-up (median of several complete
// set-ups), an untimed warm-up where it applies, the measured phase, then
// the untimed correctness oracle. See perfbench/README.md for why each
// workload exists and what it bypasses.

#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/corpus.hpp"
#include "eval/metrics.hpp"
#include "merge/geodesic.hpp"
#include "model/checkpoint.hpp"
#include "nn/infer.hpp"
#include "nn/transformer.hpp"
#include "rag/retrieval.hpp"
#include "serve/server.hpp"
#include "serve_driver.hpp"
#include "stream/streaming_merge.hpp"
#include "stream/tensor_source.hpp"
#include "tensor/kernels/kernels.hpp"
#include "trace.hpp"
#include "util/mem_probe.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace chipalign;

namespace {

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

/// Work per decode row and weight bytes per forward pass, computed from the
/// model's matrix shapes and the weight dtype (matmul work only; attention
/// over the KV cache is not counted). These are computed, not measured.
struct WorkModel {
  double flops_per_row = 0.0;
  double weight_bytes = 0.0;
};

WorkModel work_model(const ModelConfig& c, DType weights) {
  const double d = static_cast<double>(c.d_model);
  const double kv = static_cast<double>(c.n_kv_heads * c.head_dim());
  const double ff = static_cast<double>(c.d_ff);
  const double vocab = static_cast<double>(c.vocab_size);
  const double layers = static_cast<double>(c.n_layers);
  // q, k, v, o, gate, up, down per layer, plus the tied [vocab, d] head.
  const double params =
      layers * (2 * d * d + 2 * kv * d + 3 * d * ff) + vocab * d;
  const double out_rows = layers * (3 * d + 2 * kv + 2 * ff) + vocab;
  WorkModel w;
  w.flops_per_row = 2.0 * params;
  w.weight_bytes = weights == DType::kI8 ? params + 4.0 * out_rows
                                         : params * dtype_size(weights);
  return w;
}

/// Serving measurements accumulated over one or more drive() calls.
struct ServeAccum {
  std::vector<StepRecord> steps;
  std::vector<double> submit_us;
  std::vector<double> lag_ms;
  LatencySamples latency;
  double span_ms = 0.0;
  double busy_ms = 0.0;
  double output_tokens = 0.0;
  double prompt_tokens = 0.0;
  double cached_tokens = 0.0;
  std::int64_t sent = 0;
  std::int64_t completed = 0;
  SpecDecodeStats spec;
  std::int64_t lookup_tokens = 0;
  std::int64_t hit_tokens = 0;
  std::int64_t evictions = 0;
  /// Per request sent, in order: completed, TTFT and mean inter-token gap.
  std::vector<bool> req_completed;
  std::vector<double> req_ttft_ms;
  std::vector<double> req_itl_ms;

  void add(const DriveResult& r, const ServerStats& before) {
    steps.insert(steps.end(), r.steps.begin(), r.steps.end());
    submit_us.insert(submit_us.end(), r.submit_us.begin(),
                     r.submit_us.end());
    lag_ms.insert(lag_ms.end(), r.lag_ms.begin(), r.lag_ms.end());
    latency.add(r);
    span_ms += r.span_ms;
    busy_ms += r.busy_ms;
    for (const RequestRecord& rec : r.requests) {
      if (!rec.sent()) continue;
      ++sent;
      req_completed.push_back(rec.completed);
      std::vector<double> itl;
      rec.itl_samples(itl);
      req_ttft_ms.push_back(rec.completed ? rec.ttft_ms() : 0.0);
      req_itl_ms.push_back(mean(itl));
      if (!rec.completed) continue;
      ++completed;
      output_tokens += static_cast<double>(rec.output_tokens());
      prompt_tokens += static_cast<double>(rec.prompt_tokens);
      cached_tokens += static_cast<double>(rec.cached_tokens);
    }
    spec.verify_passes +=
        r.stats.spec.verify_passes - before.spec.verify_passes;
    spec.drafted += r.stats.spec.drafted - before.spec.drafted;
    spec.accepted += r.stats.spec.accepted - before.spec.accepted;
    spec.emitted += r.stats.spec.emitted - before.spec.emitted;
    lookup_tokens += r.stats.cache.lookup_tokens - before.cache.lookup_tokens;
    hit_tokens += r.stats.cache.hit_tokens - before.cache.hit_tokens;
    evictions += r.stats.cache.evictions - before.cache.evictions;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Share of requests sent that completed with a correct output within both
/// latency limits; `wrong[i]` marks requests whose output the oracle
/// rejected. Failed and refused requests count as misses.
double slo_attainment(const ServeAccum& a, double ttft_slo, double itl_slo,
                      const std::vector<bool>& wrong) {
  std::int64_t met = 0;
  for (std::size_t i = 0; i < a.req_completed.size(); ++i) {
    if (a.req_completed[i] && !wrong[i] && a.req_ttft_ms[i] <= ttft_slo &&
        a.req_itl_ms[i] <= itl_slo) {
      ++met;
    }
  }
  return ratio(static_cast<double>(met), static_cast<double>(a.sent));
}

/// Latency and throughput metrics every workload reports.
void latency_metrics(const ServeAccum& a, RunReport& out) {
  const LatencySamples& l = a.latency;
  out.e2e["ttft_p50_ms"] = quantile(l.ttft_ms, 0.5);
  out.e2e["ttft_p90_ms"] = quantile(l.ttft_ms, 0.9);
  out.e2e["itl_p50_ms"] = quantile(l.itl_ms, 0.5);
  out.e2e["itl_p90_ms"] = quantile(l.itl_ms, 0.9);
  out.e2e["latency_p50_ms"] = quantile(l.latency_ms, 0.5);
  out.e2e["latency_p90_ms"] = quantile(l.latency_ms, 0.9);
  out.e2e["output_tokens_per_s"] = ratio(a.output_tokens, a.span_ms * 1e-3);
  out.layers["samples.ttft"] = static_cast<double>(l.ttft_ms.size());
  out.layers["samples.itl"] = static_cast<double>(l.itl_ms.size());
  out.layers["samples.latency"] = static_cast<double>(l.latency_ms.size());
}

/// Per-layer serve and tensor metrics.
void serve_layer_metrics(const ServeAccum& a, const WorkModel& work,
                         RunReport& out) {
  std::vector<double> wall;
  double wall_ms = 0.0;
  double rows = 0.0;
  double emitted = 0.0;
  double waiting = 0.0;
  double streams = 0.0;
  double computed_rows = 0.0;
  for (const StepRecord& s : a.steps) {
    wall.push_back(s.wall_ms);
    wall_ms += s.wall_ms;
    rows += static_cast<double>(s.rows);
    emitted += static_cast<double>(s.emitted);
    waiting += static_cast<double>(s.waiting);
    // Rows on the plain batched path share one weight pass; every
    // speculative verify pass streams the weights once more, and computes
    // its rejected draft rows too.
    const std::int64_t plain = s.rows - (s.verify_passes + s.spec_accepted);
    streams += static_cast<double>((plain > 0 ? 1 : 0) + s.verify_passes);
    computed_rows +=
        static_cast<double>(s.rows - s.spec_accepted + s.drafted);
  }
  const double steps = static_cast<double>(a.steps.size());
  auto& m = out.layers;
  m["serve.step_ms_p50"] = quantile(wall, 0.5);
  m["serve.step_ms_p90"] = quantile(wall, 0.9);
  m["serve.us_per_row"] = ratio(wall_ms * 1e3, rows);
  m["serve.rows_per_step"] = ratio(rows, steps);
  m["serve.prefill_row_frac"] = ratio(rows - emitted, rows);
  m["serve.busy_frac"] = ratio(wall_ms, a.span_ms);
  m["serve.queue_depth_mean"] = ratio(waiting, steps);
  m["serve.prefix_hit_rate"] = ratio(static_cast<double>(a.hit_tokens),
                                     static_cast<double>(a.lookup_tokens));
  m["serve.cached_prompt_frac"] = ratio(a.cached_tokens, a.prompt_tokens);
  m["serve.prefix_evictions"] = static_cast<double>(a.evictions);
  m["serve.spec_accept_len"] = a.spec.accept_len_mean();
  m["serve.spec_draft_hit_rate"] = a.spec.draft_hit_rate();
  m["serve.submit_us_p50"] = quantile(a.submit_us, 0.5);
  m["tensor.weight_mb_per_row"] =
      ratio(mib(streams * work.weight_bytes), computed_rows);
  m["tensor.gflops_achieved"] =
      ratio(computed_rows * work.flops_per_row * 1e-9, wall_ms * 1e-3);
  m["gen.lag_ms_p90"] = quantile(a.lag_ms, 0.9);
}

/// Kernel probe (traced runs only): the model's widest projection as one
/// matmul_nt over the workload's mean rows per step, in the served weight
/// dtype.
/// Gives the achieved-versus-attainable context for tensor.gflops_achieved.
double matmul_probe_gflops(const ModelConfig& c, DType weights,
                           std::int64_t rows) {
  ScopedSpan span("tensor.matmul_nt_probe");
  const std::int64_t m = c.d_ff;
  const std::int64_t k = c.d_model;
  const std::int64_t n = std::max<std::int64_t>(1, rows);
  Rng rng(0x9B0BEULL);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(n * k));
  for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<std::int8_t> q(a.size());
  std::vector<float> scales(static_cast<std::size_t>(m), 1.0F / 127.0F);
  for (std::size_t i = 0; i < a.size(); ++i) {
    q[i] = static_cast<std::int8_t>(a[i] * 127.0F);
  }
  std::vector<float> c_out(static_cast<std::size_t>(m * n));
  std::int64_t calls = 0;
  const std::int64_t t0 = now_ns();
  while (seconds_since(t0) < 0.25) {
    if (weights == DType::kI8) {
      kernels::matmul_nt_i8(q.data(), scales.data(), b.data(), c_out.data(),
                            m, k, n);
    } else {
      kernels::matmul_nt(a.data(), b.data(), c_out.data(), m, k, n);
    }
    ++calls;
  }
  return 2.0 * static_cast<double>(m * k * n * calls) * 1e-9 /
         seconds_since(t0);
}

Json fingerprint_base(const Json& config, const std::string& workload,
                      const ModelConfig& shape, const std::string& work_dir,
                      const std::string& fixture_dir) {
  Json f = Json::object();
  f.set("workload", workload);
  f.set("nproc",
        static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  f.set("kernel_backend", kernels::backend_name());
  f.set("global_pool_threads",
        static_cast<std::int64_t>(global_thread_pool().size()));
  f.set("serve_attention_pool_threads", std::int64_t{1});
  Json model = Json::object();
  model.set("d_model", shape.d_model);
  model.set("n_layers", shape.n_layers);
  model.set("n_heads", shape.n_heads);
  model.set("n_kv_heads", shape.n_kv_heads);
  model.set("d_ff", shape.d_ff);
  model.set("vocab", shape.vocab_size);
  model.set("max_seq_len", shape.max_seq_len);
  f.set("model", model);
  f.set("workload_config", config.at(workload));
  f.set("run_dir_fs", filesystem_name(work_dir));
  f.set("fixture_dir_fs", filesystem_name(fixture_dir));
  return f;
}

/// Server sized so every client's request is resident and in every step:
/// the load, not admission control, sets the batch.
ServeConfig serve_config(std::size_t clients) {
  ServeConfig cfg;
  cfg.max_sessions = clients;
  cfg.max_batch = static_cast<std::int64_t>(clients);
  // Per-session attention runs inline on the driver thread (a one-worker
  // pool runs parallel_for inline). Fanning sub-millisecond attention out
  // to the shared pool made step times depend on how fast the host woke
  // idle workers, which dominated the run-to-run spread.
  static ThreadPool inline_pool(1);
  cfg.pool = &inline_pool;
  return cfg;
}

/// Shared instruction header of every rag_qa prompt (the role of the
/// Figure-5 instruction block all OpenROAD QA items carry).
std::string rag_header(std::size_t chars) {
  std::string header = "follow the openroad flow rules ";
  while (header.size() < chars) {
    header += "and answer from the retrieved context only ";
  }
  return header;
}

// -- rag_qa: clients asking retrieval-augmented questions -------------------

RunReport run_rag_qa(const Json& config, const std::string& fixture_dir,
                     const std::string& work_dir, double seconds,
                     bool traced) {
  const Json& w = config.at("rag_qa");
  const Json requests = read_json(fixture_dir + "/requests.json");
  const auto clients = static_cast<std::size_t>(w.at("clients").as_int());
  ServeConfig base_cfg = serve_config(clients);
  base_cfg.kv_dtype = DType::kF16;
  base_cfg.prefix_cache_bytes =
      static_cast<std::size_t>(w.at("prefix_cache_mb").as_int()) << 20;
  const DType weights = DType::kI8;
  const std::string model_path = fixture_dir + "/model.safetensors";
  RetrievalConfig rcfg;
  rcfg.ann_nprobe = static_cast<std::size_t>(w.at("ann_nprobe").as_int());

  RunReport out;
  // -- set-up: what a user pays before the first request -------------------
  std::unique_ptr<TransformerModel> model;
  std::unique_ptr<RetrievalPipeline> index;
  std::unique_ptr<Server> server;
  std::vector<double> setup_s, load_s, quant_s, index_s;
  const auto reps = w.at("setup_reps").as_int();
  for (std::int64_t r = 0; r < reps; ++r) {
    server.reset();
    index.reset();
    model.reset();
    ScopedSpan setup_span("bench.setup");
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span("model.load");
      const Checkpoint checkpoint = Checkpoint::load(model_path);
      model = std::make_unique<TransformerModel>(
          TransformerModel::from_checkpoint(checkpoint));
    }
    load_s.push_back(seconds_since(t0));
    const std::int64_t tq = now_ns();
    {
      ScopedSpan span("model.quantize");
      model->quantize_weights(weights);
    }
    quant_s.push_back(seconds_since(tq));
    const std::int64_t ti = now_ns();
    {
      ScopedSpan span("rag.index_load");
      index = std::make_unique<RetrievalPipeline>(
          RetrievalPipeline::load(fixture_dir + "/index.rag", rcfg));
    }
    index_s.push_back(seconds_since(ti));
    {
      ScopedSpan span("serve.construct");
      server = std::make_unique<Server>(*model, base_cfg);
    }
    setup_s.push_back(seconds_since(t0));
  }
  out.e2e["setup_s"] = median(setup_s);
  out.layers["model.load_s"] = median(load_s);
  out.layers["model.quantize_s"] = median(quant_s);
  out.layers["rag.index_load_s"] = median(index_s);

  // -- request construction at submit time ----------------------------------
  const std::string header =
      rag_header(static_cast<std::size_t>(w.at("header_chars").as_int()));
  const auto top_k = static_cast<std::size_t>(w.at("top_k").as_int());
  GenerateOptions options;
  options.max_new_tokens = w.at("max_new_tokens").as_int();
  std::vector<std::string> prompts(requests.size());
  std::vector<double> retrieve_ms, encode_us;
  const auto make = [&](std::size_t i, std::int64_t trace_id) {
    const std::string& question = requests.at(i).at("question").as_string();
    std::vector<std::string> contexts;
    const std::int64_t tr = now_ns();
    {
      ScopedSpan span("rag.retrieve", trace_id);
      contexts = index->retrieve_texts(question, top_k);
    }
    retrieve_ms.push_back(seconds_since(tr) * 1e3);
    prompts[i] = qa_prompt(header, contexts, question);
    const std::int64_t t0 = now_ns();
    Request request;
    {
      ScopedSpan span("text.encode", trace_id);
      request = server->text_request(prompts[i], options, true);
    }
    encode_us.push_back(seconds_since(t0) * 1e6);
    return request;
  };

  std::vector<std::size_t> warm_idx, measure_idx;
  LoadPlan plan;
  plan.clients = clients;
  plan.deadline_ms = seconds * 1e3;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const double think = requests.at(i).at("think_ms").as_double();
    if (think < 0.0) {
      warm_idx.push_back(i);
    } else {
      measure_idx.push_back(i);
      plan.think_ms.push_back(think);
    }
  }

  // -- warm-up (untimed): first-touch pages, and for rag_qa the shared
  // header's KV in the prefix cache, as on a server already running. --
  {
    ScopedSpan span("bench.warmup");
    LoadPlan warm_plan;
    warm_plan.clients = warm_idx.size();
    warm_plan.think_ms.assign(warm_idx.size(), 0.0);
    const DriveResult warm = drive(
        *server, warm_plan,
        [&](std::size_t j) {
          return make(warm_idx[j], 1'000'000 + static_cast<std::int64_t>(j));
        },
        1'000'000);
    std::int64_t ok = 0;
    for (const RequestRecord& rec : warm.requests) ok += rec.completed;
    out.layers["warmup.requests_sent"] = static_cast<double>(warm_idx.size());
    out.layers["warmup.requests_ok"] = static_cast<double>(ok);
    out.layers["warmup.requests_failed"] =
        static_cast<double>(warm_idx.size()) - static_cast<double>(ok);
  }
  retrieve_ms.clear();
  encode_us.clear();

  // -- measured: the clients send until the run's time is up ----------------
  ServeAccum acc;
  DriveResult result;
  {
    ScopedSpan span("bench.measure");
    const ServerStats before = server->stats();
    result = drive(*server, plan, [&](std::size_t j) {
      return make(measure_idx[j], static_cast<std::int64_t>(j));
    });
    acc.add(result, before);
  }
  out.us_per_token = ratio(acc.busy_ms * 1e3, acc.output_tokens);
  out.e2e["peak_rss_mb"] = mib(static_cast<double>(peak_rss_bytes()));

  // Requests actually sent, in index order (the plan holds more than a
  // run can send, so the clients never run out).
  std::vector<std::size_t> sent;
  for (std::size_t j = 0; j < result.requests.size(); ++j) {
    if (result.requests[j].sent()) sent.push_back(j);
  }
  if (sent.size() == result.requests.size()) {
    throw std::runtime_error("request pool exhausted before the deadline");
  }

  // -- oracle (untimed): a fixed, evenly spaced sample of served outputs
  // against a serial reference over the same weights and KV dtype. --
  std::vector<bool> mismatch(sent.size(), false);
  {
    ScopedSpan span("bench.oracle");
    const auto sample =
        static_cast<std::size_t>(w.at("oracle_sample").as_int());
    const std::size_t k = std::min(sample, sent.size());
    ServeConfig ref_cfg;  // width-1, no prefix cache: the serial decode path
    ref_cfg.max_sessions = 1;
    ref_cfg.max_batch = 1;
    ref_cfg.kv_dtype = base_cfg.kv_dtype;
    Server reference(*model, ref_cfg);
    for (std::size_t s = 0; s < k; ++s) {
      const std::size_t pos = s * sent.size() / k;
      const std::size_t i = measure_idx[sent[pos]];
      const RequestRecord& rec = result.requests[sent[pos]];
      const SessionId id =
          reference.submit(reference.text_request(prompts[i], options, true));
      reference.run();
      ++out.checked;
      if (rec.completed && rec.text == reference.wait_result(id).text) {
        ++out.matched;
      } else {
        mismatch[pos] = true;
      }
    }
  }
  out.layers["oracle.requests_sent"] = static_cast<double>(out.checked);
  out.layers["oracle.requests_ok"] = static_cast<double>(out.matched);
  out.layers["oracle.requests_failed"] =
      static_cast<double>(out.checked - out.matched);

  // -- end-to-end metrics -----------------------------------------------------
  latency_metrics(acc, out);
  out.e2e["job_s"] = acc.span_ms * 1e-3;
  std::int64_t failed = 0;
  for (std::size_t pos = 0; pos < sent.size(); ++pos) {
    if (!result.requests[sent[pos]].completed || mismatch[pos]) ++failed;
  }
  out.attempted = static_cast<std::int64_t>(sent.size());
  out.failed = failed;
  out.e2e["slo_attainment"] =
      slo_attainment(acc, w.at("ttft_slo_ms").as_double(),
                     w.at("itl_slo_ms").as_double(), mismatch);
  out.e2e["exact_match"] = ratio(static_cast<double>(out.matched),
                                 static_cast<double>(out.checked));
  out.layers["measure.requests_sent"] = static_cast<double>(out.attempted);
  out.layers["measure.requests_ok"] =
      static_cast<double>(out.attempted - failed);
  out.layers["measure.requests_failed"] = static_cast<double>(failed);

  // -- per-layer --------------------------------------------------------------
  const WorkModel work = work_model(model->config(), weights);
  serve_layer_metrics(acc, work, out);
  out.layers["rag.retrieve_ms_p50"] = quantile(retrieve_ms, 0.5);
  out.layers["rag.retrieve_ms_p90"] = quantile(retrieve_ms, 0.9);
  out.layers["text.encode_us_p50"] = quantile(encode_us, 0.5);
  for (const char* key :
       {"stream.merge_s", "stream.read_s", "stream.merge_busy_s",
        "stream.write_s", "stream.max_inflight_mb", "stream.merge_mb_per_s",
        "eval.score_s"}) {
    out.layers[key] = 0.0;  // this workload does not merge or score
  }
  if (traced) {
    out.layers["tensor.probe_gflops"] = matmul_probe_gflops(
        model->config(), weights,
        static_cast<std::int64_t>(out.layers["serve.rows_per_step"] + 0.5));
  }

  out.fingerprint = fingerprint_base(config, "rag_qa", model->config(),
                                     work_dir, fixture_dir);
  out.fingerprint.set("weight_dtype", dtype_name(weights));
  out.fingerprint.set("kv_dtype", dtype_name(base_cfg.kv_dtype));
  out.fingerprint.set("prefix_cache", true);
  out.fingerprint.set("speculative", false);
  return out;
}

// -- lambda_sweep: the Fig. 8 merge -> load -> serve -> score job ------------

RunReport run_lambda_sweep(const Json& config, const std::string& fixture_dir,
                           const std::string& work_dir, double seconds,
                           bool traced) {
  const Json& w = config.at("lambda_sweep");
  std::vector<double> lambdas;
  for (std::size_t i = 0; i < w.at("lambdas").size(); ++i) {
    lambdas.push_back(w.at("lambdas").at(i).as_double());
  }
  const auto oracle_step =
      static_cast<std::size_t>(w.at("oracle_lambda_index").as_int());
  const std::string chip_dir = fixture_dir + "/chip";
  const std::string instruct_dir = fixture_dir + "/instruct";

  // Threads: io readers + merge pool + the in-order writer stay within
  // nproc (the calling thread only waits).
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t io_threads = 1;
  const std::size_t merge_threads = std::max<std::size_t>(1, nproc - 2);
  ThreadPool merge_pool(merge_threads);

  RunReport out;
  // -- set-up: open and validate both sharded sources, read the eval set ---
  std::unique_ptr<ShardedTensorSource> chip, instruct;
  Json eval;
  std::vector<double> setup_s;
  for (std::int64_t r = 0; r < w.at("setup_reps").as_int(); ++r) {
    chip.reset();
    instruct.reset();
    ScopedSpan span("bench.setup");
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan open("stream.open");
      chip = std::make_unique<ShardedTensorSource>(
          ShardedTensorSource::open(chip_dir));
      instruct = std::make_unique<ShardedTensorSource>(
          ShardedTensorSource::open(instruct_dir));
      check_sources_mergeable(*chip, *instruct);
    }
    eval = read_json(fixture_dir + "/eval.json");
    setup_s.push_back(seconds_since(t0));
  }
  out.e2e["setup_s"] = median(setup_s);

  std::vector<std::string> prompts, references;
  for (std::size_t i = 0; i < eval.size(); ++i) {
    prompts.push_back(eval.at(i).at("prompt").as_string());
    references.push_back(eval.at(i).at("reference").as_string());
  }
  const std::int64_t max_new = w.at("max_new_tokens").as_int();
  ServeConfig cfg = serve_config(prompts.size());
  cfg.speculative = true;
  cfg.draft_k = w.at("draft_k").as_int();
  StreamingMergeConfig mcfg;
  mcfg.shard_size_bytes =
      static_cast<std::uint64_t>(w.at("shard_mb").as_int()) << 20;
  mcfg.io_threads = io_threads;
  mcfg.pool = &merge_pool;
  mcfg.log_every = 0;
  const GeodesicMerger merger;
  LoadPlan batch;  // the whole eval set at once: one request per client
  batch.clients = prompts.size();
  batch.think_ms.assign(prompts.size(), 0.0);
  const auto merged_dir = [&](std::size_t step) {
    return work_dir + "/merged-" + std::to_string(step);
  };

  // -- measured: whole sweeps back to back for the run's duration ---------
  ServeAccum acc;
  std::vector<double> job_s, merge_s, read_s, merge_busy_s, write_s, load_s,
      score_s, encode_us;
  double merge_bytes = 0.0;
  double merge_seconds = 0.0;
  double max_inflight = 0.0;
  std::vector<double> rouge(lambdas.size(), 0.0);
  std::vector<std::vector<std::string>> served(lambdas.size());
  std::int64_t failed = 0;
  std::int64_t job = 0;
  const std::int64_t run_t0 = now_ns();
  ScopedSpan measure_span("bench.measure");
  while (job == 0 || seconds_since(run_t0) + median(job_s) <= seconds) {
    for (std::size_t s = 0; s < lambdas.size(); ++s) {
      std::filesystem::remove_all(merged_dir(s));
    }
    const std::int64_t job_t0 = now_ns();
    for (std::size_t s = 0; s < lambdas.size(); ++s) {
      MergeOptions options;
      options.lambda = lambdas[s];
      StreamingMergeReport report;
      {
        ScopedSpan span("stream.merge");
        report = merge_streaming(merger, *chip, *instruct, nullptr, options,
                                 mcfg, merged_dir(s));
      }
      merge_s.push_back(report.seconds);
      read_s.push_back(report.read_seconds);
      merge_busy_s.push_back(report.merge_seconds);
      write_s.push_back(report.write_seconds);
      merge_bytes += static_cast<double>(report.bytes_written);
      merge_seconds += report.seconds;
      max_inflight = std::max(
          max_inflight,
          static_cast<double>(report.max_inflight_bytes_observed));

      const std::int64_t tl = now_ns();
      std::unique_ptr<TransformerModel> model;
      {
        ScopedSpan span("model.load");
        Checkpoint checkpoint;
        {
          ScopedSpan read("stream.load");
          checkpoint = load_sharded_checkpoint(report.index_path);
        }
        model = std::make_unique<TransformerModel>(
            TransformerModel::from_checkpoint(checkpoint));
      }
      load_s.push_back(seconds_since(tl));

      std::unique_ptr<Server> server;
      {
        ScopedSpan span("serve.construct");
        server = std::make_unique<Server>(*model, cfg);
      }
      const std::int64_t trace_base =
          job * 1'000'000 + static_cast<std::int64_t>(s) * 10'000;
      const ServerStats before = server->stats();
      const DriveResult result = drive(
          *server, batch,
          [&](std::size_t i) {
            GenerateOptions options;
            options.max_new_tokens = max_new;
            const std::int64_t t0 = now_ns();
            Request request;
            {
              ScopedSpan span("text.encode",
                              trace_base + static_cast<std::int64_t>(i));
              request = server->text_request(prompts[i], options, true);
            }
            encode_us.push_back(seconds_since(t0) * 1e6);
            return request;
          },
          trace_base);
      acc.add(result, before);

      const std::int64_t ts = now_ns();
      std::vector<std::string>& texts = served[s];
      texts.assign(prompts.size(), std::string());
      {
        ScopedSpan span("eval.score");
        double total = 0.0;
        for (std::size_t i = 0; i < prompts.size(); ++i) {
          const RequestRecord& rec = result.requests[i];
          if (!rec.completed) ++failed;
          texts[i] = rec.text;
          total += rouge_l(rec.text, references[i]);
        }
        rouge[s] = total / static_cast<double>(prompts.size());
      }
      score_s.push_back(seconds_since(ts));
    }
    job_s.push_back(seconds_since(job_t0));
    ++job;
  }
  measure_span.end();
  double job_total = 0.0;
  for (const double j : job_s) job_total += j;
  out.us_per_token = ratio(job_total * 1e6, acc.output_tokens);
  out.e2e["peak_rss_mb"] = mib(static_cast<double>(peak_rss_bytes()));

  // -- oracle (untimed) -------------------------------------------------------
  // 1. The streamed merge at one lambda equals the in-memory merge byte for
  //    byte. 2. A sample of that step's served outputs equals serial
  //    non-speculative generate() on the merged weights.
  std::int64_t mismatches = 0;
  std::vector<bool> wrong(acc.req_completed.size(), false);
  {
    ScopedSpan span("bench.oracle");
    MergeOptions options;
    options.lambda = lambdas[oracle_step];
    const Checkpoint in_memory = merge_checkpoints(
        merger, load_sharded_checkpoint(chip_dir),
        load_sharded_checkpoint(instruct_dir), nullptr, options);
    const Checkpoint streamed =
        load_sharded_checkpoint(merged_dir(oracle_step));
    bool same = streamed.names() == in_memory.names();
    for (const auto& [tensor_name, tensor] : in_memory.tensors()) {
      if (!same) break;
      const Tensor& other = streamed.at(tensor_name);
      same = other.shape() == tensor.shape() &&
             std::memcmp(other.data(), tensor.data(),
                         static_cast<std::size_t>(tensor.numel()) *
                             sizeof(float)) == 0;
    }
    ++out.checked;
    if (same) {
      ++out.matched;
    } else {
      ++mismatches;
    }
    const TransformerModel model = TransformerModel::from_checkpoint(in_memory);
    const auto sample =
        static_cast<std::size_t>(w.at("oracle_sample").as_int());
    const std::size_t k = std::min(sample, prompts.size());
    // Served outputs of the last sweep's oracle step, in accumulator order.
    const std::size_t offset =
        static_cast<std::size_t>(job - 1) * lambdas.size() * prompts.size() +
        oracle_step * prompts.size();
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = j * prompts.size() / k;
      GenerateOptions g;
      g.max_new_tokens = max_new;
      ++out.checked;
      if (generate(model, prompts[i], g, true) == served[oracle_step][i]) {
        ++out.matched;
      } else {
        ++mismatches;
        wrong[offset + i] = true;
      }
    }
  }
  out.layers["oracle.requests_sent"] = static_cast<double>(out.checked);
  out.layers["oracle.requests_ok"] = static_cast<double>(out.matched);
  out.layers["oracle.requests_failed"] = static_cast<double>(mismatches);

  // -- end-to-end metrics -----------------------------------------------------
  latency_metrics(acc, out);
  out.e2e["job_s"] = median(job_s);
  out.attempted = acc.sent;
  out.failed = failed + mismatches;
  out.e2e["exact_match"] = ratio(static_cast<double>(out.matched),
                                 static_cast<double>(out.checked));
  out.layers["measure.requests_sent"] = static_cast<double>(acc.sent);
  out.layers["measure.requests_ok"] = static_cast<double>(acc.completed);
  out.layers["measure.requests_failed"] =
      static_cast<double>(acc.sent - acc.completed);
  out.layers["warmup.requests_sent"] = 0.0;
  out.layers["warmup.requests_ok"] = 0.0;
  out.layers["warmup.requests_failed"] = 0.0;
  out.e2e["slo_attainment"] =
      slo_attainment(acc, w.at("ttft_slo_ms").as_double(),
                     w.at("itl_slo_ms").as_double(), wrong);

  // -- per-layer --------------------------------------------------------------
  const ModelConfig shape = config_from_metadata(chip->metadata(), chip_dir);
  serve_layer_metrics(acc, work_model(shape, DType::kF32), out);
  auto& m = out.layers;
  m["stream.merge_s"] = median(merge_s);
  m["stream.read_s"] = median(read_s);
  m["stream.merge_busy_s"] = median(merge_busy_s);
  m["stream.write_s"] = median(write_s);
  m["stream.max_inflight_mb"] = mib(max_inflight);
  m["stream.merge_mb_per_s"] = ratio(mib(merge_bytes), merge_seconds);
  m["model.load_s"] = median(load_s);
  m["model.quantize_s"] = 0.0;
  m["rag.retrieve_ms_p50"] = 0.0;
  m["rag.retrieve_ms_p90"] = 0.0;
  m["rag.index_load_s"] = 0.0;
  m["text.encode_us_p50"] = quantile(encode_us, 0.5);
  m["eval.score_s"] = median(score_s);
  m["samples.jobs"] = static_cast<double>(job);
  if (traced) {
    m["tensor.probe_gflops"] = matmul_probe_gflops(
        shape, DType::kF32,
        static_cast<std::int64_t>(m["serve.rows_per_step"] + 0.5));
  }

  out.fingerprint =
      fingerprint_base(config, "lambda_sweep", shape, work_dir, fixture_dir);
  out.fingerprint.set("weight_dtype", dtype_name(DType::kF32));
  out.fingerprint.set("kv_dtype", dtype_name(DType::kF32));
  out.fingerprint.set("prefix_cache", false);
  out.fingerprint.set("speculative", true);
  out.fingerprint.set("merge_io_threads",
                      static_cast<std::int64_t>(io_threads));
  out.fingerprint.set("merge_pool_threads",
                      static_cast<std::int64_t>(merge_threads));
  Json rouge_json = Json::array();
  for (const double r : rouge) rouge_json.push_back(r);
  out.fingerprint.set("rouge_l_by_lambda", rouge_json);
  return out;
}

}  // namespace

RunReport run_workload(const Json& config, const std::string& workload,
                       const std::string& fixture_dir,
                       const std::string& work_dir, double seconds,
                       bool traced) {
  if (workload == "lambda_sweep") {
    return run_lambda_sweep(config, fixture_dir, work_dir, seconds, traced);
  }
  if (workload == "rag_qa") {
    return run_rag_qa(config, fixture_dir, work_dir, seconds, traced);
  }
  throw std::runtime_error("unknown workload '" + workload + "'");
}

}  // namespace perfbench
