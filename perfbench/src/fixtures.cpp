// Seeded fixture generator. Runs in its own process before the measured one,
// so neither set-up time nor peak RSS of the measured process include it.
// Everything a workload needs is derived from --seed: model weights,
// corpus and index, prompts and the clients' think times.

#include "fixtures.hpp"

#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/corpus.hpp"
#include "data/fact_base.hpp"
#include "data/instructions.hpp"
#include "data/qa_bench.hpp"
#include "merge/geodesic.hpp"
#include "model/checkpoint.hpp"
#include "nn/transformer.hpp"
#include "rag/retrieval.hpp"
#include "stream/shard_writer.hpp"
#include "text/tokenizer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace chipalign;

namespace {

/// A random-init model whose tied LM-head rows for <eos> and '\n' are
/// zero. Every other logit of a random model is a nonzero draw, so greedy
/// decoding never picks either token and each generation runs to its token
/// budget: output length is a property of the workload, not an accident of
/// the seed's weights.
Checkpoint random_checkpoint(const ModelConfig& config, std::uint64_t seed) {
  Rng rng(seed);
  const TransformerModel model(config, rng);
  Checkpoint checkpoint = model.to_checkpoint();
  Tensor& embed = checkpoint.at("model.embed_tokens.weight");
  for (const TokenId id :
       {CharTokenizer::kEos, tokenizer().char_to_id('\n')}) {
    float* row = embed.data() + id * config.d_model;
    std::fill(row, row + config.d_model, 0.0F);
  }
  return checkpoint;
}

/// The served model of the open-loop workloads: the ChipAlign merge
/// (lambda 0.6) of two seeded endpoint models.
Checkpoint merged_checkpoint(const ModelConfig& config, std::uint64_t seed) {
  const Checkpoint chip = random_checkpoint(config, seed * 2 + 1);
  const Checkpoint instruct = random_checkpoint(config, seed * 2 + 2);
  MergeOptions options;
  options.lambda = 0.6;
  return merge_checkpoints(GeodesicMerger(), chip, instruct, nullptr,
                           options);
}

/// Seeded exponential think time (ms) of each request: a client pauses
/// this long after its previous reply before sending, so each client's
/// sends form a Poisson process while it is idle.
std::vector<double> think_times(Rng& rng, std::size_t count, double mean_ms) {
  std::vector<double> think(count);
  for (double& t : think) t = -std::log(1.0 - rng.uniform()) * mean_ms;
  return think;
}

/// Templated documentation filler (shared vocabulary plus a rare
/// per-document id) that pads the corpus to the configured size.
std::string filler_doc(Rng& rng, std::size_t i) {
  static const char* kSubjects[] = {"command", "stage", "panel", "signal",
                                    "macro",   "net",   "clock", "driver"};
  static const char* kVerbs[] = {"routes", "checks", "reports", "updates",
                                 "exports", "buffers", "places", "syncs"};
  static const char* kObjects[] = {"the nets",       "the timing arcs",
                                   "the floorplan",  "the scan chains",
                                   "the power grid", "the netlist",
                                   "the constraints", "the clock tree"};
  std::string doc = "the ";
  doc += kSubjects[rng.uniform_index(8)];
  doc += " op" + std::to_string(i) + " ";
  doc += kVerbs[rng.uniform_index(8)];
  doc += " ";
  doc += kObjects[rng.uniform_index(8)];
  return doc;
}

void build_rag_qa(const Json& config, std::uint64_t seed,
                  const std::string& dir) {
  const Json& w = config.at("rag_qa");
  merged_checkpoint(model_config(config), seed)
      .save(dir + "/model.safetensors");
  Rng rng(seed ^ 0x4A6ULL);
  const FactBase facts(seed);
  std::vector<std::string> corpus = facts.corpus_sentences();
  const auto docs = static_cast<std::size_t>(w.at("corpus_docs").as_int());
  CA_CHECK(docs > corpus.size(), "corpus_docs must exceed the fact corpus");
  for (std::size_t i = corpus.size(); i < docs; ++i) {
    corpus.push_back(filler_doc(rng, i));
  }
  RetrievalConfig index_config;
  index_config.ann_nlist = static_cast<std::size_t>(
      std::max(1.0, std::sqrt(static_cast<double>(corpus.size()))));
  RetrievalPipeline(std::move(corpus), index_config)
      .save(dir + "/index.rag");

  const auto count = static_cast<std::size_t>(w.at("requests").as_int());
  const auto warmup = static_cast<std::size_t>(w.at("warmup").as_int());
  const auto think = think_times(rng, count, w.at("think_ms").as_double());
  Json requests = Json::array();
  for (std::size_t i = 0; i < count + warmup; ++i) {
    // Each question names one documented op, so the retrieved contexts —
    // and with them the prompt after the shared header — differ per
    // request: prefill work is real, only the header is reusable.
    const std::size_t facts_size = facts.corpus_sentences().size();
    const std::size_t doc =
        facts_size + rng.uniform_index(docs - facts_size);
    Json r = Json::object();
    r.set("question", "what does op" + std::to_string(doc) + " do?");
    r.set("think_ms", i < count ? think[i] : -1.0);  // -1: warm-up request
    requests.push_back(std::move(r));
  }
  write_json(dir + "/requests.json", requests);
}

void build_lambda_sweep(const Json& config, std::uint64_t seed,
                        const std::string& dir) {
  const Json& w = config.at("lambda_sweep");
  const ModelConfig model = model_config(config);
  const auto shard_bytes =
      static_cast<std::uint64_t>(w.at("shard_mb").as_int()) << 20;
  save_sharded_checkpoint(dir + "/chip", random_checkpoint(model, seed * 2 + 1),
                          shard_bytes);
  save_sharded_checkpoint(dir + "/instruct",
                          random_checkpoint(model, seed * 2 + 2), shard_bytes);
  const FactBase facts(seed);
  const auto items = build_openroad_eval(
      facts, seed, static_cast<int>(w.at("eval_items").as_int()));
  Json eval = Json::array();
  for (const QaEvalItem& item : items) {
    Json e = Json::object();
    e.set("prompt", qa_prompt(instruction_header(item.instructions),
                              {item.golden_context}, item.question));
    e.set("reference", item.golden_answer);
    eval.push_back(std::move(e));
  }
  write_json(dir + "/eval.json", eval);
}

}  // namespace

void build_fixtures(const Json& config, const std::string& workload,
                    std::uint64_t seed, const std::string& dir) {
  std::filesystem::create_directories(dir);
  if (workload == "rag_qa") {
    build_rag_qa(config, seed, dir);
  } else if (workload == "lambda_sweep") {
    build_lambda_sweep(config, seed, dir);
  } else {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }
}

}  // namespace perfbench
