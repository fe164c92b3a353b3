// Token-stream goldens: literal token-id vectors that generate() and the
// serving engine must reproduce on fixed seeded micro models. The other
// bitwise tests compare two live code paths (batched against serial,
// speculative against greedy); these compare against numbers frozen from
// an earlier implementation, so a change that moves both sides of such a
// pair at once still fails here.
//
// They pin token ids, not logits: a logits-row hash would also pin libm's
// exp/sin/cos/pow bits, which may differ between C libraries.
//
// Regenerating: a mismatch prints the actual vector as a C++ literal
// ("name: {1, 2, 3}"). Paste it over the expected one only when the change
// is meant to alter outputs, and say why in CHANGES.md.
//
// Suite name (Golden) is stable so sanitizer CI can select it with
// ctest -R.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "nn/infer.hpp"
#include "serve/server.hpp"
#include "text/tokenizer.hpp"
#include "train/lora.hpp"
#include "train/trainer.hpp"

namespace chipalign {
namespace {

/// Tokenizer-vocab micro model: GQA (4 query heads over 2 KV heads) and two
/// layers, so every part of the step shows up in the bits.
ModelConfig golden_config() {
  ModelConfig config;
  config.name = "golden";
  config.vocab_size = tokenizer().vocab_size();
  config.d_model = 32;
  config.n_layers = 2;
  config.n_heads = 4;
  config.n_kv_heads = 2;
  config.d_ff = 48;
  config.max_seq_len = 128;
  config.validate();
  return config;
}

/// The default init (std 0.02) makes a micro model emit one token forever.
/// Scaling every projection by 12 gives greedy streams of ten or so distinct
/// tokens with repeats, so prompt-lookup drafts are partly accepted and
/// partly rejected.
TransformerModel golden_model(DType weights = DType::kF32) {
  Rng rng(2024);
  TransformerModel model(golden_config(), rng);
  for (Parameter* p : model.parameters()) {
    if (p->name.find("norm") != std::string::npos) continue;
    for (float& v : p->value.values()) v *= 12.0F;
  }
  if (weights != DType::kF32) model.quantize_weights(weights);
  return model;
}

std::string literal(const std::vector<TokenId>& tokens) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    out << (i == 0 ? "" : ", ") << tokens[i];
  }
  out << "}";
  return out.str();
}

void expect_tokens(const std::string& name, const std::vector<TokenId>& got,
                   const std::vector<TokenId>& want) {
  EXPECT_EQ(got, want) << name << ": " << literal(got);
}

/// generate() returns text. The expected ids hold no special tokens (the
/// tokenizer's decode drops those), so comparing the text against the
/// decoded golden is comparing the token streams.
void expect_generate(const std::string& name, const TransformerModel& model,
                     const std::string& prompt,
                     const GenerateOptions& options,
                     const std::vector<TokenId>& want) {
  for (const TokenId t : want) {
    ASSERT_FALSE(tokenizer().is_special(t)) << name << " golden id " << t;
  }
  const std::string got = generate(model, prompt, options);
  EXPECT_EQ(got, tokenizer().decode(want))
      << name << ": " << literal(tokenizer().encode(got));
}

const char* const kPrompt = "q: fix setup slack on the clock path\nout: ";

const std::vector<TokenId> kGreedy = {
    65, 65, 65, 65, 5,  65, 65, 65, 65, 65, 5,  65, 58, 97, 39, 64,
    97, 11, 11, 11, 11, 11, 44, 49, 66, 66, 64, 64, 64, 64, 64, 66};
// Stops at <eos> after three tokens.
const std::vector<TokenId> kSampledSeed123 = {46, 93, 28};
const std::vector<TokenId> kSampledSeed9001 = {
    49, 64, 77, 19, 11, 86, 57, 24, 16, 16, 30, 41, 24, 96};
const std::vector<TokenId> kInt8Greedy = {
    65, 65, 65, 5,  65, 65, 65, 65, 65, 65, 5,  65, 58, 97, 39, 64,
    97, 11, 64, 64, 64, 64, 64, 64, 64, 66, 66, 64, 64, 64, 64, 66};

TEST(Golden, GenerateGreedy) {
  const TransformerModel model = golden_model();
  GenerateOptions options;
  options.max_new_tokens = 32;
  expect_generate("kGreedy", model, kPrompt, options, kGreedy);
}

TEST(Golden, GenerateSampledTwoSeeds) {
  const TransformerModel model = golden_model();
  GenerateOptions options;
  options.max_new_tokens = 32;
  options.temperature = 0.8;
  options.seed = 123;
  expect_generate("kSampledSeed123", model, kPrompt, options,
                  kSampledSeed123);
  options.seed = 9001;
  expect_generate("kSampledSeed9001", model, kPrompt, options,
                  kSampledSeed9001);
}

TEST(Golden, GenerateSpeculativeDraftK4) {
  const TransformerModel model = golden_model();
  GenerateOptions options;
  options.max_new_tokens = 32;
  options.speculative = true;
  options.draft_k = 4;
  expect_generate("kGreedy (speculative)", model, kPrompt, options, kGreedy);
}

TEST(Golden, GenerateInt8Weights) {
  const TransformerModel model = golden_model(DType::kI8);
  GenerateOptions options;
  options.max_new_tokens = 32;
  expect_generate("kInt8Greedy", model, kPrompt, options, kInt8Greedy);
  options.speculative = true;
  options.draft_k = 4;
  expect_generate("kInt8Greedy (speculative)", model, kPrompt, options,
                  kInt8Greedy);
}

const std::vector<TokenId> kF16KvGreedy = {
    65, 65, 65, 65, 5,  65, 65, 65, 65, 65, 5,  65, 58, 97, 39, 64,
    97, 11, 11, 11, 11, 11, 44, 49, 66, 66, 64, 64, 64, 64, 64, 66};

// generate() has no KV-dtype knob; an fp16 cache is a serving option.
TEST(Golden, ServedF16KvCache) {
  const TransformerModel model = golden_model();
  GenerateOptions options;
  options.max_new_tokens = 32;
  for (const bool speculative : {false, true}) {
    ServeConfig serve;
    serve.kv_dtype = DType::kF16;
    serve.speculative = speculative;
    Server server(model, serve);
    const SessionId id = server.submit(server.text_request(kPrompt, options));
    server.run();
    expect_tokens(speculative ? "kF16KvGreedy (speculative)" : "kF16KvGreedy",
                  server.wait_result(id).tokens, kF16KvGreedy);
  }
}

// A fixed mixed schedule at max_batch 4 over six sessions, so the batch
// re-forms round-robin: greedy-speculative sessions behind a shared header
// (prefix-cache hits), two temperature-sampled sessions, and one session
// its own streaming callback cancels after its third token.
const std::vector<std::vector<TokenId>> kScheduleTokens = {
    {58, 41, 16, 64, 64, 64, 64, 64, 64, 64, 64, 64,
     64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64},
    {58, 41, 16, 64, 64, 64, 64, 64, 64, 64, 64, 64,
     64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64},
    {21, 77, 77, 87, 54, 43, 55, 72, 47, 32, 94,
     16, 24, 48, 43, 84, 81, 68, 12, 24, 23, 42},
    {58, 32, 27},
    {58, 12, 70, 94, 42, 28, 9,  64, 64, 64, 66, 28,
     7,  9,  46, 59, 59, 59, 64, 64, 64, 64, 64, 64},
    {97, 55, 58, 58, 41, 55},
};
// steps, step_tokens, verify_passes, drafted, accepted, emitted,
// completed, cancelled.
const std::vector<std::int64_t> kScheduleStats = {119, 410, 24, 38,
                                                  30,  53,  5,  1};

TEST(Golden, ServedMixedSchedule) {
  const TransformerModel model = golden_model();
  ServeConfig serve;
  serve.max_batch = 4;
  serve.prefix_cache_bytes = std::size_t{1} << 22;
  serve.speculative = true;
  serve.draft_k = 4;
  Server server(model, serve);

  const std::string header = "do: answer timing questions for the core\n";
  GenerateOptions greedy;
  greedy.max_new_tokens = 24;
  GenerateOptions sampled = greedy;
  sampled.temperature = 0.7;

  std::vector<SessionId> ids;
  ids.push_back(server.submit(
      server.text_request(header + "q: what is wns?\nout: ", greedy)));
  ids.push_back(server.submit(
      server.text_request(header + "q: what is tns?\nout: ", greedy)));
  sampled.seed = 5;
  ids.push_back(
      server.submit(server.text_request("route the clock tree", sampled)));
  Request doomed =
      server.text_request(header + "q: list hold fixes\nout: ", greedy);
  doomed.on_token = [&server, emitted = 0](SessionId id, TokenId) mutable {
    if (++emitted == 3) server.cancel(id);
  };
  ids.push_back(server.submit(std::move(doomed)));
  sampled.seed = 77;
  ids.push_back(server.submit(server.text_request(
      header + "q: why is the scan chain slow?\nout: ", sampled)));
  ids.push_back(
      server.submit(server.text_request("fix hold violations", greedy, true)));
  server.run();

  std::vector<std::vector<TokenId>> got;
  for (const SessionId id : ids) got.push_back(server.wait_result(id).tokens);
  ASSERT_EQ(got.size(), kScheduleTokens.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_tokens("kScheduleTokens[" + std::to_string(i) + "]", got[i],
                  kScheduleTokens[i]);
  }
  EXPECT_EQ(server.wait_result(ids[3]).status, SessionStatus::kCancelled);

  const ServerStats stats = server.stats();
  const std::vector<std::int64_t> counters = {
      stats.steps,         stats.step_tokens,   stats.spec.verify_passes,
      stats.spec.drafted,  stats.spec.accepted, stats.spec.emitted,
      stats.completed,     stats.cancelled};
  std::ostringstream shown;
  shown << "{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    shown << (i == 0 ? "" : ", ") << counters[i];
  }
  shown << "}";
  EXPECT_EQ(counters, kScheduleStats) << "kScheduleStats: " << shown.str();
}

// -- trained models ----------------------------------------------------------
// The same micro model after a few full-finetuning steps, then after LoRA
// finetuning and fold(): pins the training forward, backward, AdamW and the
// adapter projection, as seen through the greedy stream of the result.

std::vector<TrainExample> golden_dataset() {
  const std::pair<const char*, const char*> pairs[] = {
      {"q: fix setup slack\nout: ", "upsize the driver"},
      {"q: fix hold slack\nout: ", "insert delay cells"},
      {"q: route the clock\nout: ", "build the clock tree first"},
      {"q: check drc\nout: ", "run the signoff deck"},
  };
  std::vector<TrainExample> dataset;
  for (const auto& [prompt, answer] : pairs) {
    dataset.push_back(make_qa_example(prompt, answer, 64));
  }
  return dataset;
}

TrainConfig golden_train_config(std::int64_t steps) {
  TrainConfig config;
  config.steps = steps;
  config.batch_size = 2;
  config.peak_lr = 5e-3;
  config.warmup_steps = 2;
  config.seed = 31;
  return config;
}

const std::vector<TokenId> kTrainedFullGreedy = {
    46, 12, 24, 24, 24, 24, 24, 84, 65, 24, 24, 24, 24, 7,  16, 16,
    16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 43, 43, 43};
const std::vector<TokenId> kTrainedLoraGreedy = {
    64, 86, 64, 64, 86, 64, 64, 64, 64, 58, 24, 24, 24, 7,  16, 81,
    91, 47, 96, 12, 5,  43, 11, 63, 74, 74, 74, 74, 74, 63, 74, 74};

TEST(Golden, TrainFullThenLoraFold) {
  TrainableModel model(golden_model().to_checkpoint());
  const std::vector<TrainExample> dataset = golden_dataset();
  GenerateOptions options;
  options.max_new_tokens = 32;

  train_full(model, dataset, golden_train_config(6));
  expect_generate("kTrainedFullGreedy", model.model(), kPrompt, options,
                  kTrainedFullGreedy);

  LoraConfig lora;
  lora.rank = 4;
  lora.seed = 17;
  LoraAdapterSet adapters(model, lora);
  train_lora(model, adapters, dataset, golden_train_config(6));
  adapters.fold();
  expect_generate("kTrainedLoraGreedy", model.model(), kPrompt, options,
                  kTrainedLoraGreedy);
}

}  // namespace
}  // namespace chipalign
