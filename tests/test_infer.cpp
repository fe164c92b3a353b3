// Tests for the fast inference engine (src/nn/infer.*): bitwise
// determinism of decoding across kernel backends, KV truncate-and-rescore
// semantics, the renormalized sampling CDF, and the deterministic parallel
// evaluation harness (serial scores == pooled scores, exactly).
//
// Suite names (InferEngine, ParallelEval) are stable so sanitizer CI can
// select them with ctest -R.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "data/corpus.hpp"
#include "data/qa_bench.hpp"
#include "eval/qa_runner.hpp"
#include "nn/infer.hpp"
#include "rag/retrieval.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/tensor_ops.hpp"
#include "text/tokenizer.hpp"
#include "util/thread_pool.hpp"

namespace chipalign {
namespace {

using kernels::force_generic;

/// Small but SIMD-exercising model: head_dim 16 gives full 8-lane blocks
/// plus the vector loop, vocab 50 keeps the logits matvec non-trivial.
ModelConfig engine_config() {
  ModelConfig config;
  config.name = "engine-test";
  config.vocab_size = 50;
  config.d_model = 32;
  config.n_layers = 2;
  config.n_heads = 2;
  config.n_kv_heads = 1;
  config.d_ff = 48;
  config.max_seq_len = 64;
  config.validate();
  return config;
}

/// Tokenizer-vocab model for the eval harness (prompts are real text).
ModelConfig harness_config() {
  ModelConfig config;
  config.name = "parallel-harness";
  config.vocab_size = tokenizer().vocab_size();
  config.d_model = 16;
  config.n_layers = 1;
  config.n_heads = 2;
  config.n_kv_heads = 1;
  config.d_ff = 24;
  config.max_seq_len = 512;
  config.validate();
  return config;
}

std::vector<TokenId> ramp_tokens(std::size_t n, std::int64_t vocab,
                                 std::size_t stride) {
  std::vector<TokenId> tokens(n);
  for (std::size_t i = 0; i < n; ++i) {
    tokens[i] = static_cast<TokenId>((i * stride + 1) %
                                     static_cast<std::size_t>(vocab));
  }
  return tokens;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Greedy-decodes `steps` tokens after prefilling `prompt`; returns the
/// chosen token ids.
std::vector<TokenId> greedy_decode(const TransformerModel& model,
                                   const std::vector<TokenId>& prompt,
                                   std::int64_t steps) {
  InferenceSession session(model);
  std::vector<float> logits = session.prefill(prompt);
  std::vector<TokenId> out;
  for (std::int64_t t = 0; t < steps; ++t) {
    const auto next = static_cast<TokenId>(
        ops::argmax(std::span<const float>(logits.data(), logits.size())));
    out.push_back(next);
    logits = session.step(next);
  }
  return out;
}

class InferEngine : public ::testing::Test {
 protected:
  void TearDown() override { force_generic(false); }
};

// The engine's core determinism claim: logits and greedy decisions are
// bit-identical on the generic and SIMD backends.
TEST_F(InferEngine, StepLogitsAndGreedyDecodeBitwiseAcrossBackends) {
  Rng rng(21);
  const TransformerModel model(engine_config(), rng);
  const auto prompt = ramp_tokens(12, model.config().vocab_size, 7);

  force_generic(true);
  InferenceSession generic_session(model);
  const std::vector<float> generic_logits = generic_session.prefill(prompt);
  const auto generic_decode = greedy_decode(model, prompt, 24);

  force_generic(false);
  if (!kernels::simd_available()) GTEST_SKIP() << "no SIMD backend";
  InferenceSession simd_session(model);
  const std::vector<float> simd_logits = simd_session.prefill(prompt);
  EXPECT_TRUE(bitwise_equal(generic_logits, simd_logits));
  EXPECT_EQ(greedy_decode(model, prompt, 24), generic_decode);
}

TEST_F(InferEngine, SequenceLogprobBitwiseAcrossBackends) {
  Rng rng(22);
  const TransformerModel model(engine_config(), rng);
  const auto context = ramp_tokens(9, model.config().vocab_size, 5);
  const auto continuation = ramp_tokens(6, model.config().vocab_size, 11);

  force_generic(true);
  const double generic_lp = sequence_logprob(model, context, continuation);
  force_generic(false);
  if (!kernels::simd_available()) GTEST_SKIP() << "no SIMD backend";
  const double simd_lp = sequence_logprob(model, context, continuation);
  EXPECT_EQ(generic_lp, simd_lp);  // bitwise, not NEAR
}

// reset() deliberately leaves stale KV entries behind (and construction
// never zero-fills); a reused session must still reproduce a fresh
// session's bits exactly, proving positions >= position() are never read.
TEST_F(InferEngine, ResetAndReuseMatchesFreshSessionBitwise) {
  Rng rng(23);
  const TransformerModel model(engine_config(), rng);
  const auto first = ramp_tokens(20, model.config().vocab_size, 3);
  const auto second = ramp_tokens(8, model.config().vocab_size, 13);

  InferenceSession reused(model);
  reused.prefill(first);  // pollute the cache past second's length
  reused.reset();
  EXPECT_EQ(reused.position(), 0);
  const std::vector<float> reused_logits = reused.prefill(second);

  InferenceSession fresh(model);
  const std::vector<float> fresh_logits = fresh.prefill(second);
  EXPECT_TRUE(bitwise_equal(reused_logits, fresh_logits));
}

// Scoring several continuations of one prefilled context, rewinding to the
// context with truncate() in between, is what run_mcq_eval does.
TEST_F(InferEngine, SnapshotRestoreMatchesReprefillBitwise) {
  Rng rng(24);
  const TransformerModel model(engine_config(), rng);
  const auto context = ramp_tokens(10, model.config().vocab_size, 7);
  const auto cont_a = ramp_tokens(5, model.config().vocab_size, 17);
  const auto cont_b = ramp_tokens(7, model.config().vocab_size, 19);
  const auto context_len = static_cast<std::int64_t>(context.size());

  InferenceSession session(model);
  const std::vector<float> context_logits = session.prefill(context);

  const double lp_a = continuation_logprob(session, context_logits, cont_a);
  session.truncate(context_len);
  EXPECT_EQ(session.position(), context_len);
  const double lp_b = continuation_logprob(session, context_logits, cont_b);

  // The re-prefilling scorer must agree to the last bit.
  EXPECT_EQ(lp_a, sequence_logprob(model, context, cont_a));
  EXPECT_EQ(lp_b, sequence_logprob(model, context, cont_b));
  EXPECT_EQ(mean_logprob(model, context, cont_b),
            lp_b / static_cast<double>(cont_b.size()));
}

// Decoding on from a prompt, rewinding to it and decoding again replays
// the same tokens.
TEST_F(InferEngine, SnapshotRoundtripReplaysIdenticalDecode) {
  Rng rng(25);
  const TransformerModel model(engine_config(), rng);
  const auto prompt = ramp_tokens(6, model.config().vocab_size, 9);

  InferenceSession session(model);
  const std::vector<float> logits_at_prompt = session.prefill(prompt);

  auto decode_from = [&](std::vector<float> row) {
    std::vector<TokenId> out;
    for (int t = 0; t < 16; ++t) {
      const auto next = static_cast<TokenId>(
          ops::argmax(std::span<const float>(row.data(), row.size())));
      out.push_back(next);
      row = session.step(next);
    }
    return out;
  };
  const auto first_run = decode_from(logits_at_prompt);
  session.truncate(static_cast<std::int64_t>(prompt.size()));
  const auto second_run = decode_from(logits_at_prompt);
  EXPECT_EQ(first_run, second_run);
}

TEST_F(InferEngine, SampleFromProbsSkipsZeroProbabilityTail) {
  // The pre-fix sampler fell off the CDF on float underflow and returned
  // the last index even at probability zero. The renormalized walk must
  // land on the last *nonzero* index instead.
  const std::vector<float> probs = {0.5F, 0.5F, 0.0F};
  EXPECT_EQ(sample_from_probs(probs, 0.999999), 1);
  EXPECT_EQ(sample_from_probs(probs, 0.0), 0);
  EXPECT_EQ(sample_from_probs(probs, 0.5), 1);
}

TEST_F(InferEngine, SampleFromProbsRenormalizesImproperMass) {
  // Softmax output that lost mass to rounding: draw scales by the actual
  // sum, so the distribution is still covered proportionally.
  const std::vector<float> probs = {0.25F, 0.25F};
  EXPECT_EQ(sample_from_probs(probs, 0.49), 0);
  EXPECT_EQ(sample_from_probs(probs, 0.51), 1);
}

TEST_F(InferEngine, TemperatureSamplingStaysInVocab) {
  Rng rng(26);
  const TransformerModel model(harness_config(), rng);
  GenerateOptions options;
  options.max_new_tokens = 12;
  options.temperature = 0.8;
  options.seed = 99;
  // Must not throw and must decode round-trippable text.
  const std::string text = generate(model, "route the nets", options);
  for (const TokenId t : tokenizer().encode(text)) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, tokenizer().vocab_size());
  }
}

// -- deterministic parallel evaluation ---------------------------------------

void expect_same_scores(const CategoryScores& a, const CategoryScores& b) {
  EXPECT_EQ(a.all, b.all);  // exact — parallelism must not move a single bit
  EXPECT_EQ(a.by_category, b.by_category);
  EXPECT_EQ(a.counts, b.counts);
}

TEST(ParallelEval, OpenroadScoresIdenticalSerialAndPooled) {
  Rng rng(31);
  const TransformerModel model(harness_config(), rng);
  const FactBase facts;
  const auto items = build_openroad_eval(facts, 2, 6);
  const RetrievalPipeline rag(facts.corpus_sentences());
  ThreadPool pool(4);

  expect_same_scores(run_openroad_eval(model, items, nullptr),
                     run_openroad_eval(model, items, nullptr, 2, &pool));
  expect_same_scores(run_openroad_eval(model, items, &rag),
                     run_openroad_eval(model, items, &rag, 2, &pool));
}

TEST(ParallelEval, IndustrialScoresIdenticalSerialAndPooled) {
  Rng rng(32);
  const TransformerModel model(harness_config(), rng);
  const FactBase facts;
  const auto items = build_industrial_eval(facts, 3, 1);
  const RetrievalPipeline rag(facts.corpus_sentences());
  ThreadPool pool(4);

  for (const bool multi_turn : {false, true}) {
    expect_same_scores(
        run_industrial_eval(model, items, rag, multi_turn),
        run_industrial_eval(model, items, rag, multi_turn, 2, &pool));
  }
}

TEST(ParallelEval, MetricsIdenticalSerialAndPooled) {
  Rng rng(33);
  const TransformerModel model(harness_config(), rng);
  const FactBase facts;
  const auto items = build_openroad_eval(facts, 6, 5);
  ThreadPool pool(4);

  const auto serial = run_openroad_eval_metrics(model, items);
  const auto pooled = run_openroad_eval_metrics(model, items, &pool);
  ASSERT_EQ(serial.size(), pooled.size());
  for (const auto& [metric, scores] : serial) {
    ASSERT_TRUE(pooled.count(metric)) << metric;
    expect_same_scores(scores, pooled.at(metric));
  }
}

TEST(ParallelEval, McqSnapshotPathMatchesReprefillAndPoolInvariant) {
  Rng rng(34);
  const TransformerModel model(harness_config(), rng);
  const FactBase facts;
  const auto items = build_mcq_eval(facts, 4, 3);
  ThreadPool pool(4);

  const CategoryScores serial = run_mcq_eval(model, items);
  expect_same_scores(serial, run_mcq_eval(model, items, &pool));

  // Hand-rolled re-prefill baseline (one fresh session per choice, as the
  // harness worked before prefix-cache reuse) must pick identical winners.
  const CharTokenizer& tok = tokenizer();
  int agreements = 0;
  for (const McqItem& item : items) {
    const std::vector<TokenId> context =
        tok.encode(qa_prompt("", {}, item.question), /*add_bos=*/true);
    double best_score = -1e300;
    int best_choice = -1;
    for (std::size_t c = 0; c < item.choices.size(); ++c) {
      const double score =
          mean_logprob(model, context, tok.encode(item.choices[c]));
      if (score > best_score) {
        best_score = score;
        best_choice = static_cast<int>(c);
      }
    }
    agreements += best_choice == item.correct_index ? 1 : 0;
  }
  const double baseline_accuracy =
      static_cast<double>(agreements) / static_cast<double>(items.size());
  EXPECT_EQ(serial.all, baseline_accuracy);
}

}  // namespace
}  // namespace chipalign
