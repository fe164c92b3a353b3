// Tests for the transformer substrate: RoPE, forward/backward gradients
// (finite differences), KV-cache consistency, generation and scoring.

#include <gtest/gtest.h>

#include <cmath>

#include "nn/decode.hpp"
#include "nn/infer.hpp"
#include "nn/rotary.hpp"
#include "nn/transformer.hpp"
#include "tensor/tensor_ops.hpp"
#include "train/loss.hpp"
#include "train/trainable_model.hpp"
#include "util/error.hpp"

namespace chipalign {
namespace {

ModelConfig micro_config() {
  ModelConfig config;
  config.name = "micro";
  config.vocab_size = 11;
  config.d_model = 8;
  config.n_layers = 2;
  config.n_heads = 2;
  config.n_kv_heads = 1;
  config.d_ff = 12;
  config.max_seq_len = 16;
  config.validate();
  return config;
}

// The served model holds weights only and the trainable one is fp32 by
// construction, so each lacks the other's entry points at compile time.
template <typename M>
concept HasTokenForward =
    requires(M& m, const std::vector<TokenId>& t) { m.forward(t); };
template <typename M>
concept HasBackward = requires(M& m, const Tensor& d) { m.backward(d); };
template <typename M>
concept HasZeroGrad = requires(M& m) { m.zero_grad(); };
template <typename M>
concept HasQuantize = requires(M& m) { m.quantize_weights(DType::kI8); };

static_assert(!HasTokenForward<TransformerModel> &&
              !HasBackward<TransformerModel> &&
              !HasZeroGrad<TransformerModel> && HasQuantize<TransformerModel>);
static_assert(HasTokenForward<TrainableModel> && HasBackward<TrainableModel> &&
              HasZeroGrad<TrainableModel> && !HasQuantize<TrainableModel>);

TEST(Rotary, ApplyInverseIsIdentity) {
  RotaryCache rope(8, 16, 10000.0);
  Rng rng(1);
  for (std::int64_t pos : {0, 3, 15}) {
    Tensor v = Tensor::randn({8}, rng);
    Tensor orig = v;
    rope.apply(v.values(), pos);
    rope.apply_inverse(v.values(), pos);
    EXPECT_LT(ops::max_abs_diff(v, orig), 1e-5) << "pos " << pos;
  }
}

TEST(Rotary, PreservesNorm) {
  RotaryCache rope(8, 16, 10000.0);
  Rng rng(2);
  Tensor v = Tensor::randn({8}, rng);
  const double before = ops::norm(v.values());
  rope.apply(v.values(), 7);
  EXPECT_NEAR(ops::norm(v.values()), before, 1e-5);
}

TEST(Rotary, PositionZeroIsIdentity) {
  RotaryCache rope(4, 8, 10000.0);
  Tensor v({4}, {1, 2, 3, 4});
  Tensor orig = v;
  rope.apply(v.values(), 0);
  EXPECT_LT(ops::max_abs_diff(v, orig), 1e-7);
}

TEST(Rotary, RejectsBadInputs) {
  EXPECT_THROW(RotaryCache(7, 16, 10000.0), Error);  // odd head_dim
  RotaryCache rope(4, 8, 10000.0);
  Tensor v({4});
  EXPECT_THROW(rope.apply(v.values(), 8), Error);  // position out of range
}

TEST(Transformer, ParameterNamesFollowLlamaConvention) {
  Rng rng(3);
  TransformerModel model(micro_config(), rng);
  const Checkpoint ckpt = model.to_checkpoint();
  EXPECT_TRUE(ckpt.has("model.embed_tokens.weight"));
  EXPECT_TRUE(ckpt.has("model.layers.0.self_attn.q_proj.weight"));
  EXPECT_TRUE(ckpt.has("model.layers.1.mlp.down_proj.weight"));
  EXPECT_TRUE(ckpt.has("model.norm.weight"));
  EXPECT_EQ(ckpt.tensors().size(), 1u + 2u * 9u + 1u);
}

TEST(Transformer, ParameterCountMatchesConfigFormula) {
  Rng rng(3);
  TransformerModel model(micro_config(), rng);
  EXPECT_EQ(model.parameter_count(), micro_config().parameter_count());
}

TEST(Transformer, ForwardShapeAndFiniteness) {
  Rng rng(4);
  TrainableModel model(micro_config(), rng);
  const std::vector<TokenId> tokens = {1, 5, 7, 3};
  const Tensor logits = model.forward(tokens);
  EXPECT_EQ(logits.dim(0), 4);
  EXPECT_EQ(logits.dim(1), 11);
  EXPECT_TRUE(logits.all_finite());
  model.discard_forward();
}

TEST(Transformer, ForwardRejectsBadInput) {
  Rng rng(4);
  TrainableModel model(micro_config(), rng);
  EXPECT_THROW(model.forward({}), Error);
  EXPECT_THROW(model.forward(std::vector<TokenId>(17, 1)), Error);  // > max_seq
  EXPECT_THROW(model.forward({99}), Error);  // out of vocab
}

TEST(Transformer, BackwardWithoutForwardThrows) {
  Rng rng(4);
  TrainableModel model(micro_config(), rng);
  EXPECT_THROW(model.backward(Tensor({1, 11})), Error);
}

TEST(Transformer, CheckpointRoundTripPreservesLogits) {
  Rng rng(5);
  TrainableModel model(micro_config(), rng);
  const std::vector<TokenId> tokens = {2, 4, 6};
  const Tensor logits1 = model.forward(tokens);
  model.discard_forward();

  TrainableModel restored(model.to_checkpoint());
  const Tensor logits2 = restored.forward(tokens);
  restored.discard_forward();
  EXPECT_LT(ops::max_abs_diff(logits1, logits2), 1e-6);
}

/// The pivotal test: analytic gradients vs central finite differences for a
/// sampled subset of every parameter tensor.
TEST(Transformer, GradientsMatchFiniteDifferences) {
  Rng rng(6);
  TrainableModel model(micro_config(), rng);
  const std::vector<TokenId> tokens = {1, 5, 7, 3, 9, 2};
  std::vector<float> mask(tokens.size(), 1.0F);
  mask[0] = 0.0F;

  auto loss_value = [&]() {
    const Tensor logits = model.forward(tokens);
    const LossResult loss = cross_entropy_next_token(logits, tokens, mask);
    model.discard_forward();
    return loss.loss;
  };

  // Analytic gradients.
  model.zero_grad();
  {
    const Tensor logits = model.forward(tokens);
    const LossResult loss = cross_entropy_next_token(logits, tokens, mask);
    model.backward(loss.dlogits);
  }

  Rng pick(7);
  constexpr double kH = 2e-3;
  const std::vector<Parameter*> params = model.parameters();
  for (std::size_t k = 0; k < params.size(); ++k) {
    Parameter* param = params[k];
    const std::int64_t numel = param->value.numel();
    const int samples = numel < 5 ? static_cast<int>(numel) : 5;
    for (int s = 0; s < samples; ++s) {
      const auto idx = static_cast<std::int64_t>(
          pick.uniform_index(static_cast<std::uint64_t>(numel)));
      const float saved = param->value[idx];

      param->value[idx] = saved + static_cast<float>(kH);
      const double plus = loss_value();
      param->value[idx] = saved - static_cast<float>(kH);
      const double minus = loss_value();
      param->value[idx] = saved;

      const double numeric = (plus - minus) / (2.0 * kH);
      const double analytic = model.grads()[k][idx];
      EXPECT_NEAR(analytic, numeric,
                  std::max(4e-3, 4e-2 * std::abs(analytic)))
          << param->name << "[" << idx << "]";
    }
  }
}

TEST(Inference, KvCacheMatchesFullForward) {
  Rng rng(8);
  TrainableModel trainable(micro_config(), rng);
  const TransformerModel& model = trainable.model();
  const std::vector<TokenId> tokens = {1, 4, 9, 2, 7};

  const Tensor full_logits = trainable.forward(tokens);
  trainable.discard_forward();

  InferenceSession session(model);
  std::vector<float> incremental;
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    incremental = session.step(tokens[t]);
    // Every intermediate position must match the full forward row.
    for (std::int64_t v = 0; v < full_logits.dim(1); ++v) {
      EXPECT_NEAR(incremental[static_cast<std::size_t>(v)],
                  full_logits.at2(static_cast<std::int64_t>(t), v), 2e-4)
          << "pos " << t << " vocab " << v;
    }
  }

  // Two sessions in multi-row groups of one forward() call, twice: every
  // row must match its own sequence's full-forward row.
  const std::vector<TokenId> other = {3, 8, 5, 10};
  const Tensor other_logits = trainable.forward(other);
  trainable.discard_forward();
  const auto& config = model.config();
  SessionState a(config, config.max_seq_len);
  SessionState b(config, config.max_seq_len);
  DecodeScratch scratch(config, 5);
  std::vector<float> rows(static_cast<std::size_t>(5 * config.vocab_size));
  const std::size_t splits[][2] = {{3, 2}, {2, 2}};  // a rows, b rows
  std::size_t fed_a = 0;
  std::size_t fed_b = 0;
  for (const auto& split : splits) {
    const ForwardGroup groups[] = {
        {&a, std::span<const TokenId>(tokens.data() + fed_a, split[0])},
        {&b, std::span<const TokenId>(other.data() + fed_b, split[1])},
    };
    const std::size_t n = split[0] + split[1];
    forward(model, groups, scratch,
            std::span<float>(rows.data(), n * static_cast<std::size_t>(
                                                  config.vocab_size)));
    for (std::size_t r = 0; r < n; ++r) {
      const bool in_a = r < split[0];
      const Tensor& full = in_a ? full_logits : other_logits;
      const auto pos =
          static_cast<std::int64_t>(in_a ? fed_a + r : fed_b + r - split[0]);
      for (std::int64_t v = 0; v < config.vocab_size; ++v) {
        EXPECT_NEAR(rows[r * static_cast<std::size_t>(config.vocab_size) +
                         static_cast<std::size_t>(v)],
                    full.at2(pos, v), 2e-4)
            << (in_a ? "a" : "b") << " pos " << pos << " vocab " << v;
      }
    }
    fed_a += split[0];
    fed_b += split[1];
  }
}

TEST(Inference, ResetClearsState) {
  Rng rng(9);
  TransformerModel model(micro_config(), rng);
  InferenceSession session(model);
  const auto first = session.step(3);
  session.step(5);
  session.reset();
  EXPECT_EQ(session.position(), 0);
  const auto again = session.step(3);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], again[i]);
  }
}

TEST(Inference, CacheOverflowThrows) {
  Rng rng(10);
  TransformerModel model(micro_config(), rng);
  InferenceSession session(model);
  for (int i = 0; i < 16; ++i) session.step(1);
  EXPECT_THROW(session.step(1), Error);
}

TEST(Inference, SequenceLogprobMatchesManualSum) {
  Rng rng(11);
  TrainableModel trainable(micro_config(), rng);
  const TransformerModel& model = trainable.model();
  const std::vector<TokenId> context = {1, 4};
  const std::vector<TokenId> continuation = {7, 2};

  // Manual: run the full sequence, sum log-softmax at the right positions.
  std::vector<TokenId> all = context;
  all.insert(all.end(), continuation.begin(), continuation.end());
  const Tensor logits = trainable.forward(all);
  trainable.discard_forward();
  double manual = 0.0;
  for (std::size_t i = 0; i < continuation.size(); ++i) {
    const auto row =
        logits.row(static_cast<std::int64_t>(context.size() + i - 1));
    manual +=
        static_cast<double>(row[static_cast<std::size_t>(continuation[i])]) -
        ops::log_sum_exp(row);
  }

  const double via_api = sequence_logprob(model, context, continuation);
  EXPECT_NEAR(via_api, manual, 1e-3);
  EXPECT_NEAR(mean_logprob(model, context, continuation), manual / 2.0, 1e-3);
}

TEST(Inference, StepRejectsInvalidToken) {
  Rng rng(14);
  TransformerModel model(micro_config(), rng);
  InferenceSession session(model);
  EXPECT_THROW(session.step(-1), Error);
  EXPECT_THROW(session.step(static_cast<TokenId>(
                   model.config().vocab_size)),
               Error);
}

TEST(Inference, MultiHeadAndGroupedQueryBothRun) {
  // Same dims with n_kv_heads == n_heads (MHA) and < n_heads (GQA): both
  // paths must produce finite logits and agree between train-time forward
  // and KV-cache inference.
  for (std::int64_t kv_heads : {1, 2}) {
    ModelConfig config = micro_config();
    config.n_kv_heads = kv_heads;
    Rng rng(20 + kv_heads);
    TrainableModel trainable(config, rng);
    const TransformerModel& model = trainable.model();
    const std::vector<TokenId> tokens = {3, 8, 1, 6};
    const Tensor full = trainable.forward(tokens);
    trainable.discard_forward();
    EXPECT_TRUE(full.all_finite());

    InferenceSession session(model);
    std::vector<float> last;
    for (TokenId t : tokens) last = session.step(t);
    for (std::int64_t v = 0; v < full.dim(1); ++v) {
      EXPECT_NEAR(last[static_cast<std::size_t>(v)],
                  full.at2(static_cast<std::int64_t>(tokens.size()) - 1, v),
                  2e-4)
          << "kv_heads " << kv_heads;
    }
  }
}

TEST(Transformer, GradientAccumulatesAcrossBackwardCalls) {
  Rng rng(15);
  TrainableModel model(micro_config(), rng);
  const std::vector<TokenId> tokens = {1, 5, 7};
  std::vector<float> mask(tokens.size(), 1.0F);
  mask[0] = 0.0F;

  auto run_backward = [&] {
    const Tensor logits = model.forward(tokens);
    const LossResult loss = cross_entropy_next_token(logits, tokens, mask);
    model.backward(loss.dlogits);
  };

  model.zero_grad();
  run_backward();
  const Tensor once = model.grads()[0];
  run_backward();  // no zero_grad: should accumulate
  const Tensor twice = model.grads()[0];
  EXPECT_LT(ops::max_abs_diff(twice, ops::scaled(once, 2.0F)), 1e-4);
}

TEST(Inference, GreedyGenerationIsDeterministic) {
  Rng rng(12);
  ModelConfig config = micro_config();
  config.vocab_size = tokenizer().vocab_size();
  config.max_seq_len = 64;
  TransformerModel model(config, rng);
  GenerateOptions options;
  options.max_new_tokens = 8;
  const std::string a = generate(model, "hi", options);
  const std::string b = generate(model, "hi", options);
  EXPECT_EQ(a, b);
}

TEST(Inference, TemperatureSamplingRespectsSeed) {
  Rng rng(13);
  ModelConfig config = micro_config();
  config.vocab_size = tokenizer().vocab_size();
  config.max_seq_len = 64;
  TransformerModel model(config, rng);
  GenerateOptions options;
  options.max_new_tokens = 8;
  options.temperature = 1.0;
  options.seed = 5;
  const std::string a = generate(model, "hi", options);
  const std::string b = generate(model, "hi", options);
  EXPECT_EQ(a, b);  // same seed, same text
}

}  // namespace
}  // namespace chipalign
