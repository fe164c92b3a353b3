// Tests for the training substrate: loss, AdamW, LR schedule, LoRA, trainer.

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/tensor_ops.hpp"
#include "train/adamw.hpp"
#include "train/loss.hpp"
#include "train/lora.hpp"
#include "train/trainer.hpp"
#include "util/error.hpp"

namespace chipalign {
namespace {

ModelConfig micro_config() {
  ModelConfig config;
  config.name = "micro";
  config.vocab_size = tokenizer().vocab_size();
  config.d_model = 16;
  config.n_layers = 2;
  config.n_heads = 2;
  config.n_kv_heads = 2;
  config.d_ff = 24;
  config.max_seq_len = 64;
  config.validate();
  return config;
}

TEST(Loss, UniformLogitsGiveLogVocab) {
  const std::int64_t vocab = 7;
  Tensor logits({3, vocab});  // all zeros -> uniform distribution
  const std::vector<TokenId> tokens = {1, 2, 3};
  const std::vector<float> mask = {0.0F, 1.0F, 1.0F};
  const LossResult result = cross_entropy_next_token(logits, tokens, mask);
  EXPECT_NEAR(result.loss, std::log(static_cast<double>(vocab)), 1e-6);
  EXPECT_DOUBLE_EQ(result.target_weight, 2.0);
}

TEST(Loss, PerfectPredictionHasNearZeroLoss) {
  Tensor logits({2, 5});
  // Position 0 predicts token 3 (the target tokens[1]).
  logits.at2(0, 3) = 50.0F;
  const std::vector<TokenId> tokens = {0, 3};
  const std::vector<float> mask = {0.0F, 1.0F};
  const LossResult result = cross_entropy_next_token(logits, tokens, mask);
  EXPECT_LT(result.loss, 1e-6);
}

TEST(Loss, GradientSumsToZeroPerRow) {
  Rng rng(1);
  Tensor logits = Tensor::randn({3, 6}, rng);
  const std::vector<TokenId> tokens = {1, 2, 3};
  const std::vector<float> mask = {0.0F, 1.0F, 1.0F};
  const LossResult result = cross_entropy_next_token(logits, tokens, mask);
  for (std::int64_t t = 0; t + 1 < 3; ++t) {
    double row_sum = 0.0;
    for (float v : result.dlogits.row(t)) row_sum += v;
    EXPECT_NEAR(row_sum, 0.0, 1e-6) << "row " << t;
  }
}

TEST(Loss, MaskedPositionsGetNoGradient) {
  Rng rng(2);
  Tensor logits = Tensor::randn({3, 6}, rng);
  const std::vector<TokenId> tokens = {1, 2, 3};
  const std::vector<float> mask = {0.0F, 0.0F, 1.0F};  // only last target
  const LossResult result = cross_entropy_next_token(logits, tokens, mask);
  for (float v : result.dlogits.row(0)) EXPECT_EQ(v, 0.0F);
}

TEST(Loss, ZeroMaskMeansZeroLoss) {
  Tensor logits({2, 4});
  const LossResult result =
      cross_entropy_next_token(logits, {0, 1}, {0.0F, 0.0F});
  EXPECT_EQ(result.loss, 0.0);
  EXPECT_EQ(result.target_weight, 0.0);
}

TEST(AdamW, MinimizesQuadratic) {
  // One parameter, loss = 0.5 * ||x - target||^2, grad = x - target.
  Tensor x({4}, {5.0F, -3.0F, 2.0F, 0.0F});
  Tensor grad(x.shape());
  const Tensor target({4}, {1.0F, 1.0F, 1.0F, 1.0F});

  AdamWConfig config;
  config.lr = 0.05;
  config.weight_decay = 0.0;
  config.clip_norm = 0.0;
  AdamW optimizer({{&x, &grad}}, config);

  for (int step = 0; step < 400; ++step) {
    for (std::int64_t i = 0; i < 4; ++i) grad[i] = x[i] - target[i];
    optimizer.step();
  }
  EXPECT_LT(ops::max_abs_diff(x, target), 0.05);
}

TEST(AdamW, ClipBoundsGradientNorm) {
  Tensor x({2}, {0.0F, 0.0F});
  Tensor grad({2}, {300.0F, 400.0F});  // norm 500
  AdamWConfig config;
  config.clip_norm = 1.0;
  AdamW optimizer({{&x, &grad}}, config);
  const double reported = optimizer.step();
  EXPECT_NEAR(reported, 500.0, 1e-3);  // pre-clip norm is reported
}

TEST(AdamW, WeightDecayShrinksWeightsWithZeroGrad) {
  Tensor x({1}, {10.0F});
  const Tensor grad({1});
  AdamWConfig config;
  config.lr = 0.1;
  config.weight_decay = 0.5;
  config.clip_norm = 0.0;
  AdamW optimizer({{&x, &grad}}, config);
  optimizer.step();  // grad 0: update = wd * w = 5 -> w -= lr * 5
  EXPECT_NEAR(x[0], 10.0F - 0.1F * 5.0F, 1e-4);
}

TEST(CosineLr, WarmupThenDecay) {
  const double peak = 1.0;
  EXPECT_NEAR(cosine_lr(0, 10, 100, peak), 0.1, 1e-9);   // warmup ramp
  EXPECT_NEAR(cosine_lr(9, 10, 100, peak), 1.0, 1e-9);   // warmup end
  EXPECT_NEAR(cosine_lr(10, 10, 100, peak), 1.0, 1e-6);  // cosine start
  EXPECT_NEAR(cosine_lr(100, 10, 100, peak), 0.1, 1e-6); // min ratio floor
  // Midpoint of decay: 0.1 + 0.9 * 0.5 = 0.55
  EXPECT_NEAR(cosine_lr(55, 10, 100, peak), 0.55, 1e-6);
}

TEST(Examples, LmExampleMasksBosOnly) {
  const TrainExample example = make_lm_example("ab", 32);
  ASSERT_EQ(example.tokens.size(), 4u);  // bos a b eos
  EXPECT_EQ(example.target_mask[0], 0.0F);
  EXPECT_EQ(example.target_mask[1], 1.0F);
  EXPECT_EQ(example.target_mask[3], 1.0F);
}

TEST(Examples, QaExampleMasksPrompt) {
  const TrainExample example = make_qa_example("q: x\nout: ", "yes", 64);
  // Prompt tokens weight 0, answer + eos weight 1.
  std::size_t weighted = 0;
  for (float w : example.target_mask) weighted += w > 0.0F ? 1 : 0;
  EXPECT_EQ(weighted, 4u);  // 'y' 'e' 's' + eos
  EXPECT_EQ(example.target_mask[0], 0.0F);
}

TEST(Examples, TruncationRespectsMaxLen) {
  const TrainExample example = make_lm_example(std::string(100, 'a'), 16);
  EXPECT_EQ(example.tokens.size(), 16u);
  EXPECT_EQ(example.target_mask.size(), 16u);
}

TEST(Lora, BZeroInitKeepsModelUnchanged) {
  Rng rng(3);
  TrainableModel model(micro_config(), rng);
  const Checkpoint before = model.to_checkpoint();

  LoraConfig config;
  config.rank = 2;
  LoraAdapterSet adapters(model, config);
  adapters.materialize();

  const Checkpoint after = model.to_checkpoint();
  for (const std::string& name : before.names()) {
    EXPECT_LT(ops::max_abs_diff(before.at(name), after.at(name)), 1e-7) << name;
  }
}

TEST(Lora, MatchesFullWeightGradientProjection) {
  Rng rng(4);
  TrainableModel model(micro_config(), rng);
  LoraConfig config;
  config.rank = 2;
  config.target_suffixes = {"self_attn.q_proj.weight"};
  LoraAdapterSet adapters(model, config);
  EXPECT_EQ(adapters.adapter_count(), 2u);  // one per layer

  adapters.materialize();
  model.zero_grad();
  adapters.zero_grad();

  const TrainExample example = make_qa_example("q: a\nout: ", "b", 32);
  const Tensor logits = model.forward(example.tokens);
  const LossResult loss =
      cross_entropy_next_token(logits, example.tokens, example.target_mask);
  model.backward(loss.dlogits);
  adapters.accumulate_adapter_grads();

  // Finite-difference check on one A entry.
  const TrainSlot a_param = adapters.trainable_parameters()[0];
  const std::int64_t idx = 3;
  const double analytic = (*a_param.grad)[idx];

  auto loss_with = [&](float delta) {
    const float saved = (*a_param.value)[idx];
    (*a_param.value)[idx] = saved + delta;
    adapters.materialize();
    const Tensor l = model.forward(example.tokens);
    const LossResult r =
        cross_entropy_next_token(l, example.tokens, example.target_mask);
    model.discard_forward();
    (*a_param.value)[idx] = saved;
    adapters.materialize();
    return r.loss;
  };
  constexpr float kH = 1e-2F;
  const double numeric = (loss_with(kH) - loss_with(-kH)) / (2.0 * kH);
  EXPECT_NEAR(analytic, numeric, std::max(2e-3, 5e-2 * std::abs(analytic)));
}

TEST(Lora, RestoreBaseUndoesAdaptation) {
  Rng rng(5);
  TrainableModel model(micro_config(), rng);
  const Checkpoint before = model.to_checkpoint();

  LoraConfig config;
  config.rank = 2;
  LoraAdapterSet adapters(model, config);
  // Poke the adapters so W_eff != W_base.
  for (const TrainSlot& slot : adapters.trainable_parameters()) {
    slot.value->fill(0.05F);
  }
  adapters.materialize();
  const Checkpoint changed = model.to_checkpoint();
  EXPECT_GT(ops::max_abs_diff(
                before.at("model.layers.0.self_attn.q_proj.weight"),
                changed.at("model.layers.0.self_attn.q_proj.weight")),
            1e-4);

  adapters.restore_base();
  const Checkpoint restored = model.to_checkpoint();
  for (const std::string& name : before.names()) {
    EXPECT_LT(ops::max_abs_diff(before.at(name), restored.at(name)), 1e-7);
  }
}

TEST(Lora, RejectsUnmatchedTargets) {
  Rng rng(6);
  TrainableModel model(micro_config(), rng);
  LoraConfig config;
  config.target_suffixes = {"no.such.weight"};
  EXPECT_THROW(LoraAdapterSet(model, config), Error);
}

TEST(Trainer, FullTrainingReducesLoss) {
  Rng rng(7);
  TrainableModel model(micro_config(), rng);

  // Tiny memorization task: one QA pair repeated.
  std::vector<TrainExample> dataset;
  for (int i = 0; i < 4; ++i) {
    dataset.push_back(make_qa_example("q: ping\nout: ", "pong", 64));
  }

  TrainConfig config;
  config.steps = 60;
  config.batch_size = 2;
  config.peak_lr = 5e-3;
  config.warmup_steps = 5;
  const TrainStats stats = train_full(model, dataset, config);
  EXPECT_LT(stats.final_loss, stats.first_loss * 0.5);
  EXPECT_LT(evaluate_loss(model, dataset), stats.first_loss);
}

TEST(Trainer, LoraTrainingReducesLoss) {
  // LoRA adapts a *pretrained* model (a random LM head cannot be reshaped
  // through low-rank updates alone), so first full-train on one mapping,
  // then LoRA-train the reverse mapping.
  Rng rng(8);
  TrainableModel model(micro_config(), rng);
  {
    std::vector<TrainExample> warmup;
    for (int i = 0; i < 4; ++i) {
      warmup.push_back(make_qa_example("q: ping\nout: ", "pong", 64));
    }
    TrainConfig config;
    config.steps = 80;
    config.batch_size = 2;
    config.peak_lr = 5e-3;
    config.warmup_steps = 5;
    train_full(model, warmup, config);
  }

  LoraConfig lora_config;
  lora_config.rank = 4;
  lora_config.target_suffixes = {
      "self_attn.q_proj.weight", "self_attn.v_proj.weight",
      "mlp.gate_proj.weight",    "mlp.down_proj.weight"};
  LoraAdapterSet adapters(model, lora_config);

  std::vector<TrainExample> dataset;
  for (int i = 0; i < 4; ++i) {
    dataset.push_back(make_qa_example("q: pong\nout: ", "ping", 64));
  }

  TrainConfig config;
  config.steps = 150;
  config.batch_size = 2;
  config.peak_lr = 5e-3;
  config.warmup_steps = 10;
  const TrainStats stats = train_lora(model, adapters, dataset, config);
  EXPECT_LT(stats.final_loss, stats.first_loss * 0.7);
}

TEST(Trainer, RejectsEmptyDataset) {
  Rng rng(9);
  TrainableModel model(micro_config(), rng);
  EXPECT_THROW(train_full(model, {}, TrainConfig{}), Error);
}

}  // namespace
}  // namespace chipalign
