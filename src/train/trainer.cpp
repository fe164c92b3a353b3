#include "train/trainer.hpp"

#include "tensor/tensor_ops.hpp"
#include "train/loss.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace chipalign {

namespace {

void truncate_example(TrainExample& example, std::int64_t max_len) {
  if (static_cast<std::int64_t>(example.tokens.size()) > max_len) {
    example.tokens.resize(static_cast<std::size_t>(max_len));
    example.target_mask.resize(static_cast<std::size_t>(max_len));
  }
}

/// Runs forward + loss + backward for one example; returns the loss.
/// dlogits are scaled by inv_batch so gradients accumulate to a batch mean.
double train_step_one(TrainableModel& model, const TrainExample& example,
                      float inv_batch) {
  Tensor logits = model.forward(example.tokens);
  LossResult loss = cross_entropy_next_token(logits, example.tokens,
                                             example.target_mask);
  if (loss.target_weight <= 0.0) {
    model.discard_forward();  // nothing to learn from this example
    return 0.0;
  }
  ops::scale(loss.dlogits.values(), inv_batch);
  model.backward(loss.dlogits);
  return loss.loss;
}

template <typename PrepareFn, typename FinishFn>
TrainStats run_training(TrainableModel& model,
                        const std::vector<TrainExample>& dataset,
                        const TrainConfig& config, AdamW& optimizer,
                        PrepareFn&& prepare_step, FinishFn&& finish_step) {
  CA_CHECK(!dataset.empty(), "training dataset is empty");
  CA_CHECK(config.steps > 0 && config.batch_size > 0,
           "steps and batch_size must be positive");

  Rng rng(config.seed);
  TrainStats stats;
  stats.losses.reserve(static_cast<std::size_t>(config.steps));
  const float inv_batch = 1.0F / static_cast<float>(config.batch_size);

  for (std::int64_t step = 0; step < config.steps; ++step) {
    prepare_step();
    double batch_loss = 0.0;
    for (std::int64_t b = 0; b < config.batch_size; ++b) {
      const TrainExample& example =
          dataset[static_cast<std::size_t>(rng.uniform_index(dataset.size()))];
      batch_loss += train_step_one(model, example, inv_batch);
    }
    batch_loss /= static_cast<double>(config.batch_size);

    optimizer.set_lr(cosine_lr(step, config.warmup_steps, config.steps,
                               config.peak_lr, config.min_lr_ratio));
    finish_step();

    stats.losses.push_back(batch_loss);
    if (config.log_every > 0 && step % config.log_every == 0) {
      CA_LOG_INFO("step " << step << "/" << config.steps << " loss "
                          << batch_loss << " lr " << optimizer.lr());
    }
  }
  stats.first_loss = stats.losses.front();
  stats.final_loss = stats.losses.back();
  return stats;
}

}  // namespace

TrainExample make_lm_example(std::string_view text, std::int64_t max_len) {
  const CharTokenizer& tok = tokenizer();
  TrainExample example;
  example.tokens = tok.encode(text, /*add_bos=*/true, /*add_eos=*/true);
  example.target_mask.assign(example.tokens.size(), 1.0F);
  example.target_mask[0] = 0.0F;  // <bos> is never a target
  truncate_example(example, max_len);
  return example;
}

TrainExample make_qa_example(std::string_view prompt, std::string_view answer,
                             std::int64_t max_len) {
  const CharTokenizer& tok = tokenizer();
  TrainExample example;
  example.tokens = tok.encode(prompt, /*add_bos=*/true);
  example.target_mask.assign(example.tokens.size(), 0.0F);
  const std::vector<TokenId> answer_tokens =
      tok.encode(answer, /*add_bos=*/false, /*add_eos=*/true);
  for (TokenId id : answer_tokens) {
    example.tokens.push_back(id);
    example.target_mask.push_back(1.0F);
  }
  truncate_example(example, max_len);
  return example;
}

TrainStats train_full(TrainableModel& model,
                      const std::vector<TrainExample>& dataset,
                      const TrainConfig& config) {
  AdamWConfig opt_config;
  opt_config.lr = config.peak_lr;
  opt_config.weight_decay = config.weight_decay;
  opt_config.clip_norm = config.clip_norm;
  AdamW optimizer(model.train_slots(), opt_config);

  return run_training(
      model, dataset, config, optimizer, [&] { model.zero_grad(); },
      [&] { optimizer.step(); });
}

TrainStats train_lora(TrainableModel& model, LoraAdapterSet& adapters,
                      const std::vector<TrainExample>& dataset,
                      const TrainConfig& config) {
  AdamWConfig opt_config;
  opt_config.lr = config.peak_lr;
  opt_config.weight_decay = config.weight_decay;
  opt_config.clip_norm = config.clip_norm;
  AdamW optimizer(adapters.trainable_parameters(), opt_config);

  TrainStats stats = run_training(
      model, dataset, config, optimizer,
      [&] {
        adapters.materialize();
        model.zero_grad();
        adapters.zero_grad();
      },
      [&] {
        adapters.accumulate_adapter_grads();
        optimizer.step();
      });
  adapters.materialize();  // leave the latest adapters applied
  return stats;
}

double evaluate_loss(TrainableModel& model,
                     const std::vector<TrainExample>& dataset) {
  CA_CHECK(!dataset.empty(), "evaluate_loss on empty dataset");
  double total = 0.0;
  double total_weight = 0.0;
  for (const TrainExample& example : dataset) {
    Tensor logits = model.forward(example.tokens);
    const LossResult loss =
        cross_entropy_next_token(logits, example.tokens, example.target_mask);
    model.discard_forward();
    total += loss.loss * loss.target_weight;
    total_weight += loss.target_weight;
  }
  return total_weight > 0.0 ? total / total_weight : 0.0;
}

}  // namespace chipalign
