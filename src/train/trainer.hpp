#pragma once
/// \file trainer.hpp
/// \brief Training loops: full finetuning and LoRA finetuning.
///
/// The trainer processes one sequence at a time and accumulates gradients
/// over a batch before each AdamW step (gradient accumulation — exact for
/// our batch sizes and simple to reason about). Examples are sampled with a
/// seeded RNG so runs are reproducible.

#include <cstdint>
#include <string>
#include <vector>

#include "train/adamw.hpp"
#include "train/lora.hpp"
#include "train/trainable_model.hpp"

namespace chipalign {

/// One training sequence: tokens plus per-token *target* weights. Position t
/// is trained to predict tokens[t+1] with weight target_mask[t+1]; prompt
/// tokens typically carry weight 0 so only answers are learned.
struct TrainExample {
  std::vector<TokenId> tokens;
  std::vector<float> target_mask;
};

/// Plain language-modeling example: every non-<bos> token is a target.
TrainExample make_lm_example(std::string_view text, std::int64_t max_len);

/// Supervised QA example: only the answer (and <eos>) tokens are targets.
/// Layout: <bos> prompt answer <eos>, truncated to max_len.
TrainExample make_qa_example(std::string_view prompt, std::string_view answer,
                             std::int64_t max_len);

/// Trainer hyperparameters.
struct TrainConfig {
  std::int64_t steps = 200;
  std::int64_t batch_size = 8;
  double peak_lr = 1e-3;
  std::int64_t warmup_steps = 20;
  double min_lr_ratio = 0.1;
  double weight_decay = 0.01;
  double clip_norm = 1.0;
  std::uint64_t seed = 123;
  std::int64_t log_every = 0;  ///< 0 disables progress logging
};

/// Outcome of a training run.
struct TrainStats {
  std::vector<double> losses;  ///< mean batch loss per step
  double first_loss = 0.0;
  double final_loss = 0.0;
};

/// Full-parameter finetuning (used for pretraining and the instruct model).
TrainStats train_full(TrainableModel& model,
                      const std::vector<TrainExample>& dataset,
                      const TrainConfig& config);

/// LoRA finetuning (the paper's DAFT recipe). Only adapter parameters are
/// updated; call adapters.fold() afterwards to bake them in.
TrainStats train_lora(TrainableModel& model, LoraAdapterSet& adapters,
                      const std::vector<TrainExample>& dataset,
                      const TrainConfig& config);

/// Mean loss of the model over a dataset (no gradient updates).
double evaluate_loss(TrainableModel& model,
                     const std::vector<TrainExample>& dataset);

}  // namespace chipalign
