#pragma once
/// \file adamw.hpp
/// \brief AdamW optimizer with decoupled weight decay and global-norm
/// gradient clipping.

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace chipalign {

/// One tensor an optimizer updates, and the gradient accumulated for it.
struct TrainSlot {
  Tensor* value = nullptr;
  const Tensor* grad = nullptr;
};

/// AdamW hyperparameters.
struct AdamWConfig {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.95;
  double eps = 1e-8;
  double weight_decay = 0.01;
  double clip_norm = 1.0;  ///< 0 disables clipping
};

/// Optimizer over externally owned value/gradient pairs. Moment buffers are
/// allocated at construction and keyed by list position.
class AdamW {
 public:
  AdamW(std::vector<TrainSlot> slots, AdamWConfig config);

  /// Applies one update from the accumulated gradients (does not zero them).
  /// Returns the pre-clip global gradient norm.
  double step();

  /// Current learning rate (mutable for schedules).
  void set_lr(double lr) { config_.lr = lr; }
  double lr() const { return config_.lr; }

  std::int64_t step_count() const { return step_count_; }

 private:
  std::vector<TrainSlot> slots_;
  AdamWConfig config_;
  std::int64_t step_count_ = 0;
  std::vector<Tensor> m_;  ///< first moments
  std::vector<Tensor> v_;  ///< second moments
};

/// Cosine learning-rate schedule with linear warmup, decaying to
/// min_ratio * peak_lr at total_steps.
double cosine_lr(std::int64_t step, std::int64_t warmup_steps,
                 std::int64_t total_steps, double peak_lr,
                 double min_ratio = 0.1);

}  // namespace chipalign
