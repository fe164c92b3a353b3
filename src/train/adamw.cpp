#include "train/adamw.hpp"

#include <cmath>

#include "util/error.hpp"

namespace chipalign {

AdamW::AdamW(std::vector<TrainSlot> slots, AdamWConfig config)
    : slots_(std::move(slots)), config_(config) {
  CA_CHECK(!slots_.empty(), "AdamW with no parameters");
  m_.reserve(slots_.size());
  v_.reserve(slots_.size());
  for (const TrainSlot& slot : slots_) {
    m_.emplace_back(slot.value->shape());
    v_.emplace_back(slot.value->shape());
  }
}

double AdamW::step() {
  ++step_count_;

  // Global gradient norm (for clipping and telemetry).
  double norm_sq = 0.0;
  for (const TrainSlot& slot : slots_) {
    for (float g : slot.grad->values()) {
      norm_sq += static_cast<double>(g) * g;
    }
  }
  const double grad_norm = std::sqrt(norm_sq);
  double clip_scale = 1.0;
  if (config_.clip_norm > 0.0 && grad_norm > config_.clip_norm) {
    clip_scale = config_.clip_norm / (grad_norm + 1e-12);
  }

  const double bias1 = 1.0 - std::pow(config_.beta1,
                                      static_cast<double>(step_count_));
  const double bias2 = 1.0 - std::pow(config_.beta2,
                                      static_cast<double>(step_count_));

  for (std::size_t idx = 0; idx < slots_.size(); ++idx) {
    auto values = slots_[idx].value->values();
    const auto grads = slots_[idx].grad->values();
    auto m = m_[idx].values();
    auto v = v_[idx].values();
    for (std::size_t i = 0; i < values.size(); ++i) {
      const double g = static_cast<double>(grads[i]) * clip_scale;
      m[i] =
          static_cast<float>(config_.beta1 * m[i] + (1.0 - config_.beta1) * g);
      v[i] = static_cast<float>(config_.beta2 * v[i] +
                                (1.0 - config_.beta2) * g * g);
      const double m_hat = m[i] / bias1;
      const double v_hat = v[i] / bias2;
      double update = m_hat / (std::sqrt(v_hat) + config_.eps);
      update += config_.weight_decay * values[i];  // decoupled decay
      values[i] = static_cast<float>(values[i] - config_.lr * update);
    }
  }
  return grad_norm;
}

double cosine_lr(std::int64_t step, std::int64_t warmup_steps,
                 std::int64_t total_steps, double peak_lr, double min_ratio) {
  CA_CHECK(total_steps > 0, "total_steps must be positive");
  if (warmup_steps > 0 && step < warmup_steps) {
    return peak_lr * static_cast<double>(step + 1) /
           static_cast<double>(warmup_steps);
  }
  const double progress =
      std::min(1.0, static_cast<double>(step - warmup_steps) /
                        std::max<double>(1.0, static_cast<double>(
                                                  total_steps - warmup_steps)));
  const double cosine =
      0.5 * (1.0 + std::cos(3.14159265358979323846 * progress));
  return peak_lr * (min_ratio + (1.0 - min_ratio) * cosine);
}

}  // namespace chipalign
