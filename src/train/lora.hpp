#pragma once
/// \file lora.hpp
/// \brief Low-Rank Adaptation (LoRA) for the transformer's linear layers.
///
/// The paper's domain-adaptive finetuning (DAFT) uses LoRA with rank 8 and
/// alpha 16; we mirror that pipeline. For each targeted weight W (shape
/// [out, in]) we learn A [rank, in] and B [out, rank] with effective weight
///
///   W_eff = W_base + (alpha / rank) * B @ A
///
/// Adapters attach to a TrainableModel. Training materializes W_eff into
/// its weights before each forward pass and projects the resulting
/// full-weight gradient (the model's grads()) back onto A and B, whose
/// values and gradients the adapter set owns (exact, because W_eff is
/// linear in both). fold() bakes the adapters into the weights, producing
/// the merged "EDA model" checkpoint of Figure 4(a).

#include <cstdint>
#include <string>
#include <vector>

#include "train/trainable_model.hpp"

namespace chipalign {

/// LoRA hyperparameters. Targets are parameter-name suffixes.
struct LoraConfig {
  std::int64_t rank = 8;
  double alpha = 16.0;
  /// Which linear layers receive adapters (matched by name suffix).
  std::vector<std::string> target_suffixes = {
      "self_attn.q_proj.weight", "self_attn.k_proj.weight",
      "self_attn.v_proj.weight", "self_attn.o_proj.weight",
  };
  std::uint64_t seed = 42;
};

/// A rank-r adapter pair bound to one model parameter.
struct LoraAdapter {
  Parameter* target = nullptr;          ///< the model weight augmented
  const Tensor* target_grad = nullptr;  ///< its gradient in the model
  Tensor base;                          ///< frozen copy of the weight
  Tensor a;                             ///< [rank, in], gaussian init
  Tensor b;                             ///< [out, rank], zero init
  Tensor grad_a;
  Tensor grad_b;
};

/// The set of adapters attached to a model for one finetuning run.
class LoraAdapterSet {
 public:
  /// Snapshots the base weights of every matched parameter and initializes
  /// adapters (A gaussian, B zero => W_eff == W_base initially). The
  /// adapters point into `model`, which must outlive the set.
  LoraAdapterSet(TrainableModel& model, LoraConfig config);

  const LoraConfig& config() const { return config_; }
  std::size_t adapter_count() const { return adapters_.size(); }

  /// Trainable parameters (all A and B matrices) for the optimizer.
  std::vector<TrainSlot> trainable_parameters();

  /// Writes W_eff = base + scaling * B A into each target weight. Call
  /// before every forward pass during training.
  void materialize();

  /// Projects the full-weight gradients (the model's grads() of the target
  /// parameters, accumulated by backward()) onto the adapter gradients:
  ///   dA += scaling * B^T dW,   dB += scaling * dW A^T.
  /// Call after backward passes, before the optimizer step.
  void accumulate_adapter_grads();

  /// Zeroes adapter gradients (the model's own grads are zeroed separately).
  void zero_grad();

  /// Restores the original base weights in the model (abandons adaptation).
  void restore_base();

  /// Bakes the adapters into the model weights permanently (the model keeps
  /// W_eff; adapters become inert). The model is then a plain checkpoint.
  void fold();

  double scaling() const {
    return config_.alpha / static_cast<double>(config_.rank);
  }

 private:
  LoraConfig config_;
  std::vector<LoraAdapter> adapters_;
};

}  // namespace chipalign
