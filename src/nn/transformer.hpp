#pragma once
/// \file transformer.hpp
/// \brief LLaMA-style decoder-only transformer: config, RoPE cache, weights.
///
/// Architecture (per block): RMSNorm -> causal self-attention with RoPE and
/// grouped-query heads -> residual -> RMSNorm -> SwiGLU MLP -> residual.
/// Final RMSNorm, tied LM head (logits = x @ embedding^T).
///
/// Tensor naming follows the HuggingFace LLaMA convention
/// ("model.layers.N.self_attn.q_proj.weight", ...) so checkpoints look like
/// miniature versions of the models the paper merges.
///
/// The class holds weights only, fp32 or quantized, and is what every
/// inference path serves: the forward pass over KV-cached sessions lives in
/// nn/decode.hpp. Training wraps an fp32 model in TrainableModel
/// (train/trainable_model.hpp), which owns the gradients and the stashed
/// activations.

#include <cstdint>
#include <string>
#include <vector>

#include "model/checkpoint.hpp"
#include "nn/param.hpp"
#include "nn/rotary.hpp"
#include "text/tokenizer.hpp"

namespace chipalign {

/// One transformer block's parameters.
struct TransformerBlock {
  Parameter input_norm;   ///< [d]
  Parameter q_proj;       ///< [d, d]
  Parameter k_proj;       ///< [kv_dim, d]
  Parameter v_proj;       ///< [kv_dim, d]
  Parameter o_proj;       ///< [d, d]
  Parameter post_norm;    ///< [d]
  Parameter gate_proj;    ///< [d_ff, d]
  Parameter up_proj;      ///< [d_ff, d]
  Parameter down_proj;    ///< [d, d_ff]
};

/// Decoder-only transformer weights.
class TransformerModel {
 public:
  /// Randomly initialized model (scaled-normal init).
  TransformerModel(ModelConfig config, Rng& rng);

  /// Model with all parameters zero (used by from_checkpoint).
  explicit TransformerModel(ModelConfig config);

  TransformerModel(TransformerModel&&) noexcept = default;
  TransformerModel& operator=(TransformerModel&&) noexcept = default;
  TransformerModel(const TransformerModel&) = delete;
  TransformerModel& operator=(const TransformerModel&) = delete;

  const ModelConfig& config() const { return config_; }
  const RotaryCache& rotary() const { return rotary_; }

  /// Storage dtype of the rank-2 weights: kF32 until quantize_weights().
  DType weight_dtype() const { return weight_dtype_; }

  /// Quantizes every rank-2 weight (embedding + the nine block matrices)
  /// into `dtype` storage (kF16 / kBF16 / kI8), freeing the fp32 values;
  /// rmsnorm vectors stay fp32. Decode reads the quantized storage directly
  /// through the dequantizing kernels. Shrinks resident weight bytes 2x
  /// (f16/bf16) or ~4x (int8).
  void quantize_weights(DType dtype);

  /// All parameters in a stable order (embedding, blocks, final norm).
  std::vector<Parameter*> parameters();
  std::vector<const Parameter*> parameters() const;

  const Parameter& embed() const { return embed_; }
  const std::vector<TransformerBlock>& blocks() const { return blocks_; }
  const Parameter& final_norm() const { return final_norm_; }

  /// Total scalar parameter count.
  std::int64_t parameter_count() const;

  /// Snapshot of the weights under LLaMA-style names.
  Checkpoint to_checkpoint() const;

  /// Builds an fp32 model from a checkpoint produced by to_checkpoint() (or
  /// by the merge library). Validates names and shapes.
  static TransformerModel from_checkpoint(const Checkpoint& checkpoint);

 private:
  void init_parameters(Rng& rng);
  void name_parameters();

  ModelConfig config_;
  RotaryCache rotary_;

  Parameter embed_;  ///< [vocab, d]; also the tied LM head
  std::vector<TransformerBlock> blocks_;
  Parameter final_norm_;  ///< [d]
  DType weight_dtype_ = DType::kF32;
};

}  // namespace chipalign
