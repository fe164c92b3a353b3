#pragma once
/// \file trainable_model.hpp
/// \brief An fp32 TransformerModel plus the state training adds to it.
///
/// The served TransformerModel holds weights only. Training wraps one in
/// this type, which owns a gradient per parameter and the activations
/// forward() stashes for backward(). It is built from a seed or a
/// checkpoint, always fp32, and has no quantize_weights(), so a quantized
/// model cannot be trained. One forward may be pending at a time.

#include <memory>
#include <vector>

#include "model/checkpoint.hpp"
#include "nn/transformer.hpp"
#include "train/adamw.hpp"

namespace chipalign {

class TrainableModel {
 public:
  /// Randomly initialized model (TransformerModel's scaled-normal init).
  TrainableModel(ModelConfig config, Rng& rng);

  /// Model holding a checkpoint's weights (names and shapes validated).
  explicit TrainableModel(const Checkpoint& checkpoint);

  const ModelConfig& config() const { return model_.config(); }

  /// The weights, for inference-style use (generate, scoring).
  const TransformerModel& model() const { return model_; }

  /// The model's parameters, in TransformerModel::parameters() order.
  std::vector<Parameter*> parameters() { return model_.parameters(); }

  /// grads()[i] is the gradient of parameters()[i].
  const std::vector<Tensor>& grads() const { return grads_; }

  /// Every parameter's value with its gradient, for the optimizer.
  std::vector<TrainSlot> train_slots();

  void zero_grad();

  Checkpoint to_checkpoint() const { return model_.to_checkpoint(); }

  /// Runs the model over a token sequence (length T <= max_seq_len) and
  /// returns logits [T, vocab]. Stashes activations for backward().
  Tensor forward(const std::vector<TokenId>& tokens);

  /// Backpropagates from dlogits [T, vocab] (as produced for the most recent
  /// forward()) into the gradients. Throws if no forward is pending.
  void backward(const Tensor& dlogits);

  /// Drops the pending forward activations without backpropagating (used by
  /// evaluations that only need the logits).
  void discard_forward();

 private:
  struct BlockCache {
    Tensor x_in;               ///< block input [T, d]
    std::vector<float> inv_rms1;
    Tensor normed1;            ///< [T, d]
    Tensor q;                  ///< post-RoPE [T, d]
    Tensor k;                  ///< post-RoPE [T, kv_dim]
    Tensor v;                  ///< [T, kv_dim]
    Tensor probs;              ///< [n_heads, T, T] causal softmax rows
    Tensor att_concat;         ///< [T, d] pre-o_proj
    Tensor x_mid;              ///< after attention residual [T, d]
    std::vector<float> inv_rms2;
    Tensor normed2;            ///< [T, d]
    Tensor gate_pre;           ///< [T, d_ff] pre-SiLU
    Tensor up_out;             ///< [T, d_ff]
    Tensor h;                  ///< silu(gate) * up [T, d_ff]
  };

  struct ForwardCache {
    std::vector<TokenId> tokens;
    std::vector<BlockCache> blocks;
    Tensor x_final;            ///< input to the final norm [T, d]
    std::vector<float> inv_rms_final;
    Tensor normed_final;       ///< [T, d]
  };

  explicit TrainableModel(TransformerModel model);

  TransformerModel model_;
  std::vector<Tensor> grads_;
  std::unique_ptr<ForwardCache> cache_;  ///< pending forward activations
};

}  // namespace chipalign
