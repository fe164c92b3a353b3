#include "nn/transformer.hpp"

#include <cmath>

#include "util/error.hpp"

namespace chipalign {

TransformerModel::TransformerModel(ModelConfig config)
    : config_(std::move(config)),
      rotary_(config_.head_dim(), config_.max_seq_len, config_.rope_theta) {
  config_.validate();
  CA_CHECK(config_.tied_embeddings,
           "this implementation supports tied embeddings only");
  const std::int64_t d = config_.d_model;
  const std::int64_t kv_dim = config_.n_kv_heads * config_.head_dim();
  embed_ = Parameter("", Tensor({config_.vocab_size, d}));
  blocks_.resize(static_cast<std::size_t>(config_.n_layers));
  for (auto& block : blocks_) {
    block.input_norm = Parameter("", Tensor::full({d}, 1.0F));
    block.q_proj = Parameter("", Tensor({d, d}));
    block.k_proj = Parameter("", Tensor({kv_dim, d}));
    block.v_proj = Parameter("", Tensor({kv_dim, d}));
    block.o_proj = Parameter("", Tensor({d, d}));
    block.post_norm = Parameter("", Tensor::full({d}, 1.0F));
    block.gate_proj = Parameter("", Tensor({config_.d_ff, d}));
    block.up_proj = Parameter("", Tensor({config_.d_ff, d}));
    block.down_proj = Parameter("", Tensor({d, config_.d_ff}));
  }
  final_norm_ = Parameter("", Tensor::full({d}, 1.0F));
  name_parameters();
}

TransformerModel::TransformerModel(ModelConfig config, Rng& rng)
    : TransformerModel(std::move(config)) {
  init_parameters(rng);
}

void TransformerModel::init_parameters(Rng& rng) {
  const auto fill_randn = [&rng](Tensor& t, float stddev) {
    for (float& v : t.values()) v = static_cast<float>(rng.gaussian()) * stddev;
  };
  constexpr float kEmbedStd = 0.02F;
  fill_randn(embed_.value, kEmbedStd);
  // Residual-branch projections scaled down with depth (GPT-2 style) so the
  // randomly initialized model starts in a stable regime.
  const float proj_std =
      kEmbedStd / std::sqrt(2.0F * static_cast<float>(config_.n_layers));
  for (auto& block : blocks_) {
    fill_randn(block.q_proj.value, kEmbedStd);
    fill_randn(block.k_proj.value, kEmbedStd);
    fill_randn(block.v_proj.value, kEmbedStd);
    fill_randn(block.o_proj.value, proj_std);
    fill_randn(block.gate_proj.value, kEmbedStd);
    fill_randn(block.up_proj.value, kEmbedStd);
    fill_randn(block.down_proj.value, proj_std);
  }
}

void TransformerModel::name_parameters() {
  embed_.name = "model.embed_tokens.weight";
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const std::string prefix = "model.layers." + std::to_string(i) + ".";
    blocks_[i].input_norm.name = prefix + "input_layernorm.weight";
    blocks_[i].q_proj.name = prefix + "self_attn.q_proj.weight";
    blocks_[i].k_proj.name = prefix + "self_attn.k_proj.weight";
    blocks_[i].v_proj.name = prefix + "self_attn.v_proj.weight";
    blocks_[i].o_proj.name = prefix + "self_attn.o_proj.weight";
    blocks_[i].post_norm.name = prefix + "post_attention_layernorm.weight";
    blocks_[i].gate_proj.name = prefix + "mlp.gate_proj.weight";
    blocks_[i].up_proj.name = prefix + "mlp.up_proj.weight";
    blocks_[i].down_proj.name = prefix + "mlp.down_proj.weight";
  }
  final_norm_.name = "model.norm.weight";
}

std::vector<Parameter*> TransformerModel::parameters() {
  std::vector<Parameter*> out;
  out.push_back(&embed_);
  for (auto& block : blocks_) {
    out.push_back(&block.input_norm);
    out.push_back(&block.q_proj);
    out.push_back(&block.k_proj);
    out.push_back(&block.v_proj);
    out.push_back(&block.o_proj);
    out.push_back(&block.post_norm);
    out.push_back(&block.gate_proj);
    out.push_back(&block.up_proj);
    out.push_back(&block.down_proj);
  }
  out.push_back(&final_norm_);
  return out;
}

std::vector<const Parameter*> TransformerModel::parameters() const {
  auto mutable_params = const_cast<TransformerModel*>(this)->parameters();
  return {mutable_params.begin(), mutable_params.end()};
}

std::int64_t TransformerModel::parameter_count() const {
  std::int64_t total = 0;
  for (const Parameter* p : parameters()) {
    total += p->quantized() ? p->qvalue.rows * p->qvalue.cols
                            : p->value.numel();
  }
  return total;
}

void TransformerModel::quantize_weights(DType dtype) {
  CA_CHECK(dtype == DType::kF16 || dtype == DType::kBF16 ||
               dtype == DType::kI8,
           "quantize_weights: unsupported dtype " << dtype_name(dtype));
  CA_CHECK(weight_dtype_ == DType::kF32,
           "model weights are already quantized (" <<
               dtype_name(weight_dtype_) << ")");
  for (Parameter* p : parameters()) {
    if (p->value.rank() != 2) continue;  // rmsnorm vectors stay fp32
    p->qvalue = quantize_tensor(p->value, dtype);
    p->value = Tensor();
  }
  weight_dtype_ = dtype;
}

Checkpoint TransformerModel::to_checkpoint() const {
  std::map<std::string, Tensor> tensors;
  for (const Parameter* p : parameters()) {
    tensors.emplace(p->name, p->quantized() ? dequantize_tensor(p->qvalue)
                                            : p->value);
  }
  return Checkpoint(config_, std::move(tensors));
}

TransformerModel TransformerModel::from_checkpoint(
    const Checkpoint& checkpoint) {
  TransformerModel model(checkpoint.config());
  auto params = model.parameters();
  CA_CHECK(checkpoint.tensors().size() == params.size(),
           "checkpoint has " << checkpoint.tensors().size()
                             << " tensors, model expects " << params.size());
  for (Parameter* p : params) {
    const Tensor& src = checkpoint.at(p->name);
    CA_CHECK(src.same_shape(p->value),
             "tensor '" << p->name << "' shape mismatch: checkpoint "
                        << shape_to_string(src.shape()) << " vs model "
                        << shape_to_string(p->value.shape()));
    p->value = src;
  }
  return model;
}

}  // namespace chipalign
