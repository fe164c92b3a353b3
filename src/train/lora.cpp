#include "train/lora.hpp"

#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"
#include "util/string_utils.hpp"

namespace chipalign {

LoraAdapterSet::LoraAdapterSet(TrainableModel& model, LoraConfig config)
    : config_(std::move(config)) {
  CA_CHECK(config_.rank > 0, "LoRA rank must be positive");
  CA_CHECK(config_.alpha > 0.0, "LoRA alpha must be positive");
  CA_CHECK(!config_.target_suffixes.empty(), "LoRA needs at least one target");

  Rng rng(config_.seed);
  const std::vector<Parameter*> params = model.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    Parameter* p = params[i];
    bool matched = false;
    for (const std::string& suffix : config_.target_suffixes) {
      if (ends_with(p->name, suffix)) {
        matched = true;
        break;
      }
    }
    if (!matched) continue;
    CA_CHECK(p->value.rank() == 2,
             "LoRA target '" << p->name << "' is not a matrix");

    LoraAdapter adapter;
    adapter.target = p;
    adapter.target_grad = &model.grads()[i];
    adapter.base = p->value;
    const std::int64_t out_dim = p->value.dim(0);
    const std::int64_t in_dim = p->value.dim(1);
    adapter.a = Tensor::randn({config_.rank, in_dim}, rng, 0.02F);
    adapter.b = Tensor({out_dim, config_.rank});  // zero init
    adapter.grad_a = Tensor(adapter.a.shape());
    adapter.grad_b = Tensor(adapter.b.shape());
    adapters_.push_back(std::move(adapter));
  }
  CA_CHECK(!adapters_.empty(), "no model parameter matched any LoRA target");
}

std::vector<TrainSlot> LoraAdapterSet::trainable_parameters() {
  std::vector<TrainSlot> out;
  out.reserve(adapters_.size() * 2);
  for (LoraAdapter& adapter : adapters_) {
    out.push_back({&adapter.a, &adapter.grad_a});
    out.push_back({&adapter.b, &adapter.grad_b});
  }
  return out;
}

void LoraAdapterSet::materialize() {
  const auto scale = static_cast<float>(scaling());
  for (LoraAdapter& adapter : adapters_) {
    // W_eff = base + scale * B A  (B [out, r], A [r, in])
    Tensor delta = ops::matmul(adapter.b, adapter.a);
    ops::scale(delta.values(), scale);
    adapter.target->value = ops::add(adapter.base, delta);
  }
}

void LoraAdapterSet::accumulate_adapter_grads() {
  const auto scale = static_cast<float>(scaling());
  for (LoraAdapter& adapter : adapters_) {
    const Tensor& dw = *adapter.target_grad;  // [out, in]
    // dB += scale * dW A^T : [out, in] x [in, r]
    Tensor db = ops::matmul_nt(dw, adapter.a);  // A [r, in] -> A^T
    ops::scale(db.values(), scale);
    ops::axpy(1.0F, db.values(), adapter.grad_b.values());
    // dA += scale * B^T dW : [r, out] x [out, in]
    Tensor da(adapter.a.shape());
    ops::matmul_tn_accum(adapter.b, dw, da);  // B^T dW
    ops::scale(da.values(), scale);
    ops::axpy(1.0F, da.values(), adapter.grad_a.values());
  }
}

void LoraAdapterSet::zero_grad() {
  for (LoraAdapter& adapter : adapters_) {
    adapter.grad_a.fill(0.0F);
    adapter.grad_b.fill(0.0F);
  }
}

void LoraAdapterSet::restore_base() {
  for (LoraAdapter& adapter : adapters_) adapter.target->value = adapter.base;
}

void LoraAdapterSet::fold() {
  materialize();  // leave W_eff in the model
}

}  // namespace chipalign
