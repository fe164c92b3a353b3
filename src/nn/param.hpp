#pragma once
/// \file param.hpp
/// \brief Model parameter: a named weight tensor.

#include <string>

#include "tensor/quant.hpp"
#include "tensor/tensor.hpp"

namespace chipalign {

/// One named weight. TransformerModel::quantize_weights() moves rank-2
/// weights into `qvalue` (f16/bf16/int8 storage read directly by the
/// dequantizing kernels) and frees `value`. Gradients are training state
/// and live in TrainableModel (train/trainable_model.hpp), not here.
struct Parameter {
  std::string name;
  Tensor value;
  QuantTensor qvalue;

  Parameter() = default;
  Parameter(std::string param_name, Tensor initial)
      : name(std::move(param_name)), value(std::move(initial)) {}

  bool quantized() const { return !qvalue.empty(); }
};

}  // namespace chipalign
