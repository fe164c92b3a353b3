#include "train/trainable_model.hpp"

#include <algorithm>
#include <cmath>

#include "nn/decode.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"

namespace chipalign {

namespace {

/// RMSNorm over rows of x [T, d] through the serving forward's row op.
/// Fills inv_rms with 1/rms per row.
Tensor rmsnorm_forward(const Tensor& x, const Tensor& gain, double eps,
                       std::vector<float>& inv_rms) {
  Tensor out(x.shape());
  inv_rms.resize(static_cast<std::size_t>(x.dim(0)));
  for (std::int64_t t = 0; t < x.dim(0); ++t) {
    inv_rms[static_cast<std::size_t>(t)] =
        rmsnorm_row(x.row(t), gain.values(), eps, out.row(t));
  }
  return out;
}

/// RMSNorm backward: returns dx and accumulates the gain gradient.
Tensor rmsnorm_backward(const Tensor& x, const std::vector<float>& inv_rms,
                        const Parameter& gain, Tensor& dgain,
                        const Tensor& dy) {
  const std::int64_t rows = x.dim(0);
  const std::int64_t d = x.dim(1);
  Tensor dx(x.shape());
  const auto g = gain.value.values();
  auto dg = dgain.values();
  for (std::int64_t t = 0; t < rows; ++t) {
    const auto xin = x.row(t);
    const auto dyr = dy.row(t);
    auto dxr = dx.row(t);
    const float r = inv_rms[static_cast<std::size_t>(t)];
    // S = sum_j g_j dy_j x_j r   (all in fp64 for stability)
    double s = 0.0;
    for (std::int64_t i = 0; i < d; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      s += static_cast<double>(g[idx]) * dyr[idx] * (xin[idx] * r);
    }
    const double s_over_d = s / static_cast<double>(d);
    for (std::int64_t i = 0; i < d; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const float xr = xin[idx] * r;
      dxr[idx] = static_cast<float>(
          r * (static_cast<double>(g[idx]) * dyr[idx] - xr * s_over_d));
      dg[idx] += dyr[idx] * xr;
    }
  }
  return dx;
}

}  // namespace

TrainableModel::TrainableModel(ModelConfig config, Rng& rng)
    : TrainableModel(TransformerModel(std::move(config), rng)) {}

TrainableModel::TrainableModel(const Checkpoint& checkpoint)
    : TrainableModel(TransformerModel::from_checkpoint(checkpoint)) {}

TrainableModel::TrainableModel(TransformerModel model)
    : model_(std::move(model)) {
  for (const Parameter* p : model_.parameters()) {
    grads_.emplace_back(p->value.shape());
  }
}

std::vector<TrainSlot> TrainableModel::train_slots() {
  std::vector<TrainSlot> slots;
  const std::vector<Parameter*> params = model_.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    slots.push_back({&params[i]->value, &grads_[i]});
  }
  return slots;
}

void TrainableModel::zero_grad() {
  for (Tensor& g : grads_) g.fill(0.0F);
}

void TrainableModel::discard_forward() { cache_.reset(); }

Tensor TrainableModel::forward(const std::vector<TokenId>& tokens) {
  const ModelConfig& config = model_.config();
  const auto t_len = static_cast<std::int64_t>(tokens.size());
  CA_CHECK(t_len > 0, "forward on empty token sequence");
  CA_CHECK(t_len <= config.max_seq_len,
           "sequence length " << t_len << " exceeds max_seq_len "
                              << config.max_seq_len);

  cache_ = std::make_unique<ForwardCache>();
  cache_->tokens = tokens;
  cache_->blocks.resize(model_.blocks().size());

  const std::int64_t d = config.d_model;
  const std::int64_t hd = config.head_dim();
  const std::int64_t n_heads = config.n_heads;
  const std::int64_t n_kv = config.n_kv_heads;
  const std::int64_t group = n_heads / n_kv;
  const float scale = 1.0F / std::sqrt(static_cast<float>(hd));
  const RotaryCache& rotary = model_.rotary();

  // Embedding lookup.
  Tensor x({t_len, d});
  for (std::int64_t t = 0; t < t_len; ++t) {
    const TokenId id = tokens[static_cast<std::size_t>(t)];
    CA_CHECK(id >= 0 && id < config.vocab_size, "token id " << id
             << " out of vocab");
    const auto src = model_.embed().value.row(id);
    auto dst = x.row(t);
    for (std::int64_t i = 0; i < d; ++i) {
      dst[static_cast<std::size_t>(i)] = src[static_cast<std::size_t>(i)];
    }
  }

  for (std::size_t layer = 0; layer < model_.blocks().size(); ++layer) {
    const TransformerBlock& block = model_.blocks()[layer];
    BlockCache& bc = cache_->blocks[layer];
    bc.x_in = x;

    bc.normed1 = rmsnorm_forward(bc.x_in, block.input_norm.value,
                                 config.norm_eps, bc.inv_rms1);

    bc.q = ops::matmul_nt(bc.normed1, block.q_proj.value);
    bc.k = ops::matmul_nt(bc.normed1, block.k_proj.value);
    bc.v = ops::matmul_nt(bc.normed1, block.v_proj.value);

    // RoPE on q (per query head) and k (per kv head).
    for (std::int64_t t = 0; t < t_len; ++t) {
      for (std::int64_t h = 0; h < n_heads; ++h) {
        rotary.apply(bc.q.row(t).subspan(static_cast<std::size_t>(h * hd),
                                         static_cast<std::size_t>(hd)),
                     t);
      }
      for (std::int64_t h = 0; h < n_kv; ++h) {
        rotary.apply(bc.k.row(t).subspan(static_cast<std::size_t>(h * hd),
                                         static_cast<std::size_t>(hd)),
                     t);
      }
    }

    // Causal attention per head.
    bc.probs = Tensor({n_heads, t_len, t_len});
    bc.att_concat = Tensor({t_len, d});
    for (std::int64_t h = 0; h < n_heads; ++h) {
      const std::int64_t kvh = h / group;
      float* probs_h = bc.probs.data() + h * t_len * t_len;
      for (std::int64_t i = 0; i < t_len; ++i) {
        const float* q_i = bc.q.data() + i * d + h * hd;
        float* p_row = probs_h + i * t_len;
        // scores for j <= i
        for (std::int64_t j = 0; j <= i; ++j) {
          const float* k_j = bc.k.data() + j * (n_kv * hd) + kvh * hd;
          double acc = 0.0;
          for (std::int64_t u = 0; u < hd; ++u) {
            acc += static_cast<double>(q_i[u]) * k_j[u];
          }
          p_row[j] = static_cast<float>(acc) * scale;
        }
        ops::softmax_inplace(std::span<float>(p_row,
                                              static_cast<std::size_t>(i + 1)));
        for (std::int64_t j = i + 1; j < t_len; ++j) p_row[j] = 0.0F;

        // out_i = sum_j p_ij v_j
        float* out_i = bc.att_concat.data() + i * d + h * hd;
        for (std::int64_t j = 0; j <= i; ++j) {
          const float p = p_row[j];
          if (p == 0.0F) continue;
          const float* v_j = bc.v.data() + j * (n_kv * hd) + kvh * hd;
          for (std::int64_t u = 0; u < hd; ++u) out_i[u] += p * v_j[u];
        }
      }
    }

    const Tensor att_proj = ops::matmul_nt(bc.att_concat, block.o_proj.value);
    bc.x_mid = ops::add(bc.x_in, att_proj);

    bc.normed2 = rmsnorm_forward(bc.x_mid, block.post_norm.value,
                                 config.norm_eps, bc.inv_rms2);
    bc.gate_pre = ops::matmul_nt(bc.normed2, block.gate_proj.value);
    bc.up_out = ops::matmul_nt(bc.normed2, block.up_proj.value);

    bc.h = Tensor(bc.gate_pre.shape());
    kernels::swiglu(bc.gate_pre.data(), bc.up_out.data(), bc.h.data(),
                    static_cast<std::size_t>(bc.h.numel()));
    const Tensor mlp_out = ops::matmul_nt(bc.h, block.down_proj.value);
    x = ops::add(bc.x_mid, mlp_out);
  }

  cache_->x_final = x;
  cache_->normed_final =
      rmsnorm_forward(cache_->x_final, model_.final_norm().value,
                      config.norm_eps, cache_->inv_rms_final);

  // Tied LM head: logits = normed_final @ embed^T.
  return ops::matmul_nt(cache_->normed_final, model_.embed().value);
}

void TrainableModel::backward(const Tensor& dlogits) {
  CA_CHECK(cache_ != nullptr, "backward() without a pending forward()");
  const ModelConfig& config = model_.config();
  // grads_ follows TransformerModel::parameters(); this finds p's slot.
  const std::vector<Parameter*> params = model_.parameters();
  const auto grad = [&](const Parameter& p) -> Tensor& {
    return grads_[static_cast<std::size_t>(
        std::find(params.begin(), params.end(), &p) - params.begin())];
  };
  // Accumulates dW += dy^T x into w's gradient and returns dx = dy @ W.
  const auto linear_backward = [&](const Tensor& x, const Parameter& w,
                                   const Tensor& dy) {
    ops::matmul_tn_accum(dy, x, grad(w));
    return ops::matmul(dy, w.value);
  };
  const auto t_len = static_cast<std::int64_t>(cache_->tokens.size());
  CA_CHECK(dlogits.rank() == 2 && dlogits.dim(0) == t_len &&
               dlogits.dim(1) == config.vocab_size,
           "dlogits shape mismatch");

  const std::int64_t d = config.d_model;
  const std::int64_t hd = config.head_dim();
  const std::int64_t n_heads = config.n_heads;
  const std::int64_t n_kv = config.n_kv_heads;
  const std::int64_t group = n_heads / n_kv;
  const std::int64_t kv_dim = n_kv * hd;
  const float scale = 1.0F / std::sqrt(static_cast<float>(hd));

  // LM head (tied weights): both the projection and the embedding gradient.
  const Parameter& embed = model_.embed();
  Tensor dnormed_final = ops::matmul(dlogits, embed.value);
  ops::matmul_tn_accum(dlogits, cache_->normed_final, grad(embed));

  Tensor dx = rmsnorm_backward(cache_->x_final, cache_->inv_rms_final,
                               model_.final_norm(), grad(model_.final_norm()),
                               dnormed_final);

  for (std::size_t layer_plus1 = model_.blocks().size(); layer_plus1 > 0;
       --layer_plus1) {
    const std::size_t layer = layer_plus1 - 1;
    const TransformerBlock& block = model_.blocks()[layer];
    BlockCache& bc = cache_->blocks[layer];

    // ---- MLP branch ----
    // dx is the gradient at the block output = x_mid + mlp_out.
    Tensor dh = linear_backward(bc.h, block.down_proj, dx);

    Tensor dgate_pre(bc.gate_pre.shape());
    Tensor dup(bc.up_out.shape());
    {
      const auto gate = bc.gate_pre.values();
      const auto up = bc.up_out.values();
      const auto dhv = dh.values();
      auto dg = dgate_pre.values();
      auto du = dup.values();
      for (std::size_t i = 0; i < dhv.size(); ++i) {
        const float sg = kernels::sigmoid(gate[i]);
        const float silu = gate[i] * sg;
        du[i] = dhv[i] * silu;
        // d silu / d gate = sg * (1 + gate * (1 - sg))
        dg[i] = dhv[i] * up[i] * sg * (1.0F + gate[i] * (1.0F - sg));
      }
    }
    Tensor dnormed2 = linear_backward(bc.normed2, block.gate_proj, dgate_pre);
    ops::axpy(1.0F, linear_backward(bc.normed2, block.up_proj, dup).values(),
              dnormed2.values());

    Tensor dx_mid = rmsnorm_backward(bc.x_mid, bc.inv_rms2, block.post_norm,
                                     grad(block.post_norm), dnormed2);
    ops::axpy(1.0F, dx.values(), dx_mid.values());  // residual path

    // ---- attention branch ----
    Tensor datt_concat = linear_backward(bc.att_concat, block.o_proj, dx_mid);

    Tensor dq({t_len, d});
    Tensor dk({t_len, kv_dim});
    Tensor dv({t_len, kv_dim});
    for (std::int64_t h = 0; h < n_heads; ++h) {
      const std::int64_t kvh = h / group;
      const float* probs_h = bc.probs.data() + h * t_len * t_len;
      std::vector<float> dp(static_cast<std::size_t>(t_len));
      for (std::int64_t i = 0; i < t_len; ++i) {
        const float* dout_i = datt_concat.data() + i * d + h * hd;
        const float* p_row = probs_h + i * t_len;

        // dp_j = dout_i . v_j ; dv_j += p_ij * dout_i
        for (std::int64_t j = 0; j <= i; ++j) {
          const float* v_j = bc.v.data() + j * kv_dim + kvh * hd;
          float* dv_j = dv.data() + j * kv_dim + kvh * hd;
          double acc = 0.0;
          const float p = p_row[j];
          for (std::int64_t u = 0; u < hd; ++u) {
            acc += static_cast<double>(dout_i[u]) * v_j[u];
            dv_j[u] += p * dout_i[u];
          }
          dp[static_cast<std::size_t>(j)] = static_cast<float>(acc);
        }

        // softmax backward: ds_j = p_j * (dp_j - sum_k dp_k p_k)
        double inner = 0.0;
        for (std::int64_t j = 0; j <= i; ++j) {
          inner +=
              static_cast<double>(dp[static_cast<std::size_t>(j)]) * p_row[j];
        }
        // dq_i += scale * sum_j ds_j k_j ; dk_j += scale * ds_j q_i
        float* dq_i = dq.data() + i * d + h * hd;
        const float* q_i = bc.q.data() + i * d + h * hd;
        for (std::int64_t j = 0; j <= i; ++j) {
          const float ds =
              p_row[j] *
              (dp[static_cast<std::size_t>(j)] - static_cast<float>(inner));
          if (ds == 0.0F) continue;
          const float* k_j = bc.k.data() + j * kv_dim + kvh * hd;
          float* dk_j = dk.data() + j * kv_dim + kvh * hd;
          const float ds_scaled = ds * scale;
          for (std::int64_t u = 0; u < hd; ++u) {
            dq_i[u] += ds_scaled * k_j[u];
            dk_j[u] += ds_scaled * q_i[u];
          }
        }
      }
    }

    // Undo RoPE on the gradients (inverse rotation).
    for (std::int64_t t = 0; t < t_len; ++t) {
      for (std::int64_t h = 0; h < n_heads; ++h) {
        model_.rotary().apply_inverse(
            dq.row(t).subspan(static_cast<std::size_t>(h * hd),
                              static_cast<std::size_t>(hd)),
            t);
      }
      for (std::int64_t h = 0; h < n_kv; ++h) {
        model_.rotary().apply_inverse(
            dk.row(t).subspan(static_cast<std::size_t>(h * hd),
                              static_cast<std::size_t>(hd)),
            t);
      }
    }

    Tensor dnormed1 = linear_backward(bc.normed1, block.q_proj, dq);
    ops::axpy(1.0F, linear_backward(bc.normed1, block.k_proj, dk).values(),
              dnormed1.values());
    ops::axpy(1.0F, linear_backward(bc.normed1, block.v_proj, dv).values(),
              dnormed1.values());

    Tensor dx_in = rmsnorm_backward(bc.x_in, bc.inv_rms1, block.input_norm,
                                    grad(block.input_norm), dnormed1);
    ops::axpy(1.0F, dx_mid.values(), dx_in.values());  // residual path
    dx = std::move(dx_in);
  }

  // Embedding scatter-add.
  for (std::int64_t t = 0; t < t_len; ++t) {
    const TokenId id = cache_->tokens[static_cast<std::size_t>(t)];
    auto grad_row = grad(embed).row(id);
    const auto dx_row = dx.row(t);
    for (std::size_t i = 0; i < grad_row.size(); ++i) grad_row[i] += dx_row[i];
  }

  cache_.reset();
}

}  // namespace chipalign
