#include "nn/decode.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/kernels/kernels.hpp"
#include "tensor/quant.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace chipalign {

namespace {

/// Y[rows, out] = X[rows, in] @ W^T for W [out, in] row-major, as one
/// kernels::project call over the parameter's storage (fp32 values or the
/// quantized payload, dequantized inside the kernel). Every output is the
/// contract-reduced dot, so a row's bits do not depend on how many rows
/// share the call: a serial step (rows = 1), a batched step (B) and a
/// verify block (T) agree.
void project(const Parameter& p, const float* x, float* y,
             std::int64_t rows) {
  using kernels::WeightView;
  const QuantTensor& q = p.qvalue;
  const WeightView w =
      !p.quantized()
          ? WeightView{DType::kF32, p.value.data(), nullptr, p.value.dim(0),
                       p.value.dim(1)}
      : q.dtype == DType::kI8
          ? WeightView{q.dtype, q.q.data(), q.scales.data(), q.rows, q.cols}
          : WeightView{q.dtype, q.half.data(), nullptr, q.rows, q.cols};
  kernels::project(w, x, y, rows);
}

/// Copies the embedding row for `token` into x, dequantizing when the
/// embedding is stored quantized (the same per-element reconstruction the
/// tied LM-head matvec applies).
void embed_lookup(const Parameter& embed, TokenId token, std::span<float> x) {
  if (embed.quantized()) {
    dequantize_row(embed.qvalue, token, x.data());
    return;
  }
  const auto row = embed.value.row(token);
  std::copy(row.begin(), row.end(), x.begin());
}

void rmsnorm_row(std::span<const float> x, std::span<const float> gain,
                 double eps, std::span<float> y) {
  double mean_sq = 0.0;
  for (float v : x) mean_sq += static_cast<double>(v) * v;
  mean_sq /= static_cast<double>(x.size());
  const auto r = static_cast<float>(1.0 / std::sqrt(mean_sq + eps));
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] * r * gain[i];
}

float sigmoid(float x) { return 1.0F / (1.0F + std::exp(-x)); }

/// gate[i] = gate[i] * sigmoid(gate[i]) * up[i] — the SwiGLU combine,
/// shared by the serial and batched paths so their float ops agree exactly.
void swiglu_row(std::span<float> gate, std::span<const float> up) {
  for (std::size_t i = 0; i < gate.size(); ++i) {
    gate[i] = gate[i] * sigmoid(gate[i]) * up[i];
  }
}

void add_row(std::span<float> x, std::span<const float> delta) {
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += delta[i];
}

/// Causal GQA attention for one session at `pos` in `layer`; k/v for `pos`
/// must already be written (RoPE'd and dtype-converted) into the state's
/// cache. Reads q [d], writes att [d] using scores [>= pos+1] as scratch.
/// Identical code serves the serial and batched paths; an fp16 cache swaps
/// dot/axpy for their exactly-dequantizing fp16 variants.
void attention_row(const TransformerModel& model, const SessionState& state,
                   std::int64_t layer, std::int64_t pos,
                   std::span<const float> q, std::span<float> att,
                   std::span<float> scores) {
  const auto& config = model.config();
  const std::int64_t hd = config.head_dim();
  const std::int64_t n_heads = config.n_heads;
  const std::int64_t group = n_heads / config.n_kv_heads;
  const float scale = 1.0F / std::sqrt(static_cast<float>(hd));
  const bool half_kv = state.kv_dtype == DType::kF16;
  const float* layer_k = half_kv ? nullptr : state.k_at(layer, 0);
  const float* layer_v = half_kv ? nullptr : state.v_at(layer, 0);
  const std::uint16_t* layer_k16 = half_kv ? state.k16_at(layer, 0) : nullptr;
  const std::uint16_t* layer_v16 = half_kv ? state.v16_at(layer, 0) : nullptr;

  std::fill(att.begin(), att.end(), 0.0F);
  for (std::int64_t h = 0; h < n_heads; ++h) {
    const std::int64_t kvh = h / group;
    const float* q_h = q.data() + h * hd;
    const std::int64_t head_off = kvh * hd;
    if (half_kv) {
      ops::attention_scores_f16(q_h, layer_k16 + head_off, state.kv_dim,
                                pos + 1, hd, scale, scores.data());
    } else {
      ops::attention_scores(q_h, layer_k + head_off, state.kv_dim, pos + 1,
                            hd, scale, scores.data());
    }
    ops::softmax_inplace(
        std::span<float>(scores.data(), static_cast<std::size_t>(pos + 1)));
    float* att_h = att.data() + h * hd;
    if (half_kv) {
      ops::attention_mix_f16(scores.data(), layer_v16 + head_off,
                             state.kv_dim, pos + 1, hd, att_h);
    } else {
      ops::attention_mix(scores.data(), layer_v + head_off, state.kv_dim,
                         pos + 1, hd, att_h);
    }
  }
}

void check_step_args(const ModelConfig& config, const SessionState& state,
                     TokenId token) {
  CA_CHECK(state.position < state.capacity,
           "session KV cache full at position " << state.position
                                                << " (capacity "
                                                << state.capacity << ")");
  CA_CHECK(state.kv_dim == config.n_kv_heads * config.head_dim() &&
               state.n_layers == config.n_layers,
           "session state shape (n_layers " << state.n_layers << ", kv_dim "
                                            << state.kv_dim
                                            << ") does not match this model");
  CA_CHECK(token >= 0 && token < config.vocab_size,
           "token id " << token << " out of vocab");
}

}  // namespace

DecodeScratch::DecodeScratch(const ModelConfig& config,
                             std::int64_t batch_limit)
    : max_batch(batch_limit) {
  CA_CHECK(max_batch > 0, "DecodeScratch needs max_batch > 0");
  const auto b = static_cast<std::size_t>(max_batch);
  const auto d = static_cast<std::size_t>(config.d_model);
  const auto d_ff = static_cast<std::size_t>(config.d_ff);
  const auto kv =
      static_cast<std::size_t>(config.n_kv_heads * config.head_dim());
  x.resize(b * d);
  normed.resize(b * d);
  q.resize(b * d);
  att.resize(b * d);
  proj.resize(b * d);
  gate.resize(b * d_ff);
  up.resize(b * d_ff);
  k_new.resize(b * kv);
  v_new.resize(b * kv);
  scores.resize(b * static_cast<std::size_t>(config.max_seq_len));
}

void decode_step(const TransformerModel& model, SessionState& state,
                 DecodeScratch& scratch, TokenId token,
                 std::span<float> logits) {
  const auto& config = model.config();
  check_step_args(config, state, token);
  CA_CHECK(static_cast<std::int64_t>(logits.size()) == config.vocab_size,
           "decode_step logits size");

  const auto d = static_cast<std::size_t>(config.d_model);
  const std::int64_t hd = config.head_dim();
  const std::int64_t pos = state.position;
  const auto kv = static_cast<std::size_t>(state.kv_dim);

  const std::span<float> x(scratch.x.data(), d);
  const std::span<float> normed(scratch.normed.data(), d);
  const std::span<float> q(scratch.q.data(), d);
  const std::span<float> att(scratch.att.data(), d);
  const std::span<float> proj(scratch.proj.data(), d);
  const std::span<float> gate(scratch.gate.data(),
                              static_cast<std::size_t>(config.d_ff));
  const std::span<float> up(scratch.up.data(),
                            static_cast<std::size_t>(config.d_ff));
  const std::span<float> scores(scratch.scores.data(),
                                static_cast<std::size_t>(config.max_seq_len));

  embed_lookup(model.embed(), token, x);

  for (std::size_t layer = 0; layer < model.blocks().size(); ++layer) {
    const TransformerBlock& block = model.blocks()[layer];
    const auto l = static_cast<std::int64_t>(layer);
    // Fresh K/V rows are computed and RoPE'd in fp32 scratch, then stored
    // through the cache's dtype converter (bit copy for an fp32 cache).
    const std::span<float> k_new(scratch.k_new.data(), kv);
    const std::span<float> v_new(scratch.v_new.data(), kv);

    rmsnorm_row(x, block.input_norm.value.values(), config.norm_eps, normed);
    project(block.q_proj, normed.data(), q.data(), 1);
    project(block.k_proj, normed.data(), k_new.data(), 1);
    project(block.v_proj, normed.data(), v_new.data(), 1);

    for (std::int64_t h = 0; h < config.n_heads; ++h) {
      model.rotary().apply(
          std::span<float>(q.data() + h * hd, static_cast<std::size_t>(hd)),
          pos);
    }
    for (std::int64_t h = 0; h < config.n_kv_heads; ++h) {
      model.rotary().apply(
          std::span<float>(k_new.data() + h * hd,
                           static_cast<std::size_t>(hd)),
          pos);
    }
    state.store_k_row(l, pos, k_new.data());
    state.store_v_row(l, pos, v_new.data());

    attention_row(model, state, l, pos, q, att, scores);

    project(block.o_proj, att.data(), proj.data(), 1);
    add_row(x, proj);

    rmsnorm_row(x, block.post_norm.value.values(), config.norm_eps, normed);
    project(block.gate_proj, normed.data(), gate.data(), 1);
    project(block.up_proj, normed.data(), up.data(), 1);
    swiglu_row(gate, up);
    project(block.down_proj, gate.data(), proj.data(), 1);
    add_row(x, proj);
  }

  rmsnorm_row(x, model.final_norm().value.values(), config.norm_eps, normed);
  // The [vocab, d] tied LM head dominates per-token cost; above the kernel
  // layer's work threshold its output rows fan across the pool.
  project(model.embed(), normed.data(), logits.data(), 1);
  ++state.position;
}

void batched_decode_step(const TransformerModel& model,
                         std::span<SessionState* const> states,
                         std::span<const TokenId> tokens,
                         DecodeScratch& scratch, std::span<float> logits,
                         ThreadPool* pool) {
  const auto& config = model.config();
  const auto batch = static_cast<std::int64_t>(states.size());
  CA_CHECK(batch > 0, "batched_decode_step on empty batch");
  CA_CHECK(batch <= scratch.max_batch,
           "batch " << batch << " exceeds scratch capacity "
                    << scratch.max_batch);
  CA_CHECK(static_cast<std::int64_t>(tokens.size()) == batch,
           "batched_decode_step token count");
  CA_CHECK(static_cast<std::int64_t>(logits.size()) ==
               batch * config.vocab_size,
           "batched_decode_step logits size");
  if (batch == 1) {
    // Single-row batches take the serial step: identical bits, without the
    // per-row bookkeeping.
    decode_step(model, *states[0], scratch, tokens[0], logits);
    return;
  }
  for (std::int64_t b = 0; b < batch; ++b) {
    check_step_args(config, *states[b], tokens[b]);
    // A session state may appear in at most one row: the per-row KV writes
    // and attention reads assume disjoint caches, and an aliased state would
    // corrupt both rows silently (the serving engine's batch former must
    // never emit duplicates — e.g. when re-forming a batch after a mid-batch
    // cancellation or deadline eviction).
    for (std::int64_t a = 0; a < b; ++a) {
      CA_CHECK(states[a] != states[b],
               "batched_decode_step: session state aliased at rows "
                   << a << " and " << b);
    }
  }

  const auto d = static_cast<std::size_t>(config.d_model);
  const auto d_ff = static_cast<std::size_t>(config.d_ff);
  const std::int64_t hd = config.head_dim();
  const auto kv = static_cast<std::size_t>(config.n_kv_heads * hd);
  const auto seq = static_cast<std::size_t>(config.max_seq_len);
  const auto row_f = [](std::vector<float>& buf, std::int64_t b,
                        std::size_t dim) {
    return std::span<float>(buf.data() + static_cast<std::size_t>(b) * dim,
                            dim);
  };

  for (std::int64_t b = 0; b < batch; ++b) {
    embed_lookup(model.embed(), tokens[b], row_f(scratch.x, b, d));
  }

  // Per-session work (KV write, RoPE, attention) is independent across the
  // batch and writes disjoint rows, so fanning it over the pool changes
  // nothing but wall-clock.
  const auto for_each_row = [&](const std::function<void(std::size_t)>& fn) {
    if (pool != nullptr && batch > 1) {
      pool->parallel_for(static_cast<std::size_t>(batch), fn);
    } else {
      for (std::int64_t b = 0; b < batch; ++b) {
        fn(static_cast<std::size_t>(b));
      }
    }
  };

  for (std::size_t layer = 0; layer < model.blocks().size(); ++layer) {
    const TransformerBlock& block = model.blocks()[layer];

    for (std::int64_t b = 0; b < batch; ++b) {
      rmsnorm_row(row_f(scratch.x, b, d), block.input_norm.value.values(),
                  config.norm_eps, row_f(scratch.normed, b, d));
    }
    project(block.q_proj, scratch.normed.data(), scratch.q.data(), batch);
    project(block.k_proj, scratch.normed.data(), scratch.k_new.data(), batch);
    project(block.v_proj, scratch.normed.data(), scratch.v_new.data(), batch);

    for_each_row([&](std::size_t bi) {
      const auto b = static_cast<std::int64_t>(bi);
      SessionState& state = *states[b];
      const std::int64_t pos = state.position;
      const std::int64_t l = static_cast<std::int64_t>(layer);
      float* k_new = scratch.k_new.data() + bi * kv;
      const std::span<float> q = row_f(scratch.q, b, d);
      for (std::int64_t h = 0; h < config.n_heads; ++h) {
        model.rotary().apply(
            std::span<float>(q.data() + h * hd, static_cast<std::size_t>(hd)),
            pos);
      }
      for (std::int64_t h = 0; h < config.n_kv_heads; ++h) {
        model.rotary().apply(
            std::span<float>(k_new + h * hd, static_cast<std::size_t>(hd)),
            pos);
      }
      state.store_k_row(l, pos, k_new);
      state.store_v_row(l, pos, scratch.v_new.data() + bi * kv);
      attention_row(model, state, l, pos, q, row_f(scratch.att, b, d),
                    row_f(scratch.scores, b, seq));
    });

    project(block.o_proj, scratch.att.data(), scratch.proj.data(), batch);
    for (std::int64_t b = 0; b < batch; ++b) {
      add_row(row_f(scratch.x, b, d), row_f(scratch.proj, b, d));
    }

    for (std::int64_t b = 0; b < batch; ++b) {
      rmsnorm_row(row_f(scratch.x, b, d), block.post_norm.value.values(),
                  config.norm_eps, row_f(scratch.normed, b, d));
    }
    project(block.gate_proj, scratch.normed.data(), scratch.gate.data(), batch);
    project(block.up_proj, scratch.normed.data(), scratch.up.data(), batch);
    for (std::int64_t b = 0; b < batch; ++b) {
      swiglu_row(row_f(scratch.gate, b, d_ff), row_f(scratch.up, b, d_ff));
    }
    project(block.down_proj, scratch.gate.data(), scratch.proj.data(), batch);
    for (std::int64_t b = 0; b < batch; ++b) {
      add_row(row_f(scratch.x, b, d), row_f(scratch.proj, b, d));
    }
  }

  for (std::int64_t b = 0; b < batch; ++b) {
    rmsnorm_row(row_f(scratch.x, b, d), model.final_norm().value.values(),
                config.norm_eps, row_f(scratch.normed, b, d));
  }
  project(model.embed(), scratch.normed.data(), logits.data(), batch);
  for (std::int64_t b = 0; b < batch; ++b) ++states[b]->position;
}

void verify_step(const TransformerModel& model, SessionState& state,
                 DecodeScratch& scratch, std::span<const TokenId> tokens,
                 std::span<float> logits, ThreadPool* pool) {
  const auto& config = model.config();
  const auto block_len = static_cast<std::int64_t>(tokens.size());
  CA_CHECK(block_len > 0, "verify_step on empty token block");
  CA_CHECK(block_len <= scratch.max_batch,
           "verify block " << block_len << " exceeds scratch capacity "
                           << scratch.max_batch);
  CA_CHECK(static_cast<std::int64_t>(logits.size()) ==
               block_len * config.vocab_size,
           "verify_step logits size");
  if (block_len == 1) {
    // One-token blocks take the serial step: identical bits (the kernel
    // contract), without the block bookkeeping.
    decode_step(model, state, scratch, tokens[0], logits);
    return;
  }
  CA_CHECK(state.position + block_len <= state.capacity,
           "verify block of " << block_len << " tokens overflows KV capacity "
                              << state.capacity << " at position "
                              << state.position);
  check_step_args(config, state, tokens[0]);
  for (std::int64_t t = 1; t < block_len; ++t) {
    CA_CHECK(tokens[t] >= 0 && tokens[t] < config.vocab_size,
             "token id " << tokens[t] << " out of vocab");
  }

  const auto d = static_cast<std::size_t>(config.d_model);
  const auto d_ff = static_cast<std::size_t>(config.d_ff);
  const std::int64_t hd = config.head_dim();
  const auto kv = static_cast<std::size_t>(config.n_kv_heads * hd);
  const auto seq = static_cast<std::size_t>(config.max_seq_len);
  const std::int64_t pos0 = state.position;
  const auto row_f = [](std::vector<float>& buf, std::int64_t t,
                        std::size_t dim) {
    return std::span<float>(buf.data() + static_cast<std::size_t>(t) * dim,
                            dim);
  };

  for (std::int64_t t = 0; t < block_len; ++t) {
    embed_lookup(model.embed(), tokens[t], row_f(scratch.x, t, d));
  }

  // Rows fan over the pool in two waves per layer: first every row's RoPE +
  // KV store (disjoint cache rows), then — only once ALL block rows are in
  // the cache — every row's attention, since row t reads the K/V this block
  // just stored for rows 0..t. Within a wave rows are independent, so any
  // pool size produces identical bits.
  const auto for_each_row = [&](const std::function<void(std::size_t)>& fn) {
    if (pool != nullptr) {
      pool->parallel_for(static_cast<std::size_t>(block_len), fn);
    } else {
      for (std::int64_t t = 0; t < block_len; ++t) {
        fn(static_cast<std::size_t>(t));
      }
    }
  };

  for (std::size_t layer = 0; layer < model.blocks().size(); ++layer) {
    const TransformerBlock& block = model.blocks()[layer];
    const auto l = static_cast<std::int64_t>(layer);

    for (std::int64_t t = 0; t < block_len; ++t) {
      rmsnorm_row(row_f(scratch.x, t, d), block.input_norm.value.values(),
                  config.norm_eps, row_f(scratch.normed, t, d));
    }
    project(block.q_proj, scratch.normed.data(), scratch.q.data(), block_len);
    project(block.k_proj, scratch.normed.data(), scratch.k_new.data(),
            block_len);
    project(block.v_proj, scratch.normed.data(), scratch.v_new.data(),
            block_len);

    for_each_row([&](std::size_t ti) {
      const auto t = static_cast<std::int64_t>(ti);
      const std::int64_t pos = pos0 + t;
      float* k_new = scratch.k_new.data() + ti * kv;
      const std::span<float> q = row_f(scratch.q, t, d);
      for (std::int64_t h = 0; h < config.n_heads; ++h) {
        model.rotary().apply(
            std::span<float>(q.data() + h * hd, static_cast<std::size_t>(hd)),
            pos);
      }
      for (std::int64_t h = 0; h < config.n_kv_heads; ++h) {
        model.rotary().apply(
            std::span<float>(k_new + h * hd, static_cast<std::size_t>(hd)),
            pos);
      }
      state.store_k_row(l, pos, k_new);
      state.store_v_row(l, pos, scratch.v_new.data() + ti * kv);
    });
    for_each_row([&](std::size_t ti) {
      const auto t = static_cast<std::int64_t>(ti);
      attention_row(model, state, l, pos0 + t, row_f(scratch.q, t, d),
                    row_f(scratch.att, t, d), row_f(scratch.scores, t, seq));
    });

    project(block.o_proj, scratch.att.data(), scratch.proj.data(), block_len);
    for (std::int64_t t = 0; t < block_len; ++t) {
      add_row(row_f(scratch.x, t, d), row_f(scratch.proj, t, d));
    }

    for (std::int64_t t = 0; t < block_len; ++t) {
      rmsnorm_row(row_f(scratch.x, t, d), block.post_norm.value.values(),
                  config.norm_eps, row_f(scratch.normed, t, d));
    }
    project(block.gate_proj, scratch.normed.data(), scratch.gate.data(),
            block_len);
    project(block.up_proj, scratch.normed.data(), scratch.up.data(), block_len);
    for (std::int64_t t = 0; t < block_len; ++t) {
      swiglu_row(row_f(scratch.gate, t, d_ff), row_f(scratch.up, t, d_ff));
    }
    project(block.down_proj, scratch.gate.data(), scratch.proj.data(),
            block_len);
    for (std::int64_t t = 0; t < block_len; ++t) {
      add_row(row_f(scratch.x, t, d), row_f(scratch.proj, t, d));
    }
  }

  for (std::int64_t t = 0; t < block_len; ++t) {
    rmsnorm_row(row_f(scratch.x, t, d), model.final_norm().value.values(),
                config.norm_eps, row_f(scratch.normed, t, d));
  }
  project(model.embed(), scratch.normed.data(), logits.data(), block_len);
  state.position += block_len;
}

}  // namespace chipalign
