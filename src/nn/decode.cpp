#include "nn/decode.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/kernels/kernels.hpp"
#include "tensor/quant.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace chipalign {

namespace {

/// W [out, in] row-major as a kernels::project view over the parameter's
/// storage: fp32 values or the quantized payload, dequantized inside the
/// kernel. Every output is the contract-reduced dot, so a row's bits do not
/// depend on how many rows or weights share the call.
kernels::WeightView weight_view(const Parameter& p) {
  using kernels::WeightView;
  const QuantTensor& q = p.qvalue;
  return !p.quantized()
             ? WeightView{DType::kF32, p.value.data(), nullptr,
                          p.value.dim(0), p.value.dim(1)}
         : q.dtype == DType::kI8
             ? WeightView{q.dtype, q.q.data(), q.scales.data(), q.rows,
                          q.cols}
             : WeightView{q.dtype, q.half.data(), nullptr, q.rows, q.cols};
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

void add_row(std::span<float> x, std::span<const float> delta) {
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += delta[i];
}

}  // namespace

float rmsnorm_row(std::span<const float> x, std::span<const float> gain,
                  double eps, std::span<float> y) {
  double mean_sq = 0.0;
  for (float v : x) mean_sq += static_cast<double>(v) * v;
  mean_sq /= static_cast<double>(x.size());
  const auto r = static_cast<float>(1.0 / std::sqrt(mean_sq + eps));
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] * r * gain[i];
  return r;
}

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
  scores.resize(b * static_cast<std::size_t>(config.n_heads /
                                             config.n_kv_heads *
                                             config.max_seq_len));
  row_state.resize(b);
  row_pos.resize(b);
}

void forward(const TransformerModel& model,
             std::span<const ForwardGroup> groups, DecodeScratch& scratch,
             std::span<float> logits, ThreadPool* pool) {
  const auto& config = model.config();
  CA_CHECK(!groups.empty(), "forward with no groups");
  std::int64_t rows = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const SessionState* state = groups[g].state;
    const auto len = static_cast<std::int64_t>(groups[g].tokens.size());
    CA_CHECK(state != nullptr, "forward: group " << g << " has no state");
    CA_CHECK(len > 0, "forward: group " << g << " has no tokens");
    CA_CHECK(state->kv_dim == config.n_kv_heads * config.head_dim() &&
                 state->n_layers == config.n_layers,
             "session state shape (n_layers "
                 << state->n_layers << ", kv_dim " << state->kv_dim
                 << ") does not match this model");
    CA_CHECK(state->position + len <= state->capacity,
             "forward: group " << g << " of " << len
                               << " tokens overflows KV capacity "
                               << state->capacity << " at position "
                               << state->position);
    for (const TokenId token : groups[g].tokens) {
      CA_CHECK(token >= 0 && token < config.vocab_size,
               "token id " << token << " out of vocab");
    }
    // A state may appear in at most one group: the per-row KV writes and
    // attention reads assume disjoint caches, and an aliased state would
    // corrupt both groups silently.
    for (std::size_t a = 0; a < g; ++a) {
      CA_CHECK(groups[a].state != state,
               "forward: session state aliased at groups " << a << " and "
                                                           << g);
    }
    rows += len;
  }
  CA_CHECK(rows <= scratch.max_batch,
           "forward of " << rows << " rows exceeds scratch capacity "
                         << scratch.max_batch);
  CA_CHECK(static_cast<std::int64_t>(logits.size()) ==
               rows * config.vocab_size,
           "forward logits size " << logits.size() << " for " << rows
                                  << " rows");

  const auto d = static_cast<std::size_t>(config.d_model);
  const auto d_ff = static_cast<std::size_t>(config.d_ff);
  const std::int64_t hd = config.head_dim();
  const auto kv = static_cast<std::size_t>(config.n_kv_heads * hd);
  // Each row's attention scratch: [n_heads / n_kv_heads, max_seq_len].
  const std::size_t row_scores =
      scratch.scores.size() / static_cast<std::size_t>(scratch.max_batch);
  const auto row_f = [](std::vector<float>& buf, std::int64_t r,
                        std::size_t dim) {
    return std::span<float>(buf.data() + static_cast<std::size_t>(r) * dim,
                            dim);
  };

  std::int64_t filled = 0;
  for (const ForwardGroup& group : groups) {
    for (std::size_t t = 0; t < group.tokens.size(); ++t, ++filled) {
      const auto fi = static_cast<std::size_t>(filled);
      scratch.row_state[fi] = group.state;
      scratch.row_pos[fi] =
          group.state->position + static_cast<std::int64_t>(t);
      embed_lookup(model.embed(), group.tokens[t],
                   row_f(scratch.x, filled, d));
    }
  }

  for (std::size_t layer = 0; layer < model.blocks().size(); ++layer) {
    const TransformerBlock& block = model.blocks()[layer];
    const auto l = static_cast<std::int64_t>(layer);

    for (std::int64_t r = 0; r < rows; ++r) {
      rmsnorm_row(row_f(scratch.x, r, d), block.input_norm.value.values(),
                  config.norm_eps, row_f(scratch.normed, r, d));
    }
    const kernels::Projection qkv[] = {
        {weight_view(block.q_proj), scratch.q.data()},
        {weight_view(block.k_proj), scratch.k_new.data()},
        {weight_view(block.v_proj), scratch.v_new.data()}};
    kernels::project(qkv, scratch.normed.data(), rows);

    // Wave 1, on the caller (a few hundred flops per row): RoPE and the
    // K/V store. Fresh K/V rows are RoPE'd in fp32 scratch, then stored
    // through the cache's dtype converter (bit copy for an fp32 cache).
    for (std::int64_t r = 0; r < rows; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      SessionState& state = *scratch.row_state[ri];
      const std::int64_t pos = scratch.row_pos[ri];
      float* q = scratch.q.data() + ri * d;
      float* k_new = scratch.k_new.data() + ri * kv;
      for (std::int64_t h = 0; h < config.n_heads; ++h) {
        model.rotary().apply(
            std::span<float>(q + h * hd, static_cast<std::size_t>(hd)), pos);
      }
      for (std::int64_t h = 0; h < config.n_kv_heads; ++h) {
        model.rotary().apply(
            std::span<float>(k_new + h * hd, static_cast<std::size_t>(hd)),
            pos);
      }
      state.store_k_row(l, pos, k_new);
      state.store_v_row(l, pos, scratch.v_new.data() + ri * kv);
    }
    // Wave 2: attention, once every row of every group is in its cache:
    // one kernels::attend per row over keys 0..pos of its session's layer
    // cache. Rows write disjoint scratch rows, so the pool changes only
    // wall-clock.
    const kernels::AttendShape heads{config.n_heads, config.n_kv_heads, hd};
    const auto attend = [&](std::size_t ri) {
      const SessionState& state = *scratch.row_state[ri];
      kernels::attend(heads, scratch.q.data() + ri * d, state.k_view(l),
                      state.v_view(l), scratch.row_pos[ri] + 1,
                      scratch.scores.data() + ri * row_scores,
                      scratch.att.data() + ri * d);
    };
    if (pool != nullptr) {
      pool->parallel_for(static_cast<std::size_t>(rows), attend);
    } else {
      for (std::size_t ri = 0; ri < static_cast<std::size_t>(rows); ++ri) {
        attend(ri);
      }
    }

    kernels::project(weight_view(block.o_proj), scratch.att.data(),
                     scratch.proj.data(), rows);
    for (std::int64_t r = 0; r < rows; ++r) {
      add_row(row_f(scratch.x, r, d), row_f(scratch.proj, r, d));
    }

    for (std::int64_t r = 0; r < rows; ++r) {
      rmsnorm_row(row_f(scratch.x, r, d), block.post_norm.value.values(),
                  config.norm_eps, row_f(scratch.normed, r, d));
    }
    const kernels::Projection gate_up[] = {
        {weight_view(block.gate_proj), scratch.gate.data()},
        {weight_view(block.up_proj), scratch.up.data()}};
    kernels::project(gate_up, scratch.normed.data(), rows);
    kernels::swiglu(scratch.gate.data(), scratch.up.data(),
                    scratch.gate.data(), static_cast<std::size_t>(rows) * d_ff);
    kernels::project(weight_view(block.down_proj), scratch.gate.data(),
                     scratch.proj.data(), rows);
    for (std::int64_t r = 0; r < rows; ++r) {
      add_row(row_f(scratch.x, r, d), row_f(scratch.proj, r, d));
    }
  }

  for (std::int64_t r = 0; r < rows; ++r) {
    rmsnorm_row(row_f(scratch.x, r, d), model.final_norm().value.values(),
                config.norm_eps, row_f(scratch.normed, r, d));
  }
  // The [vocab, d] tied LM head dominates per-token cost; above the kernel
  // layer's work threshold its output rows fan across the pool.
  kernels::project(weight_view(model.embed()), scratch.normed.data(),
                   logits.data(), rows);
  for (const ForwardGroup& group : groups) {
    group.state->position += static_cast<std::int64_t>(group.tokens.size());
  }
}

}  // namespace chipalign
