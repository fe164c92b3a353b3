#pragma once
/// \file decode.hpp
/// \brief Token-decode steps over SessionState: serial and batched.
///
/// decode_step() is the single-sequence step InferenceSession is built on:
/// every projection is one kernels::project call at one row, and attention
/// walks the session's own KV cache. batched_decode_step() is the serving
/// engine's continuous-batching primitive: it coalesces the step of B
/// independent sessions so each projection is ONE kernels::project call
/// over the stacked activations ([B, d] against the shared weight matrix)
/// instead of B separate ones — the weights stream through the cache once
/// per step rather than once per session.
///
/// Bitwise contract: row b of a batched step is bit-identical to a serial
/// decode_step() of states[b]. Projections match because kernels::project
/// gives every output the kernel layer's 8-lane fp64 reduction whatever
/// the row count (kernels.hpp); everything else (RMSNorm, RoPE, attention,
/// SwiGLU, residual adds) runs the same per-row helper code in both paths. The
/// serving tests assert this equality at batch sizes 1/4/16.

#include <cstdint>
#include <span>
#include <vector>

#include "nn/session_state.hpp"
#include "nn/transformer.hpp"

namespace chipalign {

class ThreadPool;

/// Reusable scratch arena for decode steps over up to `max_batch` rows.
/// Sized once; no decode step allocates. Buffers are row-major [B, dim].
struct DecodeScratch {
  DecodeScratch(const ModelConfig& config, std::int64_t max_batch);

  std::int64_t max_batch = 0;
  std::vector<float> x;       ///< residual stream [B, d]
  std::vector<float> normed;  ///< RMSNorm output [B, d]
  std::vector<float> q;       ///< query heads [B, d]
  std::vector<float> att;     ///< attention output [B, d]
  std::vector<float> proj;    ///< o/down projection output [B, d]
  std::vector<float> gate;    ///< SwiGLU gate [B, d_ff]
  std::vector<float> up;      ///< SwiGLU up [B, d_ff]
  std::vector<float> k_new;   ///< fresh K rows [B, kv_dim]
  std::vector<float> v_new;   ///< fresh V rows [B, kv_dim]
  std::vector<float> scores;  ///< attention scores [B, max_seq_len]
};

/// Feeds one token to `state` and writes the next-token logits row
/// (config.vocab_size floats) into `logits`. Advances state.position.
void decode_step(const TransformerModel& model, SessionState& state,
                 DecodeScratch& scratch, TokenId token,
                 std::span<float> logits);

/// Feeds tokens[b] to states[b] for every b and writes logits row-major
/// [B, vocab] into `logits`. One kernels::project per projection; the
/// per-session attention fans across `pool` when given (sessions are
/// independent, so any pool size produces identical bits). states must be
/// distinct.
void batched_decode_step(const TransformerModel& model,
                         std::span<SessionState* const> states,
                         std::span<const TokenId> tokens,
                         DecodeScratch& scratch, std::span<float> logits,
                         ThreadPool* pool = nullptr);

/// Speculative-verify step: feeds the T = tokens.size() tokens to ONE
/// session in a single pass — token t lands at position() + t — and writes
/// logits row-major [T, vocab]. Like batched_decode_step it runs one
/// kernels::project per projection over the stacked [T, d] activations (the
/// weights stream through the cache once per block instead of once per
/// token), but the batch axis is consecutive positions of one sequence, so
/// attention is block-causal: all T K/V rows are RoPE'd and stored first,
/// then row t attends positions 0..position()+t. Advances position by T.
///
/// Bitwise contract: row t is bit-identical to the logits of the t-th of T
/// serial decode_step() calls (same row-count-invariant projections and
/// shared per-row helpers as the batched path), which is what lets greedy
/// speculative decoding accept drafted tokens without changing output bits.
/// T == 1 dispatches to decode_step(). Requires T <= scratch.max_batch and
/// position() + T <= the session's capacity.
void verify_step(const TransformerModel& model, SessionState& state,
                 DecodeScratch& scratch, std::span<const TokenId> tokens,
                 std::span<float> logits, ThreadPool* pool = nullptr);

}  // namespace chipalign
