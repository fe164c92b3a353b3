#pragma once
/// \file decode.hpp
/// \brief The inference forward pass over (session, tokens) groups.
///
/// forward() is the one transformer step every inference path runs:
/// InferenceSession feeds it one token or a speculative verify block, and
/// the serving engine feeds it one group per batched session each step. A
/// group feeds T tokens to one session — token t lands at position + t —
/// and the rows of all groups are stacked, so each projection is part of
/// ONE kernels::project call over [rows, d] against the shared weights:
/// the weights stream through the cache once per step, however many
/// sessions and draft tokens share it.
///
/// Bitwise contract: a row's logits depend only on its session's cache
/// and its token, never on which rows share the call. Projections give
/// every output the kernel layer's 8-lane fp64 reduction whatever the row
/// count (kernels.hpp); attention is one kernels::attend per row over its
/// session's cache views, RMSNorm, RoPE and the residual adds are per-row
/// code, and SwiGLU is elementwise (kernels::swiglu). So a token fed
/// alone, as row t of a verify block, or next to other sessions' groups
/// gets the same bits — which is what lets the server batch sessions, and
/// greedy speculative decoding accept drafts, without changing any output.

#include <cstdint>
#include <span>
#include <vector>

#include "nn/session_state.hpp"
#include "nn/transformer.hpp"

namespace chipalign {

class ThreadPool;

/// Reusable scratch arena for forward() over up to `max_batch` rows (all
/// groups' tokens together). Sized once; forward() does not allocate.
/// Buffers are row-major [B, dim].
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
  /// attention scores [B, n_heads / n_kv_heads * max_seq_len]
  std::vector<float> scores;
  std::vector<SessionState*> row_state;  ///< session each row feeds [B]
  std::vector<std::int64_t> row_pos;     ///< position each row lands at [B]
};

/// T >= 1 tokens for one session; token t lands at state->position + t.
struct ForwardGroup {
  SessionState* state = nullptr;
  std::span<const TokenId> tokens;
};

/// Feeds every group's tokens and writes one logits row per token,
/// row-major [rows, vocab] in group order. Advances each state's position
/// by its group's length.
///
/// Per layer: RMSNorm over all rows, one kernels::project over the stacked
/// rows per group of weight matrices that read the same activations (q/k/v,
/// o, gate/up, down) and one kernels::swiglu over all rows, with two row
/// waves after q/k/v — every row's RoPE and K/V store, then every row's
/// kernels::attend (row t of a group reads the K/V its group stored for
/// rows 0..t in the first wave; the cache dtype travels in the views). Attention rows are independent, so they fan
/// across `pool` when given and any pool size gives identical bits.
///
/// Throws Error, before any state changes, when a state appears in two
/// groups, a group is empty or overflows its session's capacity, the rows
/// exceed scratch.max_batch, a token is out of vocab, a state's shape does
/// not match the model, or `logits` is not [rows, vocab].
void forward(const TransformerModel& model,
             std::span<const ForwardGroup> groups, DecodeScratch& scratch,
             std::span<float> logits, ThreadPool* pool = nullptr);

/// forward()'s per-row RMSNorm, shared with the training forward
/// (train/trainable_model.hpp) so both passes have one copy:
/// y = x * gain / rms(x) (mean square in fp64); returns the 1/rms factor.
float rmsnorm_row(std::span<const float> x, std::span<const float> gain,
                  double eps, std::span<float> y);

}  // namespace chipalign
