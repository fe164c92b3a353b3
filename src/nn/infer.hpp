#pragma once
/// \file infer.hpp
/// \brief Incremental (KV-cache) inference and text generation.
///
/// InferenceSession keeps per-layer key/value caches so each new token costs
/// O(T) attention instead of re-running the full sequence. It is a thin
/// single-sequence wrapper over the Model/session split used by the serving
/// engine (src/serve): the immutable TransformerModel is shared, while all
/// mutable state lives in a SessionState (session_state.hpp) and the decode
/// math in forward() (decode.hpp). Every projection runs on the tensor
/// kernel layer, so logits are bit-identical across backends and thread
/// counts (see kernels.hpp for the reduction contract). The KV cache is
/// lazily initialized: positions >= position() are never read, so neither
/// construction nor reset() pays an O(n_layers * max_seq_len * kv_dim)
/// zero-fill.
///
/// The generation helpers below are what every benchmark harness uses to
/// get model responses; temperature 0 (greedy) matches the paper's
/// evaluation setup.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nn/decode.hpp"
#include "nn/session_state.hpp"
#include "nn/transformer.hpp"
#include "util/rng.hpp"

namespace chipalign {

/// Stateful single-sequence decoder over a fixed model.
class InferenceSession {
 public:
  explicit InferenceSession(const TransformerModel& model);

  /// Feeds one token at the current position; returns the logits row
  /// (vocab_size floats) for predicting the next token. The reference
  /// aliases session-owned scratch: it is overwritten by the next step()
  /// (copy it if it must outlive that).
  const std::vector<float>& step(TokenId token);

  /// Feeds a whole prompt; returns (a copy of) the logits after its last
  /// token. The prompt must be non-empty.
  std::vector<float> prefill(const std::vector<TokenId>& tokens);

  /// Speculative verify: feeds all T = tokens.size() tokens in ONE
  /// forward() pass and returns their logits rows, row-major [T, vocab].
  /// Row t is bit-identical to what the t-th of T serial step() calls
  /// would return. Advances position() by T; rewind rejected suffix rows
  /// with truncate(). The span aliases session-owned scratch (overwritten
  /// by the next step/verify).
  std::span<const float> verify(std::span<const TokenId> tokens);

  /// Rewinds to `pos` in [0, position()], discarding later tokens. O(1):
  /// the lazily-initialized KV rows past the position are simply dead.
  /// Re-decoding from a truncated position is bitwise identical to a
  /// session that never consumed the discarded tokens.
  void truncate(std::int64_t pos);

  /// Tokens consumed so far.
  std::int64_t position() const { return state_.position; }

  /// KV rows this session can hold (the model's max_seq_len).
  std::int64_t capacity() const { return state_.capacity; }

  /// Model vocabulary size (the width of a logits row).
  std::int64_t vocab_size() const { return model_.config().vocab_size; }

  /// Resets the position to zero. O(1): the KV cache is not cleared because
  /// positions at or beyond the current position are never read.
  void reset();

 private:
  const TransformerModel& model_;
  SessionState state_;
  DecodeScratch scratch_;  ///< forward arena, grown for wider blocks
  std::vector<float> logits_;  ///< LM-head output [T, vocab] of the last feed
};

/// Options for generate().
struct GenerateOptions {
  std::int64_t max_new_tokens = 128;
  double temperature = 0.0;  ///< 0 => greedy decoding
  std::uint64_t seed = 7;    ///< used only when temperature > 0

  // Speculative decoding (nn/spec_decode.hpp). Greedy acceptance keeps the
  // output byte-identical to non-speculative greedy decoding, so this is a
  // pure throughput knob; it only engages when temperature <= 0.
  bool speculative = false;  ///< draft+verify instead of one-token steps
  std::int64_t draft_k = 4;  ///< draft tokens proposed per verify pass
};

/// Generates a continuation of `prompt` (encoded with <bos>), stopping at
/// <eos>, a '\n' if stop_at_newline, or the token budget. Returns decoded
/// text without the prompt. Every mode runs the one decode loop in
/// spec_decode.hpp; options.speculative adds prompt-lookup drafts when
/// decoding is greedy (byte-identical output) and is ignored when
/// temperature > 0.
std::string generate(const TransformerModel& model, std::string_view prompt,
                     const GenerateOptions& options = {},
                     bool stop_at_newline = false);

/// Draws an index from the categorical distribution `probs` given a uniform
/// draw u in [0, 1). The CDF walk renormalizes by the actual sum of probs,
/// so floating-point rounding can never fall off the end of the
/// distribution and silently select the last index regardless of its
/// probability; a zero-probability index is never returned. Exposed for
/// pick_token() and its tests.
std::int64_t sample_from_probs(std::span<const float> probs, double u);

/// The next token for a logits row: argmax when temperature <= 0, else a
/// draw from softmax(row / temperature) that takes one rng.uniform().
/// generate() and the serving engine both pick through here.
TokenId pick_token(std::span<const float> row, double temperature, Rng& rng);

/// Sum of log-probabilities of `continuation` tokens given `context`
/// (teacher-forced). Both sequences are raw token ids; context must be
/// non-empty.
double sequence_logprob(const TransformerModel& model,
                        const std::vector<TokenId>& context,
                        const std::vector<TokenId>& continuation);

/// Teacher-forced sum of continuation log-probabilities on an existing
/// session. `logits` must be the row predicting continuation[0] (i.e. the
/// output of the step/prefill that consumed the context); the session is
/// advanced by continuation.size() - 1 steps. Combined with
/// InferenceSession::truncate() back to the context length, this lets a
/// harness prefill a shared context once and score many continuations from
/// it, bit-identical to re-prefilling per continuation.
double continuation_logprob(InferenceSession& session,
                            std::span<const float> logits,
                            const std::vector<TokenId>& continuation);

/// Average per-token log-probability of the continuation (length
/// normalized); used by the multiple-choice evaluator.
double mean_logprob(const TransformerModel& model,
                    const std::vector<TokenId>& context,
                    const std::vector<TokenId>& continuation);

}  // namespace chipalign
