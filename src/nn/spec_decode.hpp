#pragma once
/// \file spec_decode.hpp
/// \brief The token emitter and the decode loop: pick, stop, emit, budget,
/// with optional speculative drafts.
///
/// spec_accept_walk() is the one place a logits row becomes an emitted
/// token, for generate() in every mode and for every serving session. A
/// row group is the pending token plus K drafts, scored in one forward()
/// pass (decode.hpp). The walk picks each row's token — argmax, or a
/// temperature draw — and emits it for as long as it agrees with the
/// corresponding draft. The first disagreeing row still yields one
/// emitted token (its context is entirely accepted tokens, so its pick is
/// exactly what serial decode would produce there); the rejected draft
/// rows are then discarded with SessionState::truncate() — an O(1) rewind
/// thanks to the lazy KV cache. A group with no drafts is plain one-token
/// decoding: pick, stop, emit.
///
/// Determinism: every emitted token is picked from a logits row that
/// forward() guarantees bit-identical to feeding its tokens one at a time,
/// and the walk applies the stop and budget decisions in serial order.
/// Greedy speculative output is therefore byte-identical to greedy output
/// for ANY drafter, at any draft_k, including a drafter that proposes
/// garbage — drafting quality only moves throughput, via the mean accepted
/// length. Drafts are only ever proposed under greedy picking: accepting a
/// draft against a temperature draw would change the output distribution.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nn/drafter.hpp"
#include "nn/infer.hpp"

namespace chipalign {

/// Aggregate speculative-decoding counters (one generation or a whole
/// serving run). accept_len_mean is the key throughput number: tokens
/// emitted per verify pass — 1.0 means drafting never helped, 1 + K means
/// every draft was accepted.
struct SpecDecodeStats {
  std::int64_t verify_passes = 0;  ///< speculative row groups scored
  std::int64_t drafted = 0;        ///< draft tokens proposed
  std::int64_t accepted = 0;       ///< draft tokens accepted
  std::int64_t emitted = 0;        ///< tokens emitted via spec passes

  double accept_len_mean() const {
    return verify_passes > 0
               ? static_cast<double>(emitted) /
                     static_cast<double>(verify_passes)
               : 0.0;
  }
  double draft_hit_rate() const {
    return drafted > 0
               ? static_cast<double>(accepted) / static_cast<double>(drafted)
               : 0.0;
  }
  void merge(const SpecDecodeStats& other) {
    verify_passes += other.verify_passes;
    drafted += other.drafted;
    accepted += other.accepted;
    emitted += other.emitted;
  }
};

/// Outcome of one walk over a row group's logits rows.
struct SpecWalkResult {
  std::int64_t consumed = 0;  ///< KV rows to keep: truncate to pos0 + this
  std::int64_t accepted = 0;  ///< drafts that matched the picked token
  std::int64_t emitted = 0;   ///< tokens emitted this pass
  bool stopped = false;       ///< hit a stop token; generation is over
  TokenId last = -1;          ///< last emitted token (the next pending feed)
};

/// Picks the token for one logits row (pick_token() with a session's
/// temperature and RNG).
using TokenPicker = std::function<TokenId(std::span<const float>)>;

/// Walks the [1 + drafts.size(), vocab] logits rows of a row group (row 0
/// scored the pending token, row 1 + i scored drafts[i]) in serial order.
/// Per row: pick -> stop token? end generation : emit(token); emit returns
/// false when generation must end after this token (budget spent, or the
/// caller's stream failed). Rows stay valid only while every prior draft
/// matched its pick, so the walk breaks at the first mismatch — emitting
/// that row's pick as the corrected token. The caller must truncate the
/// session to pos0 + consumed afterwards.
SpecWalkResult spec_accept_walk(std::span<const float> rows,
                                std::int64_t vocab,
                                std::span<const TokenId> drafts,
                                const TokenPicker& pick, bool stop_at_newline,
                                const std::function<bool(TokenId)>& emit);

/// The decode loop over an already-prefilled session: `prefill_logits` is
/// the row predicting the first new token and `prompt` the tokens the
/// session consumed. Emits up to max_new tokens picked by `pick`, stopping
/// at <eos> (and '\n' when stop_at_newline). With a drafter, each pass
/// scores the pending token plus up to draft_k drafts in one forward() and
/// accumulates into *stats when given; `pick` must then be greedy. Without
/// one (or at draft_k 0) each pass feeds one token. Output is identical
/// either way.
std::vector<TokenId> decode_tokens(InferenceSession& session,
                                   std::span<const float> prefill_logits,
                                   std::span<const TokenId> prompt,
                                   const TokenPicker& pick, Drafter* drafter,
                                   std::int64_t draft_k, std::int64_t max_new,
                                   bool stop_at_newline,
                                   SpecDecodeStats* stats = nullptr);

/// generate() (infer.hpp) with a caller-chosen drafter and counters: same
/// <bos> encoding, stop conditions and budget, byte-identical greedy
/// output. Uses `drafter` when given, else a default PromptLookupDrafter.
/// Requires options.temperature <= 0 (greedy acceptance only).
std::string speculative_generate(const TransformerModel& model,
                                 std::string_view prompt,
                                 const GenerateOptions& options = {},
                                 bool stop_at_newline = false,
                                 Drafter* drafter = nullptr,
                                 SpecDecodeStats* stats = nullptr);

}  // namespace chipalign
