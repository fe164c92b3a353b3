#pragma once
/// \file drafter.hpp
/// \brief Draft-token proposers for speculative decoding.
///
/// A Drafter guesses the next few tokens of a sequence so the target model
/// can verify the whole guess as one row group of a forward() pass instead
/// of one pass per token (nn/decode.hpp). Correctness never depends on the
/// drafter: greedy acceptance (nn/spec_decode.hpp) compares each drafted
/// token against the target model's own argmax, so a bad drafter only costs
/// speed. Drafters therefore don't have to be deterministic for output
/// determinism — but the one here is, which keeps end-to-end runs bitwise
/// reproducible in wall-clock too.
///
/// PromptLookupDrafter is the zero-cost default: chip-design QA answers
/// copy long spans from the prompt (retrieved context, signal names, code),
/// so matching the last n-gram of the generated suffix against the earlier
/// context and proposing the tokens that followed it gets long accepted
/// runs with no second model at all.

#include <cstddef>
#include <cstdint>
#include <span>

#include "text/tokenizer.hpp"

namespace chipalign {

/// Proposes up to `max_tokens` continuation tokens for `context` (every
/// token consumed so far: prompt + generated, in order). Returns how many
/// tokens were written to the front of `out` (0 = no proposal; the caller
/// falls back to plain one-token decode). out.size() >= max_tokens.
class Drafter {
 public:
  virtual ~Drafter() = default;
  virtual std::size_t draft(std::span<const TokenId> context,
                            std::size_t max_tokens,
                            std::span<TokenId> out) = 0;
};

/// Prompt-lookup (n-gram) drafting: find the most recent earlier occurrence
/// of the longest matching suffix n-gram (n from ngram_max down to
/// ngram_min) and propose the tokens that followed it, extending the
/// continuation cyclically when it reaches the end of the context (a suffix
/// repeating with period p predicts the next tokens with the same period).
/// O(n * len) scan per call, no model, no allocation. Stateless across
/// calls.
class PromptLookupDrafter : public Drafter {
 public:
  explicit PromptLookupDrafter(std::int64_t ngram_min = 1,
                               std::int64_t ngram_max = 3);

  std::size_t draft(std::span<const TokenId> context, std::size_t max_tokens,
                    std::span<TokenId> out) override;

 private:
  std::int64_t ngram_min_;
  std::int64_t ngram_max_;
};

}  // namespace chipalign
