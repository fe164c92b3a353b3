#include "nn/drafter.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace chipalign {

PromptLookupDrafter::PromptLookupDrafter(std::int64_t ngram_min,
                                         std::int64_t ngram_max)
    : ngram_min_(ngram_min), ngram_max_(ngram_max) {
  CA_CHECK(ngram_min_ >= 1 && ngram_max_ >= ngram_min_,
           "prompt-lookup needs 1 <= ngram_min <= ngram_max, got ["
               << ngram_min_ << ", " << ngram_max_ << "]");
}

std::size_t PromptLookupDrafter::draft(std::span<const TokenId> context,
                                       std::size_t max_tokens,
                                       std::span<TokenId> out) {
  CA_CHECK(out.size() >= max_tokens, "prompt-lookup draft buffer too small");
  if (max_tokens == 0) return 0;
  const auto len = static_cast<std::int64_t>(context.size());
  // Longest n-gram first: a longer suffix match is stronger evidence the
  // continuation repeats too. Among equal-length matches the most recent
  // wins — generated text tends to continue its own latest pattern.
  const std::int64_t n_hi = std::min<std::int64_t>(ngram_max_, len - 1);
  for (std::int64_t n = n_hi; n >= ngram_min_; --n) {
    const TokenId* suffix = context.data() + (len - n);
    for (std::int64_t start = len - n - 1; start >= 0; --start) {
      if (!std::equal(suffix, suffix + n, context.data() + start)) continue;
      // start <= len - n - 1, so at least one token follows the match.
      // The continuation past the end of the context is extended
      // cyclically: a suffix matching `period` tokens before the end means
      // the tail repeats with that period, and the best guess is that it
      // keeps doing so. (Without this, a generation stuck on a short cycle
      // — the copy-heaviest case there is — would only ever get
      // period-many tokens per draft, however large max_tokens is.)
      const std::int64_t follow = start + n;
      const auto period = static_cast<std::size_t>(len - follow);
      for (std::size_t i = 0; i < max_tokens; ++i) {
        out[i] = context[static_cast<std::size_t>(follow) + i % period];
      }
      return max_tokens;
    }
  }
  return 0;
}

}  // namespace chipalign
