#include "nn/spec_decode.hpp"

#include <algorithm>
#include <optional>

#include "util/error.hpp"

namespace chipalign {

namespace {

/// True for the tokens that end a generation: <eos>, and '\n' when
/// stop_at_newline.
bool is_stop_token(TokenId token, bool stop_at_newline) {
  return token == CharTokenizer::kEos ||
         (stop_at_newline && token == tokenizer().char_to_id('\n'));
}

}  // namespace

SpecWalkResult spec_accept_walk(std::span<const float> rows,
                                std::int64_t vocab,
                                std::span<const TokenId> drafts,
                                const TokenPicker& pick, bool stop_at_newline,
                                const std::function<bool(TokenId)>& emit) {
  const auto n_rows = static_cast<std::int64_t>(drafts.size()) + 1;
  CA_CHECK(static_cast<std::int64_t>(rows.size()) == n_rows * vocab,
           "spec_accept_walk: " << rows.size() << " logits for " << n_rows
                                << " rows of vocab " << vocab);
  SpecWalkResult result;
  for (std::int64_t i = 0; i < n_rows; ++i) {
    const std::span<const float> row(
        rows.data() + static_cast<std::size_t>(i * vocab),
        static_cast<std::size_t>(vocab));
    const TokenId next = pick(row);
    if (is_stop_token(next, stop_at_newline)) {
      result.stopped = true;
      break;
    }
    const bool matched =
        i < static_cast<std::int64_t>(drafts.size()) &&
        next == drafts[static_cast<std::size_t>(i)];
    if (matched) ++result.accepted;
    const bool go_on = emit(next);
    ++result.emitted;
    result.last = next;
    // A mismatching row still emitted a valid token (all its context was
    // accepted), but the rows after it scored a rejected continuation.
    if (!matched || !go_on) break;
  }
  result.consumed = 1 + result.accepted;
  return result;
}

std::vector<TokenId> decode_tokens(InferenceSession& session,
                                   std::span<const float> prefill_logits,
                                   std::span<const TokenId> prompt,
                                   const TokenPicker& pick, Drafter* drafter,
                                   std::int64_t draft_k, std::int64_t max_new,
                                   bool stop_at_newline,
                                   SpecDecodeStats* stats) {
  CA_CHECK(draft_k >= 0, "negative draft_k " << draft_k);
  std::vector<TokenId> out;
  if (max_new <= 0) return out;
  std::vector<TokenId> context(prompt.begin(), prompt.end());
  const auto emit = [&](TokenId t) {
    out.push_back(t);
    context.push_back(t);
    return static_cast<std::int64_t>(out.size()) < max_new;
  };

  // The first new token comes straight off the prefill row: a group with
  // no drafts and nothing to rewind.
  SpecWalkResult walk = spec_accept_walk(prefill_logits, session.vocab_size(),
                                         {}, pick, stop_at_newline, emit);
  std::vector<TokenId> block(static_cast<std::size_t>(1 + draft_k));
  while (!walk.stopped && static_cast<std::int64_t>(out.size()) < max_new) {
    const std::int64_t pos0 = session.position();
    // One row is the pending feed; drafts fill whatever KV headroom remains
    // (the final emitted token is never fed, hence the -1).
    const std::int64_t k =
        std::min<std::int64_t>(draft_k, session.capacity() - pos0 - 1);
    block[0] = walk.last;
    std::size_t drafted = 0;
    if (drafter != nullptr && k > 0) {
      drafted = drafter->draft(
          std::span<const TokenId>(context.data(), context.size()),
          static_cast<std::size_t>(k),
          std::span<TokenId>(block.data() + 1, block.size() - 1));
    }
    const std::span<const float> rows = session.verify(
        std::span<const TokenId>(block.data(), 1 + drafted));
    walk = spec_accept_walk(
        rows, session.vocab_size(),
        std::span<const TokenId>(block.data() + 1, drafted), pick,
        stop_at_newline, emit);
    session.truncate(pos0 + walk.consumed);
    if (stats != nullptr && drafter != nullptr) {
      ++stats->verify_passes;
      stats->drafted += static_cast<std::int64_t>(drafted);
      stats->accepted += walk.accepted;
      stats->emitted += walk.emitted;
    }
  }
  return out;
}

namespace {

/// generate()'s body, with the drafter already chosen (nullptr: none).
std::string generate_with(const TransformerModel& model,
                          std::string_view prompt,
                          const GenerateOptions& options,
                          bool stop_at_newline, Drafter* drafter,
                          SpecDecodeStats* stats) {
  const CharTokenizer& tok = tokenizer();
  const std::vector<TokenId> prompt_tokens =
      tok.encode(prompt, /*add_bos=*/true);
  const std::int64_t budget =
      model.config().max_seq_len -
      static_cast<std::int64_t>(prompt_tokens.size());
  CA_CHECK(budget > 0, "prompt fills the whole context window");

  InferenceSession session(model);
  const std::vector<float> logits = session.prefill(prompt_tokens);
  Rng rng(options.seed);
  const std::vector<TokenId> generated = decode_tokens(
      session, std::span<const float>(logits.data(), logits.size()),
      std::span<const TokenId>(prompt_tokens.data(), prompt_tokens.size()),
      [&](std::span<const float> row) {
        return pick_token(row, options.temperature, rng);
      },
      drafter, drafter != nullptr ? options.draft_k : 0,
      std::min<std::int64_t>(options.max_new_tokens, budget), stop_at_newline,
      stats);
  return tok.decode(generated);
}

}  // namespace

std::string generate(const TransformerModel& model, std::string_view prompt,
                     const GenerateOptions& options, bool stop_at_newline) {
  std::optional<PromptLookupDrafter> lookup;
  if (options.speculative && options.temperature <= 0.0) {
    lookup.emplace();
  }
  return generate_with(model, prompt, options, stop_at_newline,
                       lookup ? &*lookup : nullptr, nullptr);
}

std::string speculative_generate(const TransformerModel& model,
                                 std::string_view prompt,
                                 const GenerateOptions& options,
                                 bool stop_at_newline, Drafter* drafter,
                                 SpecDecodeStats* stats) {
  CA_CHECK(options.temperature <= 0.0,
           "speculative_generate is greedy-only (temperature "
               << options.temperature << ")");
  PromptLookupDrafter lookup;
  return generate_with(model, prompt, options, stop_at_newline,
                       drafter != nullptr ? drafter : &lookup, stats);
}

}  // namespace chipalign
