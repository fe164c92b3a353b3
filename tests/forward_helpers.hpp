#pragma once
// The forward() call shapes the decode tests share: one token for one
// session, one block for one session, and one token for each of several
// sessions.

#include <span>
#include <vector>

#include "nn/decode.hpp"

namespace chipalign {

class ThreadPool;

/// Feeds `tokens` to `state` as one group; logits are [T, vocab].
inline void forward_block(const TransformerModel& model, SessionState& state,
                          DecodeScratch& scratch,
                          std::span<const TokenId> tokens,
                          std::span<float> logits,
                          ThreadPool* pool = nullptr) {
  const ForwardGroup group{&state, tokens};
  forward(model, std::span<const ForwardGroup>(&group, 1), scratch, logits,
          pool);
}

/// Feeds one token to `state`; logits are [vocab].
inline void forward_token(const TransformerModel& model, SessionState& state,
                          DecodeScratch& scratch, TokenId token,
                          std::span<float> logits) {
  forward_block(model, state, scratch, std::span<const TokenId>(&token, 1),
                logits);
}

/// Feeds tokens[b] to states[b], one one-token group per session; logits
/// are [B, vocab].
inline void forward_batch(const TransformerModel& model,
                          std::span<SessionState* const> states,
                          std::span<const TokenId> tokens,
                          DecodeScratch& scratch, std::span<float> logits,
                          ThreadPool* pool = nullptr) {
  std::vector<ForwardGroup> groups;
  for (std::size_t b = 0; b < states.size(); ++b) {
    groups.push_back(ForwardGroup{states[b], tokens.subspan(b, 1)});
  }
  forward(model, std::span<const ForwardGroup>(groups.data(), groups.size()),
          scratch, logits, pool);
}

}  // namespace chipalign
