// Tests for forward() (src/nn/decode.*) as one call over mixed row groups:
// a prefill token, a multi-token verify block and a decode token share one
// pass, and every row must equal feeding its token alone. Also the
// argument checks, which must all fire before forward() touches any state.
//
// Suite name (Forward) is stable so sanitizer CI can select it with
// ctest -R.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "forward_helpers.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace chipalign {
namespace {

ModelConfig forward_config() {
  ModelConfig config;
  config.name = "forward-test";
  config.vocab_size = 50;
  config.d_model = 32;
  config.n_layers = 2;
  config.n_heads = 4;
  config.n_kv_heads = 2;
  config.d_ff = 48;
  config.max_seq_len = 64;
  config.validate();
  return config;
}

std::vector<TokenId> ramp_tokens(std::size_t n, std::int64_t vocab,
                                 std::size_t stride) {
  std::vector<TokenId> tokens(n);
  for (std::size_t i = 0; i < n; ++i) {
    tokens[i] = static_cast<TokenId>((i * stride + 1) %
                                     static_cast<std::size_t>(vocab));
  }
  return tokens;
}

/// Logits of feeding `tokens` one one-row forward() at a time.
std::vector<std::vector<float>> serial_rows(const TransformerModel& model,
                                            const std::vector<TokenId>& tokens,
                                            DType kv_dtype) {
  const auto& config = model.config();
  SessionState state(config, config.max_seq_len, 7, kv_dtype);
  DecodeScratch scratch(config, 1);
  std::vector<float> logits(static_cast<std::size_t>(config.vocab_size));
  std::vector<std::vector<float>> rows;
  for (const TokenId token : tokens) {
    forward_token(model, state, scratch, token,
                  std::span<float>(logits.data(), logits.size()));
    rows.push_back(logits);
  }
  return rows;
}

void check_mixed_groups(ThreadPool& pool) {
  Rng rng(41);
  const TransformerModel model(forward_config(), rng);
  const auto& config = model.config();
  const auto vocab = static_cast<std::size_t>(config.vocab_size);
  const DType kv = DType::kF16;

  // Session A prefills its first token; B has a 6-token history and
  // verifies a 5-token block; C has a 9-token history and decodes one.
  const auto a_seq = ramp_tokens(1, config.vocab_size, 3);
  const auto b_seq = ramp_tokens(11, config.vocab_size, 7);
  const auto c_seq = ramp_tokens(10, config.vocab_size, 11);
  const auto a_want = serial_rows(model, a_seq, kv);
  const auto b_want = serial_rows(model, b_seq, kv);
  const auto c_want = serial_rows(model, c_seq, kv);

  SessionState a(config, config.max_seq_len, 7, kv);
  SessionState b(config, config.max_seq_len, 7, kv);
  SessionState c(config, config.max_seq_len, 7, kv);
  DecodeScratch history_scratch(config, 1);
  std::vector<float> row(vocab);
  for (std::size_t i = 0; i < 6; ++i) {
    forward_token(model, b, history_scratch, b_seq[i],
                  std::span<float>(row.data(), row.size()));
  }
  for (std::size_t i = 0; i < 9; ++i) {
    forward_token(model, c, history_scratch, c_seq[i],
                  std::span<float>(row.data(), row.size()));
  }

  const ForwardGroup groups[] = {
      {&a, std::span<const TokenId>(a_seq.data(), 1)},
      {&b, std::span<const TokenId>(b_seq.data() + 6, 5)},
      {&c, std::span<const TokenId>(c_seq.data() + 9, 1)},
  };
  DecodeScratch scratch(config, 7);
  std::vector<float> logits(7 * vocab);
  forward(model, groups, scratch,
          std::span<float>(logits.data(), logits.size()), &pool);
  EXPECT_EQ(a.position, 1);
  EXPECT_EQ(b.position, 11);
  EXPECT_EQ(c.position, 10);

  const std::vector<const std::vector<float>*> want = {
      &a_want[0], &b_want[6], &b_want[7], &b_want[8],
      &b_want[9], &b_want[10], &c_want[9]};
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(0, std::memcmp(logits.data() + r * vocab, want[r]->data(),
                             vocab * sizeof(float)))
        << "row " << r << " at pool size " << pool.size();
  }
}

TEST(Forward, MixedGroupsMatchSerial) {
  ThreadPool one(1);
  check_mixed_groups(one);
  ThreadPool four(4);
  check_mixed_groups(four);
}

/// A state with a known history and a cache whose every byte is defined,
/// so a test can compare the whole cache before and after a call.
std::unique_ptr<SessionState> seeded_state(const TransformerModel& model,
                                           std::int64_t capacity,
                                           std::size_t history) {
  const auto& config = model.config();
  auto state = std::make_unique<SessionState>(config, capacity);
  const std::size_t bytes = state->kv_bytes() / 2;
  std::memset(state->k_cache.get(), 0, bytes);
  std::memset(state->v_cache.get(), 0, bytes);
  DecodeScratch scratch(config, 1);
  std::vector<float> row(static_cast<std::size_t>(config.vocab_size));
  for (const TokenId token : ramp_tokens(history, config.vocab_size, 3)) {
    forward_token(model, *state, scratch, token,
                  std::span<float>(row.data(), row.size()));
  }
  return state;
}

std::vector<unsigned char> cache_bytes(const SessionState& state) {
  const std::size_t bytes = state.kv_bytes() / 2;
  std::vector<unsigned char> out(state.k_cache.get(),
                                 state.k_cache.get() + bytes);
  out.insert(out.end(), state.v_cache.get(), state.v_cache.get() + bytes);
  return out;
}

TEST(Forward, RejectsBadGroupsBeforeAnyStateChange) {
  Rng rng(42);
  const TransformerModel model(forward_config(), rng);
  const auto& config = model.config();
  const auto vocab = static_cast<std::size_t>(config.vocab_size);
  auto first = seeded_state(model, config.max_seq_len, 3);
  auto second = seeded_state(model, /*capacity=*/8, 5);
  const std::vector<TokenId> one = {4};
  const std::vector<TokenId> three = {5, 6, 7};
  const std::vector<TokenId> four = {5, 6, 7, 8};
  const std::vector<TokenId> bad_vocab = {
      5, 6, static_cast<TokenId>(config.vocab_size)};
  const std::vector<TokenId> none;

  const auto span_of = [](const std::vector<TokenId>& tokens) {
    return std::span<const TokenId>(tokens.data(), tokens.size());
  };
  struct Case {
    const char* what;
    std::vector<ForwardGroup> groups;
    std::int64_t scratch_rows;
  };
  // In every case the valid group comes first, so a check that ran after
  // the first group's writes would show up as a moved position or cache.
  const std::vector<Case> cases = {
      {"state in two groups",
       {{first.get(), span_of(one)}, {first.get(), span_of(one)}},
       8},
      {"empty group",
       {{first.get(), span_of(one)}, {second.get(), span_of(none)}},
       8},
      {"group overflows capacity",
       {{first.get(), span_of(one)}, {second.get(), span_of(four)}},
       8},
      {"rows above scratch.max_batch",
       {{first.get(), span_of(one)}, {second.get(), span_of(three)}},
       3},
      {"out-of-vocab token inside a block",
       {{first.get(), span_of(one)}, {second.get(), span_of(bad_vocab)}},
       8},
  };
  const std::vector<unsigned char> first_cache = cache_bytes(*first);
  const std::vector<unsigned char> second_cache = cache_bytes(*second);
  for (const Case& c : cases) {
    DecodeScratch scratch(config, c.scratch_rows);
    std::size_t rows = 0;
    for (const ForwardGroup& g : c.groups) rows += g.tokens.size();
    std::vector<float> logits(rows * vocab);
    EXPECT_THROW(
        forward(model,
                std::span<const ForwardGroup>(c.groups.data(),
                                              c.groups.size()),
                scratch, std::span<float>(logits.data(), logits.size())),
        Error)
        << c.what;
    EXPECT_EQ(first->position, 3) << c.what;
    EXPECT_EQ(second->position, 5) << c.what;
    EXPECT_TRUE(cache_bytes(*first) == first_cache) << c.what;
    EXPECT_TRUE(cache_bytes(*second) == second_cache) << c.what;
  }
}

}  // namespace
}  // namespace chipalign
