// Tests for speculative decoding (src/nn/drafter.*, src/nn/spec_decode.*,
// multi-token forward() blocks in src/nn/decode.*) and the KV rollback
// primitive SessionState::truncate(). The load-bearing claims: the rows of
// a forward() block are bitwise identical to feeding its tokens one at a
// time (so greedy acceptance can never change output bits),
// truncate-then-redecode equals
// never-having-decoded, and speculative greedy output — standalone and
// served, any drafter, any draft_k, fp32 or int8 weights, prefix cache on
// or off — is byte-identical to plain greedy generate().
//
// Suite names (SpecDecode, KvTruncate) are stable so sanitizer CI can
// select them with ctest -R.

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "forward_helpers.hpp"
#include "nn/drafter.hpp"
#include "nn/infer.hpp"
#include "nn/spec_decode.hpp"
#include "serve/radix_cache.hpp"
#include "serve/server.hpp"
#include "text/tokenizer.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace chipalign {
namespace {

/// Same tiny SIMD-exercising shape the serve tests use.
ModelConfig spec_config() {
  ModelConfig config;
  config.name = "spec-test";
  config.vocab_size = 50;
  config.d_model = 32;
  config.n_layers = 2;
  config.n_heads = 2;
  config.n_kv_heads = 1;
  config.d_ff = 48;
  config.max_seq_len = 64;
  config.validate();
  return config;
}

/// Tokenizer-vocab shape for generate()/Server round trips.
ModelConfig spec_text_config() {
  ModelConfig config;
  config.name = "spec-text";
  config.vocab_size = tokenizer().vocab_size();
  config.d_model = 16;
  config.n_layers = 1;
  config.n_heads = 2;
  config.n_kv_heads = 1;
  config.d_ff = 24;
  config.max_seq_len = 256;
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

bool rows_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Serial reference: decode `tokens` one forward() token at a time,
/// returning every logits row.
std::vector<std::vector<float>> serial_rows(const TransformerModel& model,
                                            const std::vector<TokenId>& tokens,
                                            DType kv_dtype = DType::kF32) {
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

/// Checks a prefix+block decode against the serial reference: the prefix is
/// fed serially, the block through ONE forward() group, and every block row
/// must memcmp-equal its serial counterpart.
void check_verify_block(const TransformerModel& model,
                        const std::vector<TokenId>& prefix,
                        const std::vector<TokenId>& block_tokens,
                        ThreadPool* pool, DType kv_dtype = DType::kF32) {
  const auto& config = model.config();
  std::vector<TokenId> all = prefix;
  all.insert(all.end(), block_tokens.begin(), block_tokens.end());
  const auto expected = serial_rows(model, all, kv_dtype);

  SessionState state(config, config.max_seq_len, 7, kv_dtype);
  DecodeScratch serial_scratch(config, 1);
  std::vector<float> row(static_cast<std::size_t>(config.vocab_size));
  for (const TokenId token : prefix) {
    forward_token(model, state, serial_scratch, token,
                  std::span<float>(row.data(), row.size()));
  }
  DecodeScratch block_scratch(
      config, static_cast<std::int64_t>(block_tokens.size()));
  std::vector<float> block_logits(block_tokens.size() *
                                  static_cast<std::size_t>(config.vocab_size));
  forward_block(model, state, block_scratch,
                std::span<const TokenId>(block_tokens.data(),
                                         block_tokens.size()),
                std::span<float>(block_logits.data(), block_logits.size()),
                pool);
  EXPECT_EQ(state.position, static_cast<std::int64_t>(all.size()));
  for (std::size_t t = 0; t < block_tokens.size(); ++t) {
    const std::span<const float> got(
        block_logits.data() + t * static_cast<std::size_t>(config.vocab_size),
        static_cast<std::size_t>(config.vocab_size));
    EXPECT_TRUE(rows_equal(got, expected[prefix.size() + t]))
        << "block row " << t << " of " << block_tokens.size();
  }
}

TEST(SpecDecode, VerifyStepOneTokenMemcmpEqualsDecodeStep) {
  Rng rng(11);
  const TransformerModel model(spec_config(), rng);
  const auto& config = model.config();
  const auto tokens = ramp_tokens(6, config.vocab_size, 5);

  SessionState a(config, config.max_seq_len);
  SessionState b(config, config.max_seq_len);
  DecodeScratch scratch_a(config, 1);
  DecodeScratch scratch_b(config, 1);
  std::vector<float> la(static_cast<std::size_t>(config.vocab_size));
  std::vector<float> lb(static_cast<std::size_t>(config.vocab_size));
  for (const TokenId token : tokens) {
    forward_token(model, a, scratch_a, token,
                  std::span<float>(la.data(), la.size()));
    const TokenId block[1] = {token};
    forward_block(model, b, scratch_b, std::span<const TokenId>(block, 1),
                  std::span<float>(lb.data(), lb.size()));
    ASSERT_EQ(0, std::memcmp(la.data(), lb.data(),
                             la.size() * sizeof(float)));
    ASSERT_EQ(a.position, b.position);
  }
}

TEST(SpecDecode, VerifyStepBlockBitwiseEqualsSerialSteps) {
  Rng rng(12);
  const TransformerModel model(spec_config(), rng);
  const auto& config = model.config();
  const auto prefix = ramp_tokens(7, config.vocab_size, 3);
  for (const std::size_t block_len : {2U, 3U, 5U, 9U}) {
    check_verify_block(model, prefix,
                       ramp_tokens(block_len, config.vocab_size, 11),
                       nullptr);
  }
}

TEST(SpecDecode, VerifyStepPoolInvariant) {
  Rng rng(13);
  const TransformerModel model(spec_config(), rng);
  const auto& config = model.config();
  ThreadPool pool(4);
  check_verify_block(model, ramp_tokens(5, config.vocab_size, 7),
                     ramp_tokens(6, config.vocab_size, 13), &pool);
}

TEST(SpecDecode, VerifyStepF16KvMatchesSerial) {
  Rng rng(14);
  const TransformerModel model(spec_config(), rng);
  const auto& config = model.config();
  check_verify_block(model, ramp_tokens(4, config.vocab_size, 9),
                     ramp_tokens(5, config.vocab_size, 17), nullptr,
                     DType::kF16);
}

TEST(SpecDecode, VerifyStepInt8WeightsMatchesSerial) {
  Rng rng(15);
  TransformerModel model(spec_config(), rng);
  model.quantize_weights(DType::kI8);
  const auto& config = model.config();
  check_verify_block(model, ramp_tokens(4, config.vocab_size, 5),
                     ramp_tokens(5, config.vocab_size, 7), nullptr);
}

TEST(SpecDecode, VerifyStepRejectsOverflowingBlock) {
  Rng rng(16);
  const TransformerModel model(spec_config(), rng);
  const auto& config = model.config();
  SessionState state(config, /*capacity_tokens=*/4);
  DecodeScratch scratch(config, 8);
  const auto block = ramp_tokens(5, config.vocab_size, 3);
  std::vector<float> logits(block.size() *
                            static_cast<std::size_t>(config.vocab_size));
  EXPECT_THROW(
      forward_block(model, state, scratch,
                    std::span<const TokenId>(block.data(), block.size()),
                    std::span<float>(logits.data(), logits.size())),
      Error);
}

TEST(SpecDecode, PromptLookupProposesMostRecentLongestMatch) {
  PromptLookupDrafter drafter(/*ngram_min=*/1, /*ngram_max=*/3);
  // Context ends in (8, 9); the trigram (7, 8, 9) occurs earlier followed
  // by 10 11 12, and the most recent bigram (8, 9) is followed by 20 21.
  const std::vector<TokenId> context = {7, 8, 9, 10, 11, 12,
                                        8, 9, 20, 21, 7,  8, 9};
  std::vector<TokenId> out(4);
  const std::size_t n = drafter.draft(
      std::span<const TokenId>(context.data(), context.size()), 4,
      std::span<TokenId>(out.data(), out.size()));
  // Longest suffix n-gram wins: (7, 8, 9) matched at the start, so the
  // proposal is what followed it there.
  ASSERT_EQ(n, 4U);
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[1], 11);
  EXPECT_EQ(out[2], 12);
  EXPECT_EQ(out[3], 8);
}

TEST(SpecDecode, PromptLookupPrefersMostRecentAmongEqualLength) {
  PromptLookupDrafter drafter(/*ngram_min=*/2, /*ngram_max=*/2);
  // The bigram (1, 2) occurs twice; the later occurrence (followed by 40)
  // must win.
  const std::vector<TokenId> context = {1, 2, 30, 1, 2, 40, 1, 2};
  std::vector<TokenId> out(2);
  const std::size_t n = drafter.draft(
      std::span<const TokenId>(context.data(), context.size()), 2,
      std::span<TokenId>(out.data(), out.size()));
  ASSERT_GE(n, 1U);
  EXPECT_EQ(out[0], 40);
}

TEST(SpecDecode, PromptLookupNoMatchReturnsZero) {
  PromptLookupDrafter drafter;
  const std::vector<TokenId> context = {1, 2, 3, 4, 5};
  std::vector<TokenId> out(4);
  EXPECT_EQ(0U, drafter.draft(
                    std::span<const TokenId>(context.data(), context.size()),
                    4, std::span<TokenId>(out.data(), out.size())));
  // Degenerate contexts must not propose anything either.
  const std::vector<TokenId> tiny = {3};
  EXPECT_EQ(0U,
            drafter.draft(std::span<const TokenId>(tiny.data(), tiny.size()),
                          4, std::span<TokenId>(out.data(), out.size())));
}

/// Drafter that proposes deterministic garbage — every draft should be
/// rejected, and the output must STILL match plain greedy decode exactly.
class GarbageDrafter : public Drafter {
 public:
  explicit GarbageDrafter(std::int64_t vocab) : vocab_(vocab) {}
  std::size_t draft(std::span<const TokenId> context, std::size_t max_tokens,
                    std::span<TokenId> out) override {
    for (std::size_t i = 0; i < max_tokens; ++i) {
      out[i] = static_cast<TokenId>(
          (context.size() * 7 + i * 13 + 1) %
          static_cast<std::size_t>(vocab_));
    }
    return max_tokens;
  }

 private:
  std::int64_t vocab_;
};

TEST(SpecDecode, SpeculativeGenerateMatchesPlainGreedyAcrossDraftK) {
  Rng rng(31);
  const TransformerModel model(spec_text_config(), rng);
  GenerateOptions plain;
  plain.max_new_tokens = 24;
  const std::string prompt = "do: route the clock tree\nq: fix skew\nout: ";
  const std::string expected = generate(model, prompt, plain);

  for (const std::int64_t draft_k : {0, 2, 4, 8}) {
    GenerateOptions spec = plain;
    spec.speculative = true;
    spec.draft_k = draft_k;
    SpecDecodeStats stats;
    const std::string got =
        speculative_generate(model, prompt, spec, false, nullptr, &stats);
    EXPECT_EQ(got, expected) << "draft_k " << draft_k;
    EXPECT_GT(stats.verify_passes, 0) << "draft_k " << draft_k;
    // generate() itself must dispatch to the same path.
    EXPECT_EQ(generate(model, prompt, spec), expected)
        << "draft_k " << draft_k;
  }
}

/// Drafter that knows the answer: it replays a known greedy token stream
/// past the caller's context, so every draft should be accepted — the
/// all-accepted end of the acceptance walk.
class OracleDrafter : public Drafter {
 public:
  explicit OracleDrafter(std::vector<TokenId> stream)
      : stream_(std::move(stream)) {}
  std::size_t draft(std::span<const TokenId> context, std::size_t max_tokens,
                    std::span<TokenId> out) override {
    std::size_t n = 0;
    for (std::size_t i = context.size();
         n < max_tokens && i < stream_.size(); ++i) {
      out[n++] = stream_[i];
    }
    return n;
  }

 private:
  std::vector<TokenId> stream_;
};

TEST(SpecDecode, SpeculativeGenerateMatchesWithOracleDrafter) {
  Rng rng(32);
  const TransformerModel model(spec_text_config(), rng);
  GenerateOptions plain;
  plain.max_new_tokens = 16;
  const std::string prompt = "explain hold violations";
  const std::string expected = generate(model, prompt, plain);

  GenerateOptions spec = plain;
  spec.speculative = true;
  spec.draft_k = 4;
  std::vector<TokenId> stream = tokenizer().encode(prompt, /*add_bos=*/true);
  const std::vector<TokenId> answer = tokenizer().encode(expected);
  stream.insert(stream.end(), answer.begin(), answer.end());
  OracleDrafter drafter(stream);
  SpecDecodeStats stats;
  EXPECT_EQ(speculative_generate(model, prompt, spec, false, &drafter,
                                 &stats),
            expected);
  EXPECT_GT(stats.verify_passes, 0);
  EXPECT_GT(stats.drafted, 0);
  EXPECT_EQ(stats.accepted, stats.drafted);
}

TEST(SpecDecode, SpeculativeGenerateMatchesWithGarbageDrafter) {
  Rng rng(33);
  const TransformerModel model(spec_text_config(), rng);
  GenerateOptions plain;
  plain.max_new_tokens = 16;
  const std::string prompt = "q: what is wns?\nout: ";
  const std::string expected = generate(model, prompt, plain);

  GenerateOptions spec = plain;
  spec.speculative = true;
  spec.draft_k = 4;
  GarbageDrafter drafter(model.config().vocab_size);
  SpecDecodeStats stats;
  EXPECT_EQ(speculative_generate(model, prompt, spec, false, &drafter,
                                 &stats),
            expected);
  // Garbage proposals may occasionally collide with the real argmax, but
  // the accounting must stay consistent.
  EXPECT_LE(stats.accepted, stats.drafted);
  EXPECT_GE(stats.emitted, stats.verify_passes);
}

TEST(SpecDecode, SpeculativeGenerateMatchesForInt8Weights) {
  Rng rng(34);
  TransformerModel model(spec_text_config(), rng);
  model.quantize_weights(DType::kI8);
  GenerateOptions plain;
  plain.max_new_tokens = 20;
  const std::string prompt = "do: answer placement questions\nout: ";
  const std::string expected = generate(model, prompt, plain);

  for (const std::int64_t draft_k : {2, 8}) {
    GenerateOptions spec = plain;
    spec.speculative = true;
    spec.draft_k = draft_k;
    EXPECT_EQ(speculative_generate(model, prompt, spec), expected)
        << "draft_k " << draft_k;
  }
}

TEST(SpecDecode, ServedSpeculativeMatchesGenerateAcrossCachingAndDraftK) {
  Rng rng(35);
  const TransformerModel model(spec_text_config(), rng);
  const std::vector<std::string> prompts = {
      "do: answer placement questions\nq: what is wns?\nout: ",
      "do: answer placement questions\nq: what is tns?\nout: ",
      "route the clock tree",
      "fix hold violations on the scan chain",
  };
  GenerateOptions options;
  options.max_new_tokens = 12;
  std::vector<std::string> expected;
  for (const auto& prompt : prompts) {
    expected.push_back(generate(model, prompt, options));
  }

  for (const std::int64_t draft_k : {0, 2, 4, 8}) {
    for (const std::size_t cache_bytes : {std::size_t{0}, std::size_t{1}
                                                              << 22}) {
      ServeConfig serve;
      serve.max_batch = 4;
      serve.prefix_cache_bytes = cache_bytes;
      serve.speculative = true;
      serve.draft_k = draft_k;
      Server server(model, serve);
      std::vector<SessionId> ids;
      for (const auto& prompt : prompts) {
        ids.push_back(server.submit(server.text_request(prompt, options)));
      }
      server.run();
      for (std::size_t i = 0; i < prompts.size(); ++i) {
        EXPECT_EQ(server.wait_result(ids[i]).text, expected[i])
            << "draft_k " << draft_k << " cache " << cache_bytes
            << " prompt " << i;
      }
      const ServerStats stats = server.stats();
      EXPECT_GT(stats.spec.verify_passes, 0) << "draft_k " << draft_k;
      EXPECT_LE(stats.spec.accepted, stats.spec.drafted);
    }
  }
}

TEST(SpecDecode, ServedSpeculativeMatchesGenerateForInt8Weights) {
  Rng rng(36);
  TransformerModel model(spec_text_config(), rng);
  model.quantize_weights(DType::kI8);
  const std::string prompt = "q: define congestion\nout: ";
  GenerateOptions options;
  options.max_new_tokens = 12;
  const std::string expected = generate(model, prompt, options);

  ServeConfig serve;
  serve.speculative = true;
  serve.draft_k = 4;
  Server server(model, serve);
  const SessionId id = server.submit(server.text_request(prompt, options));
  server.run();
  EXPECT_EQ(server.wait_result(id).text, expected);
}

TEST(SpecDecode, ServedSampledSessionsKeepPlainPathUnderSpeculative) {
  Rng rng(37);
  const TransformerModel model(spec_text_config(), rng);
  const std::string prompt = "route the clock tree";
  GenerateOptions sampled;
  sampled.max_new_tokens = 12;
  sampled.temperature = 0.8;
  sampled.seed = 123;
  const std::string expected = generate(model, prompt, sampled);

  ServeConfig serve;
  serve.speculative = true;
  serve.draft_k = 4;
  Server server(model, serve);
  const SessionId id = server.submit(server.text_request(prompt, sampled));
  server.run();
  EXPECT_EQ(server.wait_result(id).text, expected);
  // Sampled sessions never take the draft/verify path.
  EXPECT_EQ(server.stats().spec.verify_passes, 0);
}

TEST(KvTruncate, TruncateThenRedecodeBitwiseEqualsStraightDecode) {
  Rng rng(41);
  const TransformerModel model(spec_config(), rng);
  const auto& config = model.config();
  const auto base = ramp_tokens(6, config.vocab_size, 3);
  const auto retry = ramp_tokens(4, config.vocab_size, 19);

  // Reference: base[0..3) then retry, with no truncation anywhere.
  std::vector<TokenId> straight(base.begin(), base.begin() + 3);
  straight.insert(straight.end(), retry.begin(), retry.end());
  const auto expected = serial_rows(model, straight);

  SessionState state(config, config.max_seq_len);
  DecodeScratch scratch(config, 1);
  std::vector<float> row(static_cast<std::size_t>(config.vocab_size));
  for (const TokenId token : base) {
    forward_token(model, state, scratch, token,
                  std::span<float>(row.data(), row.size()));
  }
  state.truncate(3);  // drop base[3..6) as a rejected speculation would
  for (std::size_t i = 0; i < retry.size(); ++i) {
    forward_token(model, state, scratch, retry[i],
                  std::span<float>(row.data(), row.size()));
    EXPECT_TRUE(rows_equal(std::span<const float>(row.data(), row.size()),
                           expected[3 + i]))
        << "redecode step " << i;
  }
}

TEST(KvTruncate, TruncateValidatesRange) {
  Rng rng(42);
  const TransformerModel model(spec_config(), rng);
  const auto& config = model.config();
  SessionState state(config, config.max_seq_len);
  DecodeScratch scratch(config, 1);
  std::vector<float> row(static_cast<std::size_t>(config.vocab_size));
  for (const TokenId token : ramp_tokens(3, config.vocab_size, 5)) {
    forward_token(model, state, scratch, token,
                  std::span<float>(row.data(), row.size()));
  }
  EXPECT_THROW(state.truncate(-1), Error);
  EXPECT_THROW(state.truncate(4), Error);
  state.truncate(3);  // no-op at the boundary
  EXPECT_EQ(state.position, 3);
  state.truncate(0);
  EXPECT_EQ(state.position, 0);
}

TEST(KvTruncate, TruncateF16KvRedecodeIsBitwise) {
  Rng rng(44);
  const TransformerModel model(spec_config(), rng);
  const auto& config = model.config();
  const auto base = ramp_tokens(5, config.vocab_size, 3);
  const auto retry = ramp_tokens(3, config.vocab_size, 13);

  std::vector<TokenId> straight(base.begin(), base.begin() + 2);
  straight.insert(straight.end(), retry.begin(), retry.end());
  const auto expected = serial_rows(model, straight, DType::kF16);

  SessionState state(config, config.max_seq_len, 7, DType::kF16);
  DecodeScratch scratch(config, 1);
  std::vector<float> row(static_cast<std::size_t>(config.vocab_size));
  for (const TokenId token : base) {
    forward_token(model, state, scratch, token,
                  std::span<float>(row.data(), row.size()));
  }
  state.truncate(2);
  for (std::size_t i = 0; i < retry.size(); ++i) {
    forward_token(model, state, scratch, retry[i],
                  std::span<float>(row.data(), row.size()));
    EXPECT_TRUE(rows_equal(std::span<const float>(row.data(), row.size()),
                           expected[2 + i]))
        << "f16 redecode step " << i;
  }
}

TEST(KvTruncate, TruncateDoesNotDisturbRadixCacheEntries) {
  Rng rng(45);
  const TransformerModel model(spec_config(), rng);
  const auto& config = model.config();
  const auto prompt = ramp_tokens(8, config.vocab_size, 3);

  RadixKvCache cache(config, /*max_bytes=*/1 << 22);
  SessionState writer(config, config.max_seq_len);
  DecodeScratch scratch(config, 1);
  std::vector<float> row(static_cast<std::size_t>(config.vocab_size));
  for (const TokenId token : prompt) {
    forward_token(model, writer, scratch, token,
                  std::span<float>(row.data(), row.size()));
  }
  cache.insert(std::span<const TokenId>(prompt.data(), prompt.size()),
               writer);

  // Session B reuses the cached prefix while holding a pin, speculates,
  // and rolls all the way back to zero. The cache rows it copied must be
  // untouched: a third session acquiring afterwards decodes bitwise.
  SessionState b(config, config.max_seq_len);
  auto ref_b =
      cache.acquire(std::span<const TokenId>(prompt.data(), prompt.size()),
                    b);
  ASSERT_EQ(ref_b.matched(), static_cast<std::int64_t>(prompt.size()));
  DecodeScratch spec_scratch(config, 4);
  const auto junk = ramp_tokens(4, config.vocab_size, 23);
  std::vector<float> junk_logits(
      junk.size() * static_cast<std::size_t>(config.vocab_size));
  forward_block(model, b, spec_scratch,
                std::span<const TokenId>(junk.data(), junk.size()),
                std::span<float>(junk_logits.data(), junk_logits.size()));
  b.truncate(0);
  ref_b.release();

  const TokenId probe =
      static_cast<TokenId>(5 % config.vocab_size);
  std::vector<TokenId> straight = prompt;
  straight.push_back(probe);
  const auto expected = serial_rows(model, straight);

  SessionState c(config, config.max_seq_len);
  auto ref_c =
      cache.acquire(std::span<const TokenId>(prompt.data(), prompt.size()),
                    c);
  ASSERT_EQ(ref_c.matched(), static_cast<std::int64_t>(prompt.size()));
  forward_token(model, c, scratch, probe,
                std::span<float>(row.data(), row.size()));
  EXPECT_TRUE(rows_equal(std::span<const float>(row.data(), row.size()),
                         expected.back()));
}

}  // namespace
}  // namespace chipalign
