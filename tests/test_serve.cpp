// Tests for the multi-tenant serving engine (src/serve) and its decode
// primitives (src/nn/decode.*): bitwise equality of batched and serial
// decoding at several batch widths, radix prefix-cache hit/miss/split/
// eviction semantics, scheduler admission + round-robin fairness under
// churn, and cross-thread submit/wait safety.
//
// Suite names (BatchedDecode, RadixCache, ServeScheduler,
// ServeConcurrency) are stable so sanitizer CI can select them with
// ctest -R.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <span>
#include <thread>
#include <vector>

#include "forward_helpers.hpp"
#include "nn/infer.hpp"
#include "serve/radix_cache.hpp"
#include "serve/server.hpp"
#include "text/tokenizer.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace chipalign {
namespace {

/// Same shape test_infer.cpp uses: SIMD-exercising but tiny.
ModelConfig serve_config() {
  ModelConfig config;
  config.name = "serve-test";
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

/// Tokenizer-vocab shape for Server tests (prompts are real text).
ModelConfig text_config() {
  ModelConfig config;
  config.name = "serve-text";
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

/// Serially decodes `tokens` through one session, returning the logits
/// after every step.
std::vector<std::vector<float>> serial_logits(
    const TransformerModel& model, const std::vector<TokenId>& tokens) {
  const auto& config = model.config();
  SessionState state(config, config.max_seq_len);
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

/// Runs `width` sessions through one forward() per step, one token each,
/// over their token sequences and checks each logits row bitwise against
/// the serial reference.
void check_batched_matches_serial(std::int64_t width, ThreadPool* pool) {
  Rng rng(33);
  const TransformerModel model(serve_config(), rng);
  const auto& config = model.config();
  const std::size_t steps = 9;

  std::vector<std::vector<TokenId>> sequences;
  std::vector<std::vector<std::vector<float>>> expected;
  for (std::int64_t b = 0; b < width; ++b) {
    sequences.push_back(ramp_tokens(steps, config.vocab_size,
                                    static_cast<std::size_t>(3 + 2 * b)));
    expected.push_back(serial_logits(model, sequences.back()));
  }

  std::vector<std::unique_ptr<SessionState>> states;
  std::vector<SessionState*> state_ptrs;
  for (std::int64_t b = 0; b < width; ++b) {
    states.push_back(
        std::make_unique<SessionState>(config, config.max_seq_len));
    state_ptrs.push_back(states.back().get());
  }
  DecodeScratch scratch(config, width);
  std::vector<float> logits(
      static_cast<std::size_t>(width * config.vocab_size));
  for (std::size_t t = 0; t < steps; ++t) {
    std::vector<TokenId> tokens;
    for (std::int64_t b = 0; b < width; ++b) {
      tokens.push_back(sequences[static_cast<std::size_t>(b)][t]);
    }
    forward_batch(
        model,
        std::span<SessionState* const>(state_ptrs.data(), state_ptrs.size()),
        std::span<const TokenId>(tokens.data(), tokens.size()), scratch,
        std::span<float>(logits.data(), logits.size()), pool);
    for (std::int64_t b = 0; b < width; ++b) {
      const std::span<const float> row(
          logits.data() + b * config.vocab_size,
          static_cast<std::size_t>(config.vocab_size));
      const auto& want = expected[static_cast<std::size_t>(b)][t];
      ASSERT_TRUE(rows_equal(
          row, std::span<const float>(want.data(), want.size())))
          << "width " << width << " row " << b << " step " << t;
    }
  }
}

// The serving engine's core claim: a batched step is bit-identical to the
// serial decode of each batch member, at every required width.
TEST(BatchedDecode, BitwiseEqualsSerialAtWidth1) {
  check_batched_matches_serial(1, nullptr);
}

TEST(BatchedDecode, BitwiseEqualsSerialAtWidth4) {
  check_batched_matches_serial(4, nullptr);
}

TEST(BatchedDecode, BitwiseEqualsSerialAtWidth16) {
  check_batched_matches_serial(16, nullptr);
}

// Fanning per-session attention over a pool must not change any bits.
TEST(BatchedDecode, PoolFanoutKeepsBitsAtWidth8) {
  ThreadPool pool(4);
  check_batched_matches_serial(8, &pool);
}

// Continuous batching mixes sessions at unequal positions (one mid-decode,
// one fresh); the batched step must still match each serial stream.
TEST(BatchedDecode, MixedPositionsMatchSerial) {
  Rng rng(5);
  const TransformerModel model(serve_config(), rng);
  const auto& config = model.config();
  const auto head = ramp_tokens(6, config.vocab_size, 3);
  const auto tail = ramp_tokens(4, config.vocab_size, 5);
  const auto fresh = ramp_tokens(4, config.vocab_size, 11);

  // Serial references: one session over head+tail, one over fresh.
  std::vector<TokenId> joined = head;
  joined.insert(joined.end(), tail.begin(), tail.end());
  const auto expect_a = serial_logits(model, joined);
  const auto expect_b = serial_logits(model, fresh);

  SessionState state_a(config, config.max_seq_len);
  SessionState state_b(config, config.max_seq_len);
  DecodeScratch scratch(config, 2);
  std::vector<float> logits(static_cast<std::size_t>(config.vocab_size));
  for (const TokenId token : head) {
    forward_token(model, state_a, scratch, token,
                  std::span<float>(logits.data(), logits.size()));
  }
  ASSERT_EQ(state_a.position, 6);

  std::vector<float> batch_logits(
      static_cast<std::size_t>(2 * config.vocab_size));
  SessionState* states[] = {&state_a, &state_b};
  for (std::size_t t = 0; t < tail.size(); ++t) {
    const TokenId tokens[] = {tail[t], fresh[t]};
    forward_batch(model, states, tokens, scratch,
                  std::span<float>(batch_logits.data(),
                                   batch_logits.size()));
    const std::span<const float> row_a(
        batch_logits.data(), static_cast<std::size_t>(config.vocab_size));
    const std::span<const float> row_b(
        batch_logits.data() + config.vocab_size,
        static_cast<std::size_t>(config.vocab_size));
    const auto& want_a = expect_a[head.size() + t];
    const auto& want_b = expect_b[t];
    EXPECT_TRUE(rows_equal(
        row_a, std::span<const float>(want_a.data(), want_a.size())));
    EXPECT_TRUE(rows_equal(
        row_b, std::span<const float>(want_b.data(), want_b.size())));
  }
}

/// Decodes `tokens` into `state` so the cache has real KV rows to store.
void prefill_state(const TransformerModel& model, SessionState& state,
                   std::span<const TokenId> tokens) {
  DecodeScratch scratch(model.config(), 1);
  std::vector<float> logits(
      static_cast<std::size_t>(model.config().vocab_size));
  for (const TokenId token : tokens) {
    forward_token(model, state, scratch, token,
                  std::span<float>(logits.data(), logits.size()));
  }
}

TEST(RadixCache, MissThenExactHitRoundTripsKvBits) {
  Rng rng(7);
  const TransformerModel model(serve_config(), rng);
  const auto& config = model.config();
  RadixKvCache cache(config, 1 << 20);
  const auto prompt = ramp_tokens(10, config.vocab_size, 3);

  SessionState cold(config, config.max_seq_len);
  {
    auto ref = cache.acquire(prompt, cold);
    EXPECT_EQ(ref.matched(), 0);
    EXPECT_EQ(cold.position, 0);
  }
  prefill_state(model, cold, prompt);
  cache.insert(prompt, cold);
  EXPECT_EQ(cache.stats().inserted_tokens, 10);

  SessionState warm(config, config.max_seq_len);
  auto ref = cache.acquire(prompt, warm);
  EXPECT_EQ(ref.matched(), 10);
  EXPECT_EQ(warm.position, 10);
  for (std::int64_t l = 0; l < config.n_layers; ++l) {
    const std::size_t floats =
        static_cast<std::size_t>(10 * cold.kv_dim);
    EXPECT_EQ(std::memcmp(cold.k_raw(l, 0), warm.k_raw(l, 0),
                          floats * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(cold.v_raw(l, 0), warm.v_raw(l, 0),
                          floats * sizeof(float)),
              0);
  }
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);  // 0 of 10, then 10 of 10
}

// A cache-hit session continued past the shared prefix must produce the
// same bits as a session that decoded the whole prompt itself.
TEST(RadixCache, PartialHitContinuesBitIdentically) {
  Rng rng(11);
  const TransformerModel model(serve_config(), rng);
  const auto& config = model.config();
  RadixKvCache cache(config, 1 << 20);

  auto shared = ramp_tokens(8, config.vocab_size, 3);
  std::vector<TokenId> first = shared;
  first.push_back(40);
  first.push_back(41);
  std::vector<TokenId> second = shared;
  second.push_back(20);
  second.push_back(21);
  second.push_back(22);

  SessionState donor(config, config.max_seq_len);
  prefill_state(model, donor, first);
  cache.insert(first, donor);

  SessionState warm(config, config.max_seq_len);
  auto ref = cache.acquire(second, warm);
  EXPECT_EQ(ref.matched(), 8);  // shared prefix only

  DecodeScratch scratch(config, 1);
  std::vector<float> warm_logits(
      static_cast<std::size_t>(config.vocab_size));
  for (std::size_t i = static_cast<std::size_t>(ref.matched());
       i < second.size(); ++i) {
    forward_token(model, warm, scratch, second[i],
                  std::span<float>(warm_logits.data(), warm_logits.size()));
  }
  const auto expected = serial_logits(model, second).back();
  EXPECT_TRUE(rows_equal(
      std::span<const float>(warm_logits.data(), warm_logits.size()),
      std::span<const float>(expected.data(), expected.size())));
}

TEST(RadixCache, DivergentInsertSplitsSharedEdge) {
  Rng rng(13);
  const TransformerModel model(serve_config(), rng);
  const auto& config = model.config();
  RadixKvCache cache(config, 1 << 22);

  auto shared = ramp_tokens(6, config.vocab_size, 3);
  std::vector<TokenId> first = shared;
  first.push_back(40);
  std::vector<TokenId> second = shared;
  second.push_back(20);

  SessionState a(config, config.max_seq_len);
  prefill_state(model, a, first);
  cache.insert(first, a);
  EXPECT_EQ(cache.stats().nodes, 1);

  SessionState b(config, config.max_seq_len);
  prefill_state(model, b, second);
  cache.insert(second, b);
  // Split: shared prefix node + two divergent tails.
  EXPECT_EQ(cache.stats().nodes, 3);
  // Only the new tail's token is new data; the prefix was deduplicated.
  EXPECT_EQ(cache.stats().inserted_tokens, 8);

  SessionState probe(config, config.max_seq_len);
  auto ref = cache.acquire(second, probe);
  EXPECT_EQ(ref.matched(), 7);
  for (std::int64_t l = 0; l < config.n_layers; ++l) {
    EXPECT_EQ(std::memcmp(b.k_raw(l, 0), probe.k_raw(l, 0),
                          static_cast<std::size_t>(7 * b.kv_dim) *
                              sizeof(float)),
              0);
  }
}

TEST(RadixCache, LruEvictionRespectsBudgetAndPins) {
  Rng rng(17);
  const TransformerModel model(serve_config(), rng);
  const auto& config = model.config();
  // Budget: KV rows are 2 (k+v) * n_layers(2) * kv_dim(16) * 4B = 256 B
  // per token; 8 tokens per prompt = 2 KiB per entry. Room for ~2 entries.
  RadixKvCache cache(config, 5 * 1024);

  const auto make_prompt = [&](std::size_t stride) {
    return ramp_tokens(8, config.vocab_size, stride);
  };

  SessionState s1(config, config.max_seq_len);
  const auto p1 = make_prompt(3);
  prefill_state(model, s1, p1);
  cache.insert(p1, s1);

  // Pin p1's path, then insert enough distinct prompts to exceed budget.
  SessionState pin_state(config, config.max_seq_len);
  auto pin = cache.acquire(p1, pin_state);
  EXPECT_EQ(pin.matched(), 8);

  for (std::size_t stride : {5U, 7U, 11U, 13U}) {
    SessionState s(config, config.max_seq_len);
    const auto p = make_prompt(stride);
    prefill_state(model, s, p);
    cache.insert(p, s);
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.bytes, 5 * 1024);

  // Pinned entry survived every eviction pass.
  SessionState probe(config, config.max_seq_len);
  auto ref = cache.acquire(p1, probe);
  EXPECT_EQ(ref.matched(), 8);
  ref.release();
  pin.release();

  // Unpinned now: flooding with fresh prompts may evict it.
  for (std::size_t stride : {17U, 19U, 23U}) {
    SessionState s(config, config.max_seq_len);
    const auto p = make_prompt(stride);
    prefill_state(model, s, p);
    cache.insert(p, s);
  }
  EXPECT_LE(cache.stats().bytes, 5 * 1024);
}

TEST(RadixCache, ZeroBudgetDisablesCaching) {
  Rng rng(19);
  const TransformerModel model(serve_config(), rng);
  const auto& config = model.config();
  RadixKvCache cache(config, 0);
  const auto prompt = ramp_tokens(6, config.vocab_size, 3);
  SessionState s(config, config.max_seq_len);
  prefill_state(model, s, prompt);
  cache.insert(prompt, s);
  SessionState probe(config, config.max_seq_len);
  auto ref = cache.acquire(prompt, probe);
  EXPECT_EQ(ref.matched(), 0);
  EXPECT_EQ(cache.stats().nodes, 0);
}

/// Reference output for a served prompt: plain generate() on the same
/// model with the same options.
std::string reference_output(const TransformerModel& model,
                             const std::string& prompt,
                             const GenerateOptions& options,
                             bool stop_at_newline) {
  return generate(model, prompt, options, stop_at_newline);
}

std::vector<std::string> serve_prompts() {
  return {
      "do: answer placement questions\nq: what is wns?\nout: ",
      "do: answer placement questions\nq: what is tns?\nout: ",
      "do: answer placement questions\nq: define congestion\nout: ",
      "do: answer placement questions\nq: explain skew\nout: ",
      "route the clock tree",
      "fix hold violations on the scan chain",
  };
}

// Served outputs must be bitwise the tokens generate() produces — for
// every batch width, with and without the prefix cache, greedy and
// sampled.
TEST(ServeScheduler, OutputsMatchGenerateAcrossWidthsAndCaching) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  const auto prompts = serve_prompts();
  GenerateOptions options;
  options.max_new_tokens = 12;

  std::vector<std::string> expected;
  for (const auto& prompt : prompts) {
    expected.push_back(reference_output(model, prompt, options, false));
  }

  for (const std::int64_t width : {1, 4, 16}) {
    for (const std::size_t cache_bytes : {std::size_t{0}, std::size_t{1}
                                                              << 22}) {
      ServeConfig serve;
      serve.max_batch = width;
      serve.prefix_cache_bytes = cache_bytes;
      Server server(model, serve);
      std::vector<SessionId> ids;
      for (const auto& prompt : prompts) {
        ids.push_back(server.submit(server.text_request(prompt, options)));
      }
      server.run();
      for (std::size_t i = 0; i < prompts.size(); ++i) {
        EXPECT_EQ(server.wait_result(ids[i]).text, expected[i])
            << "width " << width << " cache " << cache_bytes << " prompt "
            << i;
      }
    }
  }
}

TEST(ServeScheduler, SampledOutputsMatchGeneratePerSeed) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  const auto prompts = serve_prompts();

  ServeConfig serve;
  serve.max_batch = 4;
  Server server(model, serve);
  std::vector<SessionId> ids;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    GenerateOptions options;
    options.max_new_tokens = 10;
    options.temperature = 0.8;
    options.seed = 100 + i;
    expected.push_back(reference_output(model, prompts[i], options, true));
    ids.push_back(
        server.submit(server.text_request(prompts[i], options, true)));
  }
  server.run();
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    EXPECT_EQ(server.wait_result(ids[i]).text, expected[i]) << i;
  }
}

TEST(ServeScheduler, AdmissionQueuesBeyondSessionAndByteLimits) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  const auto prompts = serve_prompts();
  GenerateOptions options;
  options.max_new_tokens = 8;

  {
    ServeConfig serve;
    serve.max_sessions = 2;
    serve.max_batch = 4;
    Server server(model, serve);
    std::vector<SessionId> ids;
    for (const auto& prompt : prompts) {
      ids.push_back(server.submit(server.text_request(prompt, options)));
    }
    server.run();
    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, static_cast<std::int64_t>(prompts.size()));
    EXPECT_LE(stats.peak_resident, 2);
    EXPECT_LE(stats.peak_batch, 2);  // batch can never exceed residency
    for (const SessionId id : ids) {
      EXPECT_FALSE(server.wait_result(id).tokens.empty());
    }
  }
  {
    // Byte budget sized for one resident session at a time.
    const auto& config = model.config();
    const auto one = SessionState::kv_bytes_for(
        config, static_cast<std::int64_t>(prompts[0].size()) + 64);
    ServeConfig serve;
    serve.max_kv_bytes = one + one / 2;
    Server server(model, serve);
    std::vector<SessionId> ids;
    for (const auto& prompt : prompts) {
      ids.push_back(server.submit(server.text_request(prompt, options)));
    }
    server.run();
    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, static_cast<std::int64_t>(prompts.size()));
    EXPECT_GE(stats.peak_resident, 1);
  }
}

TEST(ServeScheduler, SubmitRejectsUnservableRequests) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  ServeConfig serve;
  serve.max_kv_bytes = 4096;  // tiny budget
  Server server(model, serve);

  Request empty;
  EXPECT_THROW(server.submit(empty), Error);

  Request huge = server.text_request(
      std::string(static_cast<std::size_t>(model.config().max_seq_len), 'a'),
      {});
  EXPECT_THROW(server.submit(std::move(huge)), Error);

  Request bad_token = server.text_request("ok", {});
  bad_token.prompt.push_back(
      static_cast<TokenId>(model.config().vocab_size));
  EXPECT_THROW(server.submit(std::move(bad_token)), Error);

  GenerateOptions no_budget;
  no_budget.max_new_tokens = 0;
  EXPECT_THROW(server.submit(server.text_request("ok", no_budget)), Error);

  // KV footprint larger than the whole server budget: rejected up front
  // rather than queued forever.
  GenerateOptions long_gen;
  long_gen.max_new_tokens = 200;
  EXPECT_THROW(server.submit(server.text_request("ok", long_gen)), Error);
}

// Round-robin fairness under churn: with more sessions than batch slots,
// no session's emissions stall while others run ahead.
TEST(ServeScheduler, RoundRobinInterleavesEmissionsUnderChurn) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  const auto prompts = serve_prompts();  // 6 sessions, width 2
  GenerateOptions options;
  options.max_new_tokens = 8;

  ServeConfig serve;
  serve.max_batch = 2;
  Server server(model, serve);
  std::vector<TokenId> unused;
  std::vector<SessionId> emission_order;
  std::vector<SessionId> ids;
  for (const auto& prompt : prompts) {
    Request request = server.text_request(prompt, options);
    request.on_token = [&](SessionId id, TokenId) {
      emission_order.push_back(id);
    };
    ids.push_back(server.submit(std::move(request)));
  }
  server.run();

  // Every session emitted, and between consecutive emissions of any one
  // session at most one full rotation of the others elapsed.
  std::map<SessionId, std::vector<std::size_t>> positions;
  for (std::size_t i = 0; i < emission_order.size(); ++i) {
    positions[emission_order[i]].push_back(i);
  }
  EXPECT_EQ(positions.size(), prompts.size());
  for (const auto& [id, at] : positions) {
    for (std::size_t i = 1; i < at.size(); ++i) {
      EXPECT_LE(at[i] - at[i - 1], prompts.size() + 1)
          << "session " << id << " starved between emissions";
    }
  }
}

TEST(ServeScheduler, StreamingCallbackSeesExactlyTheResultTokens) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  GenerateOptions options;
  options.max_new_tokens = 10;

  Server server(model, ServeConfig{});
  std::map<SessionId, std::vector<TokenId>> streamed;
  std::vector<SessionId> ids;
  for (const auto& prompt : serve_prompts()) {
    Request request = server.text_request(prompt, options);
    request.on_token = [&](SessionId id, TokenId token) {
      streamed[id].push_back(token);
    };
    ids.push_back(server.submit(std::move(request)));
  }
  server.run();
  for (const SessionId id : ids) {
    EXPECT_EQ(server.wait_result(id).tokens, streamed[id]);
  }
}

// Sessions admitted after a shared-prefix session finished prefill reuse
// its KV: the cache reports per-token hits and results stay bit-exact.
TEST(ServeScheduler, SharedHeadersHitThePrefixCache) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  const std::string header(120, 'h');
  std::vector<std::string> prompts;
  for (int i = 0; i < 6; ++i) {
    prompts.push_back(header + "q" + std::to_string(i));
  }
  GenerateOptions options;
  options.max_new_tokens = 6;

  std::vector<std::string> expected;
  for (const auto& prompt : prompts) {
    expected.push_back(reference_output(model, prompt, options, false));
  }

  ServeConfig serve;
  serve.max_sessions = 2;  // later sessions admit after inserts exist
  serve.max_batch = 2;
  serve.prefix_cache_bytes = std::size_t{1} << 22;
  Server server(model, serve);
  std::vector<SessionId> ids;
  for (const auto& prompt : prompts) {
    ids.push_back(server.submit(server.text_request(prompt, options)));
  }
  server.run();

  std::int64_t cached = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const SessionResult result = server.wait_result(ids[i]);
    EXPECT_EQ(result.text, expected[i]) << i;
    cached += result.cached_tokens;
  }
  EXPECT_GT(cached, 0);
  const auto stats = server.stats();
  EXPECT_GT(stats.cache.hit_rate(), 0.5);
  EXPECT_EQ(stats.cache.hit_tokens, cached);
}

// submit()/wait_result() from many threads while one driver steps: every
// session completes with the exact generate() output. (tsan runs this.)
TEST(ServeConcurrency, ConcurrentSubmittersAndWaitersSeeExactResults) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  const auto prompts = serve_prompts();
  GenerateOptions options;
  options.max_new_tokens = 8;

  std::vector<std::string> expected;
  for (const auto& prompt : prompts) {
    expected.push_back(reference_output(model, prompt, options, false));
  }

  ServeConfig serve;
  serve.max_batch = 4;
  serve.max_sessions = 3;
  Server server(model, serve);

  std::atomic<int> live_submitters{2};
  std::atomic<bool> mismatch{false};
  const auto submitter = [&](std::size_t begin) {
    for (std::size_t i = begin; i < prompts.size(); i += 2) {
      const SessionId id =
          server.submit(server.text_request(prompts[i], options));
      // Waits on the driver thread below; also exercises cross-thread
      // result delivery.
      if (server.wait_result(id).text != expected[i]) mismatch = true;
    }
    --live_submitters;
  };
  std::thread t1(submitter, 0);
  std::thread t2(submitter, 1);
  while (live_submitters.load() > 0) {
    if (!server.step()) std::this_thread::yield();
  }
  t1.join();
  t2.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(server.stats().completed,
            static_cast<std::int64_t>(prompts.size()));
}

}  // namespace
}  // namespace chipalign
