// Request-lifecycle tests for the serving engine (src/serve): deadlines,
// cancellation, bounded-queue load shedding, graceful drain / hard stop,
// the stalled-driver watchdog, and a serve-path chaos soak that hammers a
// live server with concurrent submit/cancel/deadline/drain storms while
// the serve.* failpoints are armed.
//
// Suite names (ServeLifecycle, ServeDrain, ServeChaos) are stable so
// sanitizer CI can select them with ctest -R; the chaos suite is the
// serve-chaos leg of the crash-soak job.
//
// The invariants pinned here (DESIGN.md §4k):
//   * every accepted session terminalizes with an explicit status — no
//     silent drops, no hung wait_result;
//   * a completed session's output is bitwise what generate() produces,
//     no matter which batch-mates were cancelled/expired around it;
//   * a non-completed session's output is a prefix of that reference
//     (early exit never corrupts what was already emitted);
//   * after drain, residents, KV bytes, and prefix-cache pins are zero
//     and the ServerStats lifecycle counters balance.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "nn/infer.hpp"
#include "serve/server.hpp"
#include "text/tokenizer.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace chipalign {
namespace {

/// Tokenizer-vocab shape (prompts are real text), same as test_serve.cpp.
ModelConfig text_config() {
  ModelConfig config;
  config.name = "serve-lifecycle";
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

std::vector<std::string> lifecycle_prompts() {
  return {
      "do: answer routing questions\nq: what is wns?\nout: ",
      "do: answer routing questions\nq: what is tns?\nout: ",
      "do: answer routing questions\nq: define skew\nout: ",
      "do: answer routing questions\nq: define slack\nout: ",
      "fix setup violations now",
      "fix hold violations now",
  };
}

/// Injectable test clock: deadlines and watchdog stalls advance only when
/// the test says so, making expiry deterministic. Thread-safe (the driver,
/// submitters, and the watchdog all read it).
struct FakeClock {
  std::shared_ptr<std::atomic<std::int64_t>> t =
      std::make_shared<std::atomic<std::int64_t>>(0);
  std::function<std::int64_t()> fn() const {
    auto p = t;
    return [p] { return p->load(); };
  }
  void advance(std::int64_t ms) { t->fetch_add(ms); }
};

/// The char tokenizer decodes token-by-token, so a token-prefix decodes to
/// a text-prefix: early-exited sessions must satisfy this against their
/// generate() reference.
bool is_text_prefix(const std::string& full, const std::string& part) {
  return part.size() <= full.size() &&
         full.compare(0, part.size(), part) == 0;
}

/// submitted must equal the sum of the terminal buckets plus in-flight
/// gauges — no session ever vanishes from the accounting.
void expect_counters_balance(const ServerStats& stats) {
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.cancelled + stats.expired + stats.shed +
                stats.shutdown_terminated + stats.failed + stats.waiting +
                stats.resident);
}

// ---- ServeLifecycle ------------------------------------------------------

TEST(ServeLifecycle, WaitResultUnknownIdFailsFast) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  Server server(model, ServeConfig{});
  EXPECT_THROW(server.wait_result(1), UnknownSessionError);
  EXPECT_THROW(server.wait_result(0), UnknownSessionError);
  EXPECT_THROW(server.wait_result(-5), UnknownSessionError);
  EXPECT_THROW(server.wait_result_for(42, 100), UnknownSessionError);
  EXPECT_THROW(server.cancel(7), UnknownSessionError);

  // Issued ids keep working, and the *next* unissued one still throws.
  GenerateOptions options;
  options.max_new_tokens = 4;
  const SessionId id =
      server.submit(server.text_request(lifecycle_prompts()[0], options));
  EXPECT_THROW(server.wait_result(id + 1), UnknownSessionError);
  server.run();
  EXPECT_EQ(server.wait_result(id).status, SessionStatus::kCompleted);
}

TEST(ServeLifecycle, WaitResultForTimesOutWithoutDriver) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  Server server(model, ServeConfig{});
  GenerateOptions options;
  options.max_new_tokens = 4;
  const SessionId id =
      server.submit(server.text_request(lifecycle_prompts()[0], options));
  EXPECT_FALSE(server.wait_result_for(id, 0).has_value());
  EXPECT_FALSE(server.wait_result_for(id, 20).has_value());
  server.run();
  const auto result = server.wait_result_for(id, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, SessionStatus::kCompleted);
}

TEST(ServeLifecycle, UnservableSubmitsThrowTypedErrorsAndAreCounted) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  Server server(model, ServeConfig{});
  GenerateOptions options;

  Request empty;  // empty prompt
  EXPECT_THROW(server.submit(std::move(empty)), UnservableError);

  Request negative = server.text_request(lifecycle_prompts()[0], options);
  negative.deadline_ms = -1;
  EXPECT_THROW(server.submit(std::move(negative)), UnservableError);

  Request no_budget = server.text_request(lifecycle_prompts()[0], options);
  no_budget.max_new_tokens = 0;
  EXPECT_THROW(server.submit(std::move(no_budget)), UnservableError);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_unservable, 3);
  EXPECT_EQ(stats.submitted, 0);
}

TEST(ServeLifecycle, CancelQueuedSessionTerminalizesImmediately) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  Server server(model, ServeConfig{});
  GenerateOptions options;
  options.max_new_tokens = 6;
  const SessionId keep =
      server.submit(server.text_request(lifecycle_prompts()[0], options));
  const SessionId gone =
      server.submit(server.text_request(lifecycle_prompts()[1], options));

  // No driver is running: the cancel itself must deliver the result.
  EXPECT_TRUE(server.cancel(gone));
  const auto result = server.wait_result_for(gone, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, SessionStatus::kCancelled);
  EXPECT_TRUE(result->tokens.empty());
  EXPECT_FALSE(result->error.empty());
  EXPECT_FALSE(server.cancel(gone));  // already terminal

  server.run();
  EXPECT_EQ(server.wait_result(keep).status, SessionStatus::kCompleted);
  expect_counters_balance(server.stats());
}

TEST(ServeLifecycle, CancelResidentIsEffectiveWithinOneStep) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  Server server(model, ServeConfig{});
  GenerateOptions options;
  options.max_new_tokens = 64;
  const SessionId id =
      server.submit(server.text_request(lifecycle_prompts()[0], options));
  ASSERT_TRUE(server.step());  // admitted, prefilling
  EXPECT_TRUE(server.cancel(id));
  server.step();  // the very next step terminalizes it
  const auto result = server.wait_result_for(id, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, SessionStatus::kCancelled);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.resident, 0);
  EXPECT_EQ(stats.resident_kv_bytes, 0u);
  EXPECT_EQ(stats.cancelled, 1);
}

TEST(ServeLifecycle, CancelledSessionNeverCorruptsBatchMates) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  const auto prompts = lifecycle_prompts();
  GenerateOptions options;
  options.max_new_tokens = 12;

  std::vector<std::string> expected;
  for (const auto& prompt : prompts) {
    expected.push_back(generate(model, prompt, options, false));
  }

  ServeConfig serve;
  serve.max_batch = static_cast<std::int64_t>(prompts.size());
  serve.prefix_cache_bytes = std::size_t{1} << 22;
  Server server(model, serve);
  std::vector<SessionId> ids;
  for (const auto& prompt : prompts) {
    ids.push_back(server.submit(server.text_request(prompt, options)));
  }
  // Let everyone decode a little, then cancel one mid-batch.
  for (int i = 0; i < 3; ++i) server.step();
  EXPECT_TRUE(server.cancel(ids[2]));
  server.run();

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const SessionResult result = server.wait_result(ids[i]);
    if (i == 2) {
      EXPECT_EQ(result.status, SessionStatus::kCancelled);
      EXPECT_TRUE(is_text_prefix(expected[i], result.text));
    } else {
      EXPECT_EQ(result.status, SessionStatus::kCompleted);
      EXPECT_EQ(result.text, expected[i]);  // bitwise == generate()
    }
  }
  expect_counters_balance(server.stats());
}

TEST(ServeLifecycle, QueueDeadlineExpiresBeforeAdmission) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  FakeClock clock;
  ServeConfig serve;
  serve.max_sessions = 1;
  serve.now_ms = clock.fn();
  Server server(model, serve);
  GenerateOptions options;
  options.max_new_tokens = 24;

  const std::string resident_prompt = lifecycle_prompts()[0];
  const std::string expected = generate(model, resident_prompt, options,
                                        false);
  const SessionId resident =
      server.submit(server.text_request(resident_prompt, options));
  Request queued = server.text_request(lifecycle_prompts()[1], options);
  queued.max_queue_ms = 50;
  const SessionId waiting = server.submit(std::move(queued));

  for (int i = 0; i < 3; ++i) server.step();  // resident decodes; queue waits
  EXPECT_FALSE(server.wait_result_for(waiting, 0).has_value());
  clock.advance(100);
  server.step();  // queue sweep expires it at the next boundary
  const auto result = server.wait_result_for(waiting, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, SessionStatus::kDeadlineExceeded);
  EXPECT_TRUE(result->tokens.empty());

  server.run();  // the resident is unaffected
  EXPECT_EQ(server.wait_result(resident).text, expected);
  EXPECT_EQ(server.stats().expired, 1);
}

TEST(ServeLifecycle, DeadlineEvictsResidentMidDecodeAtTokenGranularity) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  FakeClock clock;
  ServeConfig serve;
  serve.now_ms = clock.fn();
  serve.prefix_cache_bytes = std::size_t{1} << 22;
  Server server(model, serve);
  GenerateOptions options;
  options.max_new_tokens = 64;
  const std::string prompt = lifecycle_prompts()[0];
  const std::string expected = generate(model, prompt, options, false);

  Request request = server.text_request(prompt, options);
  request.deadline_ms = 10;
  const SessionId id = server.submit(std::move(request));
  std::int64_t steps = 0;
  while (server.step()) {
    // Let it prefill and emit a few tokens, then expire it mid-decode.
    if (++steps == static_cast<std::int64_t>(prompt.size()) + 4) {
      clock.advance(100);
    }
    ASSERT_LT(steps, 1000);
  }
  const auto result = server.wait_result_for(id, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, SessionStatus::kDeadlineExceeded);
  EXPECT_FALSE(result->tokens.empty());  // partial output survives
  EXPECT_TRUE(is_text_prefix(expected, result->text));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.expired, 1);
  EXPECT_EQ(stats.resident, 0);
  EXPECT_EQ(stats.resident_kv_bytes, 0u);  // KV released on eviction
  EXPECT_EQ(stats.cache.pinned_nodes, 0);  // prefix pins released too
}

TEST(ServeLifecycle, BoundedQueueRejectsExplicitlyWhenFull) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  ServeConfig serve;
  serve.max_queue = 3;
  Server server(model, serve);
  GenerateOptions options;
  options.max_new_tokens = 4;

  std::vector<SessionId> accepted;
  int rejected = 0;
  for (int i = 0; i < 10; ++i) {
    try {
      accepted.push_back(server.submit(server.text_request(
          lifecycle_prompts()[static_cast<std::size_t>(i) %
                              lifecycle_prompts().size()],
          options)));
    } catch (const QueueFullError&) {
      ++rejected;
    }
  }
  // No driver ran, so exactly max_queue fit; the rest were rejected
  // explicitly — never silently dropped.
  EXPECT_EQ(accepted.size(), 3u);
  EXPECT_EQ(rejected, 7);
  EXPECT_EQ(server.stats().rejected_full, 7);
  EXPECT_EQ(server.stats().submitted, 3);

  server.run();
  for (const SessionId id : accepted) {
    EXPECT_EQ(server.wait_result(id).status, SessionStatus::kCompleted);
  }
  expect_counters_balance(server.stats());
}

TEST(ServeLifecycle, ShedOldestOnFullDeliversShedStatusToEveryVictim) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  ServeConfig serve;
  serve.max_queue = 2;
  serve.shed_oldest_on_full = true;
  Server server(model, serve);
  GenerateOptions options;
  options.max_new_tokens = 4;

  std::vector<SessionId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(server.submit(server.text_request(
        lifecycle_prompts()[static_cast<std::size_t>(i) %
                            lifecycle_prompts().size()],
        options)));
  }
  // Queue bound 2, no driver: the four oldest were shed to admit newer
  // work, each with an explicit terminal result.
  for (int i = 0; i < 4; ++i) {
    const auto result = server.wait_result_for(ids[static_cast<std::size_t>(
                                                   i)],
                                               0);
    ASSERT_TRUE(result.has_value()) << "victim " << i;
    EXPECT_EQ(result->status, SessionStatus::kShedOverload);
  }
  server.run();
  for (int i = 4; i < 6; ++i) {
    EXPECT_EQ(server.wait_result(ids[static_cast<std::size_t>(i)]).status,
              SessionStatus::kCompleted);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, 4);
  EXPECT_EQ(stats.completed, 2);
  expect_counters_balance(stats);
}

TEST(ServeLifecycle, FifoPreservedAcrossCancelInterleavings) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  ServeConfig serve;
  serve.max_sessions = 1;  // strict serial admission: completion == FIFO
  serve.max_batch = 1;
  Server server(model, serve);
  GenerateOptions options;
  options.max_new_tokens = 4;

  std::vector<SessionId> ids;
  std::vector<SessionId> first_token_order;
  std::mutex order_mutex;
  for (int i = 0; i < 6; ++i) {
    Request request = server.text_request(
        lifecycle_prompts()[static_cast<std::size_t>(i)], options);
    request.on_token = [&](SessionId sid, TokenId) {
      std::lock_guard<std::mutex> lock(order_mutex);
      if (first_token_order.empty() || first_token_order.back() != sid) {
        first_token_order.push_back(sid);
      }
    };
    ids.push_back(server.submit(std::move(request)));
  }
  EXPECT_TRUE(server.cancel(ids[1]));
  EXPECT_TRUE(server.cancel(ids[4]));
  server.run();

  // Survivors stream strictly in submission order (max_sessions == 1 makes
  // interleaving impossible, so first-token order is completion order).
  const std::vector<SessionId> expected_order = {ids[0], ids[2], ids[3],
                                                 ids[5]};
  EXPECT_EQ(first_token_order, expected_order);
  for (const SessionId id : {ids[1], ids[4]}) {
    EXPECT_EQ(server.wait_result(id).status, SessionStatus::kCancelled);
  }
  expect_counters_balance(server.stats());
}

TEST(ServeLifecycle, WatchdogDetectsStalledDriverLoop) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  FakeClock clock;
  ServeConfig serve;
  serve.now_ms = clock.fn();
  Server server(model, serve);
  GenerateOptions options;
  options.max_new_tokens = 4;
  const SessionId id =
      server.submit(server.text_request(lifecycle_prompts()[0], options));

  std::atomic<int> alarms{0};
  server.start_watchdog(50, [&](std::int64_t stalled) {
    EXPECT_GE(stalled, 50);
    alarms.fetch_add(1);
  });
  // Work is pending but no driver is stepping: a wedged loop. Advance the
  // deadline clock past the stall threshold and let the poller notice.
  clock.advance(1000);
  for (int i = 0; i < 500 && alarms.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(alarms.load(), 1);
  EXPECT_GE(server.stats().watchdog_alarms, 1);
  server.stop_watchdog();

  server.run();  // driver arrives; the stalled work still completes
  EXPECT_EQ(server.wait_result(id).status, SessionStatus::kCompleted);
}

// An idle serve() driver blocks on its condition variable, and the global
// pool's helpers — hot from the fanned-out projections of the burst just
// served (d_model 128, d_ff 512: every projection of a 6-row step is past
// kernels::kParallelMacs) — park after one spin window. So an idle second
// costs the process under 5% of one core.
TEST(ServeLifecycle, IdleServeCostsUnderFivePercentOfACore) {
  ModelConfig config = text_config();
  config.d_model = 128;
  config.n_heads = 4;
  config.n_kv_heads = 2;
  config.d_ff = 512;
  config.validate();
  Rng rng(3);
  const TransformerModel model(config, rng);
  const auto prompts = lifecycle_prompts();
  ServeConfig serve;
  serve.max_batch = static_cast<std::int64_t>(prompts.size());
  Server server(model, serve);
  std::thread driver([&] { server.serve(); });
  GenerateOptions options;
  options.max_new_tokens = 8;
  std::vector<SessionId> ids;
  for (const auto& prompt : prompts) {
    ids.push_back(server.submit(server.text_request(prompt, options)));
  }
  for (const SessionId id : ids) {
    EXPECT_EQ(server.wait_result(id).status, SessionStatus::kCompleted);
  }
  const auto process_cpu_s = [] {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  const double before = process_cpu_s();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double idle_cpu_s = process_cpu_s() - before;
  server.drain();
  driver.join();
  EXPECT_LT(idle_cpu_s, 0.05);
}

// ---- ServeDrain ----------------------------------------------------------

TEST(ServeDrain, DrainWithoutDriverFlushesQueueAndClosesAdmission) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  Server server(model, ServeConfig{});
  GenerateOptions options;
  options.max_new_tokens = 4;
  const SessionId id =
      server.submit(server.text_request(lifecycle_prompts()[0], options));

  server.drain();
  EXPECT_TRUE(server.draining());
  server.drain();  // idempotent
  const auto result = server.wait_result_for(id, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, SessionStatus::kShuttingDown);

  EXPECT_THROW(
      server.submit(server.text_request(lifecycle_prompts()[1], options)),
      ShuttingDownError);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_shutdown, 1);
  EXPECT_EQ(stats.shutdown_terminated, 1);
  EXPECT_EQ(stats.waiting, 0);
  expect_counters_balance(stats);
}

TEST(ServeDrain, DrainFinishesResidentsAndShutsDownQueued) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  const auto prompts = lifecycle_prompts();
  GenerateOptions options;
  options.max_new_tokens = 16;
  std::vector<std::string> expected;
  for (const auto& prompt : prompts) {
    expected.push_back(generate(model, prompt, options, false));
  }

  ServeConfig serve;
  serve.max_sessions = 2;
  serve.max_batch = 2;
  serve.prefix_cache_bytes = std::size_t{1} << 22;
  Server server(model, serve);

  std::atomic<bool> any_token{false};
  std::vector<SessionId> ids;
  for (const auto& prompt : prompts) {
    Request request = server.text_request(prompt, options);
    request.on_token = [&](SessionId, TokenId) { any_token.store(true); };
    ids.push_back(server.submit(std::move(request)));
  }
  std::thread driver([&] { server.serve(); });
  while (!any_token.load()) std::this_thread::yield();
  server.drain();
  driver.join();  // serve() returns once everything terminalized

  // Residents at drain time ran to completion (bitwise == generate());
  // queued sessions got kShuttingDown. FIFO admission means the completed
  // set is a prefix of submission order.
  bool seen_shutdown = false;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto result = server.wait_result_for(ids[i], 0);
    ASSERT_TRUE(result.has_value()) << "session " << i << " never finished";
    if (result->status == SessionStatus::kCompleted) {
      EXPECT_FALSE(seen_shutdown)
          << "completed session " << i << " after a shutdown one — not FIFO";
      EXPECT_EQ(result->text, expected[i]);
    } else {
      EXPECT_EQ(result->status, SessionStatus::kShuttingDown);
      seen_shutdown = true;
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.completed, 2);  // the residents at drain time
  EXPECT_EQ(stats.waiting, 0);
  EXPECT_EQ(stats.resident, 0);
  EXPECT_EQ(stats.resident_kv_bytes, 0u);
  EXPECT_EQ(stats.cache.pinned_nodes, 0);
  expect_counters_balance(stats);
}

TEST(ServeDrain, HardStopEvictsResidentsWithPartialOutput) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  const auto prompts = lifecycle_prompts();
  GenerateOptions options;
  options.max_new_tokens = 120;  // long enough that a hard stop lands first
  std::vector<std::string> expected;
  for (const auto& prompt : prompts) {
    expected.push_back(generate(model, prompt, options, false));
  }

  ServeConfig serve;
  serve.max_sessions = 3;
  Server server(model, serve);
  std::atomic<bool> any_token{false};
  std::vector<SessionId> ids;
  for (std::size_t i = 0; i < 3; ++i) {
    Request request = server.text_request(prompts[i], options);
    request.on_token = [&](SessionId, TokenId) { any_token.store(true); };
    ids.push_back(server.submit(std::move(request)));
  }
  std::thread driver([&] { server.serve(); });
  while (!any_token.load()) std::this_thread::yield();
  server.shutdown_now();
  driver.join();

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto result = server.wait_result_for(ids[i], 0);
    ASSERT_TRUE(result.has_value());
    // A session may have completed in the race before the hard stop; either
    // way its output is a clean prefix of the reference.
    EXPECT_TRUE(result->status == SessionStatus::kShuttingDown ||
                result->status == SessionStatus::kCompleted);
    EXPECT_TRUE(is_text_prefix(expected[i], result->text));
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.resident, 0);
  EXPECT_EQ(stats.resident_kv_bytes, 0u);
  expect_counters_balance(stats);
}

TEST(ServeDrain, ServeIdlesUntilWorkArrivesAndReturnsOnDrain) {
  Rng rng(3);
  const TransformerModel model(text_config(), rng);
  Server server(model, ServeConfig{});
  GenerateOptions options;
  options.max_new_tokens = 4;

  std::thread driver([&] { server.serve(); });
  // The driver is idle-parked; work submitted later must still be served.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const SessionId a =
      server.submit(server.text_request(lifecycle_prompts()[0], options));
  EXPECT_EQ(server.wait_result(a).status, SessionStatus::kCompleted);
  const SessionId b =
      server.submit(server.text_request(lifecycle_prompts()[1], options));
  EXPECT_EQ(server.wait_result(b).status, SessionStatus::kCompleted);
  server.drain();
  driver.join();
  expect_counters_balance(server.stats());
}

// ---- ServeChaos ----------------------------------------------------------

/// One storm: concurrent submitters with mixed deadlines/cancels/streaming
/// callbacks against a live serve() driver, with every serve.* failpoint
/// armed on deterministic windows, finished by a drain. Asserts the full
/// invariant set regardless of how the race resolved.
void run_chaos_storm(bool speculative) {
  Rng rng(7);
  const TransformerModel model(text_config(), rng);
  const auto prompts = lifecycle_prompts();
  GenerateOptions options;
  options.max_new_tokens = 8;
  std::vector<std::string> expected;
  for (const auto& prompt : prompts) {
    expected.push_back(generate(model, prompt, options, false));
  }

  ServeConfig serve;
  serve.max_sessions = 4;
  serve.max_batch = 4;
  serve.max_queue = 16;
  serve.prefix_cache_bytes = std::size_t{1} << 22;
  serve.speculative = speculative;
  Server server(model, serve);

  failpoint::disarm_all();
  failpoint::arm_from_text(
      "serve.step=transient@3x4; serve.admit=error@6x3; "
      "serve.prefix_acquire=error@2x3; serve.callback=error@11x2");
  server.start_watchdog(2000);

  std::thread driver([&] { server.serve(); });
  std::atomic<bool> storm_done{false};
  std::thread poller([&] {
    // Concurrent observability reads are part of the storm.
    while (!storm_done.load()) {
      (void)server.stats();
      (void)server.busy();
      std::this_thread::yield();
    }
  });

  constexpr int kThreads = 3;
  constexpr int kPerThread = 12;
  std::vector<std::vector<SessionId>> ids(kThreads);
  std::vector<std::vector<std::size_t>> prompt_of(kThreads);
  std::atomic<std::int64_t> streamed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937 gen(static_cast<unsigned>(1234 + t));
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t p =
            static_cast<std::size_t>(t * kPerThread + i) % prompts.size();
        Request request = server.text_request(prompts[p], options);
        switch (gen() % 5) {
          case 0: request.deadline_ms = 1; break;
          case 1: request.max_queue_ms = 1; break;
          case 2:
            request.on_token = [&](SessionId, TokenId) {
              streamed.fetch_add(1);
            };
            break;
          default: break;
        }
        const bool cancel_after = gen() % 4 == 0;
        try {
          const SessionId id = server.submit(std::move(request));
          ids[static_cast<std::size_t>(t)].push_back(id);
          prompt_of[static_cast<std::size_t>(t)].push_back(p);
          if (cancel_after) server.cancel(id);
        } catch (const QueueFullError&) {
          // Explicit rejection is a valid outcome under overload.
        }
        if (i % 4 == 3) std::this_thread::yield();
      }
    });
  }
  for (auto& client : clients) client.join();
  server.drain();
  driver.join();
  storm_done.store(true);
  poller.join();
  server.stop_watchdog();
  failpoint::disarm_all();

  // Every accepted session terminalized with an explicit status; completed
  // ones are bitwise generate(), everything else is a clean prefix.
  std::size_t accepted = 0;
  for (int t = 0; t < kThreads; ++t) {
    const auto& thread_ids = ids[static_cast<std::size_t>(t)];
    for (std::size_t j = 0; j < thread_ids.size(); ++j) {
      ++accepted;
      const auto result = server.wait_result_for(thread_ids[j], 1000);
      ASSERT_TRUE(result.has_value())
          << "session " << thread_ids[j] << " never terminalized";
      const std::string& reference =
          expected[prompt_of[static_cast<std::size_t>(t)][j]];
      if (result->status == SessionStatus::kCompleted) {
        EXPECT_EQ(result->text, reference)
            << "completed session " << thread_ids[j]
            << " diverged from generate()";
      } else {
        EXPECT_TRUE(is_text_prefix(reference, result->text))
            << "early-exited session " << thread_ids[j]
            << " emitted non-prefix output";
      }
    }
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::int64_t>(accepted));
  EXPECT_EQ(stats.waiting, 0);
  EXPECT_EQ(stats.resident, 0);
  EXPECT_EQ(stats.resident_kv_bytes, 0u);  // no leaked KV bytes
  EXPECT_EQ(stats.cache.pinned_nodes, 0);  // no leaked prefix pins
  EXPECT_LE(stats.cache.bytes,
            static_cast<std::int64_t>(serve.prefix_cache_bytes));
  expect_counters_balance(stats);
}

TEST(ServeChaos, ConcurrentStormWithFailpointsKeepsEveryInvariant) {
  run_chaos_storm(/*speculative=*/false);
}

TEST(ServeChaos, ConcurrentStormSpeculativeKeepsEveryInvariant) {
  run_chaos_storm(/*speculative=*/true);
}

}  // namespace
}  // namespace chipalign
