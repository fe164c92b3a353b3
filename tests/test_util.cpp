// Tests for src/util: rng, strings, thread pool, error macros, timer,
// xxh64 hashing, peak-RSS probe.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <ctime>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/mem_probe.hpp"
#include "util/rng.hpp"
#include "util/string_utils.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace chipalign {
namespace {

TEST(Error, ThrowCarriesMessageAndLocation) {
  try {
    CA_THROW("value was " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_util.cpp"), std::string::npos);
  }
}

TEST(Error, CheckPassesAndFails) {
  EXPECT_NO_THROW(CA_CHECK(1 + 1 == 2, "fine"));
  EXPECT_THROW(CA_CHECK(1 + 1 == 3, "broken"), Error);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(7);
  Rng b(8);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(2);
  std::vector<int> histogram(5, 0);
  for (int i = 0; i < 5000; ++i) {
    ++histogram[static_cast<std::size_t>(rng.uniform_index(5))];
  }
  for (int count : histogram) {
    EXPECT_GT(count, 800);
    EXPECT_LT(count, 1200);
  }
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(3);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(4);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = values;
  rng.shuffle(shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.split();
  // The child stream should not replay the parent stream.
  Rng parent2(5);
  parent2.split();
  EXPECT_EQ(parent.next_u64(), parent2.next_u64());
  (void)child;
}

TEST(StringUtils, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtils, SplitWhitespaceDropsEmpties) {
  const auto parts = split_whitespace("  hello\t world \n");
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "hello");
  EXPECT_EQ(parts[1], "world");
}

TEST(StringUtils, JoinRoundTrip) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
}

TEST(StringUtils, CaseTransforms) {
  EXPECT_EQ(to_upper("aBc 1!"), "ABC 1!");
  EXPECT_EQ(to_lower("aBc 1!"), "abc 1!");
}

TEST(StringUtils, TrimBothEnds) {
  EXPECT_EQ(trim("  x y \t"), "x y");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtils, StartsEndsWith) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("hello", "hello!"));
  EXPECT_TRUE(ends_with("hello", "lo"));
  EXPECT_FALSE(ends_with("hello", "hel"));
}

TEST(StringUtils, ReplaceAll) {
  EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replace_all("no hits", "x", "y"), "no hits");
}

TEST(StringUtils, WordTokensLowercasesAndDropsPunct) {
  const auto tokens = word_tokens("Hello, World! x2 (ok)");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "hello");
  EXPECT_EQ(tokens[1], "world");
  EXPECT_EQ(tokens[2], "x2");
  EXPECT_EQ(tokens[3], "ok");
  EXPECT_EQ(count_words("one two  three."), 3u);
}

TEST(ThreadPool, ParallelForRunsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](std::size_t i) {
                          if (i == 3) CA_THROW("boom");
                        }),
      Error);
}

TEST(ThreadPool, SizeOneRunsInline) {
  ThreadPool pool(1);
  int counter = 0;
  pool.parallel_for(10, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter, 10);
}

// Regression: completion used to be tracked by a pool-global in-flight
// counter, so a second caller's parallel_for could return while the first
// caller's tasks were still running (and steal its exceptions). With
// per-batch tokens, each caller must see exactly its own work complete.
TEST(ThreadPool, ConcurrentParallelForCallersAreIsolated) {
  ThreadPool pool(4);
  constexpr int kIters = 50;
  std::atomic<int> a_done{0};
  std::atomic<int> b_done{0};
  std::thread caller_a([&] {
    for (int iter = 0; iter < kIters; ++iter) {
      std::vector<std::atomic<int>> hits(17);
      pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
      for (const auto& hit : hits) ASSERT_EQ(hit.load(), 1);
      ++a_done;
    }
  });
  std::thread caller_b([&] {
    for (int iter = 0; iter < kIters; ++iter) {
      std::vector<std::atomic<int>> hits(23);
      pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
      for (const auto& hit : hits) ASSERT_EQ(hit.load(), 1);
      ++b_done;
    }
  });
  caller_a.join();
  caller_b.join();
  EXPECT_EQ(a_done.load(), kIters);
  EXPECT_EQ(b_done.load(), kIters);
}

// One caller's task exception must surface only in that caller's wait; the
// other concurrent caller must finish cleanly.
TEST(ThreadPool, ExceptionStaysWithItsBatch) {
  ThreadPool pool(4);
  std::atomic<bool> thrower_threw{false};
  std::atomic<bool> clean_ok{true};
  std::thread thrower([&] {
    for (int iter = 0; iter < 20; ++iter) {
      try {
        pool.parallel_for(8, [&](std::size_t i) {
          if (i == 5) CA_THROW("batch-local boom");
        });
      } catch (const Error&) {
        thrower_threw = true;
      }
    }
  });
  std::thread clean([&] {
    for (int iter = 0; iter < 20; ++iter) {
      try {
        std::atomic<int> count{0};
        pool.parallel_for(8, [&](std::size_t) { ++count; });
        if (count.load() != 8) clean_ok = false;
      } catch (...) {
        clean_ok = false;  // must never observe the other batch's exception
      }
    }
  });
  thrower.join();
  clean.join();
  EXPECT_TRUE(thrower_threw.load());
  EXPECT_TRUE(clean_ok.load());
}

// Regression: a parallel_for issued from inside a worker task used to
// deadlock once all workers blocked on subtasks nobody was free to run. The
// nested call must run inline on the worker and complete.
TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> inner_hits(2 * 16);
  pool.parallel_for(2, [&](std::size_t outer) {
    // Work-sharing dispatch may run an outer index on the calling thread or
    // a worker; either way the nested call must complete (inline on workers)
    // with every inner index run exactly once.
    pool.parallel_for(16, [&](std::size_t inner) {
      ++inner_hits[outer * 16 + inner];
    });
  });
  for (const auto& hit : inner_hits) EXPECT_EQ(hit.load(), 1);
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

// parallel_for runs min(size(), nproc) wide, counting its caller: the
// pool starts min(size(), nproc) - 1 helpers and no thread beyond them.
// Blocking each index briefly gives every helper time to join.
TEST(ThreadPool, ParallelForRunsAtMostSizeWide) {
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (const std::size_t size : {std::size_t{1}, std::size_t{2},
                                 std::size_t{4}}) {
    ThreadPool pool(size);
    EXPECT_EQ(pool.size(), size);
    EXPECT_EQ(pool.helpers(), std::min(size, cores) - 1);
    std::mutex mutex;
    std::set<std::thread::id> threads;
    pool.parallel_for(64, [&](std::size_t) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        threads.insert(std::this_thread::get_id());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    });
    EXPECT_LE(threads.size(), std::min(size, cores)) << "size " << size;
  }
}

// After a burst of fan-outs the helpers spin for at most one
// ThreadPool::kSpinWindow and then park on the condition variable: an idle
// second afterwards must cost the process under 5% of one core.
TEST(ThreadPool, IdlePoolParksAfterSpinWindow) {
  ThreadPool pool(4);
  std::atomic<std::size_t> sum{0};
  for (int burst = 0; burst < 200; ++burst) {
    pool.parallel_for(16, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 200U * 120U);
  const auto process_cpu_s = [] {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  const double before = process_cpu_s();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double idle_cpu_s = process_cpu_s() - before;
  EXPECT_LT(idle_cpu_s, 0.05) << "helpers=" << pool.helpers();
}

// Reference vectors for XXH64 with seed 0, from the canonical xxHash
// implementation. Pins bit-compatibility of the from-scratch port.
TEST(Hash, Xxh64MatchesReferenceVectors) {
  EXPECT_EQ(xxh64(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxh64("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(xxh64("abc"), 0x44BC2CF5AD770999ULL);
  // >32 bytes exercises the four-lane main loop.
  EXPECT_EQ(xxh64("The quick brown fox jumps over the lazy dog"),
            0x0B242D361FDA71BCULL);
}

TEST(Hash, Xxh64SeedChangesDigest) {
  EXPECT_NE(xxh64("abc", 3, 0), xxh64("abc", 3, 1));
  const char* text = "abc";
  EXPECT_EQ(xxh64(text, 3, 0), xxh64(std::string("abc")));
}

TEST(Hash, StreamMatchesOneShotAcrossSplits) {
  Rng rng(9);
  std::vector<std::uint8_t> bytes(1000);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
  const std::uint64_t oneshot = xxh64(bytes.data(), bytes.size());

  Xxh64Stream stream;
  stream.update(bytes.data(), 7);
  stream.update(bytes.data() + 7, 500);
  stream.update(bytes.data() + 507, bytes.size() - 507);
  EXPECT_EQ(stream.digest(), oneshot);
}

TEST(Hash, HexRoundTripAndValidation) {
  const std::uint64_t value = 0x0123456789ABCDEFULL;
  const std::string hex = hash_to_hex(value);
  EXPECT_EQ(hex, "0123456789abcdef");
  EXPECT_EQ(hash_from_hex(hex), value);
  EXPECT_EQ(hash_from_hex(hash_to_hex(0)), 0u);
  EXPECT_THROW(hash_from_hex("123"), Error);            // wrong length
  EXPECT_THROW(hash_from_hex("0123456789abcdeg"), Error);  // bad digit
}

TEST(MemProbe, ReportsPositiveRssOnLinux) {
  const std::uint64_t peak = peak_rss_bytes();
  const std::uint64_t current = current_rss_bytes();
  // /proc/self/status exists on every target platform of this repo; both
  // probes degrade to 0 elsewhere, in which case there is nothing to check.
  if (peak == 0 || current == 0) GTEST_SKIP() << "no /proc/self/status";
  EXPECT_GE(peak, current / 2);  // peak is a high-water mark (page-granular)
  EXPECT_GT(current, 1u << 20);  // a running gtest binary exceeds 1 MB
}

TEST(MemProbe, PeakIsMonotoneUnderAllocation) {
  const std::uint64_t before = peak_rss_bytes();
  if (before == 0) GTEST_SKIP() << "no /proc/self/status";
  // Touch 32 MB so the high-water mark cannot decrease.
  std::vector<std::uint8_t> block(32u << 20);
  std::memset(block.data(), 0xAB, block.size());
  EXPECT_GE(peak_rss_bytes(), before);
}

TEST(MemProbe, FormatBytesIsHumanReadable) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1536), "1.5 KB");
  EXPECT_EQ(format_bytes(3u << 20), "3.0 MB");
  EXPECT_EQ(format_bytes(5ull << 30), "5.0 GB");
}

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  EXPECT_GE(timer.seconds(), 0.0);
  timer.reset();
  EXPECT_LT(timer.seconds(), 1.0);
}

}  // namespace
}  // namespace chipalign
