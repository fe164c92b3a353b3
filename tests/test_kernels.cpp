// Tests for src/tensor/kernels: bitwise agreement of every dispatched
// kernel with the kernels::ref executable specification, across backends
// (generic forced and, where the CPU allows, AVX2), awkward sizes (empty,
// single element, odd tails), and matmul shapes that cross the parallel
// block boundaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "tensor/half.hpp"
#include "tensor/kernels/kernels.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace chipalign {
namespace {

using kernels::force_generic;

/// Sizes chosen to hit every tail case of the 8-lane blocking: empty, single
/// element, below/at/above one lane block, and larger odd sizes.
const std::size_t kSizes[] = {0,  1,  2,  3,   7,   8,    9,
                              15, 16, 17, 31,  33,  64,   100,
                              255, 256, 257, 1000, 4097};

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Runs `body` once per backend the host can execute: generic always, the
/// SIMD backend when available. Restores dispatch afterwards.
template <typename Body>
void for_each_backend(const Body& body) {
  force_generic(true);
  body("generic");
  force_generic(false);
  if (kernels::simd_available()) body(kernels::backend_name());
}

class KernelBackends : public ::testing::Test {
 protected:
  void TearDown() override { force_generic(false); }
};

TEST_F(KernelBackends, DotMatchesRefBitwise) {
  Rng rng(101);
  for (const std::size_t n : kSizes) {
    const auto a = random_vec(n, rng);
    const auto b = random_vec(n, rng);
    const double expected = kernels::ref::dot(a.data(), b.data(), n);
    for_each_backend([&](const char* backend) {
      const double got = kernels::dot(a.data(), b.data(), n);
      EXPECT_EQ(got, expected) << "n=" << n << " backend=" << backend;
    });
  }
}

TEST_F(KernelBackends, NormMatchesRefBitwise) {
  Rng rng(102);
  for (const std::size_t n : kSizes) {
    const auto a = random_vec(n, rng);
    const double expected = kernels::ref::norm(a.data(), n);
    for_each_backend([&](const char* backend) {
      EXPECT_EQ(kernels::norm(a.data(), n), expected)
          << "n=" << n << " backend=" << backend;
    });
  }
}

TEST_F(KernelBackends, AxpyMatchesRefBitwise) {
  Rng rng(103);
  for (const std::size_t n : kSizes) {
    const auto x = random_vec(n, rng);
    const auto y = random_vec(n, rng);
    auto expected = y;
    kernels::ref::axpy(0.37F, x.data(), expected.data(), n);
    for_each_backend([&](const char* backend) {
      auto got = y;
      kernels::axpy(0.37F, x.data(), got.data(), n);
      EXPECT_TRUE(bitwise_equal(got, expected))
          << "n=" << n << " backend=" << backend;
    });
  }
}

TEST_F(KernelBackends, ScaleMatchesRefBitwise) {
  Rng rng(104);
  for (const std::size_t n : kSizes) {
    const auto x = random_vec(n, rng);
    auto expected = x;
    kernels::ref::scale(expected.data(), -1.618F, n);
    for_each_backend([&](const char* backend) {
      auto got = x;
      kernels::scale(got.data(), -1.618F, n);
      EXPECT_TRUE(bitwise_equal(got, expected))
          << "n=" << n << " backend=" << backend;
    });
  }
}

TEST_F(KernelBackends, ScaledSumMatchesRefBitwise) {
  Rng rng(106);
  for (const std::size_t n : kSizes) {
    const auto x = random_vec(n, rng);
    const auto y = random_vec(n, rng);
    std::vector<float> expected(n);
    kernels::ref::scaled_sum(0.6F, x.data(), 0.4F, y.data(), expected.data(),
                             n);
    for_each_backend([&](const char* backend) {
      std::vector<float> got(n);
      kernels::scaled_sum(0.6F, x.data(), 0.4F, y.data(), got.data(), n);
      EXPECT_TRUE(bitwise_equal(got, expected))
          << "n=" << n << " backend=" << backend;
    });
  }
}

struct MatShape {
  std::int64_t m, k, n;
};

/// Mix of degenerate, odd, and block-boundary-crossing shapes. The matmul
/// row fan-out uses 16-row blocks from kParallelMacs (64K) on, so the last
/// entries run both the serial and the thread-pool paths; results must not
/// differ.
const MatShape kMatShapes[] = {
    {1, 1, 1},   {1, 7, 3},   {3, 1, 5},    {5, 8, 9},     {16, 16, 16},
    {17, 9, 33}, {40, 24, 31}, {33, 65, 18}, {70, 300, 200}, {96, 512, 128},
};

TEST_F(KernelBackends, MatmulMatchesRefBitwise) {
  Rng rng(107);
  for (const MatShape& s : kMatShapes) {
    const auto a = random_vec(static_cast<std::size_t>(s.m * s.k), rng);
    const auto b = random_vec(static_cast<std::size_t>(s.k * s.n), rng);
    std::vector<float> expected(static_cast<std::size_t>(s.m * s.n));
    kernels::ref::matmul(a.data(), b.data(), expected.data(), s.m, s.k, s.n);
    for_each_backend([&](const char* backend) {
      std::vector<float> got(static_cast<std::size_t>(s.m * s.n));
      kernels::matmul(a.data(), b.data(), got.data(), s.m, s.k, s.n);
      EXPECT_TRUE(bitwise_equal(got, expected))
          << s.m << "x" << s.k << "x" << s.n << " backend=" << backend;
    });
  }
}

TEST_F(KernelBackends, MatmulNtMatchesRefBitwise) {
  Rng rng(108);
  for (const MatShape& s : kMatShapes) {
    const auto a = random_vec(static_cast<std::size_t>(s.m * s.k), rng);
    const auto b = random_vec(static_cast<std::size_t>(s.n * s.k), rng);
    std::vector<float> expected(static_cast<std::size_t>(s.m * s.n));
    kernels::ref::matmul_nt(a.data(), b.data(), expected.data(), s.m, s.k, s.n);
    for_each_backend([&](const char* backend) {
      std::vector<float> got(static_cast<std::size_t>(s.m * s.n));
      kernels::matmul_nt(a.data(), b.data(), got.data(), s.m, s.k, s.n);
      EXPECT_TRUE(bitwise_equal(got, expected))
          << s.m << "x" << s.k << "x" << s.n << " backend=" << backend;
    });
  }
}

TEST_F(KernelBackends, MatmulTnAccumMatchesRefBitwise) {
  Rng rng(109);
  for (const MatShape& s : kMatShapes) {
    const auto a = random_vec(static_cast<std::size_t>(s.m * s.k), rng);
    const auto b = random_vec(static_cast<std::size_t>(s.m * s.n), rng);
    const auto c0 = random_vec(static_cast<std::size_t>(s.k * s.n), rng);
    auto expected = c0;
    kernels::ref::matmul_tn_accum(a.data(), b.data(), expected.data(), s.m,
                                  s.k, s.n);
    for_each_backend([&](const char* backend) {
      auto got = c0;
      kernels::matmul_tn_accum(a.data(), b.data(), got.data(), s.m, s.k, s.n);
      EXPECT_TRUE(bitwise_equal(got, expected))
          << s.m << "x" << s.k << "x" << s.n << " backend=" << backend;
    });
  }
}

// A shape large enough to trigger the thread-pool fan-out must yield the
// same bits as the (serial) reference — thread-count invariance of the
// fixed block geometry. 256x256x256 = 16.7M MACs > kParallelMacs.
TEST_F(KernelBackends, ParallelMatmulIsBitIdenticalToSerialRef) {
  Rng rng(110);
  const std::int64_t d = 256;
  const auto a = random_vec(static_cast<std::size_t>(d * d), rng);
  const auto b = random_vec(static_cast<std::size_t>(d * d), rng);
  std::vector<float> expected(static_cast<std::size_t>(d * d));
  kernels::ref::matmul(a.data(), b.data(), expected.data(), d, d, d);
  std::vector<float> got(static_cast<std::size_t>(d * d));
  kernels::matmul(a.data(), b.data(), got.data(), d, d, d);
  EXPECT_TRUE(bitwise_equal(got, expected));

  std::vector<float> expected_tn(static_cast<std::size_t>(d * d));
  kernels::ref::matmul_tn_accum(a.data(), b.data(), expected_tn.data(), d, d,
                                d);
  std::vector<float> got_tn(static_cast<std::size_t>(d * d));
  kernels::matmul_tn_accum(a.data(), b.data(), got_tn.data(), d, d, d);
  EXPECT_TRUE(bitwise_equal(got_tn, expected_tn));
}

kernels::WeightView f32_weights(const std::vector<float>& w, std::int64_t rows,
                                std::int64_t cols) {
  return {DType::kF32, w.data(), nullptr, rows, cols};
}

// project() at one row is the matvec: out dims around the one-row AVX2
// tile of 4 weight rows (1..5) and the 64-row parallel block boundary, in
// dims with odd lane tails.
TEST_F(KernelBackends, MatvecMatchesRefBitwise) {
  Rng rng(112);
  struct Shape {
    std::int64_t out, in;
  };
  const Shape shapes[] = {{1, 1},  {1, 17},  {2, 8},   {3, 33},  {4, 64},
                          {5, 9},  {7, 100}, {8, 257}, {63, 31}, {64, 16},
                          {65, 5}, {130, 48}};
  for (const Shape& s : shapes) {
    const auto w = random_vec(static_cast<std::size_t>(s.out * s.in), rng);
    const auto x = random_vec(static_cast<std::size_t>(s.in), rng);
    std::vector<float> expected(static_cast<std::size_t>(s.out));
    kernels::ref::matvec(w.data(), x.data(), expected.data(), s.out, s.in);
    for_each_backend([&](const char* backend) {
      std::vector<float> got(static_cast<std::size_t>(s.out));
      kernels::project(f32_weights(w, s.out, s.in), x.data(), got.data(), 1);
      EXPECT_TRUE(bitwise_equal(got, expected))
          << s.out << "x" << s.in << " backend=" << backend;
    });
  }
}

// A one-row project() fanned over a pool must produce ref's bits at every
// thread count: each output is one contract-reduced dot, written by exactly
// one task, so the block partitioning cannot show up in the result.
// 2048x1024 = 2.1M MACs is past kParallelMacs.
TEST_F(KernelBackends, ParallelMatvecIsThreadCountInvariant) {
  Rng rng(113);
  const std::int64_t out_dim = 2048;
  const std::int64_t in_dim = 1024;
  const auto w = random_vec(static_cast<std::size_t>(out_dim * in_dim), rng);
  const auto x = random_vec(static_cast<std::size_t>(in_dim), rng);
  std::vector<float> expected(static_cast<std::size_t>(out_dim));
  kernels::ref::matvec(w.data(), x.data(), expected.data(), out_dim, in_dim);
  for_each_backend([&](const char* backend) {
    for (const std::size_t threads : {1U, 2U, 8U}) {
      ThreadPool pool(threads);
      std::vector<float> got(static_cast<std::size_t>(out_dim));
      kernels::project(f32_weights(w, out_dim, in_dim), x.data(), got.data(),
                       1, &pool);
      EXPECT_TRUE(bitwise_equal(got, expected))
          << "threads=" << threads << " backend=" << backend;
    }
  });
}

/// One weight matrix stored in every dtype project() reads, plus the
/// kernels::ref row that defines each dtype's output.
struct StoredWeights {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<float> f32;
  std::vector<std::uint16_t> f16;
  std::vector<std::uint16_t> bf16;
  std::vector<std::int8_t> i8;
  std::vector<float> scales;

  StoredWeights(std::int64_t r, std::int64_t c, Rng& rng) : rows(r), cols(c) {
    f32 = random_vec(static_cast<std::size_t>(r * c), rng);
    for (const float v : f32) {
      f16.push_back(f32_to_f16_bits(v));
      bf16.push_back(f32_to_bf16_bits(v));
      i8.push_back(static_cast<std::int8_t>(std::lround(v * 63.0F)));
    }
    scales = random_vec(static_cast<std::size_t>(r), rng);
  }

  kernels::WeightView view(DType dtype) const {
    switch (dtype) {
      case DType::kF16:
        return {dtype, f16.data(), nullptr, rows, cols};
      case DType::kBF16:
        return {dtype, bf16.data(), nullptr, rows, cols};
      case DType::kI8:
        return {dtype, i8.data(), scales.data(), rows, cols};
      default:
        return {dtype, f32.data(), nullptr, rows, cols};
    }
  }

  /// ref::matvec* applied to each of the n_rows activation rows.
  std::vector<float> expected(DType dtype, const std::vector<float>& x,
                              std::int64_t n_rows) const {
    std::vector<float> y(static_cast<std::size_t>(n_rows * rows));
    for (std::int64_t r = 0; r < n_rows; ++r) {
      const float* xr = x.data() + r * cols;
      float* yr = y.data() + r * rows;
      switch (dtype) {
        case DType::kF16:
          kernels::ref::matvec_f16(f16.data(), xr, yr, rows, cols);
          break;
        case DType::kBF16:
          kernels::ref::matvec_bf16(bf16.data(), xr, yr, rows, cols);
          break;
        case DType::kI8:
          kernels::ref::matvec_i8(i8.data(), scales.data(), xr, yr, rows,
                                  cols);
          break;
        default:
          kernels::ref::matvec(f32.data(), xr, yr, rows, cols);
      }
    }
    return y;
  }
};

const DType kWeightDtypes[] = {DType::kF32, DType::kF16, DType::kBF16,
                               DType::kI8};

/// Weight row o holds the same c = 1 + o % 7 at columns 0, 4 and 6 in
/// every stored dtype: the weight half of a crafted-cancellation row.
void craft_cancelling_columns(StoredWeights& w) {
  for (std::int64_t o = 0; o < w.rows; ++o) {
    const auto c = static_cast<float>(1 + o % 7);
    for (const std::int64_t col : {0, 4, 6}) {
      const auto at = static_cast<std::size_t>(o * w.cols + col);
      w.f32[at] = c;
      w.f16[at] = f32_to_f16_bits(c);
      w.bf16[at] = f32_to_bf16_bits(c);
      w.i8[at] = static_cast<std::int8_t>(c);
    }
  }
}

/// [n_rows, cols] activations, cols >= 7: even rows are x = 1, -1 and
/// 2^-60 at columns 0, 4 and 6 (0 elsewhere), so against
/// craft_cancelling_columns weights lanes 0 and 4 cancel and lane 6's
/// c * 2^-60 is lost to ((l4+l5)+(l6+l7)) rounding to -c — the contract
/// output is exactly 0, where a serial sum or another tree gives c * 2^-60.
/// Odd rows are random, so a block written to the wrong place shows too.
std::vector<float> crafted_rows(std::int64_t n_rows, std::int64_t cols,
                                Rng& rng) {
  auto x = random_vec(static_cast<std::size_t>(n_rows * cols), rng);
  for (std::int64_t r = 0; r < n_rows; r += 2) {
    float* row = x.data() + r * cols;
    std::fill(row, row + cols, 0.0F);
    row[0] = 1.0F;
    row[4] = -1.0F;
    row[6] = std::ldexp(1.0F, -60);
  }
  return x;
}

// The one projection entry against kernels::ref in every weight dtype, on
// shapes that leave every remainder of the AVX2 register tiles (3
// activation rows x 2 weight rows; 1 x 4 for one row) and of the 8-lane
// blocking: row counts 1..6 and 25, weight-row counts 1..5 and 65,
// k = 1, 8, 13 and 67.
TEST_F(KernelBackends, ProjectMatchesRefBitwiseAllDtypes) {
  Rng rng(114);
  for (const std::int64_t cols : {1, 8, 13, 67}) {
    for (const std::int64_t out : {1, 2, 3, 4, 5, 65}) {
      const StoredWeights w(out, cols, rng);
      for (const std::int64_t n_rows : {1, 2, 3, 4, 5, 6, 25}) {
        const auto x =
            random_vec(static_cast<std::size_t>(n_rows * cols), rng);
        for (const DType dtype : kWeightDtypes) {
          const auto expected = w.expected(dtype, x, n_rows);
          for_each_backend([&](const char* backend) {
            std::vector<float> got(expected.size());
            kernels::project(w.view(dtype), x.data(), got.data(), n_rows);
            EXPECT_TRUE(bitwise_equal(got, expected))
                << dtype_name(dtype) << " rows=" << n_rows << " out=" << out
                << " k=" << cols << " backend=" << backend;
          });
        }
      }
    }
  }
}

// Above the fan-out threshold (26 x 130 x 620 = 2.1M MACs: two row blocks
// and five weight-row blocks, each with a remainder) every dtype gives
// ref's bits on pools of 1 and 4 workers, and matmul_nt / matmul_nt_i8 —
// the [m, n]-layout wrappers — match their references too.
TEST_F(KernelBackends, ProjectFanOutIsPoolSizeInvariantAllDtypes) {
  Rng rng(115);
  const std::int64_t n_rows = 26;
  const StoredWeights w(130, 620, rng);
  const auto x = random_vec(static_cast<std::size_t>(n_rows * w.cols), rng);
  for (const DType dtype : kWeightDtypes) {
    const auto expected = w.expected(dtype, x, n_rows);
    for_each_backend([&](const char* backend) {
      for (const std::size_t threads : {1U, 4U}) {
        ThreadPool pool(threads);
        std::vector<float> got(expected.size());
        kernels::project(w.view(dtype), x.data(), got.data(), n_rows, &pool);
        EXPECT_TRUE(bitwise_equal(got, expected))
            << dtype_name(dtype) << " threads=" << threads
            << " backend=" << backend;
      }
    });
  }
  std::vector<float> nt_expected(static_cast<std::size_t>(n_rows * w.rows));
  kernels::ref::matmul_nt(x.data(), w.f32.data(), nt_expected.data(), n_rows,
                          w.cols, w.rows);
  std::vector<float> i8_expected(nt_expected.size());
  kernels::ref::matmul_nt_i8(w.i8.data(), w.scales.data(), x.data(),
                             i8_expected.data(), w.rows, w.cols, n_rows);
  for_each_backend([&](const char* backend) {
    std::vector<float> got(nt_expected.size());
    kernels::matmul_nt(x.data(), w.f32.data(), got.data(), n_rows, w.cols,
                       w.rows);
    EXPECT_TRUE(bitwise_equal(got, nt_expected)) << "backend=" << backend;
    kernels::matmul_nt_i8(w.i8.data(), w.scales.data(), x.data(), got.data(),
                          w.rows, w.cols, n_rows);
    EXPECT_TRUE(bitwise_equal(got, i8_expected)) << "backend=" << backend;
  });
}

// At the fan-out boundary: for each served row count (1, a 5-row verify
// block, 8 and 16 batched rows, and 17) and weight-row count (64, 100, 128,
// 512), k just below and just above kParallelMacs plus the served k = 128.
// Every dtype, backend and pool of 1, 2 and 4 workers must give ref's
// bits. Even activation rows are crafted (crafted_rows) so that only the
// contract's combine tree yields the stored value, exactly 0.
TEST_F(KernelBackends, ProjectFanOutBoundaryIsPoolSizeInvariantAllDtypes) {
  Rng rng(116);
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  ThreadPool* const pools[] = {&pool1, &pool2, &pool4};
  for (const std::int64_t n_rows : {1, 5, 8, 16, 17}) {
    for (const std::int64_t out : {64, 100, 128, 512}) {
      const std::int64_t above =
          (kernels::kParallelMacs + n_rows * out - 1) / (n_rows * out);
      ASSERT_GE(above - 1, 7) << "crafted rows need k >= 7";
      for (const std::int64_t cols : {above - 1, above, std::int64_t{128}}) {
        StoredWeights w(out, cols, rng);
        craft_cancelling_columns(w);
        const auto x = crafted_rows(n_rows, cols, rng);
        for (const DType dtype : kWeightDtypes) {
          const auto expected = w.expected(dtype, x, n_rows);
          for (std::int64_t r = 0; r < n_rows; r += 2) {
            for (std::int64_t o = 0; o < out; ++o) {
              ASSERT_EQ(expected[static_cast<std::size_t>(r * out + o)], 0.0F)
                  << "crafted row must cancel to 0 under the contract";
            }
          }
          for_each_backend([&](const char* backend) {
            for (ThreadPool* pool : pools) {
              std::vector<float> got(expected.size(), -1.0F);
              kernels::project(w.view(dtype), x.data(), got.data(), n_rows,
                               pool);
              EXPECT_TRUE(bitwise_equal(got, expected))
                  << dtype_name(dtype) << " rows=" << n_rows << " out=" << out
                  << " k=" << cols << " threads=" << pool->size()
                  << " backend=" << backend;
            }
          });
        }
      }
    }
  }
}

// One project() over a group of weight matrices that read the same
// activations — q/k/v-shaped, 128, 64 and 64 weight rows — gives every
// view the bits of its own single-view call and of kernels::ref, in each
// dtype and in a mixed-dtype group. Rows 1, 5, 8, 16, 17 and 80; k just
// below and at the point where the group's MACs (not any one view's)
// reach kParallelMacs, plus the served k = 128; both backends; pools of 1
// and 4. Even activation rows are crafted_rows, whose only contract output
// is exactly 0.
TEST_F(KernelBackends, ProjectGroupMatchesSeparateCallsBitwise) {
  Rng rng(117);
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  ThreadPool* const pools[] = {&pool1, &pool4};
  const std::int64_t outs[] = {128, 64, 64};
  const std::int64_t group_out = 128 + 64 + 64;
  const DType mixes[][3] = {{DType::kF32, DType::kF32, DType::kF32},
                            {DType::kF16, DType::kF16, DType::kF16},
                            {DType::kBF16, DType::kBF16, DType::kBF16},
                            {DType::kI8, DType::kI8, DType::kI8},
                            {DType::kF32, DType::kI8, DType::kBF16}};
  for (const std::int64_t n_rows : {1, 5, 8, 16, 17, 80}) {
    const std::int64_t at = (kernels::kParallelMacs + n_rows * group_out - 1) /
                            (n_rows * group_out);
    for (const std::int64_t cols :
         {std::max<std::int64_t>(at - 1, 7), std::max<std::int64_t>(at, 7),
          std::int64_t{128}}) {
      std::vector<StoredWeights> weights;
      for (const std::int64_t out : outs) {
        craft_cancelling_columns(weights.emplace_back(out, cols, rng));
      }
      const auto x = crafted_rows(n_rows, cols, rng);
      for (const auto& dtypes : mixes) {
        std::vector<std::vector<float>> expected;
        for (std::size_t v = 0; v < 3; ++v) {
          expected.push_back(weights[v].expected(dtypes[v], x, n_rows));
        }
        for_each_backend([&](const char* backend) {
          for (ThreadPool* pool : pools) {
            std::vector<std::vector<float>> grouped;
            std::vector<kernels::Projection> group;
            for (std::size_t v = 0; v < 3; ++v) {
              grouped.emplace_back(expected[v].size(), -1.0F);
            }
            for (std::size_t v = 0; v < 3; ++v) {
              group.push_back({weights[v].view(dtypes[v]), grouped[v].data()});
            }
            kernels::project(group, x.data(), n_rows, pool);
            for (std::size_t v = 0; v < 3; ++v) {
              std::vector<float> alone(expected[v].size(), -1.0F);
              kernels::project(weights[v].view(dtypes[v]), x.data(),
                               alone.data(), n_rows, pool);
              EXPECT_TRUE(bitwise_equal(grouped[v], alone) &&
                          bitwise_equal(grouped[v], expected[v]))
                  << "view " << v << " " << dtype_name(dtypes[v])
                  << " rows=" << n_rows << " k=" << cols
                  << " threads=" << pool->size() << " backend=" << backend;
            }
          }
        });
      }
    }
  }
}

// The lane contract through project(): lanes 0 and 4 cancel, and 2^-60 in
// lane 6 (a main-loop element at k = 8, a tail element at k = 15) is lost
// to ((l4+l5)+(l6+l7)) rounding to -1, so every output must be exactly 0.
// A serial sum, or any other combine tree, gives 2^-60.
TEST_F(KernelBackends, ProjectFollowsLaneContractNotSerialSum) {
  const float tiny = std::ldexp(1.0F, -60);
  for (const std::int64_t cols : {8, 15}) {
    const std::int64_t out = 5;
    const std::int64_t n_rows = 4;
    std::vector<float> ones(static_cast<std::size_t>(out * cols), 1.0F);
    std::vector<std::uint16_t> f16_ones(ones.size(), f32_to_f16_bits(1.0F));
    std::vector<std::uint16_t> bf16_ones(ones.size(), f32_to_bf16_bits(1.0F));
    std::vector<std::int8_t> i8_ones(ones.size(), 1);
    std::vector<float> unit_scales(static_cast<std::size_t>(out), 1.0F);
    std::vector<float> x(static_cast<std::size_t>(n_rows * cols), 0.0F);
    for (std::int64_t r = 0; r < n_rows; ++r) {
      x[static_cast<std::size_t>(r * cols)] = 1.0F;
      x[static_cast<std::size_t>(r * cols + 4)] = -1.0F;
      x[static_cast<std::size_t>(r * cols + cols - 2)] = tiny;
    }
    const kernels::WeightView views[] = {
        {DType::kF32, ones.data(), nullptr, out, cols},
        {DType::kF16, f16_ones.data(), nullptr, out, cols},
        {DType::kBF16, bf16_ones.data(), nullptr, out, cols},
        {DType::kI8, i8_ones.data(), unit_scales.data(), out, cols}};
    const std::vector<float> zeros(static_cast<std::size_t>(n_rows * out),
                                   0.0F);
    for (const kernels::WeightView& view : views) {
      for_each_backend([&](const char* backend) {
        for (const std::int64_t rows : {std::int64_t{1}, n_rows}) {
          std::vector<float> got(static_cast<std::size_t>(rows * out), 1.0F);
          kernels::project(view, x.data(), got.data(), rows);
          EXPECT_TRUE(bitwise_equal(
              got, std::vector<float>(zeros.begin(),
                                      zeros.begin() + rows * out)))
              << dtype_name(view.dtype) << " k=" << cols << " rows=" << rows
              << " backend=" << backend;
        }
      });
    }
  }
}

// The reduction contract in one picture: dot must equal the 8-lane pairwise
// tree exactly, not the naive serial sum. Guards against a backend quietly
// "simplifying" to a single accumulator.
TEST_F(KernelBackends, DotFollowsLaneContractNotSerialSum) {
  Rng rng(111);
  const std::size_t n = 1003;  // odd tail
  const auto a = random_vec(n, rng);
  const auto b = random_vec(n, rng);

  double lanes[kernels::kLanes] = {0};
  const std::size_t n8 = n & ~(kernels::kLanes - 1);
  for (std::size_t i = 0; i < n8; i += kernels::kLanes) {
    for (std::size_t l = 0; l < kernels::kLanes; ++l) {
      lanes[l] += static_cast<double>(a[i + l]) * static_cast<double>(b[i + l]);
    }
  }
  for (std::size_t i = n8; i < n; ++i) {
    lanes[i - n8] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  const double contract = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                          ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  EXPECT_EQ(kernels::ref::dot(a.data(), b.data(), n), contract);
  for_each_backend([&](const char* backend) {
    EXPECT_EQ(kernels::dot(a.data(), b.data(), n), contract)
        << "backend=" << backend;
  });
}

/// One layer's K or V rows, `stride` elements apart, as fp32 values and as
/// their fp16 bit patterns.
struct KvRows {
  KvRows(std::vector<float> values, std::int64_t row_stride)
      : f32(std::move(values)), f16(f32.size()), stride(row_stride) {
    for (std::size_t i = 0; i < f32.size(); ++i) {
      f16[i] = f32_to_f16_bits(f32[i]);
    }
  }
  kernels::KvView view(DType dtype) const {
    if (dtype == DType::kF16) return {dtype, f16.data(), stride};
    return {dtype, f32.data(), stride};
  }
  std::vector<float> f32;
  std::vector<std::uint16_t> f16;
  std::int64_t stride;
};

/// attend() on every backend memcmp-equals ref::attend; `got` starts as
/// -1s, so an output element the kernel never writes shows too. `scores`
/// is exactly [group, n_keys], so an overrun shows under ASan.
void expect_attend_matches_ref(const kernels::AttendShape& shape,
                               const std::vector<float>& q, const KvRows& k,
                               const KvRows& v, std::int64_t n_keys,
                               DType dtype, const std::string& what) {
  const auto width = static_cast<std::size_t>(shape.n_heads * shape.head_dim);
  std::vector<float> scores(static_cast<std::size_t>(
      shape.n_heads / shape.n_kv_heads * n_keys));
  std::vector<float> expected(width, -1.0F);
  kernels::ref::attend(shape, q.data(), k.view(dtype), v.view(dtype), n_keys,
                       scores.data(), expected.data());
  for_each_backend([&](const char* backend) {
    std::vector<float> got(width, -1.0F);
    kernels::attend(shape, q.data(), k.view(dtype), v.view(dtype), n_keys,
                    scores.data(), got.data());
    EXPECT_TRUE(bitwise_equal(got, expected))
        << what << " " << dtype_name(dtype) << " keys=" << n_keys
        << " head_dim=" << shape.head_dim << " heads=" << shape.n_heads << "/"
        << shape.n_kv_heads << " backend=" << backend;
  });
}

// Both KV dtypes; keys 1..600 (1, 2 and 3 for the key-pair tail, every
// 8-lane tail and the served horizon); head_dim 32, 12 (a mix tail), 64 and
// 128 (several 32-column mix chunks) and 40 (a chunk plus one 8-block);
// query heads over KV heads 2/2, 4/2 and 4/1 (one group of four, two head
// tiles); padded row stride.
TEST_F(KernelBackends, AttendMatchesRefBitwise) {
  Rng rng(112);
  const std::int64_t max_keys = 600;
  const kernels::AttendShape heads[] = {{2, 2, 0}, {4, 2, 0}, {4, 1, 0}};
  for (const std::int64_t hd : {32, 12, 64, 128, 40}) {
    const std::int64_t stride = 2 * hd + 3;
    const auto rows = static_cast<std::size_t>(max_keys * stride);
    const KvRows k(random_vec(rows, rng), stride);
    const KvRows v(random_vec(rows, rng), stride);
    for (kernels::AttendShape shape : heads) {
      shape.head_dim = hd;
      const auto q =
          random_vec(static_cast<std::size_t>(shape.n_heads * hd), rng);
      for (const DType dtype : {DType::kF32, DType::kF16}) {
        for (const std::int64_t n_keys : {1, 2, 3, 7, 8, 9, 100, 333, 600}) {
          expect_attend_matches_ref(shape, q, k, v, n_keys, dtype, "random");
        }
      }
    }
  }

  // Keys whose scores random data cannot pin: a one-ulp change in the score
  // combine is lost when a random dot rounds to fp32.
  //  - cancel: lanes 0 and 4 carry +-2^60 and lane 6 carries 1, so the
  //    contract tree gives 0 where a serial sum gives 1;
  //  - midpoint: m * (1 + 2^-24) is a tie between two floats and rounds to
  //    even (m), so one more fp64 ulp in the dot moves the score by one
  //    fp32 ulp;
  //  - twin: the next key scores exactly m, so the pair splits the softmax
  //    mass and that one ulp moves both probabilities by many.
  for (const std::int64_t hd : {32, 12}) {
    const kernels::AttendShape shape{4, 2, hd};
    const std::int64_t stride = 2 * hd;
    const auto at = [&](std::int64_t i) { return static_cast<std::size_t>(i); };
    std::vector<float> q_head(at(hd), 0.0F);
    q_head[0] = std::ldexp(1.0F, 45);
    q_head[4] = -std::ldexp(1.0F, 45);
    q_head[6] = 1.0F;
    q_head[1] = 1.0F;
    q_head[2] = std::ldexp(1.0F, -12);
    std::vector<float> q;
    for (std::int64_t h = 0; h < shape.n_heads; ++h) {
      q.insert(q.end(), q_head.begin(), q_head.end());
    }
    const float mids[] = {64.0F, 16.0F, 4.0F};
    const std::int64_t n_keys = 9;
    std::vector<float> keys(at(n_keys * stride), 0.0F);
    for (std::int64_t j = 0; j < n_keys; ++j) {
      for (std::int64_t g = 0; g < 2; ++g) {
        float* row = keys.data() + j * stride + g * hd;
        if (j % 3 == 0) {
          row[0] = row[4] = std::ldexp(1.0F, 15);
          row[6] = 1.0F;
          ASSERT_EQ(kernels::ref::dot(q_head.data(), row, at(hd)), 0.0);
        } else {
          const float m = mids[j / 3];
          row[1] = m;
          row[2] = j % 3 == 1 ? m * std::ldexp(1.0F, -12) : 0.0F;
          ASSERT_EQ(kernels::ref::dot(q_head.data(), row, at(hd)),
                    j % 3 == 1 ? m * (1.0 + std::ldexp(1.0, -24)) : m);
        }
      }
    }
    const KvRows k(keys, stride);
    const KvRows v(random_vec(keys.size(), rng), stride);
    for (const DType dtype : {DType::kF32, DType::kF16}) {
      expect_attend_matches_ref(shape, q, k, v, n_keys, dtype, "crafted");
    }
  }
}

// swiglu() fans fixed blocks across the global pool from a measured
// element count on. Each output is one element's arithmetic, so every size
// — empty, one element, below and past the fan-out threshold with a
// partial last block, up to 16 rows of d_ff 512 and beyond — memcmp-equals
// ref::swiglu's serial loop, also in place (out aliasing gate). Gates and
// ups include +-inf (inf and NaN outputs), large negatives whose exp(-x)
// overflows (sigmoid 0, so -0 outputs), -0 and +0. NaN inputs are left
// out: which of two NaN operands a multiply returns is the compiler's
// operand order, not the kernel's arithmetic.
TEST_F(KernelBackends, SwigluFanOutMatchesSerialBitwise) {
  Rng rng(118);
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {inf,  -inf, -100.0F, -1e30F,
                            -0.0F, 0.0F, -88.8F,  89.0F};
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{256},
        std::size_t{1023}, std::size_t{1024}, std::size_t{1025},
        std::size_t{4096}, std::size_t{8192}, std::size_t{20000}}) {
    auto gate = random_vec(n, rng);
    auto up = random_vec(n, rng);
    for (std::size_t i = 0; i < n; ++i) {
      gate[i] *= 8.0F;
      if (i % 11 == 3) gate[i] = specials[(i / 11) % std::size(specials)];
      if (i % 17 == 5) up[i] = specials[(i / 17) % std::size(specials)];
    }
    std::vector<float> expected(n, -1.0F);
    kernels::ref::swiglu(gate.data(), up.data(), expected.data(), n);
    std::vector<float> got(n, -1.0F);
    kernels::swiglu(gate.data(), up.data(), got.data(), n);
    EXPECT_TRUE(bitwise_equal(got, expected)) << "n=" << n;
    std::vector<float> in_place = gate;
    kernels::swiglu(in_place.data(), up.data(), in_place.data(), n);
    EXPECT_TRUE(bitwise_equal(in_place, expected)) << "in place, n=" << n;
  }
}

TEST(KernelDispatch, BackendNameIsConsistentWithForceGeneric) {
  const bool simd = kernels::simd_available();
  force_generic(true);
  EXPECT_STREQ(kernels::backend_name(), "generic");
  force_generic(false);
  if (simd) {
    EXPECT_STRNE(kernels::backend_name(), "generic");
  } else {
    EXPECT_STREQ(kernels::backend_name(), "generic");
  }
}

}  // namespace
}  // namespace chipalign
