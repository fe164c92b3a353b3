// Tests for src/tensor: Tensor, kernels, half-precision codecs.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tensor/dtype.hpp"
#include "tensor/half.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"

namespace chipalign {
namespace {

TEST(Shape, NumelAndString) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24);
  EXPECT_EQ(shape_numel({}), 1);
  EXPECT_EQ(shape_numel({0, 5}), 0);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
  EXPECT_THROW(shape_numel({-1}), Error);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (float v : t.values()) EXPECT_EQ(v, 0.0F);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), Error);
}

TEST(Tensor, At2AndRowAccess) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.at2(0, 2), 3.0F);
  EXPECT_EQ(t.at2(1, 0), 4.0F);
  auto row = t.row(1);
  EXPECT_EQ(row[2], 6.0F);
  EXPECT_THROW(t.at2(2, 0), Error);
  EXPECT_THROW(t.row(-1), Error);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at2(2, 1), 6.0F);
  EXPECT_THROW(t.reshaped({4, 2}), Error);
}

TEST(Tensor, RandnStats) {
  Rng rng(1);
  Tensor t = Tensor::randn({100, 100}, rng, 2.0F);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (float v : t.values()) {
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(t.numel());
  EXPECT_NEAR(sum / n, 0.0, 0.1);
  EXPECT_NEAR(std::sqrt(sum_sq / n), 2.0, 0.1);
}

TEST(Tensor, AllFiniteDetectsNan) {
  Tensor t({2});
  EXPECT_TRUE(t.all_finite());
  t[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(t.all_finite());
}

TEST(Ops, AxpyDotNormScale) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {4, 5, 6});
  ops::axpy(2.0F, a.values(), b.values());
  EXPECT_EQ(b[0], 6.0F);
  EXPECT_EQ(b[2], 12.0F);
  EXPECT_DOUBLE_EQ(ops::dot(a.values(), a.values()), 14.0);
  EXPECT_NEAR(ops::norm(a.values()), std::sqrt(14.0), 1e-12);
  ops::scale(a.values(), 0.5F);
  EXPECT_EQ(a[2], 1.5F);
}

TEST(Ops, CosineBounds) {
  Tensor a({2}, {1, 0});
  Tensor b({2}, {0, 1});
  Tensor c({2}, {2, 0});
  EXPECT_NEAR(ops::cosine(a.values(), b.values()), 0.0, 1e-12);
  EXPECT_NEAR(ops::cosine(a.values(), c.values()), 1.0, 1e-12);
  Tensor zero({2});
  EXPECT_EQ(ops::cosine(a.values(), zero.values()), 0.0);
}

TEST(Ops, SoftmaxNormalizesAndIsStable) {
  Tensor logits({3}, {1000.0F, 1000.0F, 1000.0F});
  ops::softmax_inplace(logits.values());
  for (float v : logits.values()) EXPECT_NEAR(v, 1.0F / 3.0F, 1e-6);

  Tensor big({2}, {-1e30F, 0.0F});
  ops::softmax_inplace(big.values());
  EXPECT_NEAR(big[1], 1.0F, 1e-6);
}

TEST(Ops, LogSumExpMatchesDirect) {
  Tensor logits({3}, {0.1F, 0.2F, 0.3F});
  const double direct =
      std::log(std::exp(0.1) + std::exp(0.2) + std::exp(0.3));
  EXPECT_NEAR(ops::log_sum_exp(logits.values()), direct, 1e-6);
}

TEST(Ops, Argmax) {
  Tensor t({4}, {1, 5, 5, 2});
  EXPECT_EQ(ops::argmax(t.values()), 1);  // first of the tie
}

TEST(Ops, MatmulMatchesManual) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.at2(0, 0), 58.0F);
  EXPECT_EQ(c.at2(0, 1), 64.0F);
  EXPECT_EQ(c.at2(1, 0), 139.0F);
  EXPECT_EQ(c.at2(1, 1), 154.0F);
  EXPECT_THROW(ops::matmul(a, a), Error);
}

TEST(Ops, MatmulNtEqualsMatmulWithTranspose) {
  Rng rng(2);
  Tensor a = Tensor::randn({4, 5}, rng);
  Tensor w = Tensor::randn({3, 5}, rng);
  Tensor direct = ops::matmul_nt(a, w);
  Tensor viaT = ops::matmul(a, ops::transpose(w));
  EXPECT_LT(ops::max_abs_diff(direct, viaT), 1e-4);
}

TEST(Ops, MatmulTnAccumEqualsTransposedProduct) {
  Rng rng(3);
  Tensor a = Tensor::randn({6, 4}, rng);
  Tensor b = Tensor::randn({6, 5}, rng);
  Tensor out({4, 5});
  ops::matmul_tn_accum(a, b, out);
  Tensor expected = ops::matmul(ops::transpose(a), b);
  EXPECT_LT(ops::max_abs_diff(out, expected), 1e-4);
  // Accumulation: second call doubles the result.
  ops::matmul_tn_accum(a, b, out);
  EXPECT_LT(ops::max_abs_diff(out, ops::scaled(expected, 2.0F)), 1e-4);
}

// Regression: matmul and matmul_tn_accum used to skip zero entries of `a`
// (`if (aval == 0.0F) continue;`), so a 0 in `a` against a NaN/Inf in `b`
// silently produced 0 instead of NaN — IEEE says 0 * NaN = NaN. No
// value-dependent skips are allowed.
TEST(Ops, MatmulPropagatesNanThroughZeroRows) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor a({2, 2}, {0, 0, 1, 0});     // row 0 is all zeros
  Tensor b({2, 2}, {nan, 2, 3, 4});
  Tensor c = ops::matmul(a, b);
  EXPECT_TRUE(std::isnan(c.at2(0, 0)));  // 0 * NaN + 0 * 3
  EXPECT_TRUE(std::isnan(c.at2(1, 0)));  // 1 * NaN + 0 * 3
  EXPECT_EQ(c.at2(0, 1), 0.0F);
  EXPECT_EQ(c.at2(1, 1), 2.0F);
}

TEST(Ops, MatmulPropagatesInfThroughZeroEntries) {
  const float inf = std::numeric_limits<float>::infinity();
  Tensor a({1, 2}, {0, 1});
  Tensor b({2, 1}, {inf, 5});
  Tensor c = ops::matmul(a, b);
  EXPECT_TRUE(std::isnan(c.at2(0, 0)));  // 0 * inf = NaN, NaN + 5 = NaN
}

TEST(Ops, MatmulTnAccumPropagatesNanThroughZeroEntries) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor a({1, 2}, {0, 1});        // a^T row 0 multiplies b row 0
  Tensor b({1, 2}, {nan, 2});
  Tensor out({2, 2});
  ops::matmul_tn_accum(a, b, out);
  EXPECT_TRUE(std::isnan(out.at2(0, 0)));  // 0 * NaN
  EXPECT_TRUE(std::isnan(out.at2(1, 0)));  // 1 * NaN
  EXPECT_EQ(out.at2(0, 1), 0.0F);
  EXPECT_EQ(out.at2(1, 1), 2.0F);
}

TEST(Ops, ScaledSumMatchesComposition) {
  Tensor a({3}, {1, -2, 4});
  Tensor b({3}, {10, 20, -30});
  const Tensor fused = ops::scaled_sum(0.25F, a, 0.5F, b);
  const Tensor composed = ops::add(ops::scaled(a, 0.25F), ops::scaled(b, 0.5F));
  EXPECT_EQ(ops::max_abs_diff(fused, composed), 0.0);
  Tensor c({2});
  EXPECT_THROW(ops::scaled_sum(1.0F, a, 1.0F, c), Error);
}

TEST(Ops, ScaledSumSpanAllowsAliasedOutput) {
  Tensor a({4}, {1, 2, 3, 4});
  Tensor b({4}, {5, 6, 7, 8});
  ops::scaled_sum(2.0F, a.values(), 1.0F, b.values(), b.values());
  EXPECT_EQ(b[0], 7.0F);
  EXPECT_EQ(b[3], 16.0F);
}

TEST(Ops, AddSubHadamard) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 5});
  EXPECT_EQ(ops::add(a, b)[1], 7.0F);
  EXPECT_EQ(ops::sub(b, a)[0], 2.0F);
  Tensor c({3});
  EXPECT_THROW(ops::add(a, c), Error);
}

TEST(Ops, FrobeniusNormAndCosineSimilarity) {
  Tensor a({2, 2}, {3, 0, 0, 4});
  EXPECT_NEAR(ops::frobenius_norm(a), 5.0, 1e-12);
  EXPECT_NEAR(ops::cosine_similarity(a, ops::scaled(a, 2.0F)), 1.0, 1e-6);
}

TEST(Dtype, SizesNamesAndParsing) {
  EXPECT_EQ(dtype_size(DType::kF32), 4u);
  EXPECT_EQ(dtype_size(DType::kF16), 2u);
  EXPECT_EQ(dtype_size(DType::kBF16), 2u);
  for (DType d : {DType::kF32, DType::kF16, DType::kBF16}) {
    EXPECT_EQ(dtype_from_name(dtype_name(d)), d);
  }
  EXPECT_THROW(dtype_from_name("I64"), Error);
  EXPECT_THROW(dtype_from_name(""), Error);
}

// -- half precision codecs ----------------------------------------------------

TEST(Half, F16ExactValues) {
  EXPECT_EQ(f32_to_f16_bits(0.0F), 0);
  EXPECT_EQ(f16_bits_to_f32(f32_to_f16_bits(1.0F)), 1.0F);
  EXPECT_EQ(f16_bits_to_f32(f32_to_f16_bits(-2.0F)), -2.0F);
  EXPECT_EQ(f16_bits_to_f32(f32_to_f16_bits(0.5F)), 0.5F);
  EXPECT_EQ(f16_bits_to_f32(f32_to_f16_bits(65504.0F)), 65504.0F);  // f16 max
}

TEST(Half, F16OverflowToInf) {
  const float big = 1e6F;
  EXPECT_TRUE(std::isinf(f16_bits_to_f32(f32_to_f16_bits(big))));
  EXPECT_TRUE(std::isinf(f16_bits_to_f32(f32_to_f16_bits(-big))));
}

TEST(Half, F16NanPreserved) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(f16_bits_to_f32(f32_to_f16_bits(nan))));
}

TEST(Half, F16SubnormalRoundTrip) {
  // Smallest positive f16 subnormal is 2^-24.
  const float tiny = std::ldexp(1.0F, -24);
  EXPECT_EQ(f16_bits_to_f32(f32_to_f16_bits(tiny)), tiny);
  // Half of it rounds to zero (round to even).
  EXPECT_EQ(f16_bits_to_f32(f32_to_f16_bits(std::ldexp(1.0F, -26))), 0.0F);
}

TEST(Half, Bf16ExactForSmallIntegers) {
  for (float v : {0.0F, 1.0F, -1.0F, 2.0F, 128.0F, -0.5F}) {
    EXPECT_EQ(bf16_bits_to_f32(f32_to_bf16_bits(v)), v) << v;
  }
}

TEST(Half, Bf16NanPreserved) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(bf16_bits_to_f32(f32_to_bf16_bits(nan))));
}

TEST(Half, Bf16InfPreserved) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bf16_bits_to_f32(f32_to_bf16_bits(inf)), inf);
  EXPECT_EQ(bf16_bits_to_f32(f32_to_bf16_bits(-inf)), -inf);
}

/// Property sweep: relative round-trip error is bounded by the format's
/// epsilon across magnitudes.
class HalfRoundTrip : public ::testing::TestWithParam<float> {};

TEST_P(HalfRoundTrip, F16RelativeErrorBounded) {
  const float v = GetParam();
  const float back = f16_bits_to_f32(f32_to_f16_bits(v));
  EXPECT_NEAR(back, v, std::abs(v) * 1e-3F + 1e-7F);
}

TEST_P(HalfRoundTrip, Bf16RelativeErrorBounded) {
  const float v = GetParam();
  const float back = bf16_bits_to_f32(f32_to_bf16_bits(v));
  EXPECT_NEAR(back, v, std::abs(v) * 8e-3F + 1e-38F);
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, HalfRoundTrip,
                         ::testing::Values(1e-4F, -3.14159F, 0.33333F, 7.0F,
                                           123.456F, -4096.5F, 1.5e4F,
                                           2.7e-3F, -9.9e2F, 0.099F));

}  // namespace
}  // namespace chipalign
