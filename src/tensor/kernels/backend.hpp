#pragma once
/// \file backend.hpp
/// \brief Internal backend entry points for the kernel dispatch layer.
///
/// Both backends implement identical bit-level semantics (see kernels.hpp);
/// the dispatcher in kernels.cpp picks one at runtime and owns the blocking
/// and thread-pool fan-out, so backends only ever see contiguous panels.

#include <cstddef>
#include <cstdint>

#include "tensor/kernels/kernels.hpp"

namespace chipalign::kernels {

/// Shared lane-combine helper: the fixed pairwise tree over the 8 reduction
/// lanes mandated by the contract.
inline double combine_lanes(const double* lanes) {
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

/// Where a projection block writes: output (r, o) — activation row r,
/// weight row o — lands at y[r * row_stride + o * out_stride].
struct ProjectOut {
  float* y = nullptr;
  std::int64_t row_stride = 0;
  std::int64_t out_stride = 0;
};

/// The stored value of one projection output: the combined dot, scaled in
/// fp64 by the weight row's int8 scale when `scales` is set.
inline float project_output(double dot, const float* scales, std::int64_t o) {
  return static_cast<float>(
      scales != nullptr ? static_cast<double>(scales[o]) * dot : dot);
}

namespace generic {
double dot(const float* a, const float* b, std::size_t n);
double sum_squares(const float* a, std::size_t n);
void axpy(float alpha, const float* x, float* y, std::size_t n);
void scale(float* x, float alpha, std::size_t n);
void hadamard(const float* x, float* y, std::size_t n);
void scaled_sum(float a, const float* x, float b, const float* y, float* out,
                std::size_t n);
/// Rows [i0, i1) of c += a @ b.
void matmul_rows(const float* a, const float* b, float* c, std::int64_t i0,
                 std::int64_t i1, std::int64_t k, std::int64_t n);
/// Columns [j0, j1) of c += a^T @ b.
void matmul_tn_cols(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n, std::int64_t j0,
                    std::int64_t j1);
/// Activation rows [r0, r1) against weight rows [o0, o1) of
/// kernels::project. `xd` holds rows [r0, r1) widened to fp64
/// ([r1 - r0, w.cols]; every fp32 value is exact in fp64).
void project_block(const WeightView& w, const double* xd,
                   const ProjectOut& out, std::int64_t r0, std::int64_t r1,
                   std::int64_t o0, std::int64_t o1);
// Quantized variants: dequantize-on-the-fly with the same reduction shape.
double dot_f16(const std::uint16_t* a, const float* b, std::size_t n);
void axpy_f16(float alpha, const std::uint16_t* x, float* y, std::size_t n);
}  // namespace generic

#if defined(CHIPALIGN_HAVE_AVX2)
namespace avx2 {
double dot(const float* a, const float* b, std::size_t n);
double sum_squares(const float* a, std::size_t n);
void axpy(float alpha, const float* x, float* y, std::size_t n);
void scale(float* x, float alpha, std::size_t n);
void hadamard(const float* x, float* y, std::size_t n);
void scaled_sum(float a, const float* x, float b, const float* y, float* out,
                std::size_t n);
void matmul_rows(const float* a, const float* b, float* c, std::int64_t i0,
                 std::int64_t i1, std::int64_t k, std::int64_t n);
void matmul_tn_cols(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n, std::int64_t j0,
                    std::int64_t j1);
/// kernels::project block; bf16 / int8 dequant uses only AVX2 integer ops,
/// kF16 weights additionally need F16C (vcvtph2ps), probed separately and
/// checked at runtime.
void project_block(const WeightView& w, const double* xd,
                   const ProjectOut& out, std::int64_t r0, std::int64_t r1,
                   std::int64_t o0, std::int64_t o1);
#if defined(CHIPALIGN_HAVE_F16C)
double dot_f16(const std::uint16_t* a, const float* b, std::size_t n);
void axpy_f16(float alpha, const std::uint16_t* x, float* y, std::size_t n);
#endif
}  // namespace avx2
#endif

}  // namespace chipalign::kernels
