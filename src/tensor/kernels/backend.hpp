#pragma once
/// \file backend.hpp
/// \brief Internal backend entry points for the kernel dispatch layer.
///
/// Both backends implement identical bit-level semantics (see kernels.hpp);
/// the dispatcher in kernels.cpp picks one at runtime and owns the blocking
/// and thread-pool fan-out, so backends only ever see contiguous panels.

#include <cmath>
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

/// The head loop of every attend() body: per query head h, in order, over
/// KV head h / (n_heads / n_kv_heads), scores[j] = float(dot(K row j, q_h))
/// * 1/sqrt(head_dim) for j < n_keys, the one softmax, then mix(V head,
/// out_h), which writes out_h from the probabilities in `scores`.
template <typename Elem, typename Dot, typename Mix>
inline void attend_heads(const AttendShape& shape, const float* q,
                         const KvView& k, const KvView& v, std::int64_t n_keys,
                         float* scores, float* out, const Dot& dot,
                         const Mix& mix) {
  const std::int64_t hd = shape.head_dim;
  const std::int64_t group = shape.n_heads / shape.n_kv_heads;
  const float scale = 1.0F / std::sqrt(static_cast<float>(hd));
  for (std::int64_t h = 0; h < shape.n_heads; ++h) {
    const std::int64_t off = (h / group) * hd;
    const Elem* k_head = static_cast<const Elem*>(k.data) + off;
    for (std::int64_t j = 0; j < n_keys; ++j) {
      scores[j] =
          static_cast<float>(dot(k_head + j * k.row_stride, q + h * hd)) *
          scale;
    }
    softmax(scores, static_cast<std::size_t>(n_keys));
    mix(static_cast<const Elem*>(v.data) + off, out + h * hd);
  }
}

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
/// kernels::attend over either KV dtype.
void attend(const AttendShape& shape, const float* q, const KvView& k,
            const KvView& v, std::int64_t n_keys, float* scores, float* out);
}  // namespace generic

#if defined(CHIPALIGN_HAVE_AVX2)
namespace avx2 {
double dot(const float* a, const float* b, std::size_t n);
double sum_squares(const float* a, std::size_t n);
void axpy(float alpha, const float* x, float* y, std::size_t n);
void scale(float* x, float alpha, std::size_t n);
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
/// kernels::attend; an fp16 cache additionally needs F16C, like project.
void attend(const AttendShape& shape, const float* q, const KvView& k,
            const KvView& v, std::int64_t n_keys, float* scores, float* out);
}  // namespace avx2
#endif

}  // namespace chipalign::kernels
