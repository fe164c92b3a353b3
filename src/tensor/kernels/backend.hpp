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

/// The KV-head loop of every attend() body. Per KV head g, over the
/// `group` = n_heads / n_kv_heads query heads that read it (q_g = the
/// group's first head, heads head_dim apart), in order:
///   score(K head g, q_g, scale, scores): scores[i * n_keys + j] =
///     float(dot(K row j, q head i)) * scale, scale = 1/sqrt(head_dim);
///   the one softmax over each head's n_keys scores;
///   mix(V head g, scores, out_g): writes the group's head outputs from
///     those probabilities.
template <typename Elem, typename Score, typename Mix>
inline void attend_groups(const AttendShape& shape, const float* q,
                          const KvView& k, const KvView& v,
                          std::int64_t n_keys, float* scores, float* out,
                          const Score& score, const Mix& mix) {
  const std::int64_t hd = shape.head_dim;
  const std::int64_t group = shape.n_heads / shape.n_kv_heads;
  const float scale = 1.0F / std::sqrt(static_cast<float>(hd));
  for (std::int64_t g = 0; g < shape.n_kv_heads; ++g) {
    const std::int64_t first = g * group * hd;
    score(static_cast<const Elem*>(k.data) + g * hd, q + first, scale,
          scores);
    for (std::int64_t i = 0; i < group; ++i) {
      softmax(scores + i * n_keys, static_cast<std::size_t>(n_keys));
    }
    mix(static_cast<const Elem*>(v.data) + g * hd, scores, out + first);
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
