#pragma once
/// \file tensor_ops.hpp
/// \brief Elementwise and linear-algebra kernels on Tensor / float spans.
///
/// These kernels back both the merge library (norms, dots, axpy) and the
/// neural-network substrate (matmul, softmax). Everything is fp32; the heavy
/// lifting is delegated to tensor/kernels, whose reductions follow a fixed
/// deterministic summation shape (see kernels.hpp), so results are
/// bit-identical across backends, runs, and thread counts. Large matmuls may
/// fan out across the global thread pool; nested calls from pool workers run
/// inline, so these are safe to call from parallel merge loops.

#include <cstdint>
#include <span>

#include "tensor/tensor.hpp"

namespace chipalign::ops {

// -- span kernels (the workhorses) -------------------------------------------

/// dst += alpha * src (sizes must match).
void axpy(float alpha, std::span<const float> src, std::span<float> dst);

/// Sum of elementwise products.
double dot(std::span<const float> a, std::span<const float> b);

/// Euclidean (Frobenius) norm.
double norm(std::span<const float> a);

/// Multiplies every element by alpha.
void scale(std::span<float> a, float alpha);

/// Fused out = a * x + b * y (sizes must match; out may alias x or y).
/// One pass over memory versus the scale/scale/add composition — this is the
/// inner loop of geodesic (SLERP) interpolation.
void scaled_sum(float a, std::span<const float> x, float b,
                std::span<const float> y, std::span<float> out);

/// Cosine of the angle between two vectors; 0 if either has zero norm.
double cosine(std::span<const float> a, std::span<const float> b);

/// In-place numerically-stable softmax over the span (kernels::softmax).
void softmax_inplace(std::span<float> logits);

/// log(sum(exp(logits))) computed stably.
double log_sum_exp(std::span<const float> logits);

/// Index of the maximum element (first on ties); requires non-empty span.
std::int64_t argmax(std::span<const float> values);

// -- tensor-level helpers -----------------------------------------------------

/// Elementwise c = a + b.
Tensor add(const Tensor& a, const Tensor& b);

/// Elementwise c = a - b.
Tensor sub(const Tensor& a, const Tensor& b);

/// c = alpha * a.
Tensor scaled(const Tensor& a, float alpha);

/// c = alpha * a + beta * b in a single fused pass.
Tensor scaled_sum(float alpha, const Tensor& a, float beta, const Tensor& b);

/// Frobenius norm of the whole tensor.
double frobenius_norm(const Tensor& a);

/// Flattened cosine similarity between two same-shape tensors.
double cosine_similarity(const Tensor& a, const Tensor& b);

/// Row-major matmul: [m, k] x [k, n] -> [m, n]. Large products fan out over
/// fixed-size row blocks on the global thread pool; results are
/// bit-identical regardless of thread count. IEEE-faithful: NaN/Inf in
/// either operand propagate (no value-dependent skips).
Tensor matmul(const Tensor& a, const Tensor& b);

/// y[m,n] = a[m,k] * b^T where b is [n,k]. This is the layout used by linear
/// layers whose weights are stored as [out_features, in_features].
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// y[k,n] += a^T[k,m] * b[m,n] where a is [m,k]. Gradient helper.
void matmul_tn_accum(const Tensor& a, const Tensor& b, Tensor& out);

/// Transposes a rank-2 tensor.
Tensor transpose(const Tensor& a);

/// Maximum absolute elementwise difference (for tests).
double max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace chipalign::ops
