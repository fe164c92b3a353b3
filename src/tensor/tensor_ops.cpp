#include "tensor/tensor_ops.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/kernels/kernels.hpp"

namespace chipalign::ops {

namespace {
void check_same_size(std::span<const float> a, std::span<const float> b,
                     const char* what) {
  CA_CHECK(a.size() == b.size(),
           what << ": size mismatch " << a.size() << " vs " << b.size());
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* what) {
  CA_CHECK(a.same_shape(b), what << ": shape mismatch "
                                 << shape_to_string(a.shape()) << " vs "
                                 << shape_to_string(b.shape()));
}
}  // namespace

void axpy(float alpha, std::span<const float> src, std::span<float> dst) {
  check_same_size(src, dst, "axpy");
  kernels::axpy(alpha, src.data(), dst.data(), src.size());
}

double dot(std::span<const float> a, std::span<const float> b) {
  check_same_size(a, b, "dot");
  return kernels::dot(a.data(), b.data(), a.size());
}

double norm(std::span<const float> a) {
  return kernels::norm(a.data(), a.size());
}

void scale(std::span<float> a, float alpha) {
  kernels::scale(a.data(), alpha, a.size());
}

void scaled_sum(float a, std::span<const float> x, float b,
                std::span<const float> y, std::span<float> out) {
  check_same_size(x, y, "scaled_sum");
  check_same_size(x, out, "scaled_sum");
  kernels::scaled_sum(a, x.data(), b, y.data(), out.data(), x.size());
}

double cosine(std::span<const float> a, std::span<const float> b) {
  const double na = norm(a);
  const double nb = norm(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot(a, b) / (na * nb);
}

void softmax_inplace(std::span<float> logits) {
  CA_CHECK(!logits.empty(), "softmax on empty span");
  kernels::softmax(logits.data(), logits.size());
}

double log_sum_exp(std::span<const float> logits) {
  CA_CHECK(!logits.empty(), "log_sum_exp on empty span");
  const float max_logit = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (float v : logits) sum += std::exp(static_cast<double>(v - max_logit));
  return static_cast<double>(max_logit) + std::log(sum);
}

std::int64_t argmax(std::span<const float> values) {
  CA_CHECK(!values.empty(), "argmax on empty span");
  return static_cast<std::int64_t>(
      std::max_element(values.begin(), values.end()) - values.begin());
}

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out = a;
  axpy(1.0F, b.values(), out.values());
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out = a;
  axpy(-1.0F, b.values(), out.values());
  return out;
}

Tensor scaled(const Tensor& a, float alpha) {
  Tensor out = a;
  scale(out.values(), alpha);
  return out;
}

Tensor scaled_sum(float alpha, const Tensor& a, float beta, const Tensor& b) {
  check_same_shape(a, b, "scaled_sum");
  Tensor out(a.shape());
  kernels::scaled_sum(alpha, a.data(), beta, b.data(), out.data(),
                      out.values().size());
  return out;
}

double frobenius_norm(const Tensor& a) { return norm(a.values()); }

double cosine_similarity(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "cosine_similarity");
  return cosine(a.values(), b.values());
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  CA_CHECK(a.rank() == 2 && b.rank() == 2, "matmul requires rank-2 operands");
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  CA_CHECK(b.dim(0) == k, "matmul inner-dim mismatch: " << k << " vs "
           << b.dim(0));

  Tensor out({m, n});  // zero-initialised; the kernel accumulates into it.
  kernels::matmul(a.data(), b.data(), out.data(), m, k, n);
  return out;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  CA_CHECK(a.rank() == 2 && b.rank() == 2,
           "matmul_nt requires rank-2 operands");
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(0);
  CA_CHECK(b.dim(1) == k,
           "matmul_nt inner-dim mismatch: " << k << " vs " << b.dim(1));

  Tensor out({m, n});
  kernels::matmul_nt(a.data(), b.data(), out.data(), m, k, n);
  return out;
}

void matmul_tn_accum(const Tensor& a, const Tensor& b, Tensor& out) {
  CA_CHECK(a.rank() == 2 && b.rank() == 2 && out.rank() == 2,
           "matmul_tn_accum requires rank-2 operands");
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  CA_CHECK(b.dim(0) == m, "matmul_tn_accum row mismatch");
  CA_CHECK(out.dim(0) == k && out.dim(1) == n, "matmul_tn_accum out shape");

  kernels::matmul_tn_accum(a.data(), b.data(), out.data(), m, k, n);
}

Tensor transpose(const Tensor& a) {
  CA_CHECK(a.rank() == 2, "transpose requires rank-2 tensor");
  const std::int64_t m = a.dim(0);
  const std::int64_t n = a.dim(1);
  Tensor out({n, m});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) out.at2(j, i) = a.at2(i, j);
  }
  return out;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "max_abs_diff");
  double worst = 0.0;
  auto va = a.values();
  auto vb = b.values();
  for (std::size_t i = 0; i < va.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(va[i]) - vb[i]));
  }
  return worst;
}

}  // namespace chipalign::ops
