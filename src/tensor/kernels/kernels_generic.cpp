/// \file kernels_generic.cpp
/// \brief Portable backend: multi-accumulator loops the compiler can
/// auto-vectorize, implementing the same bit contract as the AVX2 path.
///
/// Reductions keep the 8 double lanes in a local array with a fixed inner
/// unroll; elementwise loops are dependence-free so the vectorizer may use
/// whatever width the target offers without changing a single bit (FP
/// contraction is disabled for this translation unit).

#include <algorithm>

#include "tensor/half.hpp"
#include "tensor/kernels/backend.hpp"
#include "tensor/kernels/kernels.hpp"

namespace chipalign::kernels::generic {

namespace {

// Type-generic element loaders: one reduction body serves every storage
// dtype. Each load is an *exact* conversion to fp32, so the shared loop
// reproduces the contract reduction bit-for-bit regardless of dtype.
struct LoadF32 {
  float operator()(float v) const { return v; }
};
struct LoadF16 {
  float operator()(std::uint16_t v) const { return f16_bits_to_f32(v); }
};
struct LoadBF16 {
  float operator()(std::uint16_t v) const { return bf16_bits_to_f32(v); }
};
struct LoadI8 {
  float operator()(std::int8_t v) const { return static_cast<float>(v); }
};

/// Contract-shaped dot with a dequantizing load on the `a` stream; `b` is
/// fp32 or its exact fp64 widening (the same products either way).
template <typename T, typename B, typename Load>
double dot_q(const T* a, const B* b, std::size_t n, Load load) {
  double lanes[kLanes] = {0};
  const std::size_t n8 = n & ~(kLanes - 1);
  for (std::size_t i = 0; i < n8; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      lanes[l] += static_cast<double>(load(a[i + l])) *
                  static_cast<double>(b[i + l]);
    }
  }
  for (std::size_t i = n8; i < n; ++i) {
    lanes[i - n8] +=
        static_cast<double>(load(a[i])) * static_cast<double>(b[i]);
  }
  return combine_lanes(lanes);
}

/// project_block over one storage type: each output is one dot_q of a
/// weight row against a widened activation row.
template <typename T, typename Load>
void project_block_t(const WeightView& w, const double* xd,
                     const ProjectOut& out, std::int64_t r0, std::int64_t r1,
                     std::int64_t o0, std::int64_t o1, Load load) {
  const auto* base = static_cast<const T*>(w.data);
  const float* scales = w.dtype == DType::kI8 ? w.scales : nullptr;
  const auto n = static_cast<std::size_t>(w.cols);
  for (std::int64_t o = o0; o < o1; ++o) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const double d =
          dot_q(base + o * w.cols, xd + (r - r0) * w.cols, n, load);
      out.y[r * out.row_stride + o * out.out_stride] =
          project_output(d, scales, o);
    }
  }
}

/// attend over one KV storage type: dot_q scores per query head of the
/// group, then each head's value rows accumulated in key order, one
/// dependence-free pass over head_dim each.
template <typename T, typename Load>
void attend_t(const AttendShape& shape, const float* q, const KvView& k,
              const KvView& v, std::int64_t n_keys, float* scores, float* out,
              Load load) {
  const std::int64_t hd = shape.head_dim;
  const auto n = static_cast<std::size_t>(hd);
  const std::int64_t group = shape.n_heads / shape.n_kv_heads;
  const auto score = [&](const T* k_head, const float* q_g, float scale,
                         float* s) {
    for (std::int64_t h = 0; h < group; ++h) {
      for (std::int64_t j = 0; j < n_keys; ++j) {
        s[h * n_keys + j] =
            static_cast<float>(
                dot_q(k_head + j * k.row_stride, q_g + h * hd, n, load)) *
            scale;
      }
    }
  };
  const auto mix = [&](const T* v_head, const float* p, float* out_g) {
    for (std::int64_t h = 0; h < group; ++h) {
      float* out_h = out_g + h * hd;
      std::fill(out_h, out_h + n, 0.0F);
      for (std::int64_t j = 0; j < n_keys; ++j) {
        const float p_j = p[h * n_keys + j];
        const T* v_row = v_head + j * v.row_stride;
        for (std::size_t i = 0; i < n; ++i) out_h[i] += p_j * load(v_row[i]);
      }
    }
  };
  attend_groups<T>(shape, q, k, v, n_keys, scores, out, score, mix);
}

}  // namespace

double dot(const float* a, const float* b, std::size_t n) {
  return dot_q(a, b, n, LoadF32{});
}

double sum_squares(const float* a, std::size_t n) {
  return dot_q(a, a, n, LoadF32{});
}

void axpy(float alpha, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(float* x, float alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void scaled_sum(float a, const float* x, float b, const float* y, float* out,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a * x[i] + b * y[i];
}

void matmul_rows(const float* a, const float* b, float* c, std::int64_t i0,
                 std::int64_t i1, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = i0; i < i1; ++i) {
    float* c_row = c + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aval = a[i * k + kk];
      const float* b_row = b + kk * n;
      for (std::int64_t j = 0; j < n; ++j) c_row[j] += aval * b_row[j];
    }
  }
}

void matmul_tn_cols(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n, std::int64_t j0,
                    std::int64_t j1) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    const float* b_row = b + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aval = a_row[kk];
      float* c_row = c + kk * n;
      for (std::int64_t j = j0; j < j1; ++j) c_row[j] += aval * b_row[j];
    }
  }
}

void project_block(const WeightView& w, const double* xd,
                   const ProjectOut& out, std::int64_t r0, std::int64_t r1,
                   std::int64_t o0, std::int64_t o1) {
  switch (w.dtype) {
    case DType::kF32:
      return project_block_t<float>(w, xd, out, r0, r1, o0, o1, LoadF32{});
    case DType::kF16:
      return project_block_t<std::uint16_t>(w, xd, out, r0, r1, o0, o1,
                                            LoadF16{});
    case DType::kBF16:
      return project_block_t<std::uint16_t>(w, xd, out, r0, r1, o0, o1,
                                            LoadBF16{});
    case DType::kI8:
      return project_block_t<std::int8_t>(w, xd, out, r0, r1, o0, o1,
                                          LoadI8{});
  }
}

void attend(const AttendShape& shape, const float* q, const KvView& k,
            const KvView& v, std::int64_t n_keys, float* scores, float* out) {
  if (k.dtype == DType::kF16) {
    return attend_t<std::uint16_t>(shape, q, k, v, n_keys, scores, out,
                                   LoadF16{});
  }
  attend_t<float>(shape, q, k, v, n_keys, scores, out, LoadF32{});
}

}  // namespace chipalign::kernels::generic
