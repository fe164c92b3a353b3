/// \file kernels_ref.cpp
/// \brief Retained scalar reference kernels — the executable contract.
///
/// Clarity over speed: these loops *define* the summation shape and
/// element-order semantics every optimized backend must reproduce bitwise.
/// Compiled with FP contraction disabled (see tensor/CMakeLists.txt) so the
/// scalar code means exactly what it says.

#include <cmath>

#include "tensor/half.hpp"
#include "tensor/kernels/backend.hpp"
#include "tensor/kernels/kernels.hpp"

namespace chipalign::kernels::ref {

double dot(const float* a, const float* b, std::size_t n) {
  double lanes[kLanes] = {0};
  const std::size_t n8 = n & ~(kLanes - 1);
  for (std::size_t i = 0; i < n8; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      lanes[l] += static_cast<double>(a[i + l]) * static_cast<double>(b[i + l]);
    }
  }
  for (std::size_t i = n8; i < n; ++i) {
    lanes[i - n8] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return combine_lanes(lanes);
}

double norm(const float* a, std::size_t n) {
  double lanes[kLanes] = {0};
  const std::size_t n8 = n & ~(kLanes - 1);
  for (std::size_t i = 0; i < n8; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      lanes[l] += static_cast<double>(a[i + l]) * static_cast<double>(a[i + l]);
    }
  }
  for (std::size_t i = n8; i < n; ++i) {
    lanes[i - n8] += static_cast<double>(a[i]) * static_cast<double>(a[i]);
  }
  return std::sqrt(combine_lanes(lanes));
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

void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n) {
  // (i, kk, j): for each output row, stream b's rows in k order. Every
  // product participates — no zero skips — so NaN/Inf propagate.
  for (std::int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aval = a[i * k + kk];
      const float* b_row = b + kk * n;
      for (std::int64_t j = 0; j < n; ++j) c_row[j] += aval * b_row[j];
    }
  }
}

void matmul_nt(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      c_row[j] = static_cast<float>(
          dot(a_row, b + j * k, static_cast<std::size_t>(k)));
    }
  }
}

void matmul_tn_accum(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    const float* b_row = b + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aval = a_row[kk];
      float* c_row = c + kk * n;
      for (std::int64_t j = 0; j < n; ++j) c_row[j] += aval * b_row[j];
    }
  }
}

void matvec(const float* w, const float* x, float* y, std::int64_t out_dim,
            std::int64_t in_dim) {
  for (std::int64_t o = 0; o < out_dim; ++o) {
    y[o] = static_cast<float>(
        dot(w + o * in_dim, x, static_cast<std::size_t>(in_dim)));
  }
}

// -- quantized reference kernels ---------------------------------------------
//
// Each stored element dequantizes *exactly* to fp32 (f16/bf16 are fp32
// subsets; int8 codes are small integers), then feeds the identical 8-lane
// fp64 reduction as the fp32 dot above. The int8 per-row scale is applied
// once per output, in fp64, after the lane combine.

double dot_f16(const std::uint16_t* a, const float* b, std::size_t n) {
  double lanes[kLanes] = {0};
  const std::size_t n8 = n & ~(kLanes - 1);
  for (std::size_t i = 0; i < n8; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      lanes[l] += static_cast<double>(f16_bits_to_f32(a[i + l])) *
                  static_cast<double>(b[i + l]);
    }
  }
  for (std::size_t i = n8; i < n; ++i) {
    lanes[i - n8] +=
        static_cast<double>(f16_bits_to_f32(a[i])) * static_cast<double>(b[i]);
  }
  return combine_lanes(lanes);
}

double dot_bf16(const std::uint16_t* a, const float* b, std::size_t n) {
  double lanes[kLanes] = {0};
  const std::size_t n8 = n & ~(kLanes - 1);
  for (std::size_t i = 0; i < n8; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      lanes[l] += static_cast<double>(bf16_bits_to_f32(a[i + l])) *
                  static_cast<double>(b[i + l]);
    }
  }
  for (std::size_t i = n8; i < n; ++i) {
    lanes[i - n8] += static_cast<double>(bf16_bits_to_f32(a[i])) *
                     static_cast<double>(b[i]);
  }
  return combine_lanes(lanes);
}

double dot_i8(const std::int8_t* q, const float* x, std::size_t n) {
  double lanes[kLanes] = {0};
  const std::size_t n8 = n & ~(kLanes - 1);
  for (std::size_t i = 0; i < n8; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      lanes[l] += static_cast<double>(static_cast<float>(q[i + l])) *
                  static_cast<double>(x[i + l]);
    }
  }
  for (std::size_t i = n8; i < n; ++i) {
    lanes[i - n8] += static_cast<double>(static_cast<float>(q[i])) *
                     static_cast<double>(x[i]);
  }
  return combine_lanes(lanes);
}

void matvec_f16(const std::uint16_t* w, const float* x, float* y,
                std::int64_t out_dim, std::int64_t in_dim) {
  for (std::int64_t o = 0; o < out_dim; ++o) {
    y[o] = static_cast<float>(
        dot_f16(w + o * in_dim, x, static_cast<std::size_t>(in_dim)));
  }
}

void matvec_bf16(const std::uint16_t* w, const float* x, float* y,
                 std::int64_t out_dim, std::int64_t in_dim) {
  for (std::int64_t o = 0; o < out_dim; ++o) {
    y[o] = static_cast<float>(
        dot_bf16(w + o * in_dim, x, static_cast<std::size_t>(in_dim)));
  }
}

void matvec_i8(const std::int8_t* w, const float* scales, const float* x,
               float* y, std::int64_t out_dim, std::int64_t in_dim) {
  for (std::int64_t o = 0; o < out_dim; ++o) {
    y[o] = static_cast<float>(
        static_cast<double>(scales[o]) *
        dot_i8(w + o * in_dim, x, static_cast<std::size_t>(in_dim)));
  }
}

void matmul_nt_f16(const std::uint16_t* a, const float* b, float* c,
                   std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    const std::uint16_t* a_row = a + i * k;
    float* c_row = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      c_row[j] = static_cast<float>(
          dot_f16(a_row, b + j * k, static_cast<std::size_t>(k)));
    }
  }
}

void matmul_nt_i8(const std::int8_t* a, const float* a_scales, const float* b,
                  float* c, std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int8_t* a_row = a + i * k;
    float* c_row = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      c_row[j] = static_cast<float>(
          static_cast<double>(a_scales[i]) *
          dot_i8(a_row, b + j * k, static_cast<std::size_t>(k)));
    }
  }
}

// -- attention reference -----------------------------------------------------
//
// Decode attention spelled out: per query head, one contract dot per key
// (fp16 keys through dot_f16), the one softmax, then one axpy per value row
// in key order onto a zeroed head output.

namespace {

void axpy_f16(float alpha, const std::uint16_t* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * f16_bits_to_f32(x[i]);
}

}  // namespace

void attend(const AttendShape& shape, const float* q, const KvView& k,
            const KvView& v, std::int64_t n_keys, float* scores, float* out) {
  const std::int64_t hd = shape.head_dim;
  const auto n = static_cast<std::size_t>(hd);
  const bool half = k.dtype == DType::kF16;
  for (std::int64_t h = 0; h < shape.n_heads; ++h) {
    const std::int64_t off = h / (shape.n_heads / shape.n_kv_heads) * hd;
    const float* q_h = q + h * hd;
    float* out_h = out + h * hd;
    for (std::int64_t j = 0; j < n_keys; ++j) {
      const std::int64_t at = j * k.row_stride + off;
      const double d =
          half ? dot_f16(static_cast<const std::uint16_t*>(k.data) + at, q_h, n)
               : dot(q_h, static_cast<const float*>(k.data) + at, n);
      scores[j] = static_cast<float>(d) *
                  (1.0F / std::sqrt(static_cast<float>(hd)));
    }
    softmax(scores, static_cast<std::size_t>(n_keys));
    for (std::size_t i = 0; i < n; ++i) out_h[i] = 0.0F;
    for (std::int64_t j = 0; j < n_keys; ++j) {
      const std::int64_t at = j * v.row_stride + off;
      if (half) {
        axpy_f16(scores[j], static_cast<const std::uint16_t*>(v.data) + at,
                 out_h, n);
      } else {
        axpy(scores[j], static_cast<const float*>(v.data) + at, out_h, n);
      }
    }
  }
}

void swiglu(const float* gate, const float* up, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = gate[i] * sigmoid(gate[i]) * up[i];
  }
}

}  // namespace chipalign::kernels::ref
