/// \file kernels_avx2.cpp
/// \brief AVX2+FMA backend. Compiled only when the toolchain supports
/// -mavx2 -mfma (CMake feature check defines CHIPALIGN_HAVE_AVX2); selected
/// at runtime only when the CPU reports both features.
///
/// Bit-compatibility with the reference (see kernels.hpp): reductions use
/// two 4-lane fp64 accumulators covering the 8 contract lanes, FMA is used
/// only on fp64 accumulation where the fp32 product is exact, and all fp32
/// elementwise/matmul arithmetic is explicit mul-then-add.

#if defined(CHIPALIGN_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/half.hpp"
#include "tensor/kernels/backend.hpp"
#include "tensor/kernels/kernels.hpp"

namespace chipalign::kernels::avx2 {

namespace {

// -- load traits --------------------------------------------------------------
//
// Each trait widens 8 stored elements to two fp64 halves (load: lanes 0..3
// and 4..7) and one element for a scalar tail (scalar); the KV-cache
// dtypes (fp32, fp16) also load 8 elements as fp32 (vec). Every stored value
// converts exactly (f16 and bf16 are fp32 subsets, int8 codes small
// integers), so the templated bodies below perform the identical fp64
// sequence whatever the dtype and match the scalar reference bit-for-bit.

/// Widens 8 exact fp32 values to two fp64 halves: lanes 0..3 and 4..7.
inline void widen(__m256 v, __m256d& lo, __m256d& hi) {
  lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

struct VLoadF32 {
  using Elem = float;
  static __m256 vec(const Elem* p) { return _mm256_loadu_ps(p); }
  static void load(const Elem* p, __m256d& lo, __m256d& hi) {
    lo = _mm256_cvtps_pd(_mm_loadu_ps(p));
    hi = _mm256_cvtps_pd(_mm_loadu_ps(p + 4));
  }
  static float scalar(Elem v) { return v; }
};

struct VLoadBF16 {
  using Elem = std::uint16_t;
  static void load(const Elem* p, __m256d& lo, __m256d& hi) {
    const __m128i raw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    widen(_mm256_castsi256_ps(
              _mm256_slli_epi32(_mm256_cvtepu16_epi32(raw), 16)),
          lo, hi);
  }
  static float scalar(Elem v) { return bf16_bits_to_f32(v); }
};

struct VLoadI8 {
  using Elem = std::int8_t;
  /// int8 -> int32 -> fp64 directly: exact, and one conversion shorter
  /// than going through fp32.
  static void load(const Elem* p, __m256d& lo, __m256d& hi) {
    const __m256i wide = _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
    lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(wide));
    hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256(wide, 1));
  }
  static float scalar(Elem v) { return static_cast<float>(v); }
};

#if defined(CHIPALIGN_HAVE_F16C)
struct VLoadF16 {
  using Elem = std::uint16_t;
  static __m256 vec(const Elem* p) {
    return _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static void load(const Elem* p, __m256d& lo, __m256d& hi) {
    widen(vec(p), lo, hi);
  }
  static float scalar(Elem v) { return f16_bits_to_f32(v); }
};
#endif

/// Contract-shaped dot: 8 fp64 lanes (acc_lo = offsets 0..3 of each 8-block,
/// acc_hi = offsets 4..7), fixed pairwise combine, with the trait's load on
/// the `a` stream.
template <typename L>
inline double dot_lanes(const typename L::Elem* a, const float* b,
                        std::size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  const std::size_t n8 = n & ~(kLanes - 1);
  for (std::size_t i = 0; i < n8; i += kLanes) {
    __m256d a_lo, a_hi, b_lo, b_hi;
    L::load(a + i, a_lo, a_hi);
    VLoadF32::load(b + i, b_lo, b_hi);
    acc_lo = _mm256_fmadd_pd(a_lo, b_lo, acc_lo);
    acc_hi = _mm256_fmadd_pd(a_hi, b_hi, acc_hi);
  }
  double lanes[kLanes];
  _mm256_storeu_pd(lanes, acc_lo);
  _mm256_storeu_pd(lanes + 4, acc_hi);
  for (std::size_t i = n8; i < n; ++i) {
    lanes[i - n8] +=
        static_cast<double>(L::scalar(a[i])) * static_cast<double>(b[i]);
  }
  return combine_lanes(lanes);
}

// -- the projection microkernel -----------------------------------------------

/// Register tiles, activation rows (M) x weight rows (N): 3x2 whenever a
/// block has two or more activation rows, 1x4 for a single row (a 1x2 tile
/// leaves the FMA latency exposed). Each keeps at most 12 accumulators plus
/// one widened weight 8-block in the 16 ymm registers.
constexpr int kTileRows = 3;
constexpr int kTileOut = 2;
constexpr int kRowTileOut = 4;

/// The 8 contract lanes of one dot as two fp64 accumulators.
struct Lanes {
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();

  void fma(__m256d w_lo, __m256d w_hi, const double* x) {
    lo = _mm256_fmadd_pd(w_lo, _mm256_loadu_pd(x), lo);
    hi = _mm256_fmadd_pd(w_hi, _mm256_loadu_pd(x + 4), hi);
  }

  /// combine_lanes in registers: hadd gives (l0+l1, l4+l5, l2+l3, l6+l7),
  /// the halves add to ((l0+l1)+(l2+l3), (l4+l5)+(l6+l7)), and those two
  /// add last — the same operations on the same operands.
  double combine() const {
    const __m256d pairs = _mm256_hadd_pd(lo, hi);
    const __m128d quads = _mm_add_pd(_mm256_castpd256_pd128(pairs),
                                     _mm256_extractf128_pd(pairs, 1));
    return _mm_cvtsd_f64(_mm_add_sd(quads, _mm_unpackhi_pd(quads, quads)));
  }
};

/// A k % 8 tail as a zero-padded 8-block: one more fma on it adds element
/// n8 + l to lane l and 0 * 0 = +0.0 to the lanes past the tail, which
/// leaves them unchanged (a lane starts at +0.0 and round-to-nearest never
/// turns it into -0.0).
template <typename T>
struct Tail {
  T v[kLanes] = {};
  const T* fill(const T* p, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) v[i] = p[i];
    return v;
  }
};

/// Where a tile writes: output (i, j) — activation row i, weight row j of
/// the tile — lands at y[i * row_stride + j * out_stride], scaled by
/// scales[j] for int8 weights.
struct TileOut {
  float* y;
  std::int64_t row_stride;
  std::int64_t out_stride;
  const float* scales;

  void put(int i, int j, const Lanes& acc) const {
    y[i * row_stride + j * out_stride] =
        project_output(acc.combine(), scales, j);
  }
};

/// One M x N register tile: weight rows w[0..N) against the fp64
/// activation rows x[0..M). Every accumulator is a named variable and the
/// body is unrolled by hand (if constexpr drops the unused ones): a rolled
/// acc[M][N] loop nest spills to the stack at -O2. Each widened weight
/// 8-block feeds M dots; every dot keeps dot_lanes' lane assignment and
/// combine, so output (i, j) equals ref::dot(w_j, x_i) bit-for-bit.
template <typename L, int M, int N>
inline void tile(const typename L::Elem* const* w, const double* const* x,
                 std::size_t n, const TileOut& out) {
  static_assert(M >= 1 && M <= kTileRows && N >= 1 && N <= kRowTileOut &&
                    (N <= kTileOut || M == 1),
                "tile shape");
  using Elem = typename L::Elem;
  Lanes a00, a10, a20, a01, a11, a21, a02, a03;
  // Widens 8-block i of a weight row once and feeds it to every row.
  const auto feed = [](const Elem* p, const double* const* xs,
                       std::size_t i, Lanes& c0, Lanes& c1, Lanes& c2) {
    __m256d lo, hi;
    L::load(p + i, lo, hi);
    c0.fma(lo, hi, xs[0] + i);
    if constexpr (M > 1) c1.fma(lo, hi, xs[1] + i);
    if constexpr (M > 2) c2.fma(lo, hi, xs[2] + i);
  };
  const auto step = [&](const Elem* const* ws, const double* const* xs,
                        std::size_t i) {
    feed(ws[0], xs, i, a00, a10, a20);
    if constexpr (N > 1) feed(ws[1], xs, i, a01, a11, a21);
    // N > 2 only with M == 1: the second and third accumulators are unused.
    if constexpr (N > 2) feed(ws[2], xs, i, a02, a02, a02);
    if constexpr (N > 3) feed(ws[3], xs, i, a03, a03, a03);
  };
  const std::size_t n8 = n & ~(kLanes - 1);
  for (std::size_t i = 0; i < n8; i += kLanes) step(w, x, i);
  if (n8 < n) {
    Tail<Elem> wt[N];
    Tail<double> xt[M];
    const Elem* ws[N];
    const double* xs[M];
    for (int j = 0; j < N; ++j) ws[j] = wt[j].fill(w[j] + n8, n - n8);
    for (int r = 0; r < M; ++r) xs[r] = xt[r].fill(x[r] + n8, n - n8);
    step(ws, xs, 0);
  }
  out.put(0, 0, a00);
  if constexpr (M > 1) out.put(1, 0, a10);
  if constexpr (M > 2) out.put(2, 0, a20);
  if constexpr (N > 1) {
    out.put(0, 1, a01);
    if constexpr (M > 1) out.put(1, 1, a11);
    if constexpr (M > 2) out.put(2, 1, a21);
  }
  if constexpr (N > 2) out.put(0, 2, a02);
  if constexpr (N > 3) out.put(0, 3, a03);
}

/// tile<L, m, N> for a runtime row count m in [1, M].
template <typename L, int M, int N>
inline void tile_rows(int m, const typename L::Elem* const* w,
                      const double* const* x, std::size_t n,
                      const TileOut& out) {
  if constexpr (M > 1) {
    if (m < M) return tile_rows<L, M - 1, N>(m, w, x, n, out);
  }
  tile<L, M, N>(w, x, n, out);
}

/// tile<L, m, n> for runtime m <= M and n <= N weight rows.
template <typename L, int M, int N>
inline void tile_any(int m, int nn, const typename L::Elem* const* w,
                     const double* const* x, std::size_t n,
                     const TileOut& out) {
  if constexpr (N > 1) {
    if (nn < N) return tile_any<L, M, N - 1>(m, nn, w, x, n, out);
  }
  tile_rows<L, M, N>(m, w, x, n, out);
}

/// Activation bytes a pass over the weights keeps hot: rows are taken in
/// chunks of about this size (in whole tiles) so they stay in L1 while the
/// weight rows stream past.
constexpr std::int64_t kRowChunkBytes = 24 * 1024;

/// project_block over one load trait. A single activation row runs 1 x 4
/// tiles straight down the weight rows. Otherwise, per chunk of activation
/// rows, weight-row pairs go outermost — each pair is widened from memory
/// once per chunk — and the chunk's rows pass under it in 3 x 2 tiles.
template <typename L>
void project_block_t(const WeightView& w, const double* xd,
                     const ProjectOut& out, std::int64_t r0, std::int64_t r1,
                     std::int64_t o0, std::int64_t o1) {
  using Elem = typename L::Elem;
  const auto* base = static_cast<const Elem*>(w.data);
  const float* scales = w.dtype == DType::kI8 ? w.scales : nullptr;
  const std::int64_t cols = w.cols;
  const auto n = static_cast<std::size_t>(cols);
  const auto at = [&](std::int64_t r, std::int64_t o) {
    return TileOut{out.y + r * out.row_stride + o * out.out_stride,
                   out.row_stride, out.out_stride,
                   scales != nullptr ? scales + o : nullptr};
  };
  // Pointers to weight rows o..o+N-1, repeating the last of the nn real
  // ones (the tile reads only the first nn).
  const auto rows_from = [&](std::int64_t o, int nn, const Elem** ws,
                             int count) {
    for (int j = 0; j < count; ++j) {
      ws[j] = base + (o + std::min(j, nn - 1)) * cols;
    }
  };

  if (r1 - r0 == 1) {
    const double* xs[1] = {xd};
    const Elem* ws[kRowTileOut];
    std::int64_t o = o0;
    for (; o + kRowTileOut <= o1; o += kRowTileOut) {
      rows_from(o, kRowTileOut, ws, kRowTileOut);
      tile<L, 1, kRowTileOut>(ws, xs, n, at(r0, o));
    }
    if (o < o1) {
      const int nn = static_cast<int>(o1 - o);
      rows_from(o, nn, ws, kRowTileOut);
      tile_any<L, 1, kRowTileOut>(1, nn, ws, xs, n, at(r0, o));
    }
    return;
  }

  const std::int64_t tile_bytes =
      kTileRows * std::max<std::int64_t>(cols, 1) *
      static_cast<std::int64_t>(sizeof(double));
  const std::int64_t chunk =
      kTileRows * std::max<std::int64_t>(1, kRowChunkBytes / tile_bytes);
  for (std::int64_t c0 = r0; c0 < r1; c0 += chunk) {
    const std::int64_t c1 = std::min(c0 + chunk, r1);
    for (std::int64_t o = o0; o < o1; o += kTileOut) {
      const int nn = static_cast<int>(std::min<std::int64_t>(kTileOut, o1 - o));
      const Elem* ws[kTileOut];
      rows_from(o, nn, ws, kTileOut);
      for (std::int64_t r = c0; r < c1; r += kTileRows) {
        const int mm =
            static_cast<int>(std::min<std::int64_t>(kTileRows, c1 - r));
        const double* xs[kTileRows];
        for (int i = 0; i < kTileRows; ++i) {
          xs[i] = xd + (r - r0 + std::min(i, mm - 1)) * cols;
        }
        tile_any<L, kTileRows, kTileOut>(mm, nn, ws, xs, n, at(r, o));
      }
    }
  }
}

// -- attention ----------------------------------------------------------------

/// Query heads per attention register tile. The score tile keeps 2 keys x 2
/// heads of Lanes (8 accumulators) beside one key's widened 8-block; the
/// mix tile keeps 2 heads x kMixBlocks output 8-blocks (8 registers) beside
/// one key's kMixBlocks value blocks.
constexpr int kAttendHeads = 2;
constexpr int kMixBlocks = 4;

/// Scores of K keys (rows ks[0..K)) against H query heads widened to fp64
/// (qs[0..H), each zero-padded to a whole 8-block), n = head_dim: (key c,
/// head i) lands at s[i * head_stride + c]. Each key 8-block is widened once
/// and feeds every head; each dot keeps dot_lanes' lane assignment and
/// combine, with the n % 8 tail zero-padded as in tile(), so the score is
/// float(ref::dot) * scale bit-for-bit.
template <typename L, int K, int H>
inline void score_tile(const typename L::Elem* const* ks,
                       const double* const* qs, std::size_t n, float scale,
                       float* s, std::int64_t head_stride) {
  static_assert(K >= 1 && K <= 2 && H >= 1 && H <= kAttendHeads,
                "score tile shape");
  using Elem = typename L::Elem;
  Lanes a00, a01, a10, a11;  // a<key><head>
  const auto step = [&](const Elem* const* kp, std::size_t ki,
                        std::size_t qi) {
    __m256d lo, hi;
    L::load(kp[0] + ki, lo, hi);
    a00.fma(lo, hi, qs[0] + qi);
    if constexpr (H > 1) a01.fma(lo, hi, qs[1] + qi);
    if constexpr (K > 1) {
      L::load(kp[1] + ki, lo, hi);
      a10.fma(lo, hi, qs[0] + qi);
      if constexpr (H > 1) a11.fma(lo, hi, qs[1] + qi);
    }
  };
  const std::size_t n8 = n & ~(kLanes - 1);
  for (std::size_t i = 0; i < n8; i += kLanes) step(ks, i, i);
  if (n8 < n) {
    Tail<Elem> kt[K];
    const Elem* tails[K];
    for (int c = 0; c < K; ++c) tails[c] = kt[c].fill(ks[c] + n8, n - n8);
    step(tails, 0, n8);
  }
  const auto put = [&](int c, int i, const Lanes& acc) {
    s[i * head_stride + c] = static_cast<float>(acc.combine()) * scale;
  };
  put(0, 0, a00);
  if constexpr (H > 1) put(0, 1, a01);
  if constexpr (K > 1) put(1, 0, a10);
  if constexpr (K > 1 && H > 1) put(1, 1, a11);
}

/// score_tile<L, K, h> for a runtime head count h in [1, H].
template <typename L, int K, int H>
inline void score_heads(int h, const typename L::Elem* const* ks,
                        const double* const* qs, std::size_t n, float scale,
                        float* s, std::int64_t head_stride) {
  if constexpr (H > 1) {
    if (h < H) {
      return score_heads<L, K, H - 1>(h, ks, qs, n, scale, s, head_stride);
    }
  }
  score_tile<L, K, H>(ks, qs, n, scale, s, head_stride);
}

/// Output 8-blocks [0, C) of H heads (head i at out + i * out_stride,
/// probabilities at p + i * p_stride) over keys [0, n_keys): the heads'
/// 8C columns stay in registers across every key. Each key's C value blocks
/// are converted once; then each head takes one mul by its probability and
/// one add, in key order — ref::attend's axpy arithmetic, element by
/// element.
template <typename L, int C, int H>
inline void mix_tile(const typename L::Elem* v0, std::int64_t stride,
                     std::int64_t n_keys, const float* p,
                     std::int64_t p_stride, float* out,
                     std::int64_t out_stride) {
  static_assert(C >= 1 && C <= kMixBlocks && H >= 1 && H <= kAttendHeads,
                "mix tile shape");
  const auto acc = [](__m256& o, __m256 prob, __m256 x) {
    o = _mm256_add_ps(o, _mm256_mul_ps(prob, x));
  };
  __m256 o00 = _mm256_setzero_ps(), o01 = o00, o02 = o00, o03 = o00;
  __m256 o10 = o00, o11 = o00, o12 = o00, o13 = o00;
  for (std::int64_t j = 0; j < n_keys; ++j) {
    const typename L::Elem* row = v0 + j * stride;
    const __m256 x0 = L::vec(row);
    __m256 x1 = x0, x2 = x0, x3 = x0;
    if constexpr (C > 1) x1 = L::vec(row + 8);
    if constexpr (C > 2) x2 = L::vec(row + 16);
    if constexpr (C > 3) x3 = L::vec(row + 24);
    const __m256 p0 = _mm256_broadcast_ss(p + j);
    acc(o00, p0, x0);
    if constexpr (C > 1) acc(o01, p0, x1);
    if constexpr (C > 2) acc(o02, p0, x2);
    if constexpr (C > 3) acc(o03, p0, x3);
    if constexpr (H > 1) {
      const __m256 p1 = _mm256_broadcast_ss(p + p_stride + j);
      acc(o10, p1, x0);
      if constexpr (C > 1) acc(o11, p1, x1);
      if constexpr (C > 2) acc(o12, p1, x2);
      if constexpr (C > 3) acc(o13, p1, x3);
    }
  }
  _mm256_storeu_ps(out, o00);
  if constexpr (C > 1) _mm256_storeu_ps(out + 8, o01);
  if constexpr (C > 2) _mm256_storeu_ps(out + 16, o02);
  if constexpr (C > 3) _mm256_storeu_ps(out + 24, o03);
  if constexpr (H > 1) {
    float* out1 = out + out_stride;
    _mm256_storeu_ps(out1, o10);
    if constexpr (C > 1) _mm256_storeu_ps(out1 + 8, o11);
    if constexpr (C > 2) _mm256_storeu_ps(out1 + 16, o12);
    if constexpr (C > 3) _mm256_storeu_ps(out1 + 24, o13);
  }
}

/// mix_tile<L, c, h> for runtime c <= C value blocks and h <= H heads.
template <typename L, int C, int H>
inline void mix_any(int c, int h, const typename L::Elem* v0,
                    std::int64_t stride, std::int64_t n_keys, const float* p,
                    std::int64_t p_stride, float* out,
                    std::int64_t out_stride) {
  if constexpr (C > 1) {
    if (c < C) {
      return mix_any<L, C - 1, H>(c, h, v0, stride, n_keys, p, p_stride, out,
                                  out_stride);
    }
  }
  if constexpr (H > 1) {
    if (h < H) {
      return mix_any<L, C, H - 1>(c, h, v0, stride, n_keys, p, p_stride, out,
                                  out_stride);
    }
  }
  mix_tile<L, C, H>(v0, stride, n_keys, p, p_stride, out, out_stride);
}

/// attend over one KV load trait, one GQA group at a time: the group's
/// query heads are widened to fp64 once, keys are scored in pairs against
/// up to kAttendHeads heads per tile, and the mix runs over 32-column
/// chunks of up to kAttendHeads heads, each chunk held in registers across
/// all keys; a head_dim % 8 tail is mixed per element in key order.
template <typename L>
void attend_t(const AttendShape& shape, const float* q, const KvView& k,
              const KvView& v, std::int64_t n_keys, float* scores,
              float* out) {
  using Elem = typename L::Elem;
  const std::int64_t hd = shape.head_dim;
  const auto n = static_cast<std::size_t>(hd);
  const std::int64_t group = shape.n_heads / shape.n_kv_heads;
  const std::int64_t padded = (hd + 7) & ~std::int64_t{7};
  thread_local std::vector<double> qd;
  const auto score = [&](const Elem* k_head, const float* q_g, float scale,
                         float* s) {
    qd.assign(static_cast<std::size_t>(group * padded), 0.0);
    for (std::int64_t h = 0; h < group; ++h) {
      std::copy(q_g + h * hd, q_g + (h + 1) * hd, qd.begin() + h * padded);
    }
    for (std::int64_t h0 = 0; h0 < group; h0 += kAttendHeads) {
      const int hh =
          static_cast<int>(std::min<std::int64_t>(kAttendHeads, group - h0));
      const double* qs[kAttendHeads] = {
          qd.data() + h0 * padded, qd.data() + (h0 + hh - 1) * padded};
      float* s_h = s + h0 * n_keys;
      std::int64_t j = 0;
      for (; j + 2 <= n_keys; j += 2) {
        const Elem* ks[2] = {k_head + j * k.row_stride,
                             k_head + (j + 1) * k.row_stride};
        score_heads<L, 2, kAttendHeads>(hh, ks, qs, n, scale, s_h + j,
                                        n_keys);
      }
      if (j < n_keys) {
        const Elem* ks[1] = {k_head + j * k.row_stride};
        score_heads<L, 1, kAttendHeads>(hh, ks, qs, n, scale, s_h + j,
                                        n_keys);
      }
    }
  };
  const auto mix = [&](const Elem* v_head, const float* p, float* out_g) {
    for (std::int64_t h0 = 0; h0 < group; h0 += kAttendHeads) {
      const int hh =
          static_cast<int>(std::min<std::int64_t>(kAttendHeads, group - h0));
      const float* p_h = p + h0 * n_keys;
      float* out_h = out_g + h0 * hd;
      const auto chunk = [&](std::int64_t c, int blocks) {
        mix_any<L, kMixBlocks, kAttendHeads>(blocks, hh, v_head + c,
                                             v.row_stride, n_keys, p_h,
                                             n_keys, out_h + c, hd);
      };
      std::int64_t c = 0;
      for (; c + 8 * kMixBlocks <= hd; c += 8 * kMixBlocks) {
        chunk(c, kMixBlocks);
      }
      if (const auto rest = static_cast<int>((hd - c) / 8); rest > 0) {
        chunk(c, rest);
        c += 8 * rest;
      }
      for (int i = 0; i < hh; ++i) {
        for (std::int64_t e = c; e < hd; ++e) {
          float sum = 0.0F;
          for (std::int64_t j = 0; j < n_keys; ++j) {
            sum += p_h[i * n_keys + j] *
                   L::scalar(v_head[j * v.row_stride + e]);
          }
          out_h[i * hd + e] = sum;
        }
      }
    }
  };
  attend_groups<Elem>(shape, q, k, v, n_keys, scores, out, score, mix);
}

}  // namespace

double dot(const float* a, const float* b, std::size_t n) {
  return dot_lanes<VLoadF32>(a, b, n);
}

double sum_squares(const float* a, std::size_t n) {
  return dot_lanes<VLoadF32>(a, a, n);
}

void axpy(float alpha, const float* x, float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 p0 = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    const __m256 p1 = _mm256_mul_ps(va, _mm256_loadu_ps(x + i + 8));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), p0));
    _mm256_storeu_ps(y + i + 8, _mm256_add_ps(_mm256_loadu_ps(y + i + 8), p1));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void scale(float* x, float alpha, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
    _mm256_storeu_ps(x + i + 8, _mm256_mul_ps(va, _mm256_loadu_ps(x + i + 8)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void scaled_sum(float a, const float* x, float b, const float* y, float* out,
                std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  const __m256 vb = _mm256_set1_ps(b);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 px = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    const __m256 py = _mm256_mul_ps(vb, _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(out + i, _mm256_add_ps(px, py));
  }
  for (; i < n; ++i) out[i] = a * x[i] + b * y[i];
}

void matmul_rows(const float* a, const float* b, float* c, std::int64_t i0,
                 std::int64_t i1, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = i0; i < i1; ++i) {
    float* c_row = c + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aval = a[i * k + kk];
      const float* b_row = b + kk * n;
      const __m256 vav = _mm256_set1_ps(aval);
      std::int64_t j = 0;
      for (; j + 8 <= n; j += 8) {
        const __m256 prod = _mm256_mul_ps(vav, _mm256_loadu_ps(b_row + j));
        _mm256_storeu_ps(c_row + j,
                         _mm256_add_ps(_mm256_loadu_ps(c_row + j), prod));
      }
      for (; j < n; ++j) c_row[j] += aval * b_row[j];
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
      const __m256 vav = _mm256_set1_ps(aval);
      std::int64_t j = j0;
      for (; j + 8 <= j1; j += 8) {
        const __m256 prod = _mm256_mul_ps(vav, _mm256_loadu_ps(b_row + j));
        _mm256_storeu_ps(c_row + j,
                         _mm256_add_ps(_mm256_loadu_ps(c_row + j), prod));
      }
      for (; j < j1; ++j) c_row[j] += aval * b_row[j];
    }
  }
}

void project_block(const WeightView& w, const double* xd,
                   const ProjectOut& out, std::int64_t r0, std::int64_t r1,
                   std::int64_t o0, std::int64_t o1) {
  switch (w.dtype) {
    case DType::kF32:
      return project_block_t<VLoadF32>(w, xd, out, r0, r1, o0, o1);
    case DType::kBF16:
      return project_block_t<VLoadBF16>(w, xd, out, r0, r1, o0, o1);
    case DType::kI8:
      return project_block_t<VLoadI8>(w, xd, out, r0, r1, o0, o1);
    case DType::kF16:
#if defined(CHIPALIGN_HAVE_F16C)
      return project_block_t<VLoadF16>(w, xd, out, r0, r1, o0, o1);
#else
      break;  // the dispatcher routes f16 to the generic backend
#endif
  }
}

void attend(const AttendShape& shape, const float* q, const KvView& k,
            const KvView& v, std::int64_t n_keys, float* scores, float* out) {
  if (k.dtype == DType::kF32) {
    return attend_t<VLoadF32>(shape, q, k, v, n_keys, scores, out);
  }
#if defined(CHIPALIGN_HAVE_F16C)
  attend_t<VLoadF16>(shape, q, k, v, n_keys, scores, out);
#endif  // without F16C the dispatcher routes fp16 KV to the generic backend
}

}  // namespace chipalign::kernels::avx2

#endif  // CHIPALIGN_HAVE_AVX2
