/// \file kernels.cpp
/// \brief Backend dispatch plus fixed-shape blocking / thread-pool fan-out.
///
/// Dispatch picks AVX2 when compiled in and supported by the CPU, else the
/// generic backend. Multiplies above one work threshold (kParallelMacs) fan
/// fixed-size row, column or (row, weight-row) blocks across a ThreadPool;
/// block geometry depends only on the problem shape (never thread count),
/// and each output element is written by exactly one task, so results are
/// bit-identical for any pool size — including the inline nested case
/// (kernels called from merge workers).

#include "tensor/kernels/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/kernels/backend.hpp"
#include "util/thread_pool.hpp"

namespace chipalign::kernels {

namespace {

bool g_force_generic = false;

bool cpu_has_avx2() {
#if defined(CHIPALIGN_HAVE_AVX2)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool use_avx2() {
  static const bool available = cpu_has_avx2();
  return available && !g_force_generic;
}

bool cpu_has_f16c() {
#if defined(CHIPALIGN_HAVE_F16C)
  return __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

/// The AVX2 f16 paths additionally need F16C (vcvtph2ps); without it fp16
/// weights and fp16 KV fall back to the generic backend (bitwise identical).
[[maybe_unused]] bool use_avx2_f16() {
  static const bool available = cpu_has_avx2() && cpu_has_f16c();
  return available && !g_force_generic;
}

/// Rows of output per parallel task (matmul).
constexpr std::int64_t kRowBlock = 16;
/// Output columns per parallel task (matmul_tn_accum).
constexpr std::int64_t kColBlock = 1024;
/// Activation rows and weight rows per parallel task (project). 24 rows is
/// a whole number of AVX2 register tiles; 32 weight rows give a 128-row
/// projection four tasks and a 512-row one sixteen. kParallelMacs
/// (kernels.hpp) is where a spin-dispatched fan-out, about a microsecond,
/// starts to win; see the measured table in DESIGN.md §4d.
constexpr std::int64_t kProjectRowBlock = 24;
constexpr std::int64_t kProjectOutBlock = 32;
/// Widened-activation doubles a thread keeps between project() calls.
constexpr std::size_t kKeepWidened = std::size_t{1} << 15;

/// Elements per SwiGLU task, and the element count from which swiglu()
/// fans out; see the measured table in DESIGN.md §4d.
constexpr std::int64_t kSwigluBlock = 256;
constexpr std::int64_t kSwigluParallel = 1024;

/// Splits [0, extent) into fixed `block`-sized chunks and runs body(lo, hi)
/// for each, across the global pool once `work` reaches `min_work`.
/// parallel_for itself degrades to inline execution on single-worker pools
/// and when called from a pool worker (nested case).
template <typename Body>
void blocked_parallel(std::int64_t extent, std::int64_t block,
                      std::int64_t work, std::int64_t min_work,
                      const Body& body) {
  const std::int64_t blocks = (extent + block - 1) / block;
  if (blocks <= 1 || work < min_work) {
    body(0, extent);
    return;
  }
  global_thread_pool().parallel_for(
      static_cast<std::size_t>(blocks), [&](std::size_t index) {
        const std::int64_t lo = static_cast<std::int64_t>(index) * block;
        body(lo, std::min(lo + block, extent));
      });
}

}  // namespace

bool simd_available() {
  static const bool available = cpu_has_avx2();
  return available;
}

const char* backend_name() { return use_avx2() ? "avx2" : "generic"; }

void force_generic(bool on) { g_force_generic = on; }

double dot(const float* a, const float* b, std::size_t n) {
#if defined(CHIPALIGN_HAVE_AVX2)
  if (use_avx2()) return avx2::dot(a, b, n);
#endif
  return generic::dot(a, b, n);
}

double norm(const float* a, std::size_t n) {
#if defined(CHIPALIGN_HAVE_AVX2)
  if (use_avx2()) return std::sqrt(avx2::sum_squares(a, n));
#endif
  return std::sqrt(generic::sum_squares(a, n));
}

void axpy(float alpha, const float* x, float* y, std::size_t n) {
#if defined(CHIPALIGN_HAVE_AVX2)
  if (use_avx2()) return avx2::axpy(alpha, x, y, n);
#endif
  generic::axpy(alpha, x, y, n);
}

void scale(float* x, float alpha, std::size_t n) {
#if defined(CHIPALIGN_HAVE_AVX2)
  if (use_avx2()) return avx2::scale(x, alpha, n);
#endif
  generic::scale(x, alpha, n);
}

void scaled_sum(float a, const float* x, float b, const float* y, float* out,
                std::size_t n) {
#if defined(CHIPALIGN_HAVE_AVX2)
  if (use_avx2()) return avx2::scaled_sum(a, x, b, y, out, n);
#endif
  generic::scaled_sum(a, x, b, y, out, n);
}

void softmax(float* x, std::size_t n) {
  const float max_logit = *std::max_element(x, x + n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::exp(x[i] - max_logit);
    sum += x[i];
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (std::size_t i = 0; i < n; ++i) x[i] *= inv;
}

float sigmoid(float x) { return 1.0F / (1.0F + std::exp(-x)); }

void swiglu(const float* gate, const float* up, float* out, std::size_t n) {
  const auto extent = static_cast<std::int64_t>(n);
  blocked_parallel(extent, kSwigluBlock, extent, kSwigluParallel,
                   [&](std::int64_t lo, std::int64_t hi) {
                     for (std::int64_t i = lo; i < hi; ++i) {
                       out[i] = gate[i] * sigmoid(gate[i]) * up[i];
                     }
                   });
}

void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n) {
  blocked_parallel(m, kRowBlock, m * k * n, kParallelMacs,
                   [&](std::int64_t i0, std::int64_t i1) {
#if defined(CHIPALIGN_HAVE_AVX2)
    if (use_avx2()) return avx2::matmul_rows(a, b, c, i0, i1, k, n);
#endif
    generic::matmul_rows(a, b, c, i0, i1, k, n);
  });
}

void matmul_tn_accum(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n) {
  blocked_parallel(n, kColBlock, m * k * n, kParallelMacs,
                   [&](std::int64_t j0, std::int64_t j1) {
#if defined(CHIPALIGN_HAVE_AVX2)
    if (use_avx2()) return avx2::matmul_tn_cols(a, b, c, m, k, n, j0, j1);
#endif
    generic::matmul_tn_cols(a, b, c, m, k, n, j0, j1);
  });
}

// -- projections --------------------------------------------------------------

namespace {

/// Activation rows [r0, r1) x weight rows [o0, o1) on the backend. `xd`
/// holds every activation row of the call widened to fp64.
void project_panel(const WeightView& w, const double* xd,
                   const ProjectOut& out, std::int64_t r0, std::int64_t r1,
                   std::int64_t o0, std::int64_t o1) {
  const double* panel = xd + r0 * w.cols;
#if defined(CHIPALIGN_HAVE_AVX2)
  if (w.dtype == DType::kF16 ? use_avx2_f16() : use_avx2()) {
    return avx2::project_block(w, panel, out, r0, r1, o0, o1);
  }
#endif
  generic::project_block(w, panel, out, r0, r1, o0, o1);
}

/// Where projection p's outputs land: [n_rows, w.rows] row-major, or
/// weight-row major [w.rows, n_rows] (matmul_nt_i8's transpose).
ProjectOut placement(const Projection& p, std::int64_t n_rows,
                     bool weight_major) {
  return weight_major ? ProjectOut{p.y, 1, n_rows}
                      : ProjectOut{p.y, p.w.rows, 1};
}

std::int64_t out_blocks(const WeightView& w) {
  return (w.rows + kProjectOutBlock - 1) / kProjectOutBlock;
}

/// Block `block` of view p: kProjectRowBlock activation rows x
/// kProjectOutBlock weight rows, weight-row blocks fastest.
void project_task(const Projection& p, const double* xd, std::int64_t block,
                  std::int64_t n_rows, bool weight_major) {
  const std::int64_t r0 = (block / out_blocks(p.w)) * kProjectRowBlock;
  const std::int64_t o0 = (block % out_blocks(p.w)) * kProjectOutBlock;
  project_panel(p.w, xd, placement(p, n_rows, weight_major), r0,
                std::min(r0 + kProjectRowBlock, n_rows), o0,
                std::min(o0 + kProjectOutBlock, p.w.rows));
}

/// project() with an optional transposed output placement. The calling
/// thread widens the activations to fp64 once, into its own buffer that
/// every panel of every view reads; weights are never widened in memory.
/// Each view keeps its own blocks of kProjectRowBlock rows x
/// kProjectOutBlock weight rows; once the group's MACs reach kParallelMacs
/// all of them fan out in one parallel_for. Geometry depends only on the
/// shapes.
void project_into(std::span<const Projection> group, const float* x,
                  std::int64_t n_rows, ThreadPool* pool, bool weight_major) {
  const std::int64_t cols = group.empty() ? 0 : group.front().w.cols;
  const std::int64_t row_blocks =
      (n_rows + kProjectRowBlock - 1) / kProjectRowBlock;
  std::int64_t macs = 0;
  std::int64_t blocks = 0;
  for (const Projection& p : group) {
    CA_CHECK(p.w.data != nullptr || p.w.rows * p.w.cols == 0,
             "project: weight view has no data");
    CA_CHECK(p.w.dtype != DType::kI8 || p.w.scales != nullptr,
             "project: int8 weights need per-row scales");
    CA_CHECK(p.w.cols == cols, "project: a group's views read "
                                   << cols << " columns, not " << p.w.cols);
    if (p.w.rows <= 0) continue;
    macs += n_rows * p.w.rows * cols;
    blocks += row_blocks * out_blocks(p.w);
  }
  if (n_rows <= 0 || blocks <= 0) return;
  thread_local std::vector<double> xd;
  xd.assign(x, x + n_rows * cols);
  // Named pointer, not `xd`: inside the fan-out lambda `xd` would name the
  // running worker's own (empty) thread_local.
  const double* widened = xd.data();
  if (macs < kParallelMacs || blocks <= 1) {
    for (const Projection& p : group) {
      if (p.w.rows <= 0) continue;
      for (std::int64_t r0 = 0; r0 < n_rows; r0 += kProjectRowBlock) {
        project_panel(p.w, widened, placement(p, n_rows, weight_major), r0,
                      std::min(r0 + kProjectRowBlock, n_rows), 0, p.w.rows);
      }
    }
  } else {
    // Task `index` is block `index` of the group's views laid end to end.
    const auto task = [&](std::size_t index) {
      auto block = static_cast<std::int64_t>(index);
      for (const Projection& p : group) {
        if (p.w.rows <= 0) continue;
        const std::int64_t own = row_blocks * out_blocks(p.w);
        if (block < own) {
          return project_task(p, widened, block, n_rows, weight_major);
        }
        block -= own;
      }
    };
    ThreadPool& chosen = pool != nullptr ? *pool : global_thread_pool();
    chosen.parallel_for(static_cast<std::size_t>(blocks), task);
  }
  // A serving call keeps its few KB for the next one; a whole-sequence
  // forward (thousands of rows) gives its megabytes back.
  if (xd.capacity() > kKeepWidened) std::vector<double>().swap(xd);
}

}  // namespace

void project(std::span<const Projection> group, const float* x,
             std::int64_t n_rows, ThreadPool* pool) {
  project_into(group, x, n_rows, pool, false);
}

void matmul_nt(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n) {
  project(WeightView{DType::kF32, b, nullptr, n, k}, a, c, m);
}

void matmul_nt_i8(const std::int8_t* a, const float* a_scales, const float* b,
                  float* c, std::int64_t m, std::int64_t k, std::int64_t n) {
  const Projection weights{WeightView{DType::kI8, a, a_scales, m, k}, c};
  project_into(std::span<const Projection>(&weights, 1), b, n, nullptr, true);
}

// -- attention ----------------------------------------------------------------

void attend(const AttendShape& shape, const float* q, const KvView& k,
            const KvView& v, std::int64_t n_keys, float* scores, float* out) {
  CA_CHECK(k.dtype == v.dtype &&
               (k.dtype == DType::kF32 || k.dtype == DType::kF16),
           "attend: K and V views must share an F32 or F16 dtype");
  CA_CHECK(shape.n_kv_heads > 0 && shape.n_heads % shape.n_kv_heads == 0,
           "attend: " << shape.n_heads << " query heads over "
                      << shape.n_kv_heads << " KV heads");
  CA_CHECK(n_keys > 0, "attend over no keys");
#if defined(CHIPALIGN_HAVE_AVX2)
  if (k.dtype == DType::kF16 ? use_avx2_f16() : use_avx2()) {
    return avx2::attend(shape, q, k, v, n_keys, scores, out);
  }
#endif
  generic::attend(shape, q, k, v, n_keys, scores, out);
}

}  // namespace chipalign::kernels
