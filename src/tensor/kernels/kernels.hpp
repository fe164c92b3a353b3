#pragma once
/// \file kernels.hpp
/// \brief SIMD-friendly tensor kernels with a deterministic-reduction contract.
///
/// This layer provides the hot inner loops behind tensor_ops: dot, norm,
/// axpy, scale, the fused scaled_sum (a*x + b*y — the SLERP combine),
/// softmax, blocked matmul variants, and the projection (project()),
/// attention (attend()) and SwiGLU (swiglu()) entries behind every serving
/// step. Two backends implement the same bit-level contract:
///
///   - generic: unrolled multi-accumulator scalar code the compiler can
///     auto-vectorize; always compiled.
///   - avx2: AVX2+FMA intrinsics; compiled when the toolchain supports
///     -mavx2 -mfma (CMake feature check) and selected at runtime when the
///     CPU reports both features.
///
/// ## Deterministic-reduction contract
///
/// Every reduction (dot, norm, the inner products of matmul_nt) accumulates
/// float products into kLanes = 8 double-precision lanes keyed by element
/// index: element i of an 8-aligned block feeds lane i mod 8, and tail
/// element i feeds lane i - (n & ~7). Lanes are combined in the fixed
/// pairwise tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). Because the product
/// of two fp32 values is exact in fp64 (24+24 significand bits < 53), fused
/// and unfused multiply-add produce identical bits, so the AVX2 FMA path and
/// the generic mul-then-add path agree bit-for-bit. Elementwise kernels do
/// per-element mul/add with FP contraction disabled. Matmul accumulates in a
/// fixed (i, k, j) loop order that cache blocking and row/column
/// parallelization both preserve. Consequences:
///
///   - results are bit-identical run-to-run, across thread counts, and
///     across backends (kernels::X == kernels::ref::X, bitwise);
///   - merge_streaming and merge_checkpoints stay byte-identical (the PR 1
///     invariant) no matter which backend executes them;
///   - there are no value-dependent fast paths, so NaN/Inf propagate exactly
///     as IEEE arithmetic dictates.
///
/// kernels::ref is the executable specification: straight-line scalar code
/// whose summation shape *defines* the contract. Property tests assert
/// bitwise equality of every backend against it on random shapes.
///
/// Large multiplies parallelize across a ThreadPool in fixed-size row
/// (matmul), column (matmul_tn_accum) or (row, weight-row) (project) blocks,
/// and a large swiglu in fixed element blocks; block geometry depends only
/// on the problem shape, never on the thread count.
///
/// ## Quantized weights and fp16 KV
///
/// project() reads sub-fp32 weight storage and attend() an fp16 KV cache,
/// dequantizing on the fly. Every stored element converts *exactly* to fp32
/// (f16 and bf16 are fp32 subsets; int8 codes are small integers) before
/// the same arithmetic, so the contract above — bitwise run-to-run,
/// thread-count and backend invariance — holds unchanged. The int8 per-row
/// scale is factored out of the reduction and applied once per output in
/// fp64 (y[o] = float(scale[o] * dot), with the dot's lanes accumulating
/// exact double(q)*double(x) products), so it never perturbs lane order.
/// The AVX2 f16 paths additionally require F16C (probed at compile time,
/// checked at runtime) and fall back to the generic backend without it.

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/dtype.hpp"

namespace chipalign {
class ThreadPool;
}  // namespace chipalign

namespace chipalign::kernels {

/// Number of reduction lanes fixed by the contract (AVX2 fp32 width).
inline constexpr std::size_t kLanes = 8;

/// Scalar multiply-accumulates at which matmul, matmul_tn_accum and
/// project start fanning fixed blocks across a ThreadPool (64K: one row
/// through a 512 x 128 weight, ~5-10 us serial). Below it they run inline.
inline constexpr std::int64_t kParallelMacs = std::int64_t{1} << 16;

/// True when the AVX2 backend is compiled in and this CPU supports AVX2+FMA.
bool simd_available();

/// Name of the backend dispatch currently selects: "avx2" or "generic".
const char* backend_name();

/// Test/bench hook: when true, dispatch ignores AVX2 and runs the generic
/// backend. Not thread-safe; flip only around single-threaded test sections.
void force_generic(bool on);

// -- reductions (8-lane double accumulation, fixed combine tree) --------------

/// Sum of elementwise products, accumulated per the reduction contract.
double dot(const float* a, const float* b, std::size_t n);

/// Euclidean norm: sqrt of the contract-reduced sum of squares.
double norm(const float* a, std::size_t n);

// -- elementwise kernels (per-element mul/add, no contraction) ----------------

/// y[i] += alpha * x[i].
void axpy(float alpha, const float* x, float* y, std::size_t n);

/// x[i] *= alpha.
void scale(float* x, float alpha, std::size_t n);

/// out[i] = a*x[i] + b*y[i] — the fused SLERP/LERP combine. One pass over
/// three streams instead of the scale+scale+add sequence it replaces.
void scaled_sum(float a, const float* x, float b, const float* y, float* out,
                std::size_t n);

/// In place, n > 0: x[i] = exp(x[i] - max) * float(1 / sum), the sum in
/// fp64 in index order. Scalar, one copy for every backend and ref.
void softmax(float* x, std::size_t n);

/// 1 / (1 + exp(-x)) in fp32: the one sigmoid, shared by swiglu() and the
/// training backward pass.
float sigmoid(float x);

/// out[i] = gate[i] * sigmoid(gate[i]) * up[i], the SwiGLU combine; `out`
/// may alias `gate` or `up`. Scalar per element, one copy for every backend
/// and ref; from a measured element count on (DESIGN.md §4d) fixed blocks
/// fan across the global pool, and since every output is one element's
/// arithmetic the bits are the same for any split or pool size.
void swiglu(const float* gate, const float* up, float* out, std::size_t n);

// -- blocked matmul kernels ---------------------------------------------------

/// c[m,n] += a[m,k] @ b[k,n], row-major, fp32 accumulation in (i, k, j)
/// order. No value-dependent skips: NaN/Inf in either operand propagate.
void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n);

/// c[m,n] = a[m,k] @ b[n,k]^T: c[i,j] is the contract-reduced dot of row i
/// of a and row j of b (fp64 lanes, like dot()). project() with b as the
/// fp32 weight matrix and a as its m activation rows.
void matmul_nt(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n);

/// c[k,n] += a[m,k]^T @ b[m,n], fp32 accumulation in (i, kk, j) order.
void matmul_tn_accum(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n);

// -- projections (the token-decode / serving hot path) ------------------------

/// A row-major [rows, cols] weight matrix in one storage dtype: fp32
/// (`data` is float), fp16 / bf16 bit patterns (std::uint16_t) or int8
/// codes (std::int8_t) with one fp32 scale per row in `scales`.
struct WeightView {
  DType dtype = DType::kF32;
  const void* data = nullptr;
  const float* scales = nullptr;  ///< [rows], kI8 only
  std::int64_t rows = 0;
  std::int64_t cols = 0;
};

/// One weight matrix of a projection group and where its outputs land:
/// y[r * w.rows + o] = dot(W row o, x row r).
struct Projection {
  WeightView w;
  float* y = nullptr;
};

/// Every projection of `group` over the same activations x, row-major
/// [n_rows, cols] (every view has `cols` columns): y[r * w.rows + o] =
/// dot(W row o, x row r) for r in [0, n_rows), the contract-reduced (8-lane
/// fp64, fixed pairwise tree) inner product, applied to the exactly
/// dequantized weight row; int8 outputs are float(double(scales[o]) * dot).
/// One row is a matvec, B rows a batched decode step, T rows a verify block
/// — every output has the same bits whatever the row count, the group, the
/// tiling or the backend, so a one-row call == kernels::ref::matvec (and
/// the _f16 / _bf16 / _i8 variants) bit-for-bit.
///
/// x is widened to fp64 once for the whole group. Each view keeps its own
/// (row, weight-row) block geometry; from kParallelMacs (the group's total)
/// on, the blocks of every view fan across `pool` (nullptr selects the
/// global pool) in ONE parallel_for. Each output is written by exactly one
/// task, so the result is identical for any pool size, including the
/// inline nested case inside a pool worker.
void project(std::span<const Projection> group, const float* x,
             std::int64_t n_rows, ThreadPool* pool = nullptr);

/// project() of a single weight matrix: a group of one.
inline void project(const WeightView& w, const float* x, float* y,
                    std::int64_t n_rows, ThreadPool* pool = nullptr) {
  const Projection one{w, y};
  project(std::span<const Projection>(&one, 1), x, n_rows, pool);
}

/// matmul_nt() with int8 weights as the A operand: c[i,j] =
/// float(double(a_scales[i]) * ref::dot_i8(a row i, b row j)), i.e. project()
/// over the [m, k] int8 weights and n activation rows, with the output laid
/// out [m, n] (weight-row major) rather than project()'s [n, m].
void matmul_nt_i8(const std::int8_t* a, const float* a_scales, const float* b,
                  float* c, std::int64_t m, std::int64_t k, std::int64_t n);

// -- attention (the other serving hot path) -----------------------------------

/// One KV-cache layer in its storage dtype, fp32 floats or fp16 bits: key
/// j's row starts at element j * row_stride, KV head g at g * head_dim.
struct KvView {
  DType dtype = DType::kF32;
  const void* data = nullptr;
  std::int64_t row_stride = 0;
};

/// q and out are [n_heads * head_dim]; query head h reads KV head
/// h / (n_heads / n_kv_heads).
struct AttendShape {
  std::int64_t n_heads = 0;
  std::int64_t n_kv_heads = 0;
  std::int64_t head_dim = 0;
};

/// Causal attention of one query row over keys [0, n_keys), `scores`
/// [>= (n_heads / n_kv_heads) * n_keys] as scratch. Per query head h, in
/// order:
///   scores[j] = float(contract dot(q_h, K_j)) * (1 / sqrt(head_dim))
///   softmax(scores[0, n_keys))
///   out_h[i]  = ((0 + p_0 * V_0[i]) + p_1 * V_1[i]) + ..., in key order
/// Backends run it one KV head at a time over the query heads that share
/// it (scores [group, n_keys]) and vectorize over head_dim and heads, never
/// across keys within one sum, so every backend equals ref::attend
/// bit-for-bit. The views' dtype (k and v share it) picks the backend once
/// per call; fp16 KV without F16C runs generic.
void attend(const AttendShape& shape, const float* q, const KvView& k,
            const KvView& v, std::int64_t n_keys, float* scores, float* out);

/// Retained scalar reference: the executable definition of the contract.
/// Every kernels::X above must equal kernels::ref::X bit-for-bit; the
/// ref::matvec* and ref::matmul_nt* variants specify project().
namespace ref {
double dot(const float* a, const float* b, std::size_t n);
double norm(const float* a, std::size_t n);
void axpy(float alpha, const float* x, float* y, std::size_t n);
void scale(float* x, float alpha, std::size_t n);
void scaled_sum(float a, const float* x, float b, const float* y, float* out,
                std::size_t n);
void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n);
void matmul_nt(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n);
void matmul_tn_accum(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n);
void matvec(const float* w, const float* x, float* y, std::int64_t out_dim,
            std::int64_t in_dim);
double dot_f16(const std::uint16_t* a, const float* b, std::size_t n);
double dot_bf16(const std::uint16_t* a, const float* b, std::size_t n);
double dot_i8(const std::int8_t* q, const float* x, std::size_t n);
void matvec_f16(const std::uint16_t* w, const float* x, float* y,
                std::int64_t out_dim, std::int64_t in_dim);
void matvec_bf16(const std::uint16_t* w, const float* x, float* y,
                 std::int64_t out_dim, std::int64_t in_dim);
void matvec_i8(const std::int8_t* w, const float* scales, const float* x,
               float* y, std::int64_t out_dim, std::int64_t in_dim);
void matmul_nt_f16(const std::uint16_t* a, const float* b, float* c,
                   std::int64_t m, std::int64_t k, std::int64_t n);
void matmul_nt_i8(const std::int8_t* a, const float* a_scales, const float* b,
                  float* c, std::int64_t m, std::int64_t k, std::int64_t n);
void attend(const AttendShape& shape, const float* q, const KvView& k,
            const KvView& v, std::int64_t n_keys, float* scores, float* out);
void swiglu(const float* gate, const float* up, float* out, std::size_t n);
}  // namespace ref

}  // namespace chipalign::kernels
