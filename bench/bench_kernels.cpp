// bench_kernels — tensor-kernel layer vs the pre-kernel scalar baselines.
//
// Each case times a faithful in-TU copy of the seed implementation (the
// scalar loops tensor_ops.cpp shipped with before the kernel layer existed,
// compiled with the same default flags) against the dispatched kernel, and
// cross-checks the kernel result bit-for-bit against kernels::ref on the
// same buffers. One JSON line per case goes to stdout, so the numbers are
// machine-readable for CI trending.
//
//   bench_kernels           full sizes, report only
//   bench_kernels --gate    full sizes, enforce the speedup floors (exit 1
//                           on miss) — the acceptance mode run_benches.sh uses
//   bench_kernels --quick   tiny sizes, no gate; exercises the same code
//                           paths cheaply (CI smoke / sanitizer builds)
//
// A project_probe line per (weight dtype, served shape, row count) reports
// microseconds per activation row and GFLOP/s of kernels::project, and one
// per (dtype, row count) the q/k/v group as one grouped call vs three
// separate ones; an attend_probe line per (KV dtype, key count) the
// one-thread GFLOP/s of kernels::attend at perfbench's head shape; an
// attend_share line the share of a 16-row forward() at position 200 spent
// in attention (report only: the softmax's expf, one per key per query
// head, now bounds attend()); and a
// dispatch_probe line the p50 / p90 microseconds of an empty
// ThreadPool::parallel_for over 4 indices on the global pool. None is
// gated; attend results are checked against kernels::ref like every case.
//
// Gate floors: dot, matmul_nt and the fused scaled_sum (vs the seed's
// scale+scale+add composition) must be >= 3x; axpy must be >= 1.15x. axpy
// at 16M elements is DRAM-bandwidth-bound — it streams 2 reads + 1 write
// with a single multiply-add per element, so no amount of vectorization can
// reach 3x once the scalar loop already saturates memory; see
// DESIGN.md ("Roofline note").

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "nn/decode.hpp"
#include "nn/transformer.hpp"
#include "tensor/half.hpp"
#include "tensor/kernels/kernels.hpp"
#include "text/tokenizer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace chipalign;

namespace {

// -- seed baselines (verbatim from the pre-kernel tensor_ops.cpp) ------------

double seed_dot(const float* a, const float* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

void seed_axpy(float alpha, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void seed_scale(float* x, float alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

/// The seed SLERP combine: out = a*x + b*y composed from the seed's
/// tensor-level ops, ops::add(ops::scaled(x, a), ops::scaled(y, b)). Each
/// scaled() copies its input tensor and scales in place, and add() copies
/// its left operand before the axpy — three full-size allocating copies plus
/// three arithmetic passes, which is exactly what every merger paid per
/// tensor before the fused kernel.
void seed_composed_scaled_sum(float a, const float* x, float b, const float* y,
                              float* out, std::size_t n) {
  std::vector<float> t1(x, x + n);  // ops::scaled(x, a)
  seed_scale(t1.data(), a, n);
  std::vector<float> t2(y, y + n);  // ops::scaled(y, b)
  seed_scale(t2.data(), b, n);
  std::memcpy(out, t1.data(), n * sizeof(float));  // ops::add copies its lhs
  seed_axpy(1.0F, t2.data(), out, n);
}

void seed_matmul_nt(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a_row[kk]) * static_cast<double>(b_row[kk]);
      }
      c_row[j] = static_cast<float>(acc);
    }
  }
}

// -- harness -----------------------------------------------------------------

struct Sizes {
  std::size_t vec = std::size_t{1} << 24;  // 16.7M elements
  std::int64_t nt_m = 8192;
  std::int64_t nt_k = 2048;
  std::int64_t nt_n = 64;
  int vec_reps = 5;
  int mat_reps = 3;
};

Sizes quick_sizes() {
  Sizes s;
  s.vec = std::size_t{1} << 16;
  s.nt_m = 64;
  s.nt_k = 96;
  s.nt_n = 17;
  s.vec_reps = 2;
  s.mat_reps = 1;
  return s;
}

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Best-of-reps wall time of fn() in milliseconds.
template <typename Fn>
double best_ms(int reps, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.milliseconds());
  }
  return best;
}

bool g_all_exact = true;

void check_exact(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr,
                 "BIT-EXACTNESS FAILURE: %s diverges from kernels::ref\n",
                 what);
    g_all_exact = false;
  }
}

struct CaseResult {
  std::string name;
  double seed_ms = 0.0;
  double kernel_ms = 0.0;
  double speedup() const { return kernel_ms > 0.0 ? seed_ms / kernel_ms : 0.0; }
};

void print_case(const CaseResult& r, std::size_t elems) {
  std::printf(
      "{\"bench\":\"%s\",\"elements\":%zu,\"backend\":\"%s\",\"seed_ms\":%.3f,"
      "\"kernel_ms\":%.3f,\"speedup\":%.2f}\n",
      r.name.c_str(), elems, kernels::backend_name(), r.seed_ms, r.kernel_ms,
      r.speedup());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
  }
  const Sizes sizes = quick ? quick_sizes() : Sizes{};

  Rng rng(0xBE7C4ULL);
  const std::vector<float> x = random_vec(sizes.vec, rng);
  const std::vector<float> y = random_vec(sizes.vec, rng);
  std::vector<float> work(sizes.vec);
  std::vector<float> work2(sizes.vec);

  std::printf("{\"backend\":\"%s\",\"simd_available\":%s}\n",
              kernels::backend_name(), kernels::simd_available() ? "true"
                  : "false");

  // dot ----------------------------------------------------------------------
  CaseResult dot_case{"dot"};
  double seed_val = 0.0;
  double kernel_val = 0.0;
  dot_case.seed_ms = best_ms(sizes.vec_reps, [&] {
    seed_val = seed_dot(x.data(), y.data(), sizes.vec);
  });
  dot_case.kernel_ms = best_ms(sizes.vec_reps, [&] {
    kernel_val = kernels::dot(x.data(), y.data(), sizes.vec);
  });
  check_exact(kernel_val == kernels::ref::dot(x.data(), y.data(), sizes.vec),
              "dot");
  // The seed value differs only by summation order; sanity-check closeness.
  check_exact(std::abs(kernel_val - seed_val) <
                  1e-6 * (1.0 + std::abs(seed_val)),
              "dot vs seed (tolerance)");
  print_case(dot_case, sizes.vec);

  // norm ---------------------------------------------------------------------
  CaseResult norm_case{"norm"};
  norm_case.seed_ms = best_ms(sizes.vec_reps, [&] {
    seed_val = std::sqrt(seed_dot(x.data(), x.data(), sizes.vec));
  });
  norm_case.kernel_ms = best_ms(sizes.vec_reps, [&] {
    kernel_val = kernels::norm(x.data(), sizes.vec);
  });
  check_exact(kernel_val == kernels::ref::norm(x.data(), sizes.vec), "norm");
  print_case(norm_case, sizes.vec);

  // axpy ---------------------------------------------------------------------
  CaseResult axpy_case{"axpy"};
  axpy_case.seed_ms = best_ms(sizes.vec_reps, [&] {
    std::memcpy(work.data(), y.data(), sizes.vec * sizeof(float));
    seed_axpy(0.75F, x.data(), work.data(), sizes.vec);
  });
  axpy_case.kernel_ms = best_ms(sizes.vec_reps, [&] {
    std::memcpy(work2.data(), y.data(), sizes.vec * sizeof(float));
    kernels::axpy(0.75F, x.data(), work2.data(), sizes.vec);
  });
  std::memcpy(work.data(), y.data(), sizes.vec * sizeof(float));
  kernels::ref::axpy(0.75F, x.data(), work.data(), sizes.vec);
  check_exact(std::memcmp(work.data(), work2.data(),
                          sizes.vec * sizeof(float)) == 0,
              "axpy");
  print_case(axpy_case, sizes.vec);

  // fused scaled_sum vs composed seed path -----------------------------------
  CaseResult fused_case{"scaled_sum_fused_vs_composed"};
  fused_case.seed_ms = best_ms(sizes.vec_reps, [&] {
    seed_composed_scaled_sum(0.6F, x.data(), 0.4F, y.data(), work.data(),
                             sizes.vec);
  });
  fused_case.kernel_ms = best_ms(sizes.vec_reps, [&] {
    kernels::scaled_sum(0.6F, x.data(), 0.4F, y.data(), work2.data(),
                        sizes.vec);
  });
  kernels::ref::scaled_sum(0.6F, x.data(), 0.4F, y.data(), work.data(),
                           sizes.vec);
  check_exact(std::memcmp(work.data(), work2.data(),
                          sizes.vec * sizeof(float)) == 0,
              "scaled_sum");
  print_case(fused_case, sizes.vec);

  // matmul_nt (linear-layer shape: activations [m,k] x weights [n,k]) --------
  const std::size_t nt_a = static_cast<std::size_t>(sizes.nt_m * sizes.nt_k);
  const std::size_t nt_b = static_cast<std::size_t>(sizes.nt_n * sizes.nt_k);
  const std::size_t nt_c = static_cast<std::size_t>(sizes.nt_m * sizes.nt_n);
  const std::vector<float> ma = random_vec(nt_a, rng);
  const std::vector<float> mb = random_vec(nt_b, rng);
  std::vector<float> mc_seed(nt_c);
  std::vector<float> mc_kernel(nt_c);
  std::vector<float> mc_ref(nt_c);

  CaseResult nt_case{"matmul_nt"};
  nt_case.seed_ms = best_ms(sizes.mat_reps, [&] {
    seed_matmul_nt(ma.data(), mb.data(), mc_seed.data(), sizes.nt_m,
                   sizes.nt_k, sizes.nt_n);
  });
  nt_case.kernel_ms = best_ms(sizes.mat_reps, [&] {
    kernels::matmul_nt(ma.data(), mb.data(), mc_kernel.data(), sizes.nt_m,
                       sizes.nt_k, sizes.nt_n);
  });
  kernels::ref::matmul_nt(ma.data(), mb.data(), mc_ref.data(), sizes.nt_m,
                          sizes.nt_k, sizes.nt_n);
  check_exact(std::memcmp(mc_kernel.data(), mc_ref.data(),
                          nt_c * sizeof(float)) == 0,
              "matmul_nt");
  print_case(nt_case, nt_a);

  // project() per-row probe (ungated) ---------------------------------------
  // The served projection shapes [out, in] at 1, 5, 8 and 16 activation
  // rows, fp32 and int8 weights: microseconds per row and achieved GFLOP/s
  // show what the register tile buys as rows share a weight pass.
  struct ProbeShape {
    std::int64_t out, in;
  };
  const ProbeShape probe_shapes[] = {{128, 128}, {512, 128}, {128, 512},
                                     {100, 128}};
  for (const ProbeShape& shape : probe_shapes) {
    const auto count = static_cast<std::size_t>(shape.out * shape.in);
    const std::vector<float> pw = random_vec(count, rng);
    std::vector<std::int8_t> pq(count);
    for (std::size_t i = 0; i < count; ++i) {
      pq[i] = static_cast<std::int8_t>(std::lround(pw[i] * 127.0F));
    }
    const std::vector<float> pscales(static_cast<std::size_t>(shape.out),
                                     1.0F / 127.0F);
    const kernels::WeightView views[] = {
        {DType::kF32, pw.data(), nullptr, shape.out, shape.in},
        {DType::kI8, pq.data(), pscales.data(), shape.out, shape.in}};
    for (const kernels::WeightView& view : views) {
      for (const std::int64_t rows : {1, 5, 8, 16}) {
        const std::vector<float> px =
            random_vec(static_cast<std::size_t>(rows * shape.in), rng);
        std::vector<float> py(static_cast<std::size_t>(rows * shape.out));
        const std::int64_t macs = rows * shape.out * shape.in;
        const std::int64_t calls =
            std::max<std::int64_t>(1, (quick ? 1 << 16 : 1 << 23) / macs);
        const double ms = best_ms(sizes.mat_reps + 2, [&] {
          for (std::int64_t c = 0; c < calls; ++c) {
            kernels::project(view, px.data(), py.data(), rows);
          }
        });
        const double call_us = ms * 1e3 / static_cast<double>(calls);
        std::printf(
            "{\"bench\":\"project_probe\",\"dtype\":\"%s\",\"out\":%lld,"
            "\"in\":%lld,\"rows\":%lld,\"us_per_row\":%.3f,"
            "\"gflops\":%.2f}\n",
            dtype_name(view.dtype).c_str(), static_cast<long long>(shape.out),
            static_cast<long long>(shape.in), static_cast<long long>(rows),
            call_us / static_cast<double>(rows),
            2.0 * static_cast<double>(macs) * 1e-3 / call_us);
      }
    }
  }

  // Grouped vs separate q/k/v projections (ungated) ------------------------
  // perfbench's q/k/v weights (128, 64 and 64 rows over d 128) at 8 and 16
  // activation rows, fp32 and int8: three project() calls — each of the
  // 64-row ones past kParallelMacs fans out on its own — against one
  // project() over the group, which widens the rows once and fans all
  // blocks out in one parallel_for. Best of alternating repetitions.
  {
    const std::int64_t in = 128;
    const std::int64_t outs[] = {128, 64, 64};
    std::vector<std::vector<float>> fw;
    std::vector<std::vector<std::int8_t>> qw;
    for (const std::int64_t out : outs) {
      fw.push_back(random_vec(static_cast<std::size_t>(out * in), rng));
      std::vector<std::int8_t>& q = qw.emplace_back(fw.back().size());
      for (std::size_t i = 0; i < q.size(); ++i) {
        q[i] = static_cast<std::int8_t>(std::lround(fw.back()[i] * 127.0F));
      }
    }
    const std::vector<float> qscales(128, 1.0F / 127.0F);
    for (const DType dtype : {DType::kF32, DType::kI8}) {
      for (const std::int64_t rows : {8, 16}) {
        const std::vector<float> px =
            random_vec(static_cast<std::size_t>(rows * in), rng);
        std::vector<std::vector<float>> ys;
        std::vector<kernels::Projection> group;
        for (std::size_t v = 0; v < 3; ++v) {
          ys.emplace_back(static_cast<std::size_t>(rows * outs[v]));
          group.push_back(
              {dtype == DType::kI8
                   ? kernels::WeightView{dtype, qw[v].data(), qscales.data(),
                                         outs[v], in}
                   : kernels::WeightView{dtype, fw[v].data(), nullptr,
                                         outs[v], in},
               ys[v].data()});
        }
        const std::int64_t calls = quick ? 16 : 4096;
        double separate = 1e300;
        double grouped = 1e300;
        for (int rep = 0; rep < sizes.mat_reps + 4; ++rep) {
          separate = std::min(separate, best_ms(1, [&] {
            for (std::int64_t c = 0; c < calls; ++c) {
              for (const kernels::Projection& p : group) {
                kernels::project(p.w, px.data(), p.y, rows);
              }
            }
          }));
          grouped = std::min(grouped, best_ms(1, [&] {
            for (std::int64_t c = 0; c < calls; ++c) {
              kernels::project(group, px.data(), rows);
            }
          }));
        }
        const double scale = 1e3 / static_cast<double>(calls);
        std::printf(
            "{\"bench\":\"project_probe\",\"dtype\":\"%s\",\"group\":"
            "\"qkv\",\"outs\":\"128+64+64\",\"in\":%lld,\"rows\":%lld,"
            "\"separate_us\":%.3f,\"grouped_us\":%.3f,\"speedup\":%.2f}\n",
            dtype_name(dtype).c_str(), static_cast<long long>(in),
            static_cast<long long>(rows), separate * scale, grouped * scale,
            separate / grouped);
      }
    }
  }

  // attend() probe (ungated) ------------------------------------------------
  // perfbench's head shape (head_dim 32, 4 query heads over 2 KV heads) on
  // one thread. GFLOP/s counts the score dots and the value mix, 4 *
  // n_heads * head_dim flops per key; the softmax is not counted.
  const kernels::AttendShape heads{4, 2, 32};
  const std::int64_t kv_dim = heads.n_kv_heads * heads.head_dim;
  const std::int64_t att_width = heads.n_heads * heads.head_dim;
  {
    const std::int64_t max_keys = 400;
    const auto cache = static_cast<std::size_t>(max_keys * kv_dim);
    const std::vector<float> kf = random_vec(cache, rng);
    const std::vector<float> vf = random_vec(cache, rng);
    std::vector<std::uint16_t> kh(cache);
    std::vector<std::uint16_t> vh(cache);
    for (std::size_t i = 0; i < cache; ++i) {
      kh[i] = f32_to_f16_bits(kf[i]);
      vh[i] = f32_to_f16_bits(vf[i]);
    }
    const std::vector<float> q =
        random_vec(static_cast<std::size_t>(att_width), rng);
    std::vector<float> scores(
        static_cast<std::size_t>(heads.n_heads / heads.n_kv_heads * max_keys));
    std::vector<float> out(static_cast<std::size_t>(att_width));
    std::vector<float> expected(out.size());
    for (const DType dtype : {DType::kF32, DType::kF16}) {
      const bool half = dtype == DType::kF16;
      const kernels::KvView k{dtype, half ? static_cast<const void*>(kh.data())
                                          : kf.data(),
                              kv_dim};
      const kernels::KvView v{dtype, half ? static_cast<const void*>(vh.data())
                                          : vf.data(),
                              kv_dim};
      for (const std::int64_t n_keys : {100, 200, 400}) {
        const std::int64_t flops = 4 * att_width * n_keys;
        const std::int64_t calls =
            std::max<std::int64_t>(1, (quick ? 1 << 18 : 1 << 26) / flops);
        const double ms = best_ms(sizes.mat_reps + 2, [&] {
          for (std::int64_t c = 0; c < calls; ++c) {
            kernels::attend(heads, q.data(), k, v, n_keys, scores.data(),
                            out.data());
          }
        });
        kernels::ref::attend(heads, q.data(), k, v, n_keys, scores.data(),
                             expected.data());
        check_exact(std::memcmp(out.data(), expected.data(),
                                out.size() * sizeof(float)) == 0,
                    "attend");
        const double call_us = ms * 1e3 / static_cast<double>(calls);
        std::printf(
            "{\"bench\":\"attend_probe\",\"kv_dtype\":\"%s\","
            "\"head_dim\":%lld,\"heads\":%lld,\"kv_heads\":%lld,"
            "\"keys\":%lld,\"us_per_call\":%.3f,\"gflops\":%.2f}\n",
            dtype_name(dtype).c_str(), static_cast<long long>(heads.head_dim),
            static_cast<long long>(heads.n_heads),
            static_cast<long long>(heads.n_kv_heads),
            static_cast<long long>(n_keys), call_us,
            static_cast<double>(flops) * 1e-3 / call_us);
      }
    }
  }

  // Attention's share of a served step (ungated) ----------------------------
  // perfbench's model (d 128, 4 layers, 4/2 heads, d_ff 512, fp32 weights
  // and KV): 16 sessions, one token each, at position 200, through
  // forward() with the projections fanned across the global pool and
  // attention on the caller, as a serving step runs them. attend_ms re-runs
  // that step's 16 x 4 attend() calls on the same caches.
  {
    ModelConfig config;
    config.name = "bench-kernels-step";
    config.vocab_size = tokenizer().vocab_size();
    config.d_model = 128;
    config.n_layers = 4;
    config.n_heads = heads.n_heads;
    config.n_kv_heads = heads.n_kv_heads;
    config.d_ff = 512;
    config.max_seq_len = 1024;
    Rng model_rng(0xA77E4DULL);
    const TransformerModel model(config, model_rng);
    const std::int64_t rows = 16;
    const std::int64_t pos = 200;
    std::vector<SessionState> states;
    states.reserve(static_cast<std::size_t>(rows));
    std::vector<TokenId> tokens;
    std::vector<ForwardGroup> groups;
    for (std::int64_t r = 0; r < rows; ++r) {
      SessionState& state = states.emplace_back(config, pos + 1);
      for (std::int64_t l = 0; l < config.n_layers; ++l) {
        for (std::int64_t p = 0; p < pos; ++p) {
          const auto row = random_vec(static_cast<std::size_t>(kv_dim), rng);
          state.store_k_row(l, p, row.data());
          state.store_v_row(l, p, row.data());
        }
      }
      state.position = pos;
      tokens.push_back(static_cast<TokenId>(r + 1));
    }
    for (std::int64_t r = 0; r < rows; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      groups.push_back(
          {&states[ri], std::span<const TokenId>(&tokens[ri], 1)});
    }
    DecodeScratch scratch(config, rows);
    std::vector<float> logits(
        static_cast<std::size_t>(rows * config.vocab_size));
    const int reps = quick ? 3 : 20;
    const double forward_ms = best_ms(reps, [&] {
      forward(model, groups, scratch, logits);
      for (SessionState& state : states) state.truncate(pos);
    });
    std::vector<float> scores(
        static_cast<std::size_t>(heads.n_heads / heads.n_kv_heads * (pos + 1)));
    const double attend_ms = best_ms(reps, [&] {
      for (std::int64_t l = 0; l < config.n_layers; ++l) {
        for (std::int64_t r = 0; r < rows; ++r) {
          const SessionState& state = states[static_cast<std::size_t>(r)];
          kernels::attend(heads, scratch.q.data() + r * att_width,
                          state.k_view(l), state.v_view(l), pos + 1,
                          scores.data(), scratch.att.data() + r * att_width);
        }
      }
    });
    std::printf(
        "{\"bench\":\"attend_share\",\"rows\":%lld,\"position\":%lld,"
        "\"forward_ms\":%.3f,\"attend_ms\":%.3f,\"share\":%.3f}\n",
        static_cast<long long>(rows), static_cast<long long>(pos), forward_ms,
        attend_ms, attend_ms / forward_ms);
  }

  // parallel_for dispatch probe (ungated) -----------------------------------
  // What one fan-out costs beyond its work: an empty parallel_for over 4
  // indices on the global pool, back to back, so helpers stay in their spin
  // window as they do between a decode step's projections.
  {
    ThreadPool& pool = global_thread_pool();
    const std::function<void(std::size_t)> nop = [](std::size_t) {};
    std::vector<double> us(quick ? 2000 : 20000);
    for (double& sample : us) {
      const Timer timer;
      pool.parallel_for(4, nop);
      sample = timer.seconds() * 1e6;
    }
    std::sort(us.begin(), us.end());
    std::printf(
        "{\"bench\":\"dispatch_probe\",\"indices\":4,\"helpers\":%zu,"
        "\"p50_us\":%.3f,\"p90_us\":%.3f}\n",
        pool.helpers(), us[us.size() / 2], us[us.size() * 9 / 10]);
  }

  if (!g_all_exact) {
    std::fprintf(stderr, "bench_kernels: FAILED (bit-exactness)\n");
    return 1;
  }
  if (gate) {
    // Floors calibrated to what the algorithms allow on AVX2 hardware; see
    // the file comment for why axpy's floor is near 1x.
    struct Floor {
      const CaseResult* result;
      double min_speedup;
    };
    const Floor floors[] = {
        {&dot_case, 3.0},
        {&fused_case, 3.0},
        {&nt_case, 3.0},
        {&axpy_case, 1.15},
    };
    bool ok = true;
    for (const Floor& f : floors) {
      if (f.result->speedup() < f.min_speedup) {
        std::fprintf(stderr, "GATE MISS: %s speedup %.2fx < required %.2fx\n",
                     f.result->name.c_str(), f.result->speedup(),
                     f.min_speedup);
        ok = false;
      }
    }
    if (!ok) {
      std::fprintf(stderr, "bench_kernels: FAILED (speedup gate)\n");
      return 1;
    }
    std::printf("{\"gate\":\"pass\"}\n");
  }
  return 0;
}
