// Quantized storage and inference: fp16/bf16 conversion properties, int8
// per-row-scale error bounds, backend-vs-reference bitwise equality of the
// dequantizing kernels, and the end-to-end determinism contract of
// quantized models and fp16 KV caches (DESIGN.md §4i).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "model/checkpoint.hpp"
#include "nn/infer.hpp"
#include "nn/transformer.hpp"
#include "serve/server.hpp"
#include "tensor/half.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/quant.hpp"
#include "text/tokenizer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace chipalign {
namespace {

using kernels::force_generic;

bool is_f16_nan(std::uint16_t bits) {
  return (bits & 0x7C00U) == 0x7C00U && (bits & 0x03FFU) != 0;
}

bool is_bf16_nan(std::uint16_t bits) {
  return (bits & 0x7F80U) == 0x7F80U && (bits & 0x007FU) != 0;
}

// -- fp16 / bf16 conversion properties ---------------------------------------

TEST(DtypeHalf, F16RoundTripAllBitPatterns) {
  // Every f16 value is exactly representable in f32, so expand-then-narrow
  // must be the identity on all 65536 bit patterns (NaNs stay NaN).
  for (std::uint32_t bits = 0; bits <= 0xFFFFU; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const float f = f16_bits_to_f32(h);
    if (is_f16_nan(h)) {
      EXPECT_TRUE(std::isnan(f)) << "bits=" << bits;
      EXPECT_TRUE(is_f16_nan(f32_to_f16_bits(f))) << "bits=" << bits;
    } else {
      EXPECT_EQ(f32_to_f16_bits(f), h) << "bits=" << bits;
    }
  }
}

TEST(DtypeHalf, Bf16RoundTripAllBitPatterns) {
  for (std::uint32_t bits = 0; bits <= 0xFFFFU; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const float f = bf16_bits_to_f32(h);
    if (is_bf16_nan(h)) {
      EXPECT_TRUE(std::isnan(f)) << "bits=" << bits;
      EXPECT_TRUE(is_bf16_nan(f32_to_bf16_bits(f))) << "bits=" << bits;
    } else {
      EXPECT_EQ(f32_to_bf16_bits(f), h) << "bits=" << bits;
    }
  }
}

TEST(DtypeHalf, F16RoundsToNearestEven) {
  // 1 + 2^-11 sits exactly between 1.0 (mantissa 0, even) and 1 + 2^-10
  // (mantissa 1): ties go to the even mantissa.
  EXPECT_EQ(f32_to_f16_bits(1.0F + 0x1p-11F), f32_to_f16_bits(1.0F));
  // 1 + 3*2^-11 sits between mantissa 1 and mantissa 2: tie -> 2 (even).
  EXPECT_EQ(f32_to_f16_bits(1.0F + 3 * 0x1p-11F),
            f32_to_f16_bits(1.0F + 2 * 0x1p-10F));
  // Anything past the halfway point rounds up regardless of parity.
  EXPECT_EQ(f32_to_f16_bits(1.0F + 0x1p-11F + 0x1p-22F),
            f32_to_f16_bits(1.0F + 0x1p-10F));
}

TEST(DtypeHalf, Bf16RoundsToNearestEven) {
  // bf16 keeps 7 mantissa bits: the tie point above 1.0 is 2^-9.
  EXPECT_EQ(f32_to_bf16_bits(1.0F + 0x1p-9F), f32_to_bf16_bits(1.0F));
  EXPECT_EQ(f32_to_bf16_bits(1.0F + 3 * 0x1p-9F),
            f32_to_bf16_bits(1.0F + 2 * 0x1p-8F));
  EXPECT_EQ(f32_to_bf16_bits(1.0F + 0x1p-9F + 0x1p-20F),
            f32_to_bf16_bits(1.0F + 0x1p-8F));
}

TEST(DtypeHalf, F16SubnormalsRoundTrip) {
  // All 1023 positive subnormals (k * 2^-24) are exact in f32.
  for (std::uint16_t k = 1; k < 0x0400U; ++k) {
    const float f = std::ldexp(static_cast<float>(k), -24);
    EXPECT_EQ(f32_to_f16_bits(f), k) << "k=" << k;
    EXPECT_EQ(f16_bits_to_f32(k), f) << "k=" << k;
  }
  // Below half the smallest subnormal, round-to-nearest-even gives zero.
  EXPECT_EQ(f32_to_f16_bits(0x1p-26F), 0);
  // Exactly halfway between 2^-24 (odd) and 2^-23 (even): tie -> 2^-23.
  EXPECT_EQ(f32_to_f16_bits(3 * 0x1p-25F), 2);
}

// -- int8 per-row-scale quantization -----------------------------------------

TEST(QuantInt8, ReconstructionErrorWithinHalfScale) {
  Rng rng(313);
  const std::int64_t cols = 257;  // odd tail
  std::vector<float> row(static_cast<std::size_t>(cols));
  for (float& v : row) v = static_cast<float>(rng.gaussian()) * 3.0F;
  const float scale = int8_row_scale(row.data(), cols);
  ASSERT_GT(scale, 0.0F);
  std::vector<std::int8_t> codes(row.size());
  quantize_row_i8(row.data(), cols, scale, codes.data());
  float max_abs = 0.0F;
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_GE(codes[i], -127);
    EXPECT_LE(codes[i], 127);
    const float rebuilt = static_cast<float>(codes[i]) * scale;
    EXPECT_LE(std::abs(rebuilt - row[i]), 0.5F * scale + 1e-6F) << i;
    max_abs = std::max(max_abs, std::abs(row[i]));
  }
  EXPECT_FLOAT_EQ(scale, max_abs / 127.0F);
}

TEST(QuantInt8, ZeroRowQuantizesToZero) {
  const std::int64_t cols = 16;
  std::vector<float> row(static_cast<std::size_t>(cols), 0.0F);
  EXPECT_EQ(int8_row_scale(row.data(), cols), 0.0F);
  std::vector<std::int8_t> codes(row.size(), 42);
  quantize_row_i8(row.data(), cols, 0.0F, codes.data());
  for (const std::int8_t c : codes) EXPECT_EQ(c, 0);
}

TEST(QuantInt8, TensorRoundTripAndRowDequant) {
  Rng rng(707);
  Tensor t = Tensor::randn({9, 33}, rng, 0.5F);
  const QuantTensor qt = quantize_tensor(t, DType::kI8);
  EXPECT_EQ(qt.dtype, DType::kI8);
  EXPECT_EQ(qt.rows, 9);
  EXPECT_EQ(qt.cols, 33);
  EXPECT_EQ(qt.scales.size(), 9u);
  const Tensor back = dequantize_tensor(qt);
  std::vector<float> row(33);
  for (std::int64_t r = 0; r < 9; ++r) {
    dequantize_row(qt, r, row.data());
    for (std::int64_t c = 0; c < 33; ++c) {
      const float expected =
          static_cast<float>(qt.q[static_cast<std::size_t>(r * 33 + c)]) *
          qt.scales[static_cast<std::size_t>(r)];
      EXPECT_EQ(back.data()[r * 33 + c], expected);
      EXPECT_EQ(row[static_cast<std::size_t>(c)], expected);
    }
  }
}

// -- dequantizing kernels: backend vs reference, bitwise ---------------------

template <typename Body>
void for_each_backend(const Body& body) {
  force_generic(true);
  body("generic");
  force_generic(false);
  if (kernels::simd_available()) body(kernels::backend_name());
}

class QuantKernels : public ::testing::Test {
 protected:
  void TearDown() override { force_generic(false); }
};

TEST_F(QuantKernels, DotF16MatchesRefAndExpandedDot) {
  Rng rng(515);
  const std::int64_t n_keys = 3;
  for (const std::int64_t n : {1, 8, 61, 1003}) {
    // Three fp16 K rows and V rows of n elements, and their exact fp32
    // expansions.
    const auto count = static_cast<std::size_t>(n_keys * n);
    std::vector<std::uint16_t> k16(count);
    std::vector<std::uint16_t> v16(count);
    std::vector<float> k32(count);
    std::vector<float> v32(count);
    for (std::size_t i = 0; i < count; ++i) {
      k16[i] = f32_to_f16_bits(static_cast<float>(rng.gaussian()));
      v16[i] = f32_to_f16_bits(static_cast<float>(rng.gaussian()));
      k32[i] = f16_bits_to_f32(k16[i]);
      v32[i] = f16_bits_to_f32(v16[i]);
    }
    std::vector<float> q(static_cast<std::size_t>(n));
    for (float& x : q) x = static_cast<float>(rng.gaussian());
    // Stored f16 expands exactly to f32, so the dequantizing dot is the
    // plain dot of the expanded values — the property attention over an
    // fp16 KV cache relies on.
    EXPECT_EQ(kernels::ref::dot_f16(k16.data(), q.data(),
                                    static_cast<std::size_t>(n)),
              kernels::ref::dot(k32.data(), q.data(),
                                static_cast<std::size_t>(n)));
    const kernels::AttendShape shape{1, 1, n};
    std::vector<float> scores(static_cast<std::size_t>(n_keys));
    std::vector<float> expected(static_cast<std::size_t>(n));
    kernels::ref::attend(shape, q.data(), {DType::kF16, k16.data(), n},
                         {DType::kF16, v16.data(), n}, n_keys, scores.data(),
                         expected.data());
    for_each_backend([&](const char* backend) {
      std::vector<float> half(expected.size(), -1.0F);
      std::vector<float> expanded(expected.size(), -1.0F);
      kernels::attend(shape, q.data(), {DType::kF16, k16.data(), n},
                      {DType::kF16, v16.data(), n}, n_keys, scores.data(),
                      half.data());
      kernels::attend(shape, q.data(), {DType::kF32, k32.data(), n},
                      {DType::kF32, v32.data(), n}, n_keys, scores.data(),
                      expanded.data());
      EXPECT_EQ(std::memcmp(half.data(), expected.data(),
                            expected.size() * sizeof(float)),
                0)
          << "n=" << n << " backend=" << backend;
      EXPECT_EQ(std::memcmp(expanded.data(), expected.data(),
                            expected.size() * sizeof(float)),
                0)
          << "n=" << n << " backend=" << backend;
    });
  }
}

TEST_F(QuantKernels, DotBf16AndI8MatchRefBitwise) {
  Rng rng(616);
  for (const std::size_t n : {std::size_t{8}, std::size_t{61},
                              std::size_t{1003}}) {
    std::vector<std::uint16_t> a16(n);
    std::vector<std::int8_t> a8(n);
    std::vector<float> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a16[i] = f32_to_bf16_bits(static_cast<float>(rng.gaussian()));
      a8[i] = static_cast<std::int8_t>(
          static_cast<int>(rng.uniform() * 255.0) - 127);
      b[i] = static_cast<float>(rng.gaussian());
    }
    // project() over one weight row is one dot of the dequantized row.
    const auto k = static_cast<std::int64_t>(n);
    const float scale = 0.0137F;
    float e16 = 0.0F;
    float e8 = 0.0F;
    kernels::ref::matvec_bf16(a16.data(), b.data(), &e16, 1, k);
    kernels::ref::matvec_i8(a8.data(), &scale, b.data(), &e8, 1, k);
    for_each_backend([&](const char* backend) {
      float y16 = 0.0F;
      float y8 = 0.0F;
      kernels::project({DType::kBF16, a16.data(), nullptr, 1, k}, b.data(),
                       &y16, 1);
      kernels::project({DType::kI8, a8.data(), &scale, 1, k}, b.data(), &y8,
                       1);
      EXPECT_EQ(std::memcmp(&y16, &e16, sizeof(float)), 0)
          << "n=" << n << " backend=" << backend;
      EXPECT_EQ(std::memcmp(&y8, &e8, sizeof(float)), 0)
          << "n=" << n << " backend=" << backend;
    });
  }
}

TEST_F(QuantKernels, MatvecI8MatchesRefAndThreadCount) {
  Rng rng(818);
  const std::int64_t out_dim = 37;
  const std::int64_t in_dim = 129;
  std::vector<std::int8_t> w(static_cast<std::size_t>(out_dim * in_dim));
  std::vector<float> scales(static_cast<std::size_t>(out_dim));
  std::vector<float> x(static_cast<std::size_t>(in_dim));
  for (auto& v : w) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform() * 255.0) -
                                 127);
  }
  for (auto& v : scales) v = static_cast<float>(rng.uniform()) + 0.01F;
  for (auto& v : x) v = static_cast<float>(rng.gaussian());

  std::vector<float> expected(static_cast<std::size_t>(out_dim));
  kernels::ref::matvec_i8(w.data(), scales.data(), x.data(), expected.data(),
                          out_dim, in_dim);
  const kernels::WeightView weights{DType::kI8, w.data(), scales.data(),
                                    out_dim, in_dim};
  std::vector<float> got(static_cast<std::size_t>(out_dim));
  for_each_backend([&](const char* backend) {
    std::fill(got.begin(), got.end(), 0.0F);
    kernels::project(weights, x.data(), got.data(), 1);
    EXPECT_EQ(0, std::memcmp(got.data(), expected.data(),
                             got.size() * sizeof(float)))
        << "backend=" << backend;
    ThreadPool pool1(1);
    ThreadPool pool4(4);
    std::vector<float> y1(got.size());
    std::vector<float> y4(got.size());
    kernels::project(weights, x.data(), y1.data(), 1, &pool1);
    kernels::project(weights, x.data(), y4.data(), 1, &pool4);
    EXPECT_EQ(0, std::memcmp(y1.data(), expected.data(),
                             y1.size() * sizeof(float)))
        << "backend=" << backend;
    EXPECT_EQ(0, std::memcmp(y4.data(), expected.data(),
                             y4.size() * sizeof(float)))
        << "backend=" << backend;
  });
}

TEST_F(QuantKernels, MatmulNtF16MatchesRefBitwise) {
  Rng rng(919);
  const std::int64_t m = 5;
  const std::int64_t k = 67;
  const std::int64_t n = 11;
  std::vector<std::uint16_t> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(n * k));
  for (auto& v : a) v = f32_to_f16_bits(static_cast<float>(rng.gaussian()));
  for (auto& v : b) v = static_cast<float>(rng.gaussian());
  std::vector<float> expected(static_cast<std::size_t>(m * n));
  kernels::ref::matmul_nt_f16(a.data(), b.data(), expected.data(), m, k, n);
  // project() over the f16 weights `a` and the n activation rows of `b`
  // writes [n, m]: ref's [m, n] transposed.
  std::vector<float> expected_t(expected.size());
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      expected_t[static_cast<std::size_t>(j * m + i)] =
          expected[static_cast<std::size_t>(i * n + j)];
    }
  }
  std::vector<float> got(expected.size());
  for_each_backend([&](const char* backend) {
    std::fill(got.begin(), got.end(), 0.0F);
    kernels::project({DType::kF16, a.data(), nullptr, m, k}, b.data(),
                     got.data(), n);
    EXPECT_EQ(0, std::memcmp(got.data(), expected_t.data(),
                             got.size() * sizeof(float)))
        << "backend=" << backend;
  });
}

// -- quantized models end to end ---------------------------------------------

ModelConfig tiny_config() {
  ModelConfig config;
  config.name = "quant-test";
  config.vocab_size = tokenizer().vocab_size();
  config.d_model = 32;
  config.n_layers = 2;
  config.n_heads = 2;
  config.n_kv_heads = 1;
  config.d_ff = 48;
  config.max_seq_len = 256;
  config.validate();
  return config;
}

TEST(QuantModel, QuantizeWeightsGuardsAndAccounting) {
  Rng rng(0xA11CE);
  TransformerModel model(tiny_config(), rng);
  const std::int64_t params_before = model.parameter_count();
  const Checkpoint fp32_ckpt = model.to_checkpoint();

  model.quantize_weights(DType::kF16);
  EXPECT_EQ(model.weight_dtype(), DType::kF16);
  EXPECT_EQ(model.parameter_count(), params_before);
  EXPECT_THROW(model.quantize_weights(DType::kI8), Error);

  // to_checkpoint() dequantizes, so shapes/names survive and the values
  // are the f16 rounding of the originals.
  const Checkpoint q_ckpt = model.to_checkpoint();
  EXPECT_EQ(q_ckpt.names(), fp32_ckpt.names());
  const Tensor& orig = fp32_ckpt.at("model.embed_tokens.weight");
  const Tensor& rounded = q_ckpt.at("model.embed_tokens.weight");
  for (std::int64_t i = 0; i < orig.numel(); ++i) {
    EXPECT_EQ(rounded.data()[i],
              f16_bits_to_f32(f32_to_f16_bits(orig.data()[i])));
  }
}

TEST(QuantModel, QuantizedGenerateIsDeterministicAndServedIdentically) {
  Rng rng(0xB0B);
  TransformerModel model(tiny_config(), rng);
  TransformerModel qmodel =
      TransformerModel::from_checkpoint(model.to_checkpoint());
  qmodel.quantize_weights(DType::kI8);

  GenerateOptions options;
  options.max_new_tokens = 12;
  const std::string prompt = "q: timing status\nout: ";
  const std::string first = generate(qmodel, prompt, options);
  EXPECT_EQ(first, generate(qmodel, prompt, options));

  // The batched serving path must reproduce serial generate() bit-for-bit
  // for quantized weights too (per-parameter kernel dispatch).
  ServeConfig serve;
  serve.max_batch = 4;
  Server server(qmodel, serve);
  std::vector<SessionId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(server.submit(server.text_request(prompt, options)));
  }
  server.run();
  for (const SessionId id : ids) {
    EXPECT_EQ(server.wait_result(id).text, first);
  }
}

TEST(QuantModel, Fp16KvCacheDeterministicAcrossRunsAndPrefixCache) {
  Rng rng(0xCAFE);
  TransformerModel model(tiny_config(), rng);
  GenerateOptions options;
  options.max_new_tokens = 8;
  const std::string header(120, 'x');
  std::vector<std::string> prompts;
  for (int i = 0; i < 6; ++i) {
    prompts.push_back(header + " q" + std::to_string(i));
  }

  const auto run = [&](std::size_t cache_bytes) {
    ServeConfig serve;
    serve.max_sessions = 2;  // later sessions admit after inserts
    serve.max_batch = 2;
    serve.prefix_cache_bytes = cache_bytes;
    serve.kv_dtype = DType::kF16;
    Server server(model, serve);
    std::vector<SessionId> ids;
    for (const auto& p : prompts) {
      ids.push_back(server.submit(server.text_request(p, options)));
    }
    server.run();
    std::vector<std::string> out;
    for (const SessionId id : ids) {
      out.push_back(server.wait_result(id).text);
    }
    return out;
  };

  const auto no_cache = run(0);
  // Prefix-cache hits restore the stored fp16 rows exactly, so outputs
  // must not change; and a second cached run must match the first.
  EXPECT_EQ(run(std::size_t{1} << 24), no_cache);
  EXPECT_EQ(run(std::size_t{1} << 24), no_cache);
}

TEST(QuantModel, CheckpointInt8SaveLoadReconstructsCodesTimesScale) {
  const auto dir = std::filesystem::temp_directory_path() / "ca_quant_tests";
  std::filesystem::create_directories(dir);
  const std::string file = (dir / "int8.safetensors").string();

  Rng rng(0xD00D);
  TransformerModel model(tiny_config(), rng);
  const Checkpoint ckpt = model.to_checkpoint();
  ckpt.save(file, DType::kI8);
  const Checkpoint loaded = Checkpoint::load(file);

  // Companions are folded back in: same tensor names, no .quant_scale.
  EXPECT_EQ(loaded.names(), ckpt.names());
  for (const auto& [name, tensor] : ckpt.tensors()) {
    const Tensor& got = loaded.at(name);
    ASSERT_EQ(got.numel(), tensor.numel()) << name;
    if (tensor.rank() == 2) {
      const QuantTensor qt = quantize_tensor(tensor, DType::kI8);
      const Tensor expected = dequantize_tensor(qt);
      for (std::int64_t i = 0; i < got.numel(); ++i) {
        EXPECT_EQ(got.data()[i], expected.data()[i]) << name << " @" << i;
      }
    } else {
      // Non-matrix tensors (rmsnorm vectors) stay exact fp32.
      for (std::int64_t i = 0; i < got.numel(); ++i) {
        EXPECT_EQ(got.data()[i], tensor.data()[i]) << name << " @" << i;
      }
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace chipalign
