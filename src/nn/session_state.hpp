#pragma once
/// \file session_state.hpp
/// \brief Per-session mutable inference state: KV cache, position, RNG.
///
/// The serving engine's Model/session split: TransformerModel is the
/// immutable shared Model (weights + config — safe to read from any number
/// of concurrent sessions), and SessionState is everything that belongs to
/// one conversation: the per-layer KV cache, the decode position and the
/// sampler RNG stream. A state is bound to a model *shape* (n_layers,
/// kv_dim) rather than to a model instance, and its cache capacity may be
/// smaller than config.max_seq_len so that a server can admit many short
/// sessions under one KV byte budget.
///
/// The cache stores rows in kF32 (exact) or kF16 (half the bytes; each row
/// is rounded to nearest-even on store and dequantized exactly on read, so
/// fp16-KV decode stays bitwise run-to-run deterministic — see DESIGN.md
/// §4i). Readers get bytes (k_raw/v_raw, for prefix-cache copies) or a
/// typed kernels::KvView per layer (k_view/v_view, for kernels::attend);
/// writers go through store_k_row/store_v_row.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "model/model_config.hpp"
#include "tensor/dtype.hpp"
#include "tensor/half.hpp"
#include "tensor/kernels/kernels.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace chipalign {

/// Mutable per-session decode state. Plain data, movable, no model pointer:
/// forward() (decode.hpp) pairs it with the shared model.
struct SessionState {
  /// \param capacity_tokens KV rows per layer; the session can consume at
  ///   most this many tokens. Must be in (0, config.max_seq_len].
  /// \param kv_type cache storage dtype: kF32 or kF16.
  SessionState(const ModelConfig& config, std::int64_t capacity_tokens,
               std::uint64_t sampler_seed = 7, DType kv_type = DType::kF32)
      : capacity(capacity_tokens),
        kv_dim(config.n_kv_heads * config.head_dim()),
        layer_stride(capacity_tokens * kv_dim),
        n_layers(config.n_layers),
        kv_dtype(kv_type),
        rng(sampler_seed) {
    CA_CHECK(capacity > 0 && capacity <= config.max_seq_len,
             "session KV capacity " << capacity << " out of range (1.."
                                    << config.max_seq_len << ")");
    CA_CHECK(kv_dtype == DType::kF32 || kv_dtype == DType::kF16,
             "KV cache dtype must be F32 or F16, got "
                 << dtype_name(kv_dtype));
    const auto bytes = static_cast<std::size_t>(n_layers * layer_stride) *
                       dtype_size(kv_dtype);
    // new[] without value-initialization: the cache starts dead and every
    // position is written by a forward() before any read of it.
    k_cache.reset(new unsigned char[bytes]);
    v_cache.reset(new unsigned char[bytes]);
  }

  std::size_t kv_elem_size() const { return dtype_size(kv_dtype); }

  /// Raw pointer to the row for (layer, pos), in storage dtype. Rows are
  /// kv_dim elements of kv_elem_size() bytes; this is the accessor generic
  /// code (prefix-cache copies) uses.
  unsigned char* k_raw(std::int64_t layer, std::int64_t pos) {
    return k_cache.get() + row_offset(layer, pos);
  }
  unsigned char* v_raw(std::int64_t layer, std::int64_t pos) {
    return v_cache.get() + row_offset(layer, pos);
  }
  const unsigned char* k_raw(std::int64_t layer, std::int64_t pos) const {
    return k_cache.get() + row_offset(layer, pos);
  }
  const unsigned char* v_raw(std::int64_t layer, std::int64_t pos) const {
    return v_cache.get() + row_offset(layer, pos);
  }

  /// Layer `layer`'s K or V cache as a kernels::attend view: rows of
  /// kv_dim elements in the storage dtype, so the dtype is read in one
  /// place, inside the kernel.
  kernels::KvView k_view(std::int64_t layer) const {
    return {kv_dtype, k_raw(layer, 0), kv_dim};
  }
  kernels::KvView v_view(std::int64_t layer) const {
    return {kv_dtype, v_raw(layer, 0), kv_dim};
  }

  /// Writes one fp32 row into the cache, converting to the storage dtype
  /// (bit copy for kF32, round-to-nearest-even for kF16).
  void store_k_row(std::int64_t layer, std::int64_t pos, const float* src) {
    store_row(k_raw(layer, pos), src);
  }
  void store_v_row(std::int64_t layer, std::int64_t pos, const float* src) {
    store_row(v_raw(layer, pos), src);
  }

  /// Rewinds the session to `pos`, discarding every later token (the KV
  /// rollback primitive speculative decoding uses to drop rejected draft
  /// rows). O(1): the cache is lazy, so rows at or past the position are
  /// dead and a subsequent forward() simply overwrites them. `pos` must
  /// be in [0, position].
  void truncate(std::int64_t pos) {
    CA_CHECK(pos >= 0 && pos <= position,
             "truncate to " << pos << " outside [0, " << position << "]");
    position = pos;
  }

  /// Bytes of KV cache this state owns (what a server's admission budget
  /// charges for). Computable without constructing the state.
  static std::size_t kv_bytes_for(const ModelConfig& config,
                                  std::int64_t capacity_tokens,
                                  DType kv_type = DType::kF32) {
    const std::int64_t kv = config.n_kv_heads * config.head_dim();
    return 2 * static_cast<std::size_t>(config.n_layers * capacity_tokens *
                                        kv) *
           dtype_size(kv_type);
  }
  std::size_t kv_bytes() const {
    return 2 * static_cast<std::size_t>(n_layers * layer_stride) *
           kv_elem_size();
  }

  std::int64_t position = 0;  ///< tokens consumed so far
  std::int64_t capacity = 0;  ///< KV rows per layer
  std::int64_t kv_dim = 0;
  std::int64_t layer_stride = 0;  ///< capacity * kv_dim elements per layer
  std::int64_t n_layers = 0;
  DType kv_dtype = DType::kF32;  ///< cache storage dtype (kF32 or kF16)

  // Per layer: [capacity, kv_dim] caches, flattened into one block each,
  // stored as kv_dtype elements. Deliberately not value-initialized —
  // entries past `position` are dead.
  std::unique_ptr<unsigned char[]> k_cache;
  std::unique_ptr<unsigned char[]> v_cache;

  Rng rng;  ///< per-session sampler stream (temperature decoding)

 private:
  std::size_t row_offset(std::int64_t layer, std::int64_t pos) const {
    return static_cast<std::size_t>(layer * layer_stride + pos * kv_dim) *
           kv_elem_size();
  }

  void store_row(unsigned char* dst, const float* src) {
    if (kv_dtype == DType::kF32) {
      std::memcpy(dst, src, static_cast<std::size_t>(kv_dim) * sizeof(float));
      return;
    }
    auto* out = reinterpret_cast<std::uint16_t*>(dst);
    for (std::int64_t i = 0; i < kv_dim; ++i) out[i] = f32_to_f16_bits(src[i]);
  }
};

}  // namespace chipalign
