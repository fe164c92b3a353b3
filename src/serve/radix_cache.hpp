#pragma once
/// \file radix_cache.hpp
/// \brief Shared radix (prefix-tree) KV cache for the serving engine.
///
/// Sessions whose prompts share a token prefix — every chip_assistant
/// request starts with the same instruction header, every QA prompt with
/// the same retrieved context — redo identical prefill work. RadixKvCache
/// shares that work across sessions: a path-compressed token trie whose
/// every node owns the per-layer KV rows of its edge tokens. acquire()
/// copies the KV of the longest cached prefix straight into a fresh
/// SessionState (so a session never aliases tree memory and eviction can
/// never pull rows out from under a running decode), and insert()
/// publishes a finished prefill back into the tree, splitting edges at
/// divergence points so common prefixes are stored exactly once.
///
/// Nodes are refcounted: acquire() pins the matched path until the returned
/// Ref is released (sessions hold the Ref for their lifetime), which keeps
/// hot prefixes resident. When stored bytes exceed the budget, unpinned
/// leaves are evicted in least-recently-used order; interior nodes become
/// evictable once their children are gone, so cold branches peel from the
/// tips inward.
///
/// Because the copied rows are the exact bits the original prefill wrote,
/// a cache-hit session decodes bit-identically to one that re-ran the
/// whole prompt (the same invariant truncate() and re-decoding keep within
/// one session).
///
/// Not thread-safe; the serving Scheduler calls it from its driver thread.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "model/model_config.hpp"
#include "nn/session_state.hpp"
#include "tensor/dtype.hpp"
#include "text/tokenizer.hpp"

namespace chipalign {

class RadixKvCache {
 public:
  /// Counters for observability and the bench gates. Token counts make
  /// hit_rate() a per-token (not per-lookup) ratio: a 900-token header hit
  /// weighs 900x a 1-token hit, matching the prefill work actually saved.
  struct Stats {
    std::int64_t lookups = 0;
    std::int64_t lookup_tokens = 0;  ///< tokens offered to acquire()
    std::int64_t hit_tokens = 0;     ///< tokens served from the tree
    std::int64_t inserts = 0;
    std::int64_t inserted_tokens = 0;  ///< new tokens stored (dedup'd)
    std::int64_t evictions = 0;        ///< nodes evicted
    std::int64_t evicted_tokens = 0;
    std::int64_t nodes = 0;        ///< live nodes (excluding the root)
    std::int64_t bytes = 0;        ///< live KV bytes stored
    std::int64_t pinned_nodes = 0; ///< nodes with at least one live Ref pin;
                                   ///< must return to 0 after a server drain
                                   ///< (the no-leaked-pins invariant)
    double hit_rate() const {
      return lookup_tokens > 0
                 ? static_cast<double>(hit_tokens) /
                       static_cast<double>(lookup_tokens)
                 : 0.0;
    }
  };

  class Ref;

  /// \param max_bytes eviction budget for stored KV; 0 disables the cache
  ///   (acquire always misses, insert is a no-op).
  /// \param kv_dtype row storage dtype; must match the SessionStates the
  ///   cache exchanges rows with (kF32 or kF16). Rows move as opaque bytes,
  ///   so a hit hands back the exact bits the prefill stored either way.
  RadixKvCache(const ModelConfig& config, std::size_t max_bytes,
               DType kv_dtype = DType::kF32);
  ~RadixKvCache();

  RadixKvCache(const RadixKvCache&) = delete;
  RadixKvCache& operator=(const RadixKvCache&) = delete;

  /// Copies the KV rows of the longest cached prefix of `tokens` into
  /// positions [0, matched) of `state` and sets state.position = matched.
  /// Returns a Ref pinning the matched path (release it — or let it die —
  /// when the session ends). state.position is left untouched on a miss.
  /// state must be empty (position 0) and have capacity >= tokens.size().
  Ref acquire(std::span<const TokenId> tokens, SessionState& state);

  /// Stores the KV for `tokens` out of `state` (which must have consumed
  /// at least tokens.size() positions), sharing every already-cached
  /// prefix node and splitting edges at the divergence point. Evicts LRU
  /// unpinned leaves afterwards if the byte budget is exceeded; the nodes
  /// just inserted are evictable like any others once unpinned.
  void insert(std::span<const TokenId> tokens, const SessionState& state);

  /// Drops every unpinned node regardless of recency. Pinned paths stay.
  void clear();

  Stats stats() const { return stats_; }

 private:
  struct Node;

  void release(std::vector<Node*>& path);
  void evict_to_budget();
  std::size_t node_bytes(std::int64_t token_count) const;

  std::unique_ptr<Node> root_;
  std::int64_t n_layers_ = 0;
  std::int64_t kv_dim_ = 0;
  DType kv_dtype_ = DType::kF32;
  std::size_t elem_size_ = sizeof(float);  ///< dtype_size(kv_dtype_)
  std::size_t max_bytes_ = 0;
  std::int64_t clock_ = 0;  ///< monotonic LRU stamp
  Stats stats_;

  friend class Ref;

 public:
  /// Move-only pin on an acquired path. KV was copied at acquire() time, so
  /// a Ref carries no data — it only keeps the matched nodes' refcounts up
  /// so eviction skips them while the session that hit them is running.
  class Ref {
   public:
    Ref() = default;
    Ref(Ref&& other) noexcept
        : cache_(other.cache_), path_(std::move(other.path_)),
          matched_(other.matched_) {
      other.cache_ = nullptr;
      other.path_.clear();
      other.matched_ = 0;
    }
    Ref& operator=(Ref&& other) noexcept {
      if (this != &other) {
        release();
        cache_ = other.cache_;
        path_ = std::move(other.path_);
        matched_ = other.matched_;
        other.cache_ = nullptr;
        other.path_.clear();
        other.matched_ = 0;
      }
      return *this;
    }
    Ref(const Ref&) = delete;
    Ref& operator=(const Ref&) = delete;
    ~Ref() { release(); }

    /// Tokens served from the cache (0 on a miss).
    std::int64_t matched() const { return matched_; }

    /// Unpins the path early (idempotent).
    void release() {
      if (cache_ != nullptr) {
        cache_->release(path_);
        cache_ = nullptr;
        path_.clear();
      }
    }

   private:
    friend class RadixKvCache;
    Ref(RadixKvCache* cache, std::vector<Node*> path, std::int64_t matched)
        : cache_(cache), path_(std::move(path)), matched_(matched) {}

    RadixKvCache* cache_ = nullptr;
    std::vector<Node*> path_;
    std::int64_t matched_ = 0;
  };
};

}  // namespace chipalign
