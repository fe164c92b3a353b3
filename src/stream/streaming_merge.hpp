#pragma once
/// \file streaming_merge.hpp
/// \brief Bounded-memory streaming merge over sharded checkpoints.
///
/// merge_streaming() drives any Merger through a bounded three-stage
/// pipeline so I/O and compute overlap instead of summing:
///
///   1. *Read* — `io_threads` reader threads admit plan entries in plan
///      order and seek-read their chip/instruct (and optional base)
///      tensors, verifying each read against the source manifest's XXH64
///      checksum when one is recorded (silent shard corruption becomes a
///      hard error);
///   2. *Merge* — the merge math (SLERP/LERP/TIES/...) plus output-dtype
///      encoding is one ThreadPool::parallel_for over the plan on
///      `StreamingMergeConfig::pool` (default: the global ThreadPool), as
///      wide as that pool; index k waits for read k;
///   3. *Write* — a single writer thread commits finished tensors to the
///      ShardSetWriter and appends journal entries strictly **in plan
///      (name-sorted) order**, so the journal is always a plan-order prefix
///      of the remaining work and resume semantics match the serial
///      engine's.
///
/// Admission control bounds peak memory: the scheduler admits a tensor into
/// the pipeline only while the estimated working bytes of all in-flight
/// tensors stay under `max_inflight_bytes` and at most `prefetch_tensors`
/// are in flight (always admitting at least one, so a tensor larger than
/// the budget still makes progress) — instead of the O(model) residency of
/// merge_checkpoints(). `pipeline = false` is the escape hatch: a strictly
/// serial read→merge→write→journal loop on the calling thread, byte- and
/// journal-identical to the pipelined engine.
///
/// Robustness: every completed tensor is recorded (name + XXH64 of its
/// output bytes) in an append-only journal `merge.journal` inside the
/// output directory, prefixed by a fingerprint of the merge plan. A rerun
/// with resume enabled skips journaled tensors whose shard files still
/// match the plan, then completes the manifest — an interrupted merge
/// restarts where it stopped and converges to the same bytes. A torn final
/// journal line (kill mid-append) is discarded, so only that tensor is
/// redone. The first reader, merge or writer exception winds the other
/// stages down and propagates to the caller once they have stopped, with
/// the journal left in this resumable state.
///
/// Determinism: per-tensor RNG streams come from merge_tensor_rng() with
/// the tensor's index in the name-sorted list — the same derivation as
/// merge_checkpoints() — so both paths produce bit-identical weights.

#include <cstdint>
#include <string>

#include "merge/merger.hpp"
#include "stream/tensor_source.hpp"
#include "tensor/dtype.hpp"
#include "util/thread_pool.hpp"

namespace chipalign {

/// Bounded exponential-backoff retry for *transient* source-read failures
/// (EINTR, short reads, checksum mismatches — TransientIoError). Each
/// retry re-reads the bytes and re-verifies the checksum. Permanent
/// failures (plan mismatch, missing tensors, bad headers) never retry;
/// attempts exhausted becomes RetriesExhaustedError so callers can exit
/// with a distinct code.
struct RetryPolicy {
  /// Total read attempts per tensor per source; 1 disables retry.
  int max_attempts = 1;
  /// Backoff before the first retry; doubles each retry.
  int backoff_ms = 10;
  /// Backoff ceiling.
  int max_backoff_ms = 2000;
};

/// Knobs of the streaming pipeline (the merge math itself is configured by
/// MergeOptions, shared with the in-memory path).
struct StreamingMergeConfig {
  /// Max data bytes per output shard; 0 = single shard.
  std::uint64_t shard_size_bytes = 64ull << 20;

  /// In-flight working-set budget enforcing the peak-memory bound. An
  /// in-flight tensor is accounted as its input storage bytes + fp32
  /// working copies + output bytes.
  std::uint64_t max_inflight_bytes = 256ull << 20;

  /// Storage dtype of the output shards.
  DType out_dtype = DType::kF32;

  /// Overlap read / merge / write in the three-stage pipeline. false is the
  /// escape hatch: one tensor at a time, strictly serial, on the calling
  /// thread. Output bytes and journal contents are identical either way.
  bool pipeline = true;

  /// Reader threads of the read stage (pipeline mode only; clamped to at
  /// least 1).
  std::size_t io_threads = 2;

  /// Cap on tensors admitted into the pipeline at once, on top of the byte
  /// budget (pipeline mode only; clamped to at least 1). Bounds the
  /// completed-but-not-yet-committed backlog the in-order writer may have
  /// to buffer.
  std::size_t prefetch_tensors = 16;

  /// Resume from an interrupted run's journal instead of starting over.
  /// Throws Error when the journal belongs to a different merge plan.
  bool resume = false;

  /// Retry policy for transient source-read failures. Deliberately absent
  /// from the plan fingerprint: retries never change the output bytes, so
  /// a merge may be resumed under a different policy.
  RetryPolicy read_retry;

  /// Optional per-tensor completion callback (done, total); called from
  /// the writer thread, or the calling thread when pipeline is false.
  MergeProgressFn progress;

  /// Emit a CA_LOG_INFO progress/throughput line every N completed tensors
  /// (0 disables).
  std::size_t log_every = 32;

  /// Test hook: throw Error after this many tensors have been journaled
  /// (-1 disables). Simulates an interrupted merge for resume tests.
  int fail_after_tensors = -1;

  /// Pool whose parallel_for runs the merge stage; nullptr = the global
  /// pool. Output bytes are identical for any pool size (the determinism
  /// tests exercise 1 vs N threads through this knob).
  ThreadPool* pool = nullptr;
};

/// What a streaming merge did, for reporting and assertions.
struct StreamingMergeReport {
  std::size_t tensor_count = 0;
  std::size_t resumed_count = 0;  ///< tensors skipped thanks to the journal
  std::size_t shard_count = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  /// High-water mark of the accounted in-flight bytes; always <= the
  /// budget unless a single tensor alone exceeds it.
  std::uint64_t max_inflight_bytes_observed = 0;
  double seconds = 0.0;
  bool pipelined = false;  ///< which engine ran (config.pipeline)
  /// Source reads that were verified against a manifest checksum.
  std::size_t source_checksums_verified = 0;
  /// Transient read failures that were retried (and recovered from).
  std::size_t read_retries = 0;
  /// Aggregate busy time per stage, summed across its threads. In
  /// pipeline mode their sum exceeding `seconds` is the overlap win; in
  /// serial mode they sum to ~`seconds`.
  double read_seconds = 0.0;
  double merge_seconds = 0.0;
  double write_seconds = 0.0;
  std::string index_path;  ///< manifest of the merged sharded checkpoint

  double mb_per_second() const {
    return seconds > 0.0 ? static_cast<double>(bytes_written) /
                               (1024.0 * 1024.0) / seconds
                         : 0.0;
  }
};

/// Streams `merger` over two (optionally three) conformable tensor sources
/// into a sharded checkpoint under `out_dir`. See the file comment for the
/// pipeline, memory bound, journal and determinism contracts.
/// \throws Error on non-conformable sources, missing base, bad options, or
///   I/O failure (the journal then allows resuming).
StreamingMergeReport merge_streaming(const Merger& merger,
                                     const TensorSource& chip,
                                     const TensorSource& instruct,
                                     const TensorSource* base,
                                     const MergeOptions& options,
                                     const StreamingMergeConfig& config,
                                     const std::string& out_dir);

}  // namespace chipalign
