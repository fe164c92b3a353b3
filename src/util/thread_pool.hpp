#pragma once
/// \file thread_pool.hpp
/// \brief Fixed-size thread pool with a spin-dispatched parallel_for.
///
/// parallel_for() is the pool's one entry point, and every fan-out in the
/// program uses it: the kernels, forward() attention, the IVF build,
/// batched retrieval, the eval harness, merge_checkpoints() and the merge
/// stage of the streaming-merge pipeline. The caller publishes one job in
/// a shared slot, bumps an atomic epoch, and the pool's helper threads —
/// spinning on that epoch for a bounded window after their last job — join
/// it without a queue entry, lock or condition-variable wake-up. A
/// parallel_for issued from inside a helper, or while another caller's job
/// is in flight, runs inline instead of deadlocking or waiting.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace chipalign {

/// Fixed-size worker pool: parallel_for() runs min(size(), nproc) wide,
/// counting its caller, on min(size(), nproc) - 1 helper threads.
class ThreadPool {
 public:
  /// How long a helper keeps spinning on the job epoch after its last job
  /// before it parks on the condition variable. Measured gaps between
  /// fan-outs while serving are 24-30 us at p50 and at most 2.1 ms at
  /// p99.9, so 3 ms keeps helpers hot through a serving burst; an idle
  /// pool burns at most one window per helper and then sleeps. See
  /// DESIGN.md §4d.
  static constexpr std::chrono::microseconds kSpinWindow{3000};

  /// \param num_threads 0 selects hardware_concurrency (at least 1).
  /// Starts min(num_threads, hardware_concurrency) - 1 helper threads.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The requested width (num_threads, or hardware_concurrency for 0).
  std::size_t size() const { return size_; }

  /// Threads that join a parallel_for next to the caller: min(size(),
  /// hardware_concurrency) - 1, so helpers plus the caller never
  /// outnumber the cores they spin on. 0 runs every parallel_for inline.
  std::size_t helpers() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, count) across the pool and waits. Runs inline
  /// (on the calling thread, in index order) when count == 1, the pool has
  /// no helpers, the caller is itself a pool helper, or another caller's
  /// job is in flight — so nesting cannot deadlock and concurrent callers
  /// stay isolated.
  ///
  /// Dispatch is spin-on-epoch: the caller stores {fn, count} in the
  /// pool's job slot and bumps the epoch; helpers that see it join the job
  /// and pull indices, with the caller, from a shared atomic counter, so
  /// indices are handed out in ascending order. The caller then closes the
  /// job to late joiners and waits until every helper that joined has
  /// finished. Nothing is allocated, queued or locked per dispatch while
  /// the helpers are spinning; parked helpers cost one notify. Every index
  /// runs exactly once (on some thread), so callers that write disjoint
  /// slots per index stay bitwise deterministic at any pool size. Inline
  /// exceptions propagate immediately; otherwise the caller's exception,
  /// else the first helper's, rethrows after the wait; a thread whose fn
  /// throws stops pulling further indices while the remaining threads
  /// finish the range.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is a helper of *any* ThreadPool. Used to
  /// run nested parallel work inline.
  static bool on_worker_thread();

 private:
  using Clock = std::chrono::steady_clock;

  void worker_loop(std::size_t index);
  /// Joins the job published as `ctrl` (unless it is closed), runs indices
  /// until the range is exhausted, and reports completion.
  void help(std::uint64_t ctrl);
  /// Pulls indices of the current job until the range is exhausted.
  void drain(const std::function<void(std::size_t)>& fn, std::size_t count);
  /// Caller side: waits until `joined` helpers have reported completion.
  void wait_for_helpers(std::uint32_t joined);

  std::size_t size_ = 0;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};

  // parallel_for job slot. ctrl_ packs the job epoch (high 32 bits), a
  // closed flag (bit 31) and the number of helpers that joined (low bits);
  // joining is a CAS on it, so no helper can join a job after the caller
  // closed it. The slot fields are written only by the caller that holds
  // in_flight_, before the epoch is published and after every joined
  // helper has finished.
  std::atomic<bool> in_flight_{false};
  alignas(64) std::atomic<std::uint64_t> ctrl_{0};
  std::uint32_t epoch_ = 0;
  std::atomic<const std::function<void(std::size_t)>*> job_fn_{nullptr};
  std::atomic<std::size_t> job_count_{0};
  alignas(64) std::atomic<std::size_t> next_{0};
  alignas(64) std::atomic<std::uint32_t> done_{0};
  std::mutex error_mutex_;
  std::exception_ptr job_error_;
  // Sleep/wake bookkeeping: helpers parked on job_available_, and the
  // caller parked on job_done_ after spinning through a long job.
  std::mutex mutex_;
  std::condition_variable job_available_;
  std::atomic<std::uint32_t> parked_helpers_{0};
  std::atomic<bool> caller_parked_{false};
  // CPU of the latest parallel_for caller; woken helpers spread off it.
  std::atomic<int> caller_cpu_{-1};
  std::condition_variable job_done_;
};

/// Returns the process-wide shared pool (sized to hardware concurrency).
ThreadPool& global_thread_pool();

}  // namespace chipalign
