#pragma once
/// \file thread_pool.hpp
/// \brief Fixed-size thread pool: a task queue with per-batch completion
/// tracking, plus a spin-dispatched parallel_for.
///
/// Two ways in. submit() queues a task against a caller-owned Batch; the
/// merge library and the streaming-merge pipeline use it, and concurrent
/// callers never consume each other's completion signals or exceptions.
/// parallel_for() is the kernel layer's fan-out: the caller publishes one
/// job in a shared slot, bumps an atomic epoch, and the pool's helper
/// workers — spinning on that epoch for a bounded window after their last
/// job — join it without a queue entry, lock or condition-variable wake-up.
/// A parallel_for issued from inside a worker task, or while another
/// caller's job is in flight, runs inline instead of deadlocking or
/// waiting.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace chipalign {

/// Fixed-size worker pool. Tasks are std::function<void()>; exceptions thrown
/// by tasks are captured in the submitting Batch and rethrown from its wait()
/// (first one wins, per batch).
class ThreadPool {
 public:
  /// Completion token for one group of submitted tasks. Each caller owns its
  /// own Batch, which makes submit/wait safe for any number of concurrent
  /// callers on the same pool. The Batch must outlive its tasks: call wait()
  /// before destroying it.
  class Batch {
   public:
    Batch() = default;
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    /// Blocks until every task submitted against this batch has finished;
    /// rethrows the first task exception if any occurred.
    void wait();

    /// Marks the batch cancelled: tasks submitted against it that have not
    /// started yet are skipped (their completion is still signalled, so
    /// wait() does not hang). Tasks already running are not interrupted.
    /// Used by the streaming-merge pipeline to cut queued work short after
    /// the first stage failure, and by the serving engine when a request
    /// is cancelled mid-flight.
    ///
    /// Ordering: the flag itself is advisory — task *visibility* rides the
    /// pool's queue mutex, which already sequences submit() against the
    /// worker's dequeue, so relaxed ordering could never lose or duplicate
    /// a task. The release store / acquire load pair exists for the data
    /// *around* the flag: a worker that observes cancelled() == true is
    /// guaranteed to also observe every write the cancelling thread made
    /// before cancel() (e.g. the failure state that motivated it), so skip
    /// decisions never act on a half-visible cause. On x86 this costs
    /// nothing over relaxed; on ARM it is a cheap ld.acq/st.rel.
    void cancel() { cancelled_.store(true, std::memory_order_release); }

    /// True once cancel() has been called.
    bool cancelled() const {
      return cancelled_.load(std::memory_order_acquire);
    }

   private:
    friend class ThreadPool;
    std::mutex mutex_;
    std::condition_variable done_;
    std::size_t pending_ = 0;
    std::exception_ptr first_error_;
    std::atomic<bool> cancelled_{false};
  };

  /// How long a helper keeps spinning on the job epoch after its last job
  /// before it parks on the condition variable. Measured gaps between
  /// fan-outs while serving are 24-30 us at p50 and at most 2.1 ms at
  /// p99.9, so 3 ms keeps helpers hot through a serving burst; an idle
  /// pool burns at most one window per helper and then sleeps. See
  /// DESIGN.md §4d.
  static constexpr std::chrono::microseconds kSpinWindow{3000};

  /// \param num_threads 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Workers that join a parallel_for next to the caller: 0 for a
  /// one-worker pool (parallel_for runs inline), else min(size(),
  /// hardware_concurrency - 1), so helpers plus the caller never
  /// outnumber the cores they spin on.
  std::size_t helpers() const { return helpers_; }

  /// Enqueues a task; its completion and any exception are recorded in
  /// `batch`. The caller must keep `batch` alive until batch.wait() returns.
  void submit(Batch& batch, std::function<void()> task);

  /// Runs fn(i) for i in [0, count) across the pool and waits. Runs inline
  /// (on the calling thread, in index order) when count == 1, the pool has
  /// no helpers, the caller is itself a pool worker, or another caller's
  /// job is in flight — so nesting cannot deadlock and concurrent callers
  /// stay isolated.
  ///
  /// Dispatch is spin-on-epoch: the caller stores {fn, count} in the
  /// pool's job slot and bumps the epoch; helpers that see it join the job
  /// and pull indices, with the caller, from a shared atomic counter. The
  /// caller then closes the job to late joiners and waits until every
  /// helper that joined has finished. Nothing is allocated, queued or
  /// locked per dispatch while the helpers are spinning; parked helpers
  /// cost one notify. Every index runs exactly once (on some thread), so
  /// callers that write disjoint slots per index stay bitwise
  /// deterministic at any pool size. Inline exceptions propagate
  /// immediately; otherwise the caller's exception, else the first
  /// helper's, rethrows after the wait; a thread whose fn throws stops
  /// pulling further indices while the remaining threads finish the range.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is a worker of *any* ThreadPool. Used to
  /// run nested parallel work inline.
  static bool on_worker_thread();

 private:
  using Clock = std::chrono::steady_clock;

  /// Workers [0, helpers_) are helpers; the rest serve only the queue.
  void worker_loop(std::size_t index);
  /// Pops and runs one queued task; false if the queue was empty.
  bool run_queued_task();
  /// Joins the job published as `ctrl` (unless it is closed), runs indices
  /// until the range is exhausted, and reports completion.
  void help(std::uint64_t ctrl);
  /// Pulls indices of the current job until the range is exhausted.
  void drain(const std::function<void(std::size_t)>& fn, std::size_t count);
  /// Caller side: waits until `joined` helpers have reported completion.
  void wait_for_helpers(std::uint32_t joined);

  std::vector<std::thread> workers_;
  std::size_t helpers_ = 0;

  // submit() queue. queued_ mirrors tasks_.size() so spinning helpers can
  // notice work without taking the mutex.
  std::queue<std::function<void()>> tasks_;
  std::atomic<std::size_t> queued_{0};
  std::mutex mutex_;
  std::condition_variable task_available_;
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
  // Sleep/wake bookkeeping: helpers parked on task_available_, and the
  // caller parked on job_done_ after spinning through a long job.
  std::atomic<std::uint32_t> parked_helpers_{0};
  std::atomic<bool> caller_parked_{false};
  // CPU of the latest parallel_for caller; woken helpers spread off it.
  std::atomic<int> caller_cpu_{-1};
  std::condition_variable job_done_;
};

/// Returns the process-wide shared pool (sized to hardware concurrency).
ThreadPool& global_thread_pool();

}  // namespace chipalign
