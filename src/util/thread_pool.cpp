#include "util/thread_pool.hpp"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

namespace chipalign {

namespace {
thread_local bool tl_on_worker_thread = false;

constexpr std::uint64_t kClosed = std::uint64_t{1} << 31;
constexpr std::uint64_t kJoinedMask = kClosed - 1;
/// Spin iterations between clock reads (and yields) while waiting.
constexpr unsigned kSpinsPerClockRead = 64;

int current_cpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

/// Moves the calling thread onto the `index`-th CPU of its affinity mask
/// other than `avoid`, then restores the mask so it may float again. A
/// helper does this when it wakes from parking: on a virtual machine whose
/// idle vCPUs the host has descheduled, the kernel does not count those
/// vCPUs as idle and queues every woken helper on the waking caller's CPU,
/// where spinning keeps them stacked for up to a second. No-op off Linux.
void spread_off(int avoid, std::size_t index) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (avoid < 0 || avoid >= CPU_SETSIZE ||
      sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    return;
  }
  const int others =
      CPU_COUNT(&allowed) - (CPU_ISSET(avoid, &allowed) ? 1 : 0);
  if (others < 1) return;
  std::size_t skip = index % static_cast<std::size_t>(others);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || cpu == avoid || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) == 0) {
      sched_setaffinity(0, sizeof allowed, &allowed);
    }
    return;
  }
#else
  (void)avoid;
  (void)index;
#endif
}

std::uint32_t epoch_of(std::uint64_t ctrl) {
  return static_cast<std::uint32_t>(ctrl >> 32);
}

/// One spin-wait iteration: a pause, and on every kSpinsPerClockRead-th a
/// yield, so that on an oversubscribed host a spinner hands its core to a
/// runnable thread — perhaps the helper it is waiting for — instead of
/// burning its timeslice.
void spin_pause(unsigned spins) {
#if defined(__x86_64__) || defined(__i386__)
  if (spins % kSpinsPerClockRead != 0) {
    _mm_pause();
    return;
  }
#endif
  std::this_thread::yield();
}
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  size_ = num_threads == 0 ? cores : num_threads;
  const std::size_t helpers = std::min(size_, cores) - 1;
  workers_.reserve(helpers);
  for (std::size_t i = 0; i < helpers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  job_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::on_worker_thread() { return tl_on_worker_thread; }

void ThreadPool::drain(const std::function<void(std::size_t)>& fn,
                       std::size_t count) {
  for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
       i < count; i = next_.fetch_add(1, std::memory_order_relaxed)) {
    fn(i);
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1 || workers_.empty() || on_worker_thread() ||
      in_flight_.exchange(true, std::memory_order_acquire)) {
    // Inline path: trivial fan-out, a pool without helpers, a nested call
    // from inside a helper (waiting on helpers that may all be inside
    // such calls could deadlock), or another caller's job in flight.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // Publish the job. No helper of the previous job is still running (the
  // previous caller waited for all that joined), so the slot is ours.
  job_fn_.store(&fn, std::memory_order_relaxed);
  job_count_.store(count, std::memory_order_relaxed);
  next_.store(0, std::memory_order_relaxed);
  done_.store(0, std::memory_order_relaxed);
  job_error_ = nullptr;
  caller_cpu_.store(current_cpu(), std::memory_order_relaxed);
  ctrl_.store(static_cast<std::uint64_t>(++epoch_) << 32);
  // Pairs with the parked helper's increment-then-check of the epoch (both
  // sequentially consistent): either it sees the new epoch or we see it
  // parked. Taking the mutex orders the notify after its wait began.
  if (parked_helpers_.load() > 0) {
    { std::lock_guard<std::mutex> lock(mutex_); }
    job_available_.notify_all();
  }
  std::exception_ptr caller_error;
  try {
    drain(fn, count);
  } catch (...) {
    caller_error = std::current_exception();
  }
  const std::uint64_t ctrl =
      ctrl_.fetch_or(kClosed, std::memory_order_acq_rel);
  wait_for_helpers(static_cast<std::uint32_t>(ctrl & kJoinedMask));
  std::exception_ptr helper_error = job_error_;
  in_flight_.store(false, std::memory_order_release);
  if (caller_error) std::rethrow_exception(caller_error);
  if (helper_error) std::rethrow_exception(helper_error);
}

void ThreadPool::wait_for_helpers(std::uint32_t joined) {
  // Joined helpers are running indices, so completion is usually a few
  // microseconds away: spin. A long job (a parallel eval shard, say) parks
  // the caller after one spin window instead of burning its core.
  const Clock::time_point start = Clock::now();
  for (unsigned spins = 1;
       done_.load(std::memory_order_acquire) != joined; ++spins) {
    if (spins % kSpinsPerClockRead == 0 &&
        Clock::now() - start >= kSpinWindow) {
      std::unique_lock<std::mutex> lock(mutex_);
      caller_parked_.store(true);
      job_done_.wait(lock, [&] { return done_.load() == joined; });
      caller_parked_.store(false, std::memory_order_relaxed);
      return;
    }
    spin_pause(spins);
  }
}

void ThreadPool::help(std::uint64_t ctrl) {
  const std::uint32_t epoch = epoch_of(ctrl);
  // Join: one CAS on the control word, refused once the caller closed it.
  while (true) {
    if ((ctrl & kClosed) != 0 || epoch_of(ctrl) != epoch) return;
    if (ctrl_.compare_exchange_weak(ctrl, ctrl + 1,
                                    std::memory_order_acquire)) {
      break;
    }
  }
  try {
    drain(*job_fn_.load(std::memory_order_relaxed),
          job_count_.load(std::memory_order_relaxed));
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!job_error_) job_error_ = std::current_exception();
  }
  // After this increment the caller may return and reuse the slot; only
  // pool members are touched below. Sequentially consistent against the
  // caller's parked-flag store, like the epoch/parked pair above.
  done_.fetch_add(1);
  if (caller_parked_.load()) {
    { std::lock_guard<std::mutex> lock(mutex_); }
    job_done_.notify_one();
  }
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_on_worker_thread = true;
  std::uint32_t seen = epoch_of(ctrl_.load(std::memory_order_acquire));
  Clock::time_point last_job;  // the clock's epoch: start parked
  unsigned spins = 0;
  while (true) {
    const std::uint64_t ctrl = ctrl_.load(std::memory_order_acquire);
    if (epoch_of(ctrl) != seen) {
      seen = epoch_of(ctrl);
      help(ctrl);
      last_job = Clock::now();
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    // Spin through the window after the last job, then park.
    if (++spins % kSpinsPerClockRead != 0 ||
        Clock::now() - last_job < kSpinWindow) {
      spin_pause(spins);
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    parked_helpers_.fetch_add(1);
    job_available_.wait(lock, [&] {
      return stopping_.load(std::memory_order_relaxed) ||
             epoch_of(ctrl_.load()) != seen;
    });
    parked_helpers_.fetch_sub(1, std::memory_order_relaxed);
    if (epoch_of(ctrl_.load(std::memory_order_acquire)) != seen) {
      lock.unlock();
      spread_off(caller_cpu_.load(std::memory_order_relaxed), index);
    }
  }
}

ThreadPool& global_thread_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace chipalign
