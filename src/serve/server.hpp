#pragma once
/// \file server.hpp
/// \brief Multi-tenant serving engine: continuous batching over one model.
///
/// One immutable TransformerModel, many concurrent sessions. Clients
/// submit() Requests (thread-safe) and get back an opaque SessionId; a
/// driver thread calls run() (or step() in a loop), which advances EVERY
/// runnable session per iteration in a single forward() (nn/decode.hpp),
/// one row group per session — each weight matrix streams through the
/// cache once per step instead of once per session, which is where batched
/// serving throughput comes from. A group is one token, or under
/// speculative decoding a greedy session's pending token plus its drafts.
///
/// Continuous batching: sessions join and leave the batch at token
/// granularity. A freshly admitted session spends its first steps feeding
/// prompt tokens (its logits rows are discarded) while its batch-mates are
/// already decoding; when a session finishes or a new one is admitted, the
/// next step's batch simply re-forms. Admission control bounds residency
/// by session count and KV bytes; waiting requests queue FIFO. Within a
/// step, runnable sessions are picked round-robin so no session starves
/// when more than max_batch are resident.
///
/// Request lifecycle (DESIGN.md §4k): every submitted session moves
/// queued → resident → terminal, and every terminal session delivers a
/// SessionResult whose `status` says how it ended — kCompleted, or one of
/// the early-exit statuses: kCancelled (Server::cancel(), effective within
/// one step), kDeadlineExceeded (Request::deadline_ms / max_queue_ms,
/// enforced in the queue and mid-decode at token granularity),
/// kShedOverload (bounced from a full bounded queue under the shed-oldest
/// policy), or kShuttingDown (drain() reached it first). Early-exit
/// eviction releases the session's KV bytes and prefix-cache pins at the
/// next step boundary, and never perturbs batch-mates: the surviving batch
/// simply re-forms, and the batched==serial bit-identity contract makes the
/// survivors' outputs independent of who left. submit() rejections
/// (QueueFullError, UnservableError, ShuttingDownError — util/error.hpp)
/// are the only requests that do not deliver a result; an accepted request
/// always terminalizes, even across drain.
///
/// Every row group's tokens are emitted by the same walk generate() uses
/// (spec_accept_walk: pick, stop, emit, budget), and forward() gives a
/// row the same bits whoever shares the step, so a session's output token
/// sequence is bitwise equal to what
/// generate() would produce for its prompt — independent of batch-mates,
/// batch width, admission order, or prefix-cache hits. The serving tests
/// pin this, and the serve-path chaos soak re-pins it with the `serve.*`
/// failpoint sites armed.
///
/// A shared RadixKvCache (optional) lets sessions whose prompts share a
/// token prefix skip the shared part of prefill: acquire() on admission,
/// insert() once the prompt is fully consumed.
///
/// Threading model: submit()/cancel()/wait_result*()/drain()/stats() are
/// thread-safe; step()/run()/serve() must be called from one driver thread
/// at a time. Token callbacks fire on the driver thread. The optional
/// watchdog runs its own polling thread and only reads via the same lock.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "nn/infer.hpp"
#include "nn/spec_decode.hpp"
#include "nn/transformer.hpp"
#include "serve/radix_cache.hpp"
#include "util/thread_pool.hpp"

namespace chipalign {

/// Opaque handle for a submitted request; assigned by submit().
using SessionId = std::int64_t;

/// How a session reached its terminal state. kCompleted is the only status
/// under which SessionResult::tokens is a full generation; every other
/// status carries whatever was emitted before the early exit (possibly
/// nothing) plus a diagnostic in SessionResult::error.
enum class SessionStatus {
  kCompleted,         ///< ran to <eos>/newline/budget; bitwise == generate()
  kCancelled,         ///< Server::cancel(), or a streaming callback threw
  kDeadlineExceeded,  ///< deadline_ms or max_queue_ms elapsed first
  kShedOverload,      ///< shed from a full bounded queue (shed-oldest policy)
  kShuttingDown,      ///< drain()/shutdown_now() terminated it
  kFailed,            ///< admission fault (e.g. injected serve.admit error)
};

/// Stable lowercase name for logs and JSON ("completed", "cancelled", ...).
const char* session_status_name(SessionStatus status);

/// Serving engine knobs. Defaults suit the test-scale models in this repo.
struct ServeConfig {
  /// Sessions resident (holding KV) at once; excess submissions queue.
  std::size_t max_sessions = 32;
  /// Admission budget for resident sessions' KV bytes. 0 = unlimited.
  std::size_t max_kv_bytes = 0;
  /// Widest batched step; more runnable sessions round-robin across steps.
  std::int64_t max_batch = 16;
  /// Bound on the admission queue (waiting, not-yet-resident sessions).
  /// 0 = unbounded. When full, submit() either throws QueueFullError
  /// (default) or — with shed_oldest_on_full — sheds the oldest waiting
  /// session (terminal status kShedOverload) to make room for the newcomer.
  std::size_t max_queue = 0;
  /// Full-queue policy: favor fresh requests over stale ones. Off, the
  /// newcomer is rejected; on, the oldest queued session is shed. Either
  /// way the outcome is explicit — nothing is ever silently dropped.
  bool shed_oldest_on_full = false;
  /// Clock used for deadlines and the watchdog, in milliseconds. Leave
  /// empty for steady_clock; tests inject a fake clock here to make
  /// deadline expiry and stall detection deterministic. Must be
  /// thread-safe: submit(), the driver, and the watchdog all call it.
  std::function<std::int64_t()> now_ms;
  /// Budget for the shared prefix cache; 0 disables prefix reuse.
  std::size_t prefix_cache_bytes = 0;
  /// KV cache storage dtype for every session (and the prefix cache):
  /// kF32, or kF16 to halve resident KV bytes — so twice the sessions fit
  /// a given max_kv_bytes — at a small accuracy cost (rows round to
  /// nearest-even on store). Outputs stay bitwise deterministic either way.
  DType kv_dtype = DType::kF32;
  /// Pool for fanning per-row attention inside a step's forward(); nullptr
  /// uses the global pool. Purely a throughput knob (bits never change).
  ThreadPool* pool = nullptr;

  // Speculative decoding (nn/spec_decode.hpp). When enabled, greedy
  // sessions past prefill advance up to draft_k + 1 tokens per step: their
  // row group in the step's forward() is the pending token plus
  // prompt-lookup drafts. Acceptance is greedy, so emitted tokens stay
  // byte-identical to non-speculative decoding (a pure throughput knob).
  // Prefilling and temperature-sampled sessions feed one token per step.
  // The step's scratch holds max_batch * (1 + draft_k) rows.
  bool speculative = false;  ///< enable draft+verify for greedy sessions
  std::int64_t draft_k = 4;  ///< draft tokens proposed per verify pass
};

/// One generation request. Prompt tokens are raw ids (use text_request()
/// to encode a string the way generate() does, with <bos>).
struct Request {
  std::vector<TokenId> prompt;
  std::int64_t max_new_tokens = 128;
  double temperature = 0.0;  ///< 0 => greedy decoding
  std::uint64_t seed = 7;    ///< sampler stream, used when temperature > 0
  bool stop_at_newline = false;
  /// Whole-lifetime deadline in milliseconds from submit(); 0 = none.
  /// Checked in the queue and between decode steps: an expired resident is
  /// evicted at token granularity (KV and prefix pins released) with
  /// status kDeadlineExceeded and whatever tokens it had emitted.
  std::int64_t deadline_ms = 0;
  /// Queue-time-only deadline: give up if not *admitted* within this many
  /// milliseconds of submit(). 0 = wait forever. Lets clients bound tail
  /// latency without capping the decode itself.
  std::int64_t max_queue_ms = 0;
  /// Streaming callback, fired on the driver thread as each token is
  /// emitted (before the result is complete). May be empty. A throwing
  /// callback terminates its own session (status kCancelled, the exception
  /// text in SessionResult::error) and never disturbs batch-mates.
  std::function<void(SessionId, TokenId)> on_token;
};

/// Terminal outcome of a session (see SessionStatus for how it ended).
struct SessionResult {
  SessionStatus status = SessionStatus::kCompleted;
  std::vector<TokenId> tokens;  ///< emitted tokens (no prompt, no <eos>)
  std::string text;             ///< tokens decoded
  std::string error;            ///< diagnostic when status != kCompleted
  std::int64_t prompt_tokens = 0;
  std::int64_t cached_tokens = 0;  ///< prompt tokens served by prefix cache
};

/// Aggregate serving counters (see also RadixKvCache::Stats). Lifecycle
/// accounting balances: submitted == completed + cancelled + expired +
/// shed + shutdown_terminated + failed + waiting + resident — i.e. every
/// accepted session is either still in flight or counted in exactly one
/// terminal bucket. submit() throws are counted separately (rejected_*)
/// and never enter `submitted`.
struct ServerStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t cancelled = 0;  ///< cancel() or failed streaming callback
  std::int64_t expired = 0;    ///< deadline_ms / max_queue_ms terminations
  std::int64_t shed = 0;       ///< kShedOverload terminations
  std::int64_t shutdown_terminated = 0;  ///< kShuttingDown terminations
  std::int64_t failed = 0;               ///< kFailed (admission faults)
  std::int64_t rejected_full = 0;        ///< submit() QueueFullError throws
  std::int64_t rejected_unservable = 0;  ///< submit() UnservableError throws
  std::int64_t rejected_shutdown = 0;    ///< submit() ShuttingDownError
  std::int64_t steps = 0;          ///< batched decode steps executed
  std::int64_t step_tokens = 0;    ///< KV rows kept across all steps
  std::int64_t peak_batch = 0;     ///< widest batch seen
  std::int64_t peak_resident = 0;  ///< most concurrently resident sessions
  std::int64_t step_faults = 0;    ///< serve.step injections absorbed
  std::int64_t admit_faults = 0;   ///< serve.admit injections (→ kFailed)
  std::int64_t prefix_faults = 0;  ///< serve.prefix_acquire (→ cache miss)
  std::int64_t callback_faults = 0;  ///< throwing on_token (→ kCancelled)
  std::int64_t watchdog_alarms = 0;  ///< stalled-driver detections
  std::int64_t waiting = 0;          ///< gauge: queued sessions now
  std::int64_t resident = 0;         ///< gauge: resident sessions now
  std::size_t resident_kv_bytes = 0;  ///< gauge: KV held by residents now
  SpecDecodeStats spec;            ///< speculative draft/verify counters
  RadixKvCache::Stats cache;
};

class Server {
 public:
  Server(const TransformerModel& model, ServeConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Validates and enqueues a request; returns its handle. Throws
  /// UnservableError on a request no admission order could ever run
  /// (empty prompt, prompt at/over the context window, out-of-vocab
  /// tokens, non-positive token budget, negative deadlines, or a KV
  /// footprint over the server budget), ShuttingDownError after drain(),
  /// and QueueFullError when the bounded queue is full without the
  /// shed-oldest policy. Thread-safe.
  SessionId submit(Request request);

  /// Builds a Request for a text prompt exactly the way generate() would:
  /// <bos>-prefixed encoding and the GenerateOptions sampling knobs.
  Request text_request(std::string_view prompt,
                       const GenerateOptions& options = {},
                       bool stop_at_newline = false) const;

  /// Requests early termination of `id`. Returns true when the session was
  /// still live (queued or resident): a queued session terminalizes
  /// immediately, a resident one at the next step boundary — "effective
  /// within one step". Returns false when the session already has a result
  /// (too late). Throws UnknownSessionError for an id submit() never
  /// issued. Thread-safe; callable from any thread, including on_token
  /// callbacks on the driver thread.
  bool cancel(SessionId id);

  /// Advances every runnable session by one token (one batched decode
  /// step), first terminalizing cancelled/expired sessions and admitting
  /// queued ones. Returns false when no queued or resident work remains.
  /// Driver thread only.
  bool step();

  /// Runs step() until all submitted work has terminalized. Returns after
  /// drain() once residents finish (or expire under the hard stop).
  void run();

  /// Blocking driver loop for a long-lived server: like run(), but when no
  /// work is queued it sleeps on a condition variable instead of
  /// returning, waking on submit(). Returns only once drain() has been
  /// called and every session has terminalized. Driver thread only.
  void serve();

  /// Initiates graceful shutdown: admission closes permanently (submit()
  /// throws ShuttingDownError), every queued session terminalizes
  /// immediately with kShuttingDown, and residents keep decoding until
  /// they complete or their deadlines expire — then run()/serve() return.
  /// Idempotent; thread-safe; callable with or without a live driver
  /// (queued work terminalizes either way, residents need the driver).
  void drain();

  /// Hard-stop escape hatch: drain(), plus residents are terminalized with
  /// kShuttingDown (keeping any tokens already emitted) at the next step
  /// boundary instead of decoding to completion. In-flight batched work is
  /// never interrupted mid-step — a wedged step is what the watchdog
  /// detects, not what shutdown_now() interrupts.
  void shutdown_now();

  /// True once drain()/shutdown_now() has been called. Thread-safe.
  bool draining() const;

  /// True when queued or resident sessions exist. Thread-safe.
  bool busy() const;

  /// Blocks until `id` terminalizes and returns (a copy of) its result.
  /// Throws UnknownSessionError for an id submit() never issued — a
  /// mistyped or stale id fails fast instead of blocking forever. The
  /// driver must be running (or the session already terminal) or this
  /// waits forever; prefer wait_result_for() when unsure.
  SessionResult wait_result(SessionId id);

  /// Bounded wait_result(): returns the result, or std::nullopt if `id`
  /// has not terminalized within timeout_ms. Throws UnknownSessionError
  /// for an id submit() never issued. timeout_ms <= 0 polls once.
  std::optional<SessionResult> wait_result_for(SessionId id,
                                               std::int64_t timeout_ms);

  /// Starts a watchdog thread that fires when the driver loop is wedged:
  /// if the server is busy() and no step has completed for stall_ms
  /// (by the configured clock), `on_stall` is invoked with the stalled
  /// duration and ServerStats::watchdog_alarms increments; the alarm
  /// re-arms, so a persistent stall fires roughly every stall_ms. The
  /// default on_stall logs a warning. The watchdog observes — it never
  /// kills the driver; pair it with shutdown_now() in the handler if
  /// that is the policy. Thread-safe.
  void start_watchdog(std::int64_t stall_ms,
                      std::function<void(std::int64_t)> on_stall = {});

  /// Stops and joins the watchdog thread (idempotent; also runs in the
  /// destructor).
  void stop_watchdog();

  ServerStats stats() const;

 private:
  struct Session;

  std::int64_t now_ms() const;
  void reap_locked();
  void admit_locked();
  void check_known_locked(SessionId id) const;
  bool queue_expired_locked(const Session& session, std::int64_t now) const;
  bool lifetime_expired_locked(const Session& session,
                               std::int64_t now) const;
  /// Emits one token: records it and fires the streaming callback behind
  /// the serve.callback failpoint. Returns false when the callback threw —
  /// the session must then terminalize as kCancelled.
  bool emit_token(Session& session, TokenId token);
  void finish_locked(std::unique_ptr<Session> session, SessionStatus status);
  void touch_progress_locked();

  const TransformerModel& model_;
  ServeConfig config_;
  RadixKvCache cache_;
  DecodeScratch scratch_;       ///< one step's rows (scratch_rows())
  std::vector<TokenId> feed_;   ///< tokens fed this step [rows]
  std::vector<float> logits_;   ///< [rows, vocab]
  PromptLookupDrafter drafter_;  ///< shared, stateless (driver thread)
  std::vector<TokenId> spec_context_;  ///< prompt + emitted scratch

  mutable std::mutex mutex_;
  std::condition_variable finished_cv_;
  std::condition_variable work_cv_;  ///< wakes serve() on submit()/drain()
  SessionId next_id_ = 1;
  std::vector<std::unique_ptr<Session>> waiting_;  ///< FIFO admission queue
  std::vector<std::unique_ptr<Session>> active_;   ///< resident sessions
  std::size_t resident_kv_bytes_ = 0;
  std::size_t rr_next_ = 0;  ///< round-robin cursor into active_
  std::map<SessionId, SessionResult> results_;
  ServerStats stats_;
  bool draining_ = false;   ///< admission closed (drain()/shutdown_now())
  bool hard_stop_ = false;  ///< also evict residents at step boundaries
  std::int64_t last_progress_ms_ = 0;  ///< watchdog: last step completion

  std::thread watchdog_;
  std::mutex watchdog_mutex_;  ///< guards start/stop against each other
  std::atomic<bool> watchdog_stop_{false};
};

}  // namespace chipalign
