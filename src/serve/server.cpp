#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "nn/decode.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"

namespace chipalign {

/// Per-session bookkeeping. The KV-bearing SessionState is allocated at
/// admission (not submission) so queued sessions cost no cache memory.
///
/// Field access discipline: during the unlocked decode phase the driver
/// thread freely mutates the decode fields (feed_index, pending, emitted,
/// callback_failed, error). Client threads touch only `cancelled` — and
/// only under mutex_ — which the driver also reads only under mutex_ (in
/// reap_locked), so there is no field both sides access without the lock.
struct Server::Session {
  SessionId id = 0;
  Request request;
  std::int64_t max_new = 0;        ///< effective budget (context-clamped)
  std::int64_t capacity = 0;       ///< KV rows this session needs
  std::int64_t cached_tokens = 0;  ///< prefix-cache hit length
  std::int64_t feed_index = 0;     ///< next prompt token to feed
  std::int64_t submit_ms = 0;      ///< clock reading at submit()
  TokenId pending = -1;            ///< sampled token awaiting its feed
  bool inserted = false;           ///< prompt published to the prefix cache
  bool cancelled = false;          ///< cancel() flag (mutex_-guarded)
  bool callback_failed = false;    ///< on_token threw (driver thread only)
  std::string error;               ///< diagnostic for non-completed endings
  std::vector<TokenId> emitted;
  std::unique_ptr<SessionState> state;  ///< live while resident
  RadixKvCache::Ref cache_ref;

  std::int64_t prompt_len() const {
    return static_cast<std::int64_t>(request.prompt.size());
  }
};

namespace {
std::int64_t scratch_rows(const ServeConfig& config) {
  // Under speculation every batched session may feed its pending token
  // plus draft_k drafts in the step's one forward().
  return config.speculative
             ? config.max_batch * (1 + std::max<std::int64_t>(
                                           config.draft_k, 0))
             : config.max_batch;
}
}  // namespace

const char* session_status_name(SessionStatus status) {
  switch (status) {
    case SessionStatus::kCompleted: return "completed";
    case SessionStatus::kCancelled: return "cancelled";
    case SessionStatus::kDeadlineExceeded: return "deadline_exceeded";
    case SessionStatus::kShedOverload: return "shed_overload";
    case SessionStatus::kShuttingDown: return "shutting_down";
    case SessionStatus::kFailed: return "failed";
  }
  return "?";
}

Server::Server(const TransformerModel& model, ServeConfig config)
    : model_(model),
      config_(std::move(config)),
      cache_(model.config(), config_.prefix_cache_bytes, config_.kv_dtype),
      scratch_(model.config(), scratch_rows(config_)) {
  CA_CHECK(config_.max_sessions > 0, "ServeConfig.max_sessions must be > 0");
  CA_CHECK(config_.draft_k >= 0,
           "ServeConfig.draft_k must be >= 0, got " << config_.draft_k);
  feed_.resize(static_cast<std::size_t>(scratch_.max_batch));
  logits_.resize(static_cast<std::size_t>(scratch_.max_batch *
                                          model_.config().vocab_size));
  last_progress_ms_ = now_ms();
}

Server::~Server() { stop_watchdog(); }

std::int64_t Server::now_ms() const {
  if (config_.now_ms) return config_.now_ms();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Request Server::text_request(std::string_view prompt,
                             const GenerateOptions& options,
                             bool stop_at_newline) const {
  Request request;
  request.prompt = tokenizer().encode(prompt, /*add_bos=*/true);
  request.max_new_tokens = options.max_new_tokens;
  request.temperature = options.temperature;
  request.seed = options.seed;
  request.stop_at_newline = stop_at_newline;
  return request;
}

SessionId Server::submit(Request request) {
  const auto& config = model_.config();
  auto session = std::make_unique<Session>();
  try {
    const auto prompt_len = static_cast<std::int64_t>(request.prompt.size());
    if (prompt_len <= 0) {
      CA_THROW_AS(UnservableError, "submit with empty prompt");
    }
    if (prompt_len >= config.max_seq_len) {
      CA_THROW_AS(UnservableError,
                  "prompt of " << prompt_len
                               << " tokens fills the whole context window ("
                               << config.max_seq_len << ")");
    }
    for (const TokenId token : request.prompt) {
      if (token < 0 || token >= config.vocab_size) {
        CA_THROW_AS(UnservableError,
                    "prompt token id " << token << " out of vocab");
      }
    }
    if (request.max_new_tokens <= 0) {
      CA_THROW_AS(UnservableError, "submit with non-positive max_new_tokens "
                                       << request.max_new_tokens);
    }
    if (request.deadline_ms < 0 || request.max_queue_ms < 0) {
      CA_THROW_AS(UnservableError,
                  "negative deadline (deadline_ms "
                      << request.deadline_ms << ", max_queue_ms "
                      << request.max_queue_ms << ")");
    }
    session->request = std::move(request);
    session->max_new =
        std::min<std::int64_t>(session->request.max_new_tokens,
                               config.max_seq_len - prompt_len);
    // The final emitted token is never fed back (generate() feeds it only
    // to throw the logits away), so the cache needs one row fewer than
    // prompt + budget.
    session->capacity = prompt_len + session->max_new - 1;
    if (session->capacity < 1) session->capacity = 1;
    const std::size_t bytes =
        SessionState::kv_bytes_for(config, session->capacity,
                                   config_.kv_dtype);
    if (config_.max_kv_bytes != 0 && bytes > config_.max_kv_bytes) {
      CA_THROW_AS(UnservableError,
                  "session needs " << bytes
                                   << " KV bytes, over the server budget "
                                   << config_.max_kv_bytes
                                   << " — no admission order can ever run "
                                      "it");
    }
  } catch (const UnservableError&) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rejected_unservable;
    throw;
  }
  session->submit_ms = now_ms();

  std::lock_guard<std::mutex> lock(mutex_);
  if (draining_) {
    ++stats_.rejected_shutdown;
    CA_THROW_AS(ShuttingDownError,
                "server is draining — admission is closed");
  }
  if (config_.max_queue > 0 && waiting_.size() >= config_.max_queue) {
    if (!config_.shed_oldest_on_full) {
      ++stats_.rejected_full;
      CA_THROW_AS(QueueFullError,
                  "admission queue full (" << waiting_.size()
                                           << " waiting, max_queue "
                                           << config_.max_queue << ")");
    }
    // Shed-oldest: the stalest queued request makes room for the newest.
    // Explicit terminal status, never a silent drop.
    auto victim = std::move(waiting_.front());
    waiting_.erase(waiting_.begin());
    victim->error = "shed from a full admission queue to admit newer work";
    finish_locked(std::move(victim), SessionStatus::kShedOverload);
  }
  session->id = next_id_++;
  const SessionId id = session->id;
  ++stats_.submitted;
  waiting_.push_back(std::move(session));
  work_cv_.notify_all();
  return id;
}

bool Server::queue_expired_locked(const Session& session,
                                  std::int64_t now) const {
  if (session.request.max_queue_ms > 0 &&
      now - session.submit_ms >= session.request.max_queue_ms) {
    return true;
  }
  return lifetime_expired_locked(session, now);
}

bool Server::lifetime_expired_locked(const Session& session,
                                     std::int64_t now) const {
  return session.request.deadline_ms > 0 &&
         now - session.submit_ms >= session.request.deadline_ms;
}

void Server::reap_locked() {
  const std::int64_t now = now_ms();
  // Queue sweep: cancelled, drained, or expired-before-admission sessions
  // terminalize without ever holding KV.
  for (auto it = waiting_.begin(); it != waiting_.end();) {
    Session& session = **it;
    SessionStatus status;
    if (session.cancelled) {
      status = SessionStatus::kCancelled;
    } else if (draining_) {
      status = SessionStatus::kShuttingDown;
      session.error = "server drained before the session was admitted";
    } else if (queue_expired_locked(session, now)) {
      status = SessionStatus::kDeadlineExceeded;
      session.error = "deadline expired in the admission queue";
    } else {
      ++it;
      continue;
    }
    auto owned = std::move(*it);
    it = waiting_.erase(it);
    finish_locked(std::move(owned), status);
  }
  // Resident sweep — the token-granularity eviction point: runs between
  // batched steps (never while the driver holds raw batch pointers), so
  // removing a session here just re-forms the next batch without it. The
  // batched==serial bit-identity makes survivors' outputs independent of
  // who left.
  for (auto it = active_.begin(); it != active_.end();) {
    Session& session = **it;
    SessionStatus status;
    if (session.cancelled) {
      status = SessionStatus::kCancelled;
      if (session.error.empty()) session.error = "cancelled by client";
    } else if (hard_stop_) {
      status = SessionStatus::kShuttingDown;
      session.error = "hard stop (shutdown_now) evicted the session";
    } else if (lifetime_expired_locked(session, now)) {
      status = SessionStatus::kDeadlineExceeded;
      session.error = "deadline expired mid-decode";
    } else {
      ++it;
      continue;
    }
    auto owned = std::move(*it);
    it = active_.erase(it);
    finish_locked(std::move(owned), status);
  }
}

void Server::admit_locked() {
  const auto& config = model_.config();
  while (!waiting_.empty() && active_.size() < config_.max_sessions) {
    Session& session = *waiting_.front();
    const std::size_t bytes =
        SessionState::kv_bytes_for(config, session.capacity,
                                   config_.kv_dtype);
    if (config_.max_kv_bytes > 0 &&
        resident_kv_bytes_ + bytes > config_.max_kv_bytes) {
      break;  // FIFO: later (smaller) sessions wait their turn too
    }
    try {
      CA_FAILPOINT("serve.admit");
      session.state = std::make_unique<SessionState>(config,
                                                     session.capacity,
                                                     session.request.seed,
                                                     config_.kv_dtype);
    } catch (const Error& error) {
      // Admission fault: this session terminalizes as kFailed; the queue
      // behind it keeps admitting.
      ++stats_.admit_faults;
      session.error = error.what();
      auto owned = std::move(waiting_.front());
      waiting_.erase(waiting_.begin());
      finish_locked(std::move(owned), SessionStatus::kFailed);
      continue;
    }
    // Reuse cached prefill for all but the last prompt token — that one
    // must be fed live to produce the logits the first sample needs.
    if (config_.prefix_cache_bytes > 0 && session.prompt_len() > 1) {
      try {
        CA_FAILPOINT("serve.prefix_acquire");
        session.cache_ref = cache_.acquire(
            std::span<const TokenId>(session.request.prompt.data(),
                                     session.request.prompt.size() - 1),
            *session.state);
        session.cached_tokens = session.cache_ref.matched();
        session.feed_index = session.cached_tokens;
      } catch (const Error&) {
        // Degrade to a cold prefill: a miss is always a valid execution
        // (bit-identity holds), so an acquire fault costs latency, never
        // correctness.
        ++stats_.prefix_faults;
        session.cache_ref = RadixKvCache::Ref();
        session.state->position = 0;
        session.cached_tokens = 0;
        session.feed_index = 0;
      }
    }
    resident_kv_bytes_ += bytes;
    active_.push_back(std::move(waiting_.front()));
    waiting_.erase(waiting_.begin());
    stats_.peak_resident =
        std::max(stats_.peak_resident,
                 static_cast<std::int64_t>(active_.size()));
  }
}

bool Server::emit_token(Session& session, TokenId token) {
  session.emitted.push_back(token);
  if (!session.request.on_token) return true;
  try {
    CA_FAILPOINT("serve.callback");
    session.request.on_token(session.id, token);
    return true;
  } catch (const std::exception& error) {
    // A misbehaving client callback terminates its own session only; the
    // already-emitted token stays in the result.
    session.callback_failed = true;
    session.error =
        std::string("streaming callback failed: ") + error.what();
    return false;
  }
}

void Server::finish_locked(std::unique_ptr<Session> session,
                           SessionStatus status) {
  SessionResult result;
  result.status = status;
  result.tokens = std::move(session->emitted);
  result.text = tokenizer().decode(result.tokens);
  result.error = std::move(session->error);
  result.prompt_tokens = session->prompt_len();
  result.cached_tokens = session->cached_tokens;
  // Release the KV bytes and prefix pins this session held. Resident
  // sessions are only ever finished by the driver thread (reap/merge), so
  // this Ref release never races the driver's unlocked cache_ inserts;
  // queued sessions — the only ones finished from client threads, by
  // cancel()/drain()/shed — hold no state and no pins.
  session->cache_ref.release();
  if (session->state != nullptr) {
    resident_kv_bytes_ -= session->state->kv_bytes();
  }
  switch (status) {
    case SessionStatus::kCompleted: ++stats_.completed; break;
    case SessionStatus::kCancelled: ++stats_.cancelled; break;
    case SessionStatus::kDeadlineExceeded: ++stats_.expired; break;
    case SessionStatus::kShedOverload: ++stats_.shed; break;
    case SessionStatus::kShuttingDown: ++stats_.shutdown_terminated; break;
    case SessionStatus::kFailed: ++stats_.failed; break;
  }
  results_.emplace(session->id, std::move(result));
  finished_cv_.notify_all();
}

bool Server::step() {
  try {
    CA_FAILPOINT("serve.step");
  } catch (const Error&) {
    // The site sits before any state mutation, so an injected step fault
    // is absorbed by simply retrying: nothing to roll back, determinism
    // untouched.
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.step_faults;
    touch_progress_locked();
    return !active_.empty() || !waiting_.empty();
  }
  const auto& config = model_.config();
  std::vector<Session*> batch;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    reap_locked();
    admit_locked();
    if (active_.empty()) {
      touch_progress_locked();
      return !waiting_.empty();
    }
    const auto width = std::min<std::size_t>(
        static_cast<std::size_t>(config_.max_batch), active_.size());
    batch.reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
      batch.push_back(active_[i].get());
    }
  }
  const auto width = static_cast<std::int64_t>(batch.size());
  const std::int64_t vocab = config.vocab_size;

  // One group per session, all in one forward(). A prefilling session
  // feeds its next prompt token; a decoding one feeds its pending token,
  // plus prompt-lookup drafts when it is greedy and speculation is on
  // (greedy acceptance keeps its output byte-identical).
  std::vector<ForwardGroup> groups(batch.size());
  std::vector<bool> speculative(batch.size(), false);
  std::size_t rows = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Session& session = *batch[i];
    TokenId* feed = feed_.data() + rows;
    std::size_t len = 1;
    if (session.feed_index < session.prompt_len()) {
      feed[0] = session.request.prompt[static_cast<std::size_t>(
          session.feed_index)];
    } else {
      feed[0] = session.pending;
      speculative[i] =
          config_.speculative && session.request.temperature <= 0.0;
      // Drafts fill whatever KV headroom remains (the final emitted token
      // is never fed, hence the -1).
      const std::int64_t k = std::min<std::int64_t>(
          config_.draft_k, session.capacity - session.state->position - 1);
      if (speculative[i] && k > 0) {
        spec_context_.assign(session.request.prompt.begin(),
                             session.request.prompt.end());
        spec_context_.insert(spec_context_.end(), session.emitted.begin(),
                             session.emitted.end());
        len += drafter_.draft(
            std::span<const TokenId>(spec_context_.data(),
                                     spec_context_.size()),
            static_cast<std::size_t>(k),
            std::span<TokenId>(feed + 1,
                               static_cast<std::size_t>(config_.draft_k)));
      }
    }
    groups[i] = ForwardGroup{session.state.get(),
                             std::span<const TokenId>(feed, len)};
    rows += len;
  }
  const std::span<float> logits(logits_.data(),
                                rows * static_cast<std::size_t>(vocab));
  forward(model_,
          std::span<const ForwardGroup>(groups.data(), groups.size()),
          scratch_, logits,
          config_.pool != nullptr ? config_.pool : &global_thread_pool());

  std::vector<bool> done(batch.size(), false);
  SpecDecodeStats pass_stats;
  std::int64_t kept_rows = 0;
  std::size_t row = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Session& session = *batch[i];
    const std::span<const TokenId> fed = groups[i].tokens;
    const std::span<const float> group_logits = logits.subspan(
        row * static_cast<std::size_t>(vocab),
        fed.size() * static_cast<std::size_t>(vocab));
    row += fed.size();
    if (session.feed_index < session.prompt_len()) {
      if (++session.feed_index < session.prompt_len()) {
        ++kept_rows;
        continue;  // still prefilling; this row's logits are discarded
      }
      // Prompt fully consumed: publish its KV for future prefix sharing.
      // Only ever sees accepted tokens — drafts are never fed before the
      // prompt completes, and the cache is not touched afterwards.
      if (config_.prefix_cache_bytes > 0 && !session.inserted) {
        cache_.insert(
            std::span<const TokenId>(session.request.prompt.data(),
                                     session.request.prompt.size()),
            *session.state);
        session.inserted = true;
      }
    }
    SessionState& state = *session.state;
    const std::int64_t pos0 =
        state.position - static_cast<std::int64_t>(fed.size());
    const SpecWalkResult walk = spec_accept_walk(
        group_logits, vocab, fed.subspan(1),
        [&](std::span<const float> r) {
          return pick_token(r, session.request.temperature, state.rng);
        },
        session.request.stop_at_newline,
        [&](TokenId t) {
          if (!emit_token(session, t)) return false;  // callback failed
          return static_cast<std::int64_t>(session.emitted.size()) <
                 session.max_new;
        });
    state.truncate(pos0 + walk.consumed);
    kept_rows += walk.consumed;
    if (speculative[i]) {
      ++pass_stats.verify_passes;
      pass_stats.drafted += static_cast<std::int64_t>(fed.size()) - 1;
      pass_stats.accepted += walk.accepted;
      pass_stats.emitted += walk.emitted;
    }
    // Budget spent ends the session too: the last token is never fed back.
    // A failed streaming callback terminalizes as kCancelled below.
    done[i] = walk.stopped || session.callback_failed ||
              static_cast<std::int64_t>(session.emitted.size()) >=
                  session.max_new;
    if (!done[i]) session.pending = walk.last;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.steps;
  stats_.step_tokens += kept_rows;
  stats_.spec.merge(pass_stats);
  stats_.peak_batch = std::max(stats_.peak_batch, width);
  // Round-robin: surviving batch members rotate to the back so sessions
  // beyond max_batch get the next steps.
  std::vector<std::unique_ptr<Session>> stepped;
  stepped.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    stepped.push_back(std::move(active_[i]));
  }
  active_.erase(active_.begin(),
                active_.begin() + static_cast<std::ptrdiff_t>(batch.size()));
  for (std::size_t i = 0; i < stepped.size(); ++i) {
    if (!done[i]) {
      active_.push_back(std::move(stepped[i]));
      continue;
    }
    SessionStatus status = SessionStatus::kCompleted;
    if (stepped[i]->callback_failed) {
      status = SessionStatus::kCancelled;
      ++stats_.callback_faults;
    }
    finish_locked(std::move(stepped[i]), status);
  }
  // Snapshot cache stats after the finishes above so released pins show.
  stats_.cache = cache_.stats();
  touch_progress_locked();
  return !active_.empty() || !waiting_.empty();
}

void Server::run() {
  while (step()) {
  }
}

void Server::serve() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return draining_ || !waiting_.empty() || !active_.empty();
      });
      if (draining_ && waiting_.empty() && active_.empty()) return;
    }
    while (step()) {
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ && waiting_.empty() && active_.empty()) return;
  }
}

bool Server::busy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !waiting_.empty() || !active_.empty();
}

bool Server::cancel(SessionId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  check_known_locked(id);
  for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
    if ((*it)->id != id) continue;
    // Queued: terminalize right here — no driver round trip needed, and
    // the driver never holds pointers into waiting_.
    auto session = std::move(*it);
    waiting_.erase(it);
    session->error = "cancelled by client";
    finish_locked(std::move(session), SessionStatus::kCancelled);
    return true;
  }
  for (const auto& session : active_) {
    if (session->id != id) continue;
    // Resident: flag only (the driver may be mid-decode on this session);
    // reap_locked() terminalizes it at the next step boundary — effective
    // within one step. The diagnostic is set there too: `error` belongs
    // to the driver while the session is resident.
    session->cancelled = true;
    return true;
  }
  return false;  // already terminal
}

void Server::drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
  // Queued sessions terminalize right here: only the driver ever holds
  // pointers into active_, never into waiting_, so flushing the queue from
  // a client thread is safe — and it delivers results even when no driver
  // is running. Residents keep decoding; run()/serve() return once they
  // terminalize.
  while (!waiting_.empty()) {
    auto session = std::move(waiting_.front());
    waiting_.erase(waiting_.begin());
    session->error = "server drained before the session was admitted";
    finish_locked(std::move(session), SessionStatus::kShuttingDown);
  }
  work_cv_.notify_all();
}

void Server::shutdown_now() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    hard_stop_ = true;
  }
  drain();
}

bool Server::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

void Server::check_known_locked(SessionId id) const {
  if (id < 1 || id >= next_id_) {
    CA_THROW_AS(UnknownSessionError,
                "unknown session id " << id
                                      << " — submit() never issued it");
  }
}

SessionResult Server::wait_result(SessionId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  check_known_locked(id);
  finished_cv_.wait(lock, [&] { return results_.count(id) > 0; });
  return results_.at(id);
}

std::optional<SessionResult> Server::wait_result_for(SessionId id,
                                                     std::int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  check_known_locked(id);
  const auto ready = [&] { return results_.count(id) > 0; };
  if (timeout_ms <= 0) {
    if (!ready()) return std::nullopt;
  } else if (!finished_cv_.wait_for(
                 lock, std::chrono::milliseconds(timeout_ms), ready)) {
    return std::nullopt;
  }
  return results_.at(id);
}

void Server::touch_progress_locked() { last_progress_ms_ = now_ms(); }

void Server::start_watchdog(std::int64_t stall_ms,
                            std::function<void(std::int64_t)> on_stall) {
  CA_CHECK(stall_ms > 0, "watchdog stall_ms must be > 0, got " << stall_ms);
  stop_watchdog();
  std::lock_guard<std::mutex> watchdog_lock(watchdog_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    last_progress_ms_ = now_ms();
  }
  watchdog_stop_.store(false);
  // Poll in real time (the configured clock may be a test fake that only
  // moves when the test advances it); compare stalls in clock time.
  const auto poll = std::chrono::milliseconds(
      std::clamp<std::int64_t>(stall_ms / 4, 1, 100));
  watchdog_ = std::thread([this, stall_ms, poll,
                           on_stall = std::move(on_stall)] {
    while (!watchdog_stop_.load()) {
      std::this_thread::sleep_for(poll);
      std::int64_t stalled = 0;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (waiting_.empty() && active_.empty()) {
          last_progress_ms_ = now_ms();  // idle is not a stall
          continue;
        }
        stalled = now_ms() - last_progress_ms_;
        if (stalled < stall_ms) continue;
        ++stats_.watchdog_alarms;
        last_progress_ms_ = now_ms();  // re-arm: one alarm per stall_ms
      }
      if (on_stall) {
        on_stall(stalled);
      } else {
        CA_LOG_WARN("serve watchdog: driver made no progress for "
                    << stalled << " ms with work pending");
      }
    }
  });
}

void Server::stop_watchdog() {
  std::lock_guard<std::mutex> watchdog_lock(watchdog_mutex_);
  watchdog_stop_.store(true);
  if (watchdog_.joinable()) watchdog_.join();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServerStats out = stats_;
  out.waiting = static_cast<std::int64_t>(waiting_.size());
  out.resident = static_cast<std::int64_t>(active_.size());
  out.resident_kv_bytes = resident_kv_bytes_;
  return out;
}

}  // namespace chipalign
