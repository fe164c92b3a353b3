#include "serve_driver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "trace.hpp"
#include "util/error.hpp"

namespace perfbench {

using chipalign::Request;
using chipalign::Server;
using chipalign::ServerStats;

std::int64_t RequestRecord::output_tokens() const {
  std::int64_t total = 0;
  for (const auto& d : deliveries) total += d.second;
  return total;
}

void RequestRecord::itl_samples(std::vector<double>& out) const {
  for (std::size_t j = 1; j < deliveries.size(); ++j) {
    const double gap = deliveries[j].first - deliveries[j - 1].first;
    const auto k = deliveries[j].second;
    for (std::int64_t t = 0; t < k; ++t) {
      out.push_back(gap / static_cast<double>(k));
    }
  }
}

void LatencySamples::add(const DriveResult& result) {
  for (const RequestRecord& rec : result.requests) {
    if (!rec.completed || rec.deliveries.empty()) continue;
    ttft_ms.push_back(rec.ttft_ms());
    latency_ms.push_back(rec.latency_ms());
    rec.itl_samples(itl_ms);
  }
}

namespace {

std::int64_t terminal_count(const ServerStats& s) {
  return s.completed + s.cancelled + s.expired + s.shed +
         s.shutdown_terminated + s.failed;
}

}  // namespace

DriveResult drive(Server& server, const LoadPlan& plan,
                  const std::function<Request(std::size_t)>& make_request,
                  std::int64_t trace_base) {
  DriveResult result;
  const std::size_t n = plan.think_ms.size();
  result.requests.resize(n);
  const std::int64_t origin_ns = now_ns() + 1'000'000;
  const auto clock_ms = [origin_ns] {
    return static_cast<double>(now_ns() - origin_ns) * 1e-6;
  };
  const auto within_deadline = [&plan](double due) {
    return plan.deadline_ms < 0.0 || due <= plan.deadline_ms;
  };

  // (due ms, request index) of each client's next request.
  std::vector<std::pair<double, std::size_t>> pending;
  for (std::size_t i = 0; i < std::min(plan.clients, n); ++i) {
    if (within_deadline(plan.think_ms[i])) {
      pending.emplace_back(plan.think_ms[i], i);
    }
  }
  std::vector<std::size_t> inflight;
  std::int64_t step_index = -1;
  std::int64_t emitted_in_step = 0;
  std::int64_t terminal_seen = terminal_count(server.stats());

  const auto collect = [&] {
    std::vector<std::size_t> still;
    for (const std::size_t i : inflight) {
      RequestRecord& rec = result.requests[i];
      auto done = server.wait_result_for(rec.id, 0);
      if (!done) {
        still.push_back(i);
        continue;
      }
      rec.done_ms = clock_ms();
      rec.completed = done->status == chipalign::SessionStatus::kCompleted;
      rec.text = std::move(done->text);
      rec.prompt_tokens = done->prompt_tokens;
      rec.cached_tokens = done->cached_tokens;
      const std::size_t next = i + plan.clients;
      if (next < n && within_deadline(rec.done_ms + plan.think_ms[next])) {
        pending.emplace_back(rec.done_ms + plan.think_ms[next], next);
      }
    }
    inflight.swap(still);
  };

  const auto submit_due = [&] {
    std::sort(pending.begin(), pending.end());
    std::size_t sent = 0;
    for (; sent < pending.size(); ++sent) {
      const auto [due, i] = pending[sent];
      const double now = clock_ms();
      if (due > now) break;
      RequestRecord& rec = result.requests[i];
      rec.due_ms = due;
      rec.submit_ms = now;
      result.lag_ms.push_back(now - due);
      Request request = make_request(i);
      request.on_token = [&rec, &step_index, &emitted_in_step, &clock_ms](
                             chipalign::SessionId, chipalign::TokenId) {
        ++emitted_in_step;
        if (rec.delivery_step != step_index) {
          rec.deliveries.emplace_back(clock_ms(), 1);
          rec.delivery_step = step_index;
        } else {
          ++rec.deliveries.back().second;
        }
      };
      const double t0 = clock_ms();
      try {
        ScopedSpan span("serve.submit",
                        trace_base + static_cast<std::int64_t>(i));
        rec.id = server.submit(std::move(request));
        inflight.push_back(i);
      } catch (const chipalign::RejectedError&) {
        rec.done_ms = t0;  // refused: counts as sent and not completed
      }
      const double t1 = clock_ms();
      result.submit_us.push_back((t1 - t0) * 1e3);
      result.busy_ms += t1 - now;
    }
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(sent));
  };

  ServerStats before = server.stats();
  while (true) {
    submit_due();
    if (server.busy()) {
      StepRecord step;
      step.waiting = server.stats().waiting;
      ++step_index;
      emitted_in_step = 0;
      const double t0 = clock_ms();
      {
        ScopedSpan span("serve.step");
        server.step();
      }
      step.wall_ms = clock_ms() - t0;
      result.busy_ms += step.wall_ms;
      const ServerStats after = server.stats();
      step.rows = after.step_tokens - before.step_tokens;
      step.emitted = emitted_in_step;
      step.verify_passes =
          after.spec.verify_passes - before.spec.verify_passes;
      step.drafted = after.spec.drafted - before.spec.drafted;
      step.spec_accepted = after.spec.accepted - before.spec.accepted;
      result.steps.push_back(step);
      if (terminal_count(after) != terminal_seen) {
        terminal_seen = terminal_count(after);
        collect();
      }
      before = after;
      continue;
    }
    collect();
    if (pending.empty()) {
      if (!inflight.empty()) {
        throw std::runtime_error("server idle with sessions unfinished");
      }
      break;
    }
    // Idle until the next request falls due: sleep most of the gap, then
    // spin the last stretch so submissions are not late by a timer slice.
    const double next_due =
        std::min_element(pending.begin(), pending.end())->first;
    const double wait = next_due - clock_ms();
    if (wait > 2.0) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<std::int64_t>((wait - 1.0) * 1e3)));
    }
    while (clock_ms() < next_due) {
    }
  }
  result.stats = server.stats();

  double first_due = -1.0;
  double last_done = 0.0;
  for (const RequestRecord& rec : result.requests) {
    if (!rec.sent()) continue;
    if (first_due < 0.0 || rec.due_ms < first_due) first_due = rec.due_ms;
    last_done = std::max(last_done, rec.done_ms);
  }
  result.span_ms = first_due < 0.0 ? 0.0 : last_done - first_due;

  if (g_tracer != nullptr) {
    const auto to_ns = [origin_ns](double ms) {
      return origin_ns + static_cast<std::int64_t>(ms * 1e6);
    };
    for (std::size_t i = 0; i < n; ++i) {
      const RequestRecord& rec = result.requests[i];
      if (!rec.sent()) continue;
      const auto id = trace_base + static_cast<std::int64_t>(i);
      g_tracer->instant("submit", id, to_ns(rec.submit_ms));
      if (!rec.deliveries.empty()) {
        g_tracer->instant("first_token", id,
                          to_ns(rec.deliveries.front().first));
        g_tracer->instant("last_token", id,
                          to_ns(rec.deliveries.back().first));
      }
      g_tracer->request_span(id, to_ns(rec.due_ms), to_ns(rec.done_ms));
    }
  }
  return result;
}

}  // namespace perfbench
