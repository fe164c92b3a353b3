#pragma once
/// \file serve_driver.hpp
/// \brief Single-threaded load generator that also steps the server.
///
/// One thread sends each request when it falls due and otherwise calls
/// Server::step(). Load comes from a fixed number of clients: request i
/// belongs to client i % clients, and a client sends its next request a
/// seeded think time after its previous reply completed. Every request is
/// timed from its due time, so a long step that delays a submission shows
/// up in that request's latency (the generator lag is reported
/// separately). Token arrival is stamped in the streaming callback with the
/// index of the step that produced it, which groups the tokens one step
/// delivers (several under speculative decoding) into one delivery.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "serve/server.hpp"

namespace perfbench {

struct RequestRecord {
  double due_ms = 0.0;
  double submit_ms = -1.0;  ///< < 0: never sent (past the deadline)
  double done_ms = -1.0;
  chipalign::SessionId id = -1;
  bool completed = false;
  std::string text;
  std::int64_t prompt_tokens = 0;
  std::int64_t cached_tokens = 0;
  /// (arrival ms, tokens) per step that delivered tokens to this request.
  std::vector<std::pair<double, std::int64_t>> deliveries;
  std::int64_t delivery_step = -1;

  bool sent() const { return submit_ms >= 0.0; }
  std::int64_t output_tokens() const;
  double ttft_ms() const { return deliveries.front().first - due_ms; }
  double latency_ms() const { return done_ms - due_ms; }
  /// Inter-token samples: each gap between consecutive deliveries, split
  /// evenly over the tokens the later delivery carried.
  void itl_samples(std::vector<double>& out) const;
};

struct StepRecord {
  double wall_ms = 0.0;
  std::int64_t rows = 0;     ///< ServerStats::step_tokens advanced
  std::int64_t emitted = 0;  ///< tokens delivered to callbacks
  std::int64_t waiting = 0;  ///< queued sessions when the step began
  std::int64_t verify_passes = 0;
  std::int64_t drafted = 0;
  std::int64_t spec_accepted = 0;
};

/// Who sends what when.
struct LoadPlan {
  std::size_t clients = 1;
  /// Pause before request i, counted from its client's previous reply (or
  /// from the start for a client's first request).
  std::vector<double> think_ms;
  /// No request falls due after this many ms; < 0 sends every request.
  double deadline_ms = -1.0;
};

struct DriveResult {
  std::vector<RequestRecord> requests;  ///< indexed like plan.think_ms
  std::vector<StepRecord> steps;
  std::vector<double> submit_us;  ///< Server::submit() call times
  std::vector<double> lag_ms;     ///< submission time minus due time
  double span_ms = 0.0;  ///< first due time to last completion
  double busy_ms = 0.0;  ///< time inside request building, submit and step
  chipalign::ServerStats stats;
};

/// Serves `plan`; make_request(i) builds request i when it falls due (it
/// may call retrieval and the tokenizer — those calls count towards the
/// request's latency). `trace_base` offsets request ids in trace spans.
DriveResult drive(chipalign::Server& server, const LoadPlan& plan,
                  const std::function<chipalign::Request(std::size_t)>&
                      make_request,
                  std::int64_t trace_base = 0);

/// Latency samples of completed requests.
struct LatencySamples {
  std::vector<double> ttft_ms;
  std::vector<double> itl_ms;
  std::vector<double> latency_ms;
  void add(const DriveResult& result);
};

}  // namespace perfbench
