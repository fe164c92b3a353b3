#pragma once
/// \file trace.hpp
/// \brief In-memory span recorder for the traced benchmark run.
///
/// Spans are recorded by the benchmark around its calls into the library
/// (nothing inside the library is instrumented). Every span has a name
/// "<layer>.<call>", a start, an end and the span that was open when it
/// began; spans that belong to one request carry its index. The recorder
/// is single-threaded: only the benchmark's driver thread records.
///
/// With no tracer installed (the untraced runs every end-to-end metric
/// comes from) a ScopedSpan costs one null-pointer test.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
std::int64_t now_ns();

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t id = 0;
    std::int32_t parent = -1;  ///< enclosing span, -1 at top level
    std::int64_t request = -1;  ///< request index, -1 when not per-request
    bool async = false;  ///< request lifetime span (overlaps others)
  };
  struct Instant {
    std::string name;
    std::int64_t t_ns = 0;
    std::int64_t request = -1;
  };

  /// Opens a span nested in the currently open one; returns its id.
  std::int32_t begin(const char* name, std::int64_t request);
  /// Closes the innermost open span, which must be `id`.
  void end(std::int32_t id);
  /// Records a finished request-lifetime span (not on the nesting stack).
  void request_span(std::int64_t request, std::int64_t start_ns,
                    std::int64_t end_ns);
  /// Records a point event of a request (submit, first/last token).
  void instant(const char* name, std::int64_t request, std::int64_t t_ns);

  /// Writes the trace in Chrome trace-event JSON (chrome://tracing,
  /// Perfetto): nested spans as complete events on the driver thread,
  /// request lifetimes as async events keyed by request index.
  void write_chrome(const std::string& path) const;

  /// Self time per layer in seconds: each span's duration minus the part
  /// covered by its child spans, summed by the layer prefix of its name.
  std::map<std::string, double> self_seconds_by_layer() const;

  std::size_t span_count() const { return spans_.size() + instants_.size(); }

 private:
  std::vector<Span> spans_;
  std::vector<Instant> instants_;
  std::vector<std::int32_t> stack_;
};

/// The installed tracer, or nullptr in untraced runs.
extern Tracer* g_tracer;

/// RAII span around one call; a no-op without a tracer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t request = -1) {
    if (g_tracer != nullptr) id_ = g_tracer->begin(name, request);
  }
  ~ScopedSpan() { end(); }
  /// Closes the span before the end of its scope.
  void end() {
    if (g_tracer != nullptr && id_ >= 0) g_tracer->end(id_);
    id_ = -1;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t id_ = -1;
};

}  // namespace perfbench
