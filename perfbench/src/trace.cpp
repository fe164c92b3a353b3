#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

Tracer* g_tracer = nullptr;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t Tracer::begin(const char* name, std::int64_t request) {
  Span span;
  span.name = name;
  span.start_ns = now_ns();
  span.id = static_cast<std::int32_t>(spans_.size());
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request;
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(std::int32_t id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("trace spans closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  stack_.pop_back();
}

void Tracer::request_span(std::int64_t request, std::int64_t start_ns,
                          std::int64_t end_ns) {
  Span span;
  span.name = "request";
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = static_cast<std::int32_t>(spans_.size());
  span.request = request;
  span.async = true;
  spans_.push_back(std::move(span));
}

void Tracer::instant(const char* name, std::int64_t request,
                     std::int64_t t_ns) {
  instants_.push_back({name, t_ns, request});
}

namespace {

std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.async || span.parent < 0) continue;
    child_ns[static_cast<std::size_t>(span.parent)] +=
        span.end_ns - span.start_ns;
  }
  std::map<std::string, double> out;
  for (const Span& span : spans_) {
    if (span.async) continue;
    const std::int64_t self = span.end_ns - span.start_ns -
                              child_ns[static_cast<std::size_t>(span.id)];
    out[layer_of(span.name)] += static_cast<double>(self) * 1e-9;
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::int64_t origin = 0;
  if (!spans_.empty()) origin = spans_.front().start_ns;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  const auto us = [origin](std::int64_t ns) {
    return static_cast<double>(ns - origin) * 1e-3;
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fprintf(f, ",\n");
    first = false;
  };
  for (const Span& span : spans_) {
    sep();
    if (span.async) {
      std::fprintf(f,
                   "{\"name\":\"request\",\"cat\":\"request\",\"ph\":\"b\","
                   "\"id\":%lld,\"ts\":%.3f,\"pid\":1,\"tid\":1},\n"
                   "{\"name\":\"request\",\"cat\":\"request\",\"ph\":\"e\","
                   "\"id\":%lld,\"ts\":%.3f,\"pid\":1,\"tid\":1}",
                   static_cast<long long>(span.request), us(span.start_ns),
                   static_cast<long long>(span.request), us(span.end_ns));
      continue;
    }
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,"
                 "\"parent\":%d,\"request\":%lld}}",
                 span.name.c_str(), layer_of(span.name).c_str(),
                 us(span.start_ns),
                 static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                 span.id, span.parent, static_cast<long long>(span.request));
  }
  for (const Instant& inst : instants_) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"n\","
                 "\"id\":%lld,\"ts\":%.3f,\"pid\":1,\"tid\":1}",
                 inst.name.c_str(), static_cast<long long>(inst.request),
                 us(inst.t_ns));
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

}  // namespace perfbench
