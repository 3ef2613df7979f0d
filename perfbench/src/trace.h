// Spans recorded from the benchmark's own code around calls into the
// fpsm layers. Nothing under src/ is instrumented: a span brackets a public
// call (GrammarRegistry::score, ShardedTrainer::countStream, ...), so its
// duration is the whole call as a user of that layer sees it.
//
// Each thread writes only its own ThreadTrace (no sharing while the run
// measures); the Tracer owns one per worker slot and merges them at the
// end. A span records name, start, end, parent span and request id; a
// root span (no open parent on its thread) starts a new request.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  ///< static string: "<layer>.<call>"
  std::int64_t startNs;
  std::int64_t endNs;
  std::uint64_t id;       ///< unique within the run, never 0
  std::uint64_t parent;   ///< 0 for a root span
  std::uint64_t request;  ///< shared by every span of one request
};

class ThreadTrace {
 public:
  explicit ThreadTrace(std::uint64_t slot) : slot_(slot) {}

  void open(const char* name);
  void close();  ///< ends the innermost open span

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t slot_;
  std::uint64_t next_ = 0;
  std::uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  ///< indices of open spans
};

/// RAII span; a null trace records nothing and reads no clock.
class SpanScope {
 public:
  SpanScope(ThreadTrace* trace, const char* name) : trace_(trace) {
    if (trace_) trace_->open(name);
  }
  ~SpanScope() {
    if (trace_) trace_->close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  ThreadTrace* trace_;
};

struct SpanTotals {
  std::uint64_t count = 0;
  double totalMs = 0;
  double selfMs = 0;  ///< duration minus the time its child spans cover
};

class Tracer {
 public:
  /// Per-worker buffer; slot s is only ever written by one thread at a
  /// time. Slots are created on first use from the thread that owns the
  /// run (before workers start).
  ThreadTrace* slot(std::size_t s);

  /// Totals per span name and per layer (the name's prefix before '.').
  std::map<std::string, SpanTotals> byName() const;
  std::map<std::string, SpanTotals> byLayer() const;
  std::size_t spanCount() const;

  /// One JSON object per line: the header line given, then every span.
  void write(const std::string& path, const std::string& header) const;

 private:
  std::vector<std::unique_ptr<ThreadTrace>> slots_;
};

}  // namespace perfbench
