#pragma once

// In-memory span recorder for the traced benchmark run. Spans are recorded
// only from the benchmark's own files, around calls into the program's public
// functions; the program itself is not instrumented. With tracing off every
// recording call is one branch on a global flag.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;       ///< index of the enclosing span, -1 at top level
  std::int64_t op = -1;  ///< operation id the span belongs to
};

/// A named count taken at a layer boundary (tape nodes, frames, ...).
struct Count {
  const char* name = "";
  double value = 0.0;
  std::int64_t op = -1;
  Clock::time_point at;
};

/// Single-threaded recorder: every span is opened and closed on the thread
/// that drives the workload.
class Tracer {
 public:
  bool enabled = false;

  void set_op(std::int64_t op) { op_ = op; }

  int open(const char* name);
  void close(int idx);
  /// Records an already-finished interval as a child of the open span; the
  /// open span's children recorded from index `adopt_from` on become its
  /// children.
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::size_t adopt_from);
  void count(const char* name, double value);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every span with this name.
  std::vector<double> durations_ms(const std::string& name) const;
  std::vector<double> count_values(const std::string& name) const;

  /// Writes every span as Chrome trace-event JSON ("X" events, microseconds)
  /// plus every count as a "C" event. Returns false when the file cannot be
  /// written.
  bool write_chrome_json(const std::string& path) const;

  /// Per span name: calls, total ms and total self ms (duration minus the
  /// part its children cover), one line each.
  std::string self_time_table() const;

 private:
  std::vector<Span> spans_;
  std::vector<Count> counts_;
  std::vector<int> stack_;
  std::int64_t op_ = -1;
  Clock::time_point origin_ = Clock::now();
};

Tracer& tracer();

/// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : idx_(tracer().enabled ? tracer().open(name) : -1) {}
  ~ScopedSpan() {
    if (idx_ >= 0) tracer().close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int idx_;
};

}  // namespace perfbench
