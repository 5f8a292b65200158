#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
int64_t NowNs();

/// One timed interval around a call into the program. `parent` indexes the
/// enclosing span (-1 for a top-level span); `exec` is the id of the query
/// execution the span belongs to (-1 outside executions); `bytes` is the
/// payload the span processed, when it has one.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t exec = -1;
  uint64_t bytes = 0;

  double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

/// In-memory span recorder for the single-threaded benchmark binary.
/// Disabled, Begin() returns -1 and records nothing, so the untraced runs
/// pay one branch per call site.
class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }

  int Begin(const char* name, int64_t exec);
  void End(int id, uint64_t bytes = 0);

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of durations of spans called `name`, keyed by execution id.
  std::unordered_map<int64_t, double> SecondsByExec(
      const std::string& name) const;
  /// Sum of durations and bytes of every span called `name`.
  double TotalSeconds(const std::string& name) const;
  uint64_t TotalBytes(const std::string& name) const;
  size_t Count(const std::string& name) const;
  /// Sum of every span's self time (duration minus the part its direct
  /// children cover); equals the summed duration of top-level spans.
  double SelfSecondsTotal() const;

  /// Chrome trace_event JSON ("X" complete events, microseconds).
  std::string ChromeTraceJson() const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: Begin at construction, End at destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t exec = -1)
      : tracer_(tracer), id_(tracer.Begin(name, exec)) {}
  ~ScopedSpan() { tracer_.End(id_, bytes_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_bytes(uint64_t bytes) { bytes_ = bytes; }

 private:
  Tracer& tracer_;
  int id_;
  uint64_t bytes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
