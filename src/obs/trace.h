#ifndef HEPQUERY_OBS_TRACE_H_
#define HEPQUERY_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace hepq::obs {

// Lightweight always-compiled tracing layer. A TraceSession, while
// started, collects timed spans and aggregated counters from every thread
// that executes instrumented code. Instrumentation sites construct a
// ScopedSpan unconditionally; when no session is active the constructor is
// a single relaxed atomic load and the destructor a null check, so the
// layer costs near-nothing on production runs. When a session is active,
// each span is recorded into a per-thread buffer (registered once per
// thread per session, with capacity reserved up front) so the hot path
// performs zero heap allocations after that per-thread warmup.
//
// Exactly one session can be active at a time, process-wide. Sessions
// must be stopped (all instrumented work joined) before their buffers are
// read; the parallel runtime's job-completion handshake provides the
// happens-before edge between worker span writes and the reader.

/// Coarse stage taxonomy every span and counter is tagged with. Stages —
/// not span names — are the unit of the per-stage report table, and map
/// onto the paper's cost accounting: decode/checksum/prune/late-mat are the
/// storage-side bytes (Figure 4b), expr/event-loop the compute side
/// (Figure 4a), row-group/merge the scheduling overhead.
enum class Stage : uint8_t {
  kRun = 0,     ///< root span of one query execution
  kOpen,        ///< opening readers / files
  kPlan,        ///< planning, binding, expression compilation
  kRowGroup,    ///< one scheduled row-group task (scheduling envelope)
  kDecode,      ///< storage decode: read + decompress + value decode
  kChecksum,    ///< CRC-32 over footers, chunks and pages (fileio reader)
  kPagePrune,   ///< zone-map evaluation (group- and page-level)
  kLateMat,     ///< late-materialization predicate pre-pass
  kExpr,        ///< expression / kernel evaluation
  kEventLoop,   ///< per-event interpretation (rdf lambdas, unnest, FLWOR)
  kMerge,       ///< merging per-group partials into the final result
  kVexprKernel, ///< fused simd-tier batch kernels (engine/vexpr_fuse)
  kCacheLookup, ///< footer/chunk/result cache probes (src/cache)
  kOther,
};

inline constexpr int kNumStages = 14;

/// Stable lowercase name of a stage (e.g. "decode", "row_group").
const char* StageName(Stage stage);

/// One finished span. `name` must point at a string literal (spans never
/// own memory). Records live in per-thread buffers in *end* order; `seq`
/// is the position in that order and, with `thread_index`, makes merge
/// ordering deterministic even when two spans share a start timestamp.
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;  ///< steady_clock, same epoch as TraceSession
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;    ///< thread CPU time consumed inside the span
  uint64_t bytes = 0;    ///< stage-defined payload (decode: decoded bytes)
  int64_t queue_ns = 0;  ///< scheduling wait before the span (row groups)
  int32_t worker = -1;   ///< runtime worker id, when scheduled
  int32_t group = -1;    ///< row-group index, when applicable
  int32_t slot = -1;     ///< position in the LPT-sorted task order
  int32_t leaf = -1;     ///< leaf column index, for decode spans
  uint32_t seq = 0;      ///< per-thread end-order sequence number
  uint16_t thread_index = 0;  ///< dense per-session thread id
  uint8_t depth = 0;     ///< nesting depth at start (0 = top level)
  Stage stage = Stage::kOther;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// One aggregated counter: cheap accumulation for sites where a span per
/// occurrence would be too fine-grained (e.g. per-row FLWOR clauses).
/// Counters with the same (name, stage) merge by summing.
struct CounterRecord {
  const char* name = "";
  Stage stage = Stage::kOther;
  int64_t ns = 0;
  uint64_t count = 0;
  uint64_t bytes = 0;
};

struct TraceOptions {
  /// Span capacity reserved per thread at registration. Runs recording
  /// more spans per thread than this reallocate (correct, but no longer
  /// allocation-free).
  size_t reserve_spans_per_thread = 1 << 14;
  /// Capture per-span thread CPU time (one clock_gettime pair per span).
  bool capture_cpu_time = true;
};

/// Monotonic (steady_clock) timestamp in nanoseconds.
int64_t NowNs();

class TraceSession {
 public:
  explicit TraceSession(TraceOptions options = {});
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Installs this session as the process-wide active one. Exactly one
  /// session may be active at a time (asserted).
  void Start();

  /// Uninstalls the session. Instrumented work must have been joined by
  /// the caller before reading the accessors below. Idempotent.
  void Stop();

  bool active() const;
  int64_t start_ns() const { return start_ns_; }
  int64_t stop_ns() const { return stop_ns_; }

  /// All spans from all threads, sorted by (start_ns, thread_index, seq)
  /// — a deterministic order for any interleaving that produced the same
  /// timestamps. Call after Stop().
  std::vector<SpanRecord> MergedSpans() const;

  /// All counters merged by (name, stage), sorted by stage then name.
  std::vector<CounterRecord> MergedCounters() const;

  /// Number of threads that recorded at least one span or counter.
  int num_threads() const;

  // ---- internal API used by ScopedSpan / CountStage ----

  struct ThreadBuf {
    std::vector<SpanRecord> spans;       // in end order
    std::vector<CounterRecord> counters; // few entries, linear-searched
    uint32_t next_seq = 0;
    uint16_t index = 0;
  };

  /// The calling thread's buffer, registering it on first use (the only
  /// allocating operation; subsequent calls are a TLS cache hit).
  ThreadBuf* BufForThread();

  /// Currently active session, or nullptr. A single acquire load.
  static TraceSession* Active();

  bool capture_cpu_time() const { return options_.capture_cpu_time; }

 private:
  TraceOptions options_;
  uint64_t id_ = 0;  ///< process-unique, never reused; validates TLS cache
  int64_t start_ns_ = 0;
  int64_t stop_ns_ = 0;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// True when a trace session is active. One relaxed atomic load; sites
/// guarding non-span bookkeeping (e.g. queue-wait arrays) test this once.
bool TracingActive();

/// Adds to the calling thread's (name, stage) counter. No-op when no
/// session is active. `name` must be a string literal.
void CountStage(const char* name, Stage stage, int64_t ns, uint64_t count = 1,
                uint64_t bytes = 0);

/// RAII span. Construct at the top of the region to measure; annotate via
/// the setters (no-ops when inactive); the destructor records the span.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Stage stage) {
    TraceSession* session = TraceSession::Active();
    if (session == nullptr) return;
    Init(session, name, stage);
  }
  ~ScopedSpan() {
    if (session_ != nullptr) Finish();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return session_ != nullptr; }

  /// Ends the span now instead of at scope exit (for regions that do not
  /// coincide with a C++ scope). Idempotent.
  void End() {
    if (session_ != nullptr) {
      Finish();
      session_ = nullptr;
    }
  }

  void set_bytes(uint64_t bytes) { bytes_ = bytes; }
  void add_bytes(uint64_t bytes) { bytes_ += bytes; }
  void set_queue_ns(int64_t ns) { queue_ns_ = ns; }
  void set_worker(int worker) { worker_ = worker; }
  void set_group(int group) { group_ = group; }
  void set_slot(int slot) { slot_ = slot; }
  void set_leaf(int leaf) { leaf_ = leaf; }

  int64_t start_ns() const { return start_ns_; }

 private:
  void Init(TraceSession* session, const char* name, Stage stage);
  void Finish();

  TraceSession* session_ = nullptr;
  const char* name_ = "";
  int64_t start_ns_ = 0;
  int64_t start_cpu_ns_ = 0;
  uint64_t bytes_ = 0;
  int64_t queue_ns_ = 0;
  int32_t worker_ = -1;
  int32_t group_ = -1;
  int32_t slot_ = -1;
  int32_t leaf_ = -1;
  uint8_t depth_ = 0;
  Stage stage_ = Stage::kOther;
};

}  // namespace hepq::obs

#endif  // HEPQUERY_OBS_TRACE_H_
