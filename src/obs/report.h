#ifndef HEPQUERY_OBS_REPORT_H_
#define HEPQUERY_OBS_REPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/simulator.h"
#include "core/status.h"
#include "fileio/reader.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hepq::obs {

// Machine- and human-readable run reports built from a stopped
// TraceSession plus the engine's own end-of-run totals. The report's
// headline numbers (events, CPU ns, decoded bytes, storage bytes) are
// copied from the engine result / ScanStats — the same totals every bench
// prints — so they reconcile exactly; the trace contributes the per-stage,
// per-worker, and per-leaf attribution underneath them.

/// Identity and end-of-run totals of the traced query execution, supplied
/// by the caller from the frontend's result struct.
struct RunInfo {
  std::string query;   ///< e.g. "Q5"
  std::string engine;  ///< e.g. "bigquery-shape"
  int threads = 1;
  int64_t events_processed = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
};

/// Exclusive (self) time of one stage, summed over all spans of that
/// stage on all threads: a span's time minus the time of spans nested
/// inside it, so the stage rows partition the traced time and sum to the
/// total span coverage.
struct StageSummary {
  Stage stage = Stage::kOther;
  int64_t wall_ns = 0;  ///< exclusive wall time
  int64_t cpu_ns = 0;   ///< exclusive thread-CPU time
  uint64_t bytes = 0;   ///< sum of span byte payloads (inclusive)
  uint64_t count = 0;   ///< number of spans
};

/// Busy/idle accounting of one runtime worker over the run window, from
/// the row-group spans (the scheduling envelope) stamped with its id.
struct WorkerSummary {
  int worker = 0;  ///< runtime worker id (same numbering as stragglers)
  /// Owning process index in a merged multi-process report (shard order),
  /// 0 for single-process runs. The stable cross-process worker identity
  /// is the pair `proc:worker`.
  int proc = 0;
  int64_t busy_ns = 0;        ///< sum of row-group span durations
  int64_t idle_ns = 0;        ///< window minus busy
  double busy_fraction = 0.0; ///< busy / window
  int64_t row_groups = 0;
  int64_t max_queue_ns = 0;   ///< worst scheduling wait before a group
  int max_queue_group = -1;
  /// Timeline of executed row groups in start order (capped; see
  /// timeline_truncated).
  struct TimelineEntry {
    int group = -1;
    int slot = -1;
    int64_t start_ns = 0;  ///< relative to the run window start
    int64_t dur_ns = 0;
    int64_t queue_ns = 0;
    uint64_t bytes = 0;
  };
  std::vector<TimelineEntry> timeline;
  bool timeline_truncated = false;
};

/// One of the slowest row-group spans of the run — the stragglers the
/// LPT schedule is supposed to keep off the critical path.
struct Straggler {
  int group = -1;
  int worker = -1;
  int proc = 0;  ///< owning process in a merged report (see WorkerSummary)
  int slot = -1;
  int64_t wall_ns = 0;
  uint64_t bytes = 0;
};

/// An aggregated counter with owned storage (CounterRecord points at
/// string literals; the report owns its strings).
struct CounterSummary {
  std::string name;
  Stage stage = Stage::kOther;
  int64_t ns = 0;
  uint64_t count = 0;
  uint64_t bytes = 0;
};

struct RunReport {
  /// v2: added the `expr_vm` object (vops_per_event, fused_coverage) —
  /// the expression-VM dispatch-overhead quantities derived from the
  /// vexpr_kernel stage counters.
  /// v3: added the `cache` object (footer/chunk hit+miss counters,
  /// cache_bytes_served, consumed_bytes) and `cache_bytes_served` on
  /// per_leaf entries. `consumed_bytes = decoded_bytes +
  /// cache_bytes_served` reconciles by construction: every byte a query
  /// consumes was either decoded from storage this run or served from
  /// the process-wide chunk cache.
  /// v4: multi-process + metrics. Added `processes[]` (one entry per
  /// scatter worker, shard order; empty for in-process runs), `partial` +
  /// `warnings` (a worker whose kReport frame was lost degrades the
  /// report, never the result), `proc` on workers/stragglers, and
  /// `metrics` (the process-wide metrics registry snapshot). The
  /// per-process decoded-byte and cache totals sum bit-exactly to the
  /// top-level `scan` object: both sides add the same per-shard integer
  /// counters, only in different orders.
  static constexpr int kSchemaVersion = 4;

  RunInfo info;
  ScanStats scan;  ///< bit-copied from the engine result

  int64_t run_span_ns = 0;    ///< duration of the root `run` span (0 if none)
  int64_t total_span_ns = 0;  ///< sum of top-level span durations
  int64_t window_ns = 0;      ///< session start→stop window

  std::vector<StageSummary> stages;      ///< ordered by Stage enum
  std::vector<WorkerSummary> workers;    ///< ordered by (proc, worker id)
  std::vector<Straggler> stragglers;     ///< slowest row groups, descending
  std::vector<CounterSummary> counters;  ///< stage/name-merged counters

  /// One scatter worker process's contribution to a merged report, in
  /// shard order. Empty for single-process runs.
  struct ProcessSummary {
    int proc = 0;         ///< index in shard order (== merge order)
    int shard_begin = 0;  ///< global shard range [begin, end)
    int shard_end = 0;
    int threads = 1;
    int64_t events = 0;
    double wall_seconds = 0.0;
    double cpu_seconds = 0.0;
    uint64_t storage_bytes = 0;
    uint64_t decoded_bytes = 0;
    uint64_t cache_bytes_served = 0;
    /// False when the worker's kReport frame never arrived (its shard
    /// results did — the report degrades, the histograms do not).
    bool report_received = true;
  };
  std::vector<ProcessSummary> processes;

  /// True when at least one worker's report is missing; `warnings` then
  /// carries one deterministic line per missing worker (keyed by shard
  /// range, never by pid — identical for any worker count).
  bool partial = false;
  std::vector<std::string> warnings;

  /// Snapshot of the process-wide metrics registry at report-build time
  /// (merged across processes in a multi-process report).
  std::vector<metrics::MetricSample> metrics;

  /// Cost-model inputs, ready to feed cloud::Simulator — the bridge from
  /// a profiled run to the paper's price/performance projections.
  cloud::MeasuredQuery cost_inputs;

  // Figure 4 quantities (a: CPU per event, b: bytes per event, c:
  // per-core throughput), derived from info + scan.
  double cpu_ns_per_event() const;
  double storage_bytes_per_event() const;
  double decoded_bytes_per_event() const;
  double events_per_sec_per_core() const;
  /// CPU seconds as integer nanoseconds (the reconciliation currency).
  int64_t cpu_ns() const;
  int64_t wall_ns() const;
  /// Fraction of the root run span covered by top-level child spans.
  double span_coverage() const;
  /// Expression-VM dispatch overhead, from the vexpr_kernel stage
  /// counters: source VOps retired per processed event, and the fraction
  /// of them absorbed into fused superinstructions (0 when untraced, on
  /// the interpret tier, or when no expression kernels ran).
  double vops_per_event() const;
  double vexpr_fused_coverage() const;
};

/// Builds a report from a stopped session. `max_timeline_entries` caps
/// each worker's timeline (0 = unlimited); `max_stragglers` caps the
/// straggler list.
RunReport BuildRunReport(const TraceSession& session, const RunInfo& info,
                         const ScanStats& scan,
                         size_t max_timeline_entries = 512,
                         size_t max_stragglers = 5);

// ---- cross-process reports (the scatter kReport frame body) --------------

/// One worker process's complete observability payload: its aggregated
/// RunReport over its shard range, plus the raw spans so the coordinator
/// can stitch every process into one Chrome trace. Move-only: decoded
/// span names live in `name_pool` (stable heap storage).
struct ProcessReport {
  int shard_begin = 0;  ///< global shard range [begin, end) this covers
  int shard_end = 0;
  /// False for a placeholder standing in for a worker whose kReport frame
  /// was lost; such entries carry only the shard range.
  bool received = true;
  /// Session window in CLOCK_MONOTONIC ns. The clock is machine-wide, so
  /// timestamps from co-located worker processes share an epoch and the
  /// stitched trace aligns without clock translation.
  int64_t session_start_ns = 0;
  int64_t session_stop_ns = 0;
  RunReport report;
  /// All spans of the worker's session, merge-ordered. After wire decode,
  /// `name` pointers point into `name_pool`.
  std::vector<SpanRecord> spans;
  std::vector<std::unique_ptr<std::string>> name_pool;

  /// Interns `name` in the pool (dedup by value) and returns a pointer
  /// valid for this ProcessReport's lifetime.
  const char* InternName(const std::string& name);
};

/// Builds the kReport payload body for one worker: BuildRunReport over the
/// worker's whole session plus the raw span list. `info`/`scan` are the
/// worker's own aggregated totals over shards [shard_begin, shard_end).
/// An in-process run passes the empty range [0, 0) (see ChromeTraceJson).
ProcessReport BuildProcessReport(const TraceSession& session,
                                 const RunInfo& info, const ScanStats& scan,
                                 int shard_begin, int shard_end);

/// Deterministically merges per-worker reports (shard order — the order
/// the coordinator spawned them) into one cross-process RunReport:
/// workers/stragglers renumbered `proc:slot`, stages and counters summed,
/// span times summed across processes, one ProcessSummary per worker, and
/// a metrics section merged from every process plus the coordinator's own
/// registry. `info` and `merged_scan` come from the coordinator's merged
/// QueryRunOutput, so the report's headline totals are exactly what the
/// run printed; per-process scan totals sum to them bit-exactly (integer
/// sums of the same per-shard counters). A not-received entry yields a
/// `partial` report with a deterministic warning keyed by shard range.
RunReport MergeProcessReports(const RunInfo& info, const ScanStats& merged_scan,
                              const std::vector<ProcessReport>& reports,
                              size_t max_stragglers = 5);

/// The RunReport as a JSON document (kSchemaVersion; see DESIGN.md).
std::string ReportToJson(const RunReport& report);

/// Human-readable per-stage/per-worker/per-leaf table for `--profile`.
std::string ReportToTable(const RunReport& report);

/// Every process's spans as one Chrome `trace_event` JSON document,
/// loadable in chrome://tracing and Perfetto: pid = process index + 1,
/// tid = per-process thread index, timestamps in microseconds relative to
/// the earliest session start across processes (one shared
/// CLOCK_MONOTONIC epoch, so worker timelines line up as they ran).
/// Scatter workers get process_name metadata naming their shard range;
/// an in-process run is the one-process case, built by BuildProcessReport
/// with an empty shard range, and has none.
std::string ChromeTraceJson(const std::vector<ProcessReport>& processes);

/// Writes `content` to `path` (overwrites).
Status WriteTextFile(const std::string& path, const std::string& content);

}  // namespace hepq::obs

#endif  // HEPQUERY_OBS_REPORT_H_
