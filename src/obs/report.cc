#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace hepq::obs {

namespace {

// ---- exclusive-time computation ------------------------------------------

struct SelfTimes {
  // Indexed like the span vector it was computed from.
  std::vector<int64_t> wall;
  std::vector<int64_t> cpu;
};

/// Exclusive times per span. `spans` must be the records of ONE thread in
/// end order (which is how ThreadBufs store them). Spans on one thread
/// nest properly, so in end order a span's direct children are exactly
/// the already-seen spans, not yet claimed by another parent, whose start
/// is >= its own — a single stack pass.
SelfTimes ComputeSelfTimes(const std::vector<SpanRecord>& spans) {
  SelfTimes self;
  self.wall.resize(spans.size());
  self.cpu.resize(spans.size());
  struct Open {
    int64_t start_ns;
    int64_t wall_ns;
    int64_t cpu_ns;
  };
  std::vector<Open> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    int64_t child_wall = 0, child_cpu = 0;
    while (!stack.empty() && stack.back().start_ns >= s.start_ns) {
      child_wall += stack.back().wall_ns;
      child_cpu += stack.back().cpu_ns;
      stack.pop_back();
    }
    self.wall[i] = std::max<int64_t>(0, s.duration_ns() - child_wall);
    self.cpu[i] = std::max<int64_t>(0, s.cpu_ns - child_cpu);
    stack.push_back(Open{s.start_ns, s.duration_ns(), s.cpu_ns});
  }
  return self;
}

std::string FormatNs(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%10.3f ms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

std::string FormatBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= 10ull * 1000 * 1000) {
    std::snprintf(buf, sizeof(buf), "%8.1f MB",
                  static_cast<double>(bytes) / 1e6);
  } else if (bytes >= 10ull * 1000) {
    std::snprintf(buf, sizeof(buf), "%8.1f kB",
                  static_cast<double>(bytes) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%8llu B ",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace

double RunReport::cpu_ns_per_event() const {
  if (info.events_processed <= 0) return 0.0;
  return info.cpu_seconds * 1e9 / static_cast<double>(info.events_processed);
}

double RunReport::storage_bytes_per_event() const {
  if (info.events_processed <= 0) return 0.0;
  return static_cast<double>(scan.storage_bytes) /
         static_cast<double>(info.events_processed);
}

double RunReport::decoded_bytes_per_event() const {
  if (info.events_processed <= 0) return 0.0;
  return static_cast<double>(scan.decoded_bytes) /
         static_cast<double>(info.events_processed);
}

double RunReport::events_per_sec_per_core() const {
  if (info.cpu_seconds <= 0.0) return 0.0;
  return static_cast<double>(info.events_processed) / info.cpu_seconds;
}

int64_t RunReport::cpu_ns() const {
  return static_cast<int64_t>(std::llround(info.cpu_seconds * 1e9));
}

int64_t RunReport::wall_ns() const {
  return static_cast<int64_t>(std::llround(info.wall_seconds * 1e9));
}

double RunReport::span_coverage() const {
  if (run_span_ns <= 0) return 0.0;
  return static_cast<double>(total_span_ns) /
         static_cast<double>(run_span_ns);
}

double RunReport::vops_per_event() const {
  if (info.events_processed <= 0) return 0.0;
  for (const CounterSummary& counter : counters) {
    if (counter.stage == Stage::kVexprKernel &&
        counter.name == "vops_retired") {
      return static_cast<double>(counter.count) /
             static_cast<double>(info.events_processed);
    }
  }
  return 0.0;
}

double RunReport::vexpr_fused_coverage() const {
  uint64_t retired = 0;
  uint64_t fused = 0;
  for (const CounterSummary& counter : counters) {
    if (counter.stage != Stage::kVexprKernel) continue;
    if (counter.name == "vops_retired") retired = counter.count;
    if (counter.name == "vops_fused") fused = counter.count;
  }
  if (retired == 0) return 0.0;
  return static_cast<double>(fused) / static_cast<double>(retired);
}

RunReport BuildRunReport(const TraceSession& session, const RunInfo& info,
                         const ScanStats& scan, size_t max_timeline_entries,
                         size_t max_stragglers) {
  RunReport report;
  report.info = info;
  report.scan = scan;
  report.window_ns = session.stop_ns() - session.start_ns();

  const std::vector<SpanRecord> merged = session.MergedSpans();

  // Regroup by thread (already each in end order after a stable pass over
  // seq, since MergedSpans sorts by start — rebuild end order per thread).
  const int num_threads = session.num_threads();
  std::vector<std::vector<SpanRecord>> per_thread(
      static_cast<size_t>(std::max(num_threads, 1)));
  for (const SpanRecord& span : merged) {
    per_thread[span.thread_index].push_back(span);
  }
  for (auto& spans : per_thread) {
    std::sort(spans.begin(), spans.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                return a.seq < b.seq;
              });
  }

  // Stage rollup from per-thread exclusive times.
  std::vector<StageSummary> stages(kNumStages);
  for (int s = 0; s < kNumStages; ++s) {
    stages[static_cast<size_t>(s)].stage = static_cast<Stage>(s);
  }
  for (const auto& spans : per_thread) {
    const SelfTimes self = ComputeSelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      StageSummary& stage = stages[static_cast<size_t>(spans[i].stage)];
      stage.wall_ns += self.wall[i];
      stage.cpu_ns += self.cpu[i];
      stage.bytes += spans[i].bytes;
      ++stage.count;
    }
  }
  for (const StageSummary& stage : stages) {
    if (stage.count > 0) report.stages.push_back(stage);
  }

  // Root span + top-level coverage.
  for (const SpanRecord& span : merged) {
    if (span.stage == Stage::kRun && span.duration_ns() > report.run_span_ns) {
      report.run_span_ns = span.duration_ns();
    }
  }
  // "Top level" for coverage purposes means depth 1 when a run root
  // exists (children of the root), else depth 0.
  const uint8_t top_depth = report.run_span_ns > 0 ? 1 : 0;
  for (const SpanRecord& span : merged) {
    if (span.depth == top_depth) report.total_span_ns += span.duration_ns();
  }

  // Worker summaries from row-group spans.
  int64_t window_start = session.start_ns();
  int64_t window_end = session.stop_ns();
  if (window_end <= window_start) {
    // Session still active when the report was built: fall back to the
    // span extent.
    for (const SpanRecord& span : merged) {
      window_end = std::max(window_end, span.end_ns);
    }
  }
  const int64_t window = std::max<int64_t>(window_end - window_start, 0);
  // Keyed by the runtime worker id the scheduler stamped on each span —
  // not the trace thread index, whose numbering depends on which thread
  // happened to register its buffer first. Untagged spans land on w0.
  std::vector<const SpanRecord*> row_group_spans;
  int max_worker = 0;
  for (const SpanRecord& span : merged) {
    if (span.stage != Stage::kRowGroup) continue;
    row_group_spans.push_back(&span);
    max_worker = std::max(max_worker, static_cast<int>(span.worker));
  }
  for (int w = 0; w <= max_worker; ++w) {
    WorkerSummary worker;
    worker.worker = w;
    std::vector<const SpanRecord*> groups;
    for (const SpanRecord* span : row_group_spans) {
      if (std::max(static_cast<int>(span->worker), 0) != w) continue;
      groups.push_back(span);
      worker.busy_ns += span->duration_ns();
      ++worker.row_groups;
      if (span->queue_ns > worker.max_queue_ns) {
        worker.max_queue_ns = span->queue_ns;
        worker.max_queue_group = span->group;
      }
    }
    if (groups.empty()) continue;
    worker.idle_ns = std::max<int64_t>(window - worker.busy_ns, 0);
    worker.busy_fraction =
        window > 0 ? static_cast<double>(worker.busy_ns) /
                         static_cast<double>(window)
                   : 0.0;
    std::sort(groups.begin(), groups.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                return a->start_ns < b->start_ns;
              });
    for (const SpanRecord* span : groups) {
      if (max_timeline_entries > 0 &&
          worker.timeline.size() >= max_timeline_entries) {
        worker.timeline_truncated = true;
        break;
      }
      worker.timeline.push_back(WorkerSummary::TimelineEntry{
          span->group, span->slot, span->start_ns - window_start,
          span->duration_ns(), span->queue_ns, span->bytes});
    }
    report.workers.push_back(std::move(worker));
  }

  // Stragglers: slowest row-group spans across all workers.
  std::vector<const SpanRecord*> row_groups = row_group_spans;
  std::sort(row_groups.begin(), row_groups.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              if (a->duration_ns() != b->duration_ns()) {
                return a->duration_ns() > b->duration_ns();
              }
              return a->group < b->group;
            });
  for (size_t i = 0; i < row_groups.size() && i < max_stragglers; ++i) {
    const SpanRecord* span = row_groups[i];
    Straggler straggler;
    straggler.group = span->group;
    straggler.worker = span->worker;
    straggler.slot = span->slot;
    straggler.wall_ns = span->duration_ns();
    straggler.bytes = span->bytes;
    report.stragglers.push_back(straggler);
  }

  for (const CounterRecord& counter : session.MergedCounters()) {
    report.counters.push_back(CounterSummary{counter.name, counter.stage,
                                             counter.ns, counter.count,
                                             counter.bytes});
  }

  report.cost_inputs.cpu_seconds = info.cpu_seconds;
  report.cost_inputs.storage_bytes = scan.storage_bytes;
  report.cost_inputs.logical_bytes_bq = scan.logical_bytes_bq;
  report.cost_inputs.row_groups =
      static_cast<int>(std::max<size_t>(row_groups.size(), 1));
  report.cost_inputs.events = info.events_processed;
  report.metrics = metrics::SnapshotMetrics();
  return report;
}

std::string ReportToJson(const RunReport& report) {
  json::Writer w;
  w.BeginObject();
  w.Field("schema_version", RunReport::kSchemaVersion)
      .Field("query", report.info.query)
      .Field("engine", report.info.engine)
      .Field("threads", report.info.threads)
      .Field("events_processed", report.info.events_processed)
      .Field("wall_ns", report.wall_ns())
      .Field("cpu_ns", report.cpu_ns())
      .Field("run_span_ns", report.run_span_ns)
      .Field("total_span_ns", report.total_span_ns)
      .Field("window_ns", report.window_ns)
      .Field("span_coverage", report.span_coverage());
  w.Key("figure4").BeginObject()
      .Field("cpu_ns_per_event", report.cpu_ns_per_event())
      .Field("storage_bytes_per_event", report.storage_bytes_per_event())
      .Field("decoded_bytes_per_event", report.decoded_bytes_per_event())
      .Field("events_per_sec_per_core", report.events_per_sec_per_core())
      .EndObject();
  w.Key("expr_vm").BeginObject()
      .Field("vops_per_event", report.vops_per_event())
      .Field("fused_coverage", report.vexpr_fused_coverage())
      .EndObject();
  const ScanStats& scan = report.scan;
  w.Key("scan").BeginObject()
      .Field("storage_bytes", scan.storage_bytes)
      .Field("encoded_bytes", scan.encoded_bytes)
      .Field("logical_bytes_bq", scan.logical_bytes_bq)
      .Field("ideal_bytes", scan.ideal_bytes)
      .Field("chunks_read", scan.chunks_read)
      .Field("values_read", scan.values_read)
      .Field("decoded_bytes", scan.decoded_bytes)
      .Field("pages_read", scan.pages_read)
      .Field("pages_pruned", scan.pages_pruned)
      .Field("checksum_bytes", scan.checksum_bytes)
      .Field("rows_pruned", scan.rows_pruned)
      .Field("rows_read", scan.rows_read)
      .Field("lanes_pruned", scan.lanes_pruned)
      .Field("groups_pruned", scan.groups_pruned)
      .EndObject();
  // decoded_bytes (from disk, this run) + cache_bytes_served == the bytes
  // the query consumed — the cache hierarchy's reconciliation invariant,
  // emitted pre-summed so consumers need no arithmetic.
  w.Key("cache").BeginObject()
      .Field("footer_hits", scan.footer_cache_hits)
      .Field("footer_misses", scan.footer_cache_misses)
      .Field("chunk_hits", scan.chunk_cache_hits)
      .Field("chunk_misses", scan.chunk_cache_misses)
      .Field("cache_bytes_served", scan.cache_bytes_served)
      .Field("consumed_bytes", scan.decoded_bytes + scan.cache_bytes_served)
      .EndObject();
  w.Key("stages").BeginArray();
  for (const StageSummary& stage : report.stages) {
    w.BeginObject()
        .Field("stage", StageName(stage.stage))
        .Field("wall_ns", stage.wall_ns)
        .Field("cpu_ns", stage.cpu_ns)
        .Field("bytes", stage.bytes)
        .Field("count", stage.count)
        .EndObject();
  }
  w.EndArray();
  w.Key("processes").BeginArray();
  for (const RunReport::ProcessSummary& process : report.processes) {
    w.BeginObject()
        .Field("proc", process.proc)
        .Field("shard_begin", process.shard_begin)
        .Field("shard_end", process.shard_end)
        .Field("threads", process.threads)
        .Field("events", process.events)
        .Field("wall_seconds", process.wall_seconds)
        .Field("cpu_seconds", process.cpu_seconds)
        .Field("storage_bytes", process.storage_bytes)
        .Field("decoded_bytes", process.decoded_bytes)
        .Field("cache_bytes_served", process.cache_bytes_served)
        .Field("report_received", process.report_received)
        .EndObject();
  }
  w.EndArray();
  w.Field("partial", report.partial);
  w.Key("warnings").BeginArray();
  for (const std::string& warning : report.warnings) w.Value(warning);
  w.EndArray();
  w.Key("metrics");
  metrics::MetricSamplesJsonArray(report.metrics, &w);
  w.Key("workers").BeginArray();
  for (const WorkerSummary& worker : report.workers) {
    w.BeginObject()
        .Field("proc", worker.proc)
        .Field("worker", worker.worker)
        .Field("busy_ns", worker.busy_ns)
        .Field("idle_ns", worker.idle_ns)
        .Field("busy_fraction", worker.busy_fraction)
        .Field("row_groups", worker.row_groups)
        .Field("max_queue_ns", worker.max_queue_ns)
        .Field("max_queue_group", worker.max_queue_group)
        .Field("timeline_truncated", worker.timeline_truncated);
    w.Key("timeline").BeginArray();
    for (const auto& entry : worker.timeline) {
      w.BeginObject()
          .Field("group", entry.group)
          .Field("slot", entry.slot)
          .Field("start_ns", entry.start_ns)
          .Field("dur_ns", entry.dur_ns)
          .Field("queue_ns", entry.queue_ns)
          .Field("bytes", entry.bytes)
          .EndObject();
    }
    w.EndArray().EndObject();
  }
  w.EndArray();
  w.Key("stragglers").BeginArray();
  for (const Straggler& straggler : report.stragglers) {
    w.BeginObject()
        .Field("group", straggler.group)
        .Field("proc", straggler.proc)
        .Field("worker", straggler.worker)
        .Field("slot", straggler.slot)
        .Field("wall_ns", straggler.wall_ns)
        .Field("bytes", straggler.bytes)
        .EndObject();
  }
  w.EndArray();
  w.Key("per_leaf").BeginArray();
  for (const LeafScanStats& leaf : scan.leaves) {
    if (leaf.decoded_bytes == 0 && leaf.pages_read == 0 &&
        leaf.chunks_read == 0 && leaf.pages_pruned == 0 &&
        leaf.cache_bytes_served == 0) {
      continue;
    }
    w.BeginObject()
        .Field("leaf", leaf.path)
        .Field("decoded_bytes", leaf.decoded_bytes)
        .Field("storage_bytes", leaf.storage_bytes)
        .Field("chunks_read", leaf.chunks_read)
        .Field("pages_read", leaf.pages_read)
        .Field("pages_pruned", leaf.pages_pruned)
        .Field("cache_bytes_served", leaf.cache_bytes_served)
        .EndObject();
  }
  w.EndArray();
  w.Key("counters").BeginArray();
  for (const CounterSummary& counter : report.counters) {
    w.BeginObject()
        .Field("name", counter.name)
        .Field("stage", StageName(counter.stage))
        .Field("ns", counter.ns)
        .Field("count", counter.count)
        .Field("bytes", counter.bytes)
        .EndObject();
  }
  w.EndArray();
  w.Key("cost_inputs").BeginObject()
      .Field("cpu_seconds", report.cost_inputs.cpu_seconds)
      .Field("storage_bytes", report.cost_inputs.storage_bytes)
      .Field("logical_bytes_bq", report.cost_inputs.logical_bytes_bq)
      .Field("row_groups", report.cost_inputs.row_groups)
      .Field("events", report.cost_inputs.events)
      .EndObject();
  w.EndObject();
  return w.Take() + "\n";
}

std::string ReportToTable(const RunReport& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "profile: %s %s  threads=%d  events=%lld  wall=%.3f ms  "
                "cpu=%.3f ms  coverage=%.1f%%\n",
                report.info.engine.c_str(), report.info.query.c_str(),
                report.info.threads,
                static_cast<long long>(report.info.events_processed),
                report.info.wall_seconds * 1e3, report.info.cpu_seconds * 1e3,
                100.0 * report.span_coverage());
  out += line;

  if (!report.processes.empty()) {
    out += "  proc  shards        events        decoded      served    "
           "cpu\n";
    for (const RunReport::ProcessSummary& process : report.processes) {
      std::snprintf(line, sizeof(line),
                    "  p%-4d [%d,%d)%*s %10lld %s %s %9.3f ms%s\n",
                    process.proc, process.shard_begin, process.shard_end,
                    process.shard_end >= 10 ? 4 : 6, "",
                    static_cast<long long>(process.events),
                    FormatBytes(process.decoded_bytes).c_str(),
                    FormatBytes(process.cache_bytes_served).c_str(),
                    process.cpu_seconds * 1e3,
                    process.report_received ? "" : "   [no report]");
      out += line;
    }
  }
  for (const std::string& warning : report.warnings) {
    out += "  warning: " + warning + "\n";
  }

  out += "  stage          self wall      self cpu         bytes    spans\n";
  for (const StageSummary& stage : report.stages) {
    std::snprintf(line, sizeof(line), "  %-10s %s %s  %s %8llu\n",
                  StageName(stage.stage), FormatNs(stage.wall_ns).c_str(),
                  FormatNs(stage.cpu_ns).c_str(),
                  FormatBytes(stage.bytes).c_str(),
                  static_cast<unsigned long long>(stage.count));
    out += line;
  }

  if (!report.workers.empty()) {
    out += "  worker     busy        idle        busy%   groups   "
           "max queue (group)\n";
    for (const WorkerSummary& worker : report.workers) {
      char label[24];
      if (report.processes.empty()) {
        std::snprintf(label, sizeof(label), "w%d", worker.worker);
      } else {
        std::snprintf(label, sizeof(label), "p%d:w%d", worker.proc,
                      worker.worker);
      }
      std::snprintf(line, sizeof(line),
                    "  %-5s %s %s %7.1f%% %8lld %s (%d)\n",
                    label, FormatNs(worker.busy_ns).c_str(),
                    FormatNs(worker.idle_ns).c_str(),
                    100.0 * worker.busy_fraction,
                    static_cast<long long>(worker.row_groups),
                    FormatNs(worker.max_queue_ns).c_str(),
                    worker.max_queue_group);
      out += line;
    }
  }

  if (!report.stragglers.empty()) {
    out += "  stragglers (slowest row groups):\n";
    for (const Straggler& straggler : report.stragglers) {
      std::snprintf(line, sizeof(line),
                    "    group %-6d %s  worker %-3d slot %-4d %s\n",
                    straggler.group, FormatNs(straggler.wall_ns).c_str(),
                    straggler.worker, straggler.slot,
                    FormatBytes(straggler.bytes).c_str());
      out += line;
    }
  }

  bool any_leaf = false;
  for (const LeafScanStats& leaf : report.scan.leaves) {
    if (leaf.decoded_bytes != 0 || leaf.pages_read != 0 ||
        leaf.chunks_read != 0 || leaf.pages_pruned != 0) {
      any_leaf = true;
      break;
    }
  }
  if (any_leaf) {
    out += "  leaf                       decoded      stored   chunks    "
           "pages   pruned\n";
    for (const LeafScanStats& leaf : report.scan.leaves) {
      if (leaf.decoded_bytes == 0 && leaf.pages_read == 0 &&
          leaf.chunks_read == 0 && leaf.pages_pruned == 0) {
        continue;
      }
      std::snprintf(line, sizeof(line),
                    "  %-24s %s %s %8llu %8llu %8llu\n", leaf.path.c_str(),
                    FormatBytes(leaf.decoded_bytes).c_str(),
                    FormatBytes(leaf.storage_bytes).c_str(),
                    static_cast<unsigned long long>(leaf.chunks_read),
                    static_cast<unsigned long long>(leaf.pages_read),
                    static_cast<unsigned long long>(leaf.pages_pruned));
      out += line;
    }
  }

  if (!report.counters.empty()) {
    out += "  counter                 time         count\n";
    for (const CounterSummary& counter : report.counters) {
      std::snprintf(line, sizeof(line), "  %-18s %s %10llu\n",
                    counter.name.c_str(), FormatNs(counter.ns).c_str(),
                    static_cast<unsigned long long>(counter.count));
      out += line;
    }
  }
  return out;
}

const char* ProcessReport::InternName(const std::string& name) {
  for (const auto& owned : name_pool) {
    if (*owned == name) return owned->c_str();
  }
  name_pool.push_back(std::make_unique<std::string>(name));
  return name_pool.back()->c_str();
}

ProcessReport BuildProcessReport(const TraceSession& session,
                                 const RunInfo& info, const ScanStats& scan,
                                 int shard_begin, int shard_end) {
  ProcessReport process;
  process.shard_begin = shard_begin;
  process.shard_end = shard_end;
  process.session_start_ns = session.start_ns();
  process.session_stop_ns = session.stop_ns();
  process.report = BuildRunReport(session, info, scan);
  // Span names are string literals here (the in-process case); the wire
  // decoder reroutes them through name_pool instead.
  process.spans = session.MergedSpans();
  return process;
}

RunReport MergeProcessReports(const RunInfo& info, const ScanStats& merged_scan,
                              const std::vector<ProcessReport>& reports,
                              size_t max_stragglers) {
  RunReport merged;
  merged.info = info;
  merged.scan = merged_scan;

  std::vector<StageSummary> stages(kNumStages);
  for (int s = 0; s < kNumStages; ++s) {
    stages[static_cast<size_t>(s)].stage = static_cast<Stage>(s);
  }

  for (size_t p = 0; p < reports.size(); ++p) {
    const ProcessReport& process = reports[p];
    RunReport::ProcessSummary summary;
    summary.proc = static_cast<int>(p);
    summary.shard_begin = process.shard_begin;
    summary.shard_end = process.shard_end;
    if (!process.received) {
      summary.report_received = false;
      merged.partial = true;
      merged.warnings.push_back(
          "worker for shards [" + std::to_string(process.shard_begin) + "," +
          std::to_string(process.shard_end) +
          ") sent no run report; per-process attribution is incomplete");
      merged.processes.push_back(summary);
      continue;
    }
    const RunReport& r = process.report;
    summary.threads = r.info.threads;
    summary.events = r.info.events_processed;
    summary.wall_seconds = r.info.wall_seconds;
    summary.cpu_seconds = r.info.cpu_seconds;
    summary.storage_bytes = r.scan.storage_bytes;
    summary.decoded_bytes = r.scan.decoded_bytes;
    summary.cache_bytes_served = r.scan.cache_bytes_served;
    merged.processes.push_back(summary);

    // Traced durations sum across processes: the merged report answers
    // "how much traced work happened", not "how long did the wall run"
    // (that is info.wall_seconds, the coordinator's own measurement).
    merged.run_span_ns += r.run_span_ns;
    merged.total_span_ns += r.total_span_ns;
    merged.window_ns = std::max(merged.window_ns, r.window_ns);

    for (const StageSummary& stage : r.stages) {
      StageSummary& acc = stages[static_cast<size_t>(stage.stage)];
      acc.wall_ns += stage.wall_ns;
      acc.cpu_ns += stage.cpu_ns;
      acc.bytes += stage.bytes;
      acc.count += stage.count;
    }
    for (WorkerSummary worker : r.workers) {
      worker.proc = static_cast<int>(p);
      merged.workers.push_back(std::move(worker));
    }
    for (Straggler straggler : r.stragglers) {
      straggler.proc = static_cast<int>(p);
      merged.stragglers.push_back(straggler);
    }
    for (const CounterSummary& counter : r.counters) {
      bool found = false;
      for (CounterSummary& acc : merged.counters) {
        if (acc.stage == counter.stage && acc.name == counter.name) {
          acc.ns += counter.ns;
          acc.count += counter.count;
          acc.bytes += counter.bytes;
          found = true;
          break;
        }
      }
      if (!found) merged.counters.push_back(counter);
    }
    metrics::MergeMetricSamples(&merged.metrics, r.metrics);
  }

  for (const StageSummary& stage : stages) {
    if (stage.count > 0) merged.stages.push_back(stage);
  }
  std::sort(merged.counters.begin(), merged.counters.end(),
            [](const CounterSummary& a, const CounterSummary& b) {
              if (a.stage != b.stage) return a.stage < b.stage;
              return a.name < b.name;
            });
  std::sort(merged.stragglers.begin(), merged.stragglers.end(),
            [](const Straggler& a, const Straggler& b) {
              if (a.wall_ns != b.wall_ns) return a.wall_ns > b.wall_ns;
              if (a.proc != b.proc) return a.proc < b.proc;
              return a.group < b.group;
            });
  if (merged.stragglers.size() > max_stragglers) {
    merged.stragglers.resize(max_stragglers);
  }

  // The coordinator's own registry (scatter frame/CRC/spawn counters)
  // joins the per-worker snapshots.
  metrics::MergeMetricSamples(&merged.metrics, metrics::SnapshotMetrics());

  merged.cost_inputs.cpu_seconds = info.cpu_seconds;
  merged.cost_inputs.storage_bytes = merged_scan.storage_bytes;
  merged.cost_inputs.logical_bytes_bq = merged_scan.logical_bytes_bq;
  int64_t row_groups = 0;
  for (const StageSummary& stage : merged.stages) {
    if (stage.stage == Stage::kRowGroup) {
      row_groups = static_cast<int64_t>(stage.count);
    }
  }
  merged.cost_inputs.row_groups =
      static_cast<int>(std::max<int64_t>(row_groups, 1));
  merged.cost_inputs.events = info.events_processed;
  return merged;
}

std::string ChromeTraceJson(const std::vector<ProcessReport>& processes) {
  // One shared epoch: the earliest session start across processes. The
  // steady clock is machine-wide, so per-process offsets against it
  // reproduce the real concurrency picture.
  int64_t epoch = std::numeric_limits<int64_t>::max();
  for (const ProcessReport& process : processes) {
    if (process.received) epoch = std::min(epoch, process.session_start_ns);
  }
  json::Writer w;
  // Metadata naming a process (tid < 0) or one of its threads.
  auto name_event = [&w](const char* what, int pid, int tid,
                         const std::string& label) {
    w.BeginObject().Field("ph", "M").Field("name", what).Field("pid", pid);
    if (tid >= 0) w.Field("tid", tid);
    w.Key("args").BeginObject().Field("name", label).EndObject().EndObject();
  };
  w.BeginObject().Key("traceEvents").BeginArray();
  for (size_t p = 0; p < processes.size(); ++p) {
    const ProcessReport& process = processes[p];
    if (!process.received) continue;
    const int pid = static_cast<int>(p) + 1;
    const std::string proc = std::to_string(p);
    // An in-process run (empty shard range) has no worker process to name.
    const bool in_process = process.shard_begin == process.shard_end;
    if (!in_process) {
      name_event("process_name", pid, -1,
                 "worker p" + proc + " shards [" +
                     std::to_string(process.shard_begin) + "," +
                     std::to_string(process.shard_end) + ")");
    }
    int num_threads = 0;
    for (const SpanRecord& span : process.spans) {
      num_threads = std::max(num_threads,
                             static_cast<int>(span.thread_index) + 1);
    }
    const std::string thread_prefix =
        in_process ? "trace-thread-" : "p" + proc + "-thread-";
    for (int t = 0; t < num_threads; ++t) {
      name_event("thread_name", pid, t, thread_prefix + std::to_string(t));
    }
    for (const SpanRecord& span : process.spans) {
      w.BeginObject()
          .Field("name", span.name)
          .Field("cat", StageName(span.stage))
          .Field("ph", "X")
          .Field("ts", static_cast<double>(span.start_ns - epoch) / 1e3)
          .Field("dur", static_cast<double>(span.duration_ns()) / 1e3)
          .Field("pid", pid)
          .Field("tid", span.thread_index)
          .Key("args").BeginObject()
          .Field("worker", span.worker)
          .Field("group", span.group)
          .Field("slot", span.slot)
          .Field("leaf", span.leaf)
          .Field("bytes", span.bytes)
          .Field("queue_us", static_cast<double>(span.queue_ns) / 1e3)
          .Field("cpu_us", static_cast<double>(span.cpu_ns) / 1e3)
          .EndObject()
          .EndObject();
    }
  }
  w.EndArray().EndObject();
  return w.Take() + "\n";
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_rc = std::fclose(f);
  if (written != content.size() || close_rc != 0) {
    return Status::IoError("short write: " + path);
  }
  return Status::OK();
}

}  // namespace hepq::obs
