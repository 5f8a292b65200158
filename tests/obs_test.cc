// Unit tests for the tracing layer: span nesting and ordering invariants,
// deterministic merges under 1 and 4 runtime workers, counter merging,
// exporter well-formedness, and the zero-allocation hot-path guarantee.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "exec/exec.h"
#include "obs/report.h"
#include "obs/trace.h"

// ---------------------------------------------------------------------------
// Allocation-counting hook (same shape as bench/micro_kernels.cc): every
// global operator new bumps a counter so the tests below can assert that
// the span hot path allocates nothing — neither when no session is active
// nor, after per-thread warmup, while one is recording.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hepq::obs {
namespace {

TEST(TraceSessionTest, InactiveByDefault) {
  EXPECT_EQ(TraceSession::Active(), nullptr);
  EXPECT_FALSE(TracingActive());
  // Spans and counters are silent no-ops without a session.
  {
    ScopedSpan span("noop", Stage::kOther);
    EXPECT_FALSE(span.active());
    span.set_bytes(1);  // setters must be safe when inactive
    span.End();
    span.End();  // idempotent
  }
  CountStage("noop", Stage::kOther, 1);
}

TEST(TraceSessionTest, StartStopLifecycle) {
  TraceSession session;
  EXPECT_FALSE(session.active());
  session.Start();
  EXPECT_TRUE(session.active());
  EXPECT_TRUE(TracingActive());
  EXPECT_EQ(TraceSession::Active(), &session);
  session.Stop();
  EXPECT_FALSE(session.active());
  EXPECT_EQ(TraceSession::Active(), nullptr);
  session.Stop();  // idempotent
  EXPECT_GE(session.stop_ns(), session.start_ns());
}

TEST(TraceSessionTest, SpanNestingInvariants) {
  TraceSession session;
  session.Start();
  {
    ScopedSpan outer("outer", Stage::kRun);
    EXPECT_TRUE(outer.active());
    {
      ScopedSpan mid("mid", Stage::kRowGroup);
      { ScopedSpan inner("inner", Stage::kDecode); }
      { ScopedSpan inner2("inner2", Stage::kExpr); }
    }
    { ScopedSpan mid2("mid2", Stage::kMerge); }
  }
  session.Stop();

  const std::vector<SpanRecord> spans = session.MergedSpans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(session.num_threads(), 1);

  // Merged order is start order; our nesting starts outer first.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[0].stage, Stage::kRun);
  EXPECT_STREQ(spans[1].name, "mid");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_STREQ(spans[2].name, "inner");
  EXPECT_EQ(spans[2].depth, 2);
  EXPECT_STREQ(spans[3].name, "inner2");
  EXPECT_EQ(spans[3].depth, 2);
  EXPECT_STREQ(spans[4].name, "mid2");
  EXPECT_EQ(spans[4].depth, 1);

  // Containment: every child lies within its parent; siblings in order.
  for (const SpanRecord& span : spans) {
    EXPECT_GE(span.end_ns, span.start_ns) << span.name;
    EXPECT_GE(span.start_ns, spans[0].start_ns) << span.name;
    EXPECT_LE(span.end_ns, spans[0].end_ns) << span.name;
  }
  EXPECT_LE(spans[2].end_ns, spans[1].end_ns);
  EXPECT_LE(spans[2].end_ns, spans[3].start_ns);

  // seq is the per-thread end order: inner, inner2, mid, mid2, outer.
  EXPECT_EQ(spans[2].seq, 0u);
  EXPECT_EQ(spans[3].seq, 1u);
  EXPECT_EQ(spans[1].seq, 2u);
  EXPECT_EQ(spans[4].seq, 3u);
  EXPECT_EQ(spans[0].seq, 4u);
}

TEST(TraceSessionTest, EarlyEndStopsTheClock) {
  TraceSession session;
  session.Start();
  int64_t mid_ns = 0;
  {
    ScopedSpan span("early", Stage::kPlan);
    span.End();
    mid_ns = NowNs();
    // Depth bookkeeping must have unwound: a new span starts at depth 0.
    ScopedSpan after("after", Stage::kPlan);
  }
  session.Stop();
  const auto spans = session.MergedSpans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_LE(spans[0].end_ns, mid_ns);
  EXPECT_EQ(spans[1].depth, 0);
}

TEST(TraceSessionTest, SpansAfterStopAreDropped) {
  TraceSession session;
  session.Start();
  { ScopedSpan span("kept", Stage::kOther); }
  session.Stop();
  { ScopedSpan span("dropped", Stage::kOther); }
  EXPECT_EQ(session.MergedSpans().size(), 1u);
}

TEST(TraceSessionTest, BuffersDoNotLeakAcrossSessions) {
  // The TLS buffer cache must be invalidated when a new session starts;
  // otherwise spans of session B would land in A's (possibly freed) buffer.
  {
    TraceSession a;
    a.Start();
    { ScopedSpan span("a", Stage::kOther); }
    a.Stop();
    EXPECT_EQ(a.MergedSpans().size(), 1u);
  }
  TraceSession b;
  b.Start();
  { ScopedSpan span("b", Stage::kOther); }
  b.Stop();
  const auto spans = b.MergedSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "b");
}

TEST(TraceSessionTest, CounterMerging) {
  TraceSession session;
  session.Start();
  CountStage("flwor_let", Stage::kExpr, 10, 2, 100);
  CountStage("flwor_let", Stage::kExpr, 5, 1, 50);
  CountStage("flwor_where", Stage::kExpr, 7);
  session.Stop();
  const auto counters = session.MergedCounters();
  ASSERT_EQ(counters.size(), 2u);
  // Sorted by stage then name.
  EXPECT_STREQ(counters[0].name, "flwor_let");
  EXPECT_EQ(counters[0].ns, 15);
  EXPECT_EQ(counters[0].count, 3u);
  EXPECT_EQ(counters[0].bytes, 150u);
  EXPECT_STREQ(counters[1].name, "flwor_where");
  EXPECT_EQ(counters[1].count, 1u);
}

TEST(TraceSessionTest, StageNamesAreStable) {
  EXPECT_STREQ(StageName(Stage::kRun), "run");
  EXPECT_STREQ(StageName(Stage::kRowGroup), "row_group");
  EXPECT_STREQ(StageName(Stage::kDecode), "decode");
  EXPECT_STREQ(StageName(Stage::kChecksum), "checksum");
  EXPECT_STREQ(StageName(Stage::kPagePrune), "page_prune");
  EXPECT_STREQ(StageName(Stage::kLateMat), "late_mat");
  EXPECT_STREQ(StageName(Stage::kMerge), "merge");
  // Every stage id below kNumStages has its own name; kOther is the last.
  std::set<std::string> names;
  for (int s = 0; s < kNumStages; ++s) {
    names.insert(StageName(static_cast<Stage>(s)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumStages));
  EXPECT_EQ(static_cast<int>(Stage::kOther), kNumStages - 1);
}

// ---------------------------------------------------------------------------
// Runtime integration: RunRowGroups scheduling spans.
// ---------------------------------------------------------------------------

/// Runs `num_groups` trivial tasks under a trace and returns the merged
/// row-group spans.
std::vector<SpanRecord> TraceRowGroups(int threads, int num_groups,
                                       TraceSession* session) {
  std::vector<exec::RowGroupTask> tasks;
  for (int g = 0; g < num_groups; ++g) {
    tasks.push_back(exec::RowGroupTask{
        g, static_cast<uint64_t>(1000 + 10 * g)});
  }
  session->Start();
  const Status status = exec::RunRowGroups(
      threads, tasks, [](int, int) { return Status::OK(); });
  session->Stop();
  EXPECT_TRUE(status.ok());
  std::vector<SpanRecord> groups;
  for (const SpanRecord& span : session->MergedSpans()) {
    if (span.stage == Stage::kRowGroup) groups.push_back(span);
  }
  return groups;
}

class RowGroupSpans : public ::testing::TestWithParam<int> {};

TEST_P(RowGroupSpans, CompleteAndDeterministicallyOrdered) {
  const int threads = GetParam();
  constexpr int kGroups = 12;
  TraceSession session;
  const auto spans = TraceRowGroups(threads, kGroups, &session);

  // Every group appears exactly once; slots are a permutation of the LPT
  // order; workers are within range; queue waits are sane.
  ASSERT_EQ(spans.size(), static_cast<size_t>(kGroups));
  std::set<int> groups, slots;
  for (const SpanRecord& span : spans) {
    groups.insert(span.group);
    slots.insert(span.slot);
    EXPECT_GE(span.worker, 0);
    EXPECT_LT(span.worker, threads);
    EXPECT_GE(span.queue_ns, 0) << "group " << span.group;
    EXPECT_GT(span.bytes, 0u);
    EXPECT_GE(span.end_ns, span.start_ns);
  }
  EXPECT_EQ(groups.size(), static_cast<size_t>(kGroups));
  EXPECT_EQ(*groups.begin(), 0);
  EXPECT_EQ(slots.size(), static_cast<size_t>(kGroups));

  // MergedSpans is sorted by (start, thread, seq) — the documented
  // deterministic order.
  const auto all = session.MergedSpans();
  for (size_t i = 1; i < all.size(); ++i) {
    const SpanRecord& a = all[i - 1];
    const SpanRecord& b = all[i];
    const bool ordered =
        a.start_ns < b.start_ns ||
        (a.start_ns == b.start_ns &&
         (a.thread_index < b.thread_index ||
          (a.thread_index == b.thread_index && a.seq < b.seq)));
    EXPECT_TRUE(ordered) << "span " << i << " out of order";
  }

  // One worker executes everything inline; its spans must not overlap.
  if (threads == 1) {
    EXPECT_EQ(session.num_threads(), 1);
    for (size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].start_ns, spans[i - 1].end_ns);
      // Inline path visits tasks in LPT order: slot == visit order.
      EXPECT_EQ(spans[i].slot, static_cast<int>(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, RowGroupSpans, ::testing::Values(1, 4));

TEST(RowGroupSpansTest, WorkerSummariesCoverAllGroups) {
  TraceSession session;
  TraceRowGroups(4, 12, &session);
  RunInfo info;
  info.threads = 4;
  const RunReport report = BuildRunReport(session, info, ScanStats{});
  int64_t total_groups = 0;
  for (const WorkerSummary& worker : report.workers) {
    total_groups += worker.row_groups;
    EXPECT_GE(worker.busy_ns, 0);
    EXPECT_GE(worker.idle_ns, 0);
    EXPECT_LE(worker.busy_ns, report.window_ns);
    EXPECT_GE(worker.busy_fraction, 0.0);
    EXPECT_LE(worker.busy_fraction, 1.0);
    ASSERT_EQ(worker.timeline.size(),
              static_cast<size_t>(worker.row_groups));
    for (size_t i = 1; i < worker.timeline.size(); ++i) {
      EXPECT_GE(worker.timeline[i].start_ns,
                worker.timeline[i - 1].start_ns);
    }
  }
  EXPECT_EQ(total_groups, 12);
  // Stragglers are the slowest groups, sorted descending.
  ASSERT_FALSE(report.stragglers.empty());
  EXPECT_LE(report.stragglers.size(), 5u);
  for (size_t i = 1; i < report.stragglers.size(); ++i) {
    EXPECT_GE(report.stragglers[i - 1].wall_ns, report.stragglers[i].wall_ns);
  }
}

TEST(RowGroupSpansTest, TimelineCapSetsTruncatedFlag) {
  TraceSession session;
  TraceRowGroups(1, 8, &session);
  RunInfo info;
  const RunReport report =
      BuildRunReport(session, info, ScanStats{}, /*max_timeline_entries=*/3);
  ASSERT_EQ(report.workers.size(), 1u);
  EXPECT_EQ(report.workers[0].timeline.size(), 3u);
  EXPECT_TRUE(report.workers[0].timeline_truncated);
  EXPECT_EQ(report.workers[0].row_groups, 8);
}

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

TEST(ChromeTraceTest, WellFormedAndLoadsSpans) {
  TraceSession session;
  session.Start();
  {
    ScopedSpan span("outer", Stage::kRun);
    ScopedSpan inner("row_group", Stage::kRowGroup);
    inner.set_worker(0);
    inner.set_group(3);
  }
  session.Stop();
  const std::string json = ChromeTraceJson(session);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 40);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"row_group\""), std::string::npos);
  EXPECT_NE(json.find("\"group\":3"), std::string::npos);
  // Balanced braces/brackets (the writer emits no strings containing
  // braces, so plain counting is a valid well-formedness check here).
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{';
    braces -= c == '}';
    brackets += c == '[';
    brackets -= c == ']';
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ReportJsonTest, EscapesStrings) {
  TraceSession session;
  session.Start();
  session.Stop();
  RunInfo info;
  info.query = "Q\"5\"\n";
  const RunReport report = BuildRunReport(session, info, ScanStats{});
  const std::string json = ReportToJson(report);
  EXPECT_NE(json.find("\"query\":\"Q\\\"5\\\"\\n\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Allocation guarantees.
// ---------------------------------------------------------------------------

TEST(AllocationTest, InactiveSpansAllocateNothing) {
  ASSERT_EQ(TraceSession::Active(), nullptr);
  const uint64_t before = g_heap_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    ScopedSpan span("hot", Stage::kDecode);
    span.set_bytes(64);
    CountStage("hot_counter", Stage::kExpr, 1);
  }
  EXPECT_EQ(g_heap_allocations.load() - before, 0u);
}

TEST(AllocationTest, WarmActiveSpansAllocateNothing) {
  TraceSession session;
  session.Start();
  // Warmup: first span registers this thread's buffer (allocates, once).
  { ScopedSpan warm("warm", Stage::kOther); }
  CountStage("warm_counter", Stage::kExpr, 1);
  const uint64_t before = g_heap_allocations.load();
  for (int i = 0; i < 1000; ++i) {  // well under the 1<<14 reserve
    ScopedSpan span("hot", Stage::kDecode);
    span.set_bytes(64);
    span.set_worker(0);
    CountStage("warm_counter", Stage::kExpr, 1);
  }
  EXPECT_EQ(g_heap_allocations.load() - before, 0u);
  session.Stop();
}

}  // namespace
}  // namespace hepq::obs
