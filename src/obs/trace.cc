#include "obs/trace.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <ctime>
#include <string_view>

namespace hepq::obs {

namespace {

// The active session. Instrumentation sites do one load of this pointer;
// everything else happens only when it is non-null.
std::atomic<TraceSession*> g_active{nullptr};

// Monotonic session ids validate the thread-local buffer cache: a cached
// pointer is only used while its session id matches the active session's,
// so buffers of destroyed sessions can never be dereferenced.
std::atomic<uint64_t> g_next_session_id{1};

struct TlsCache {
  uint64_t session_id = 0;
  TraceSession::ThreadBuf* buf = nullptr;
};
thread_local TlsCache t_cache;

// Current nesting depth on this thread (only maintained while a session
// is active at span construction).
thread_local int t_depth = 0;

int64_t ThreadCpuNs() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
#else
  return 0;
#endif
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kRun: return "run";
    case Stage::kOpen: return "open";
    case Stage::kPlan: return "plan";
    case Stage::kRowGroup: return "row_group";
    case Stage::kDecode: return "decode";
    case Stage::kChecksum: return "checksum";
    case Stage::kPagePrune: return "page_prune";
    case Stage::kLateMat: return "late_mat";
    case Stage::kExpr: return "expr";
    case Stage::kEventLoop: return "event_loop";
    case Stage::kMerge: return "merge";
    case Stage::kVexprKernel: return "vexpr_kernel";
    case Stage::kCacheLookup: return "cache_lookup";
    case Stage::kOther: return "other";
  }
  return "other";
}

TraceSession::TraceSession(TraceOptions options)
    : options_(options),
      id_(g_next_session_id.fetch_add(1, std::memory_order_relaxed)) {}

TraceSession::~TraceSession() { Stop(); }

void TraceSession::Start() {
  start_ns_ = NowNs();
  TraceSession* expected = nullptr;
  const bool installed = g_active.compare_exchange_strong(
      expected, this, std::memory_order_release, std::memory_order_relaxed);
  (void)installed;
  assert(installed && "another TraceSession is already active");
}

void TraceSession::Stop() {
  TraceSession* expected = this;
  if (g_active.compare_exchange_strong(expected, nullptr,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
    stop_ns_ = NowNs();
  }
}

bool TraceSession::active() const {
  return g_active.load(std::memory_order_acquire) == this;
}

TraceSession* TraceSession::Active() {
  return g_active.load(std::memory_order_acquire);
}

TraceSession::ThreadBuf* TraceSession::BufForThread() {
  if (t_cache.session_id == id_) return t_cache.buf;
  std::lock_guard<std::mutex> lock(mu_);
  auto buf = std::make_unique<ThreadBuf>();
  buf->index = static_cast<uint16_t>(bufs_.size());
  buf->spans.reserve(options_.reserve_spans_per_thread);
  buf->counters.reserve(32);
  ThreadBuf* raw = buf.get();
  bufs_.push_back(std::move(buf));
  t_cache.session_id = id_;
  t_cache.buf = raw;
  return raw;
}

std::vector<SpanRecord> TraceSession::MergedSpans() const {
  std::vector<SpanRecord> merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t total = 0;
    for (const auto& buf : bufs_) total += buf->spans.size();
    merged.reserve(total);
    for (const auto& buf : bufs_) {
      merged.insert(merged.end(), buf->spans.begin(), buf->spans.end());
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.thread_index != b.thread_index) {
                return a.thread_index < b.thread_index;
              }
              return a.seq < b.seq;
            });
  return merged;
}

std::vector<CounterRecord> TraceSession::MergedCounters() const {
  std::vector<CounterRecord> merged;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : bufs_) {
    for (const CounterRecord& counter : buf->counters) {
      auto it = std::find_if(merged.begin(), merged.end(),
                             [&](const CounterRecord& m) {
                               return m.stage == counter.stage &&
                                      std::string_view(m.name) ==
                                          std::string_view(counter.name);
                             });
      if (it == merged.end()) {
        merged.push_back(counter);
      } else {
        it->ns += counter.ns;
        it->count += counter.count;
        it->bytes += counter.bytes;
      }
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const CounterRecord& a, const CounterRecord& b) {
              if (a.stage != b.stage) return a.stage < b.stage;
              return std::string_view(a.name) < std::string_view(b.name);
            });
  return merged;
}

int TraceSession::num_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(bufs_.size());
}

bool TracingActive() {
  return g_active.load(std::memory_order_acquire) != nullptr;
}

void CountStage(const char* name, Stage stage, int64_t ns, uint64_t count,
                uint64_t bytes) {
  TraceSession* session = TraceSession::Active();
  if (session == nullptr) return;
  TraceSession::ThreadBuf* buf = session->BufForThread();
  for (CounterRecord& counter : buf->counters) {
    if (counter.stage == stage &&
        std::string_view(counter.name) == std::string_view(name)) {
      counter.ns += ns;
      counter.count += count;
      counter.bytes += bytes;
      return;
    }
  }
  buf->counters.push_back(CounterRecord{name, stage, ns, count, bytes});
}

void ScopedSpan::Init(TraceSession* session, const char* name, Stage stage) {
  session_ = session;
  name_ = name;
  stage_ = stage;
  depth_ = static_cast<uint8_t>(std::min(t_depth, 255));
  ++t_depth;
  if (session->capture_cpu_time()) start_cpu_ns_ = ThreadCpuNs();
  start_ns_ = NowNs();  // last: exclude our own setup from the span
}

void ScopedSpan::Finish() {
  const int64_t end_ns = NowNs();
  const int64_t cpu_ns =
      session_->capture_cpu_time() ? ThreadCpuNs() - start_cpu_ns_ : 0;
  --t_depth;
  TraceSession::ThreadBuf* buf = session_->BufForThread();
  SpanRecord record;
  record.name = name_;
  record.start_ns = start_ns_;
  record.end_ns = end_ns;
  record.cpu_ns = cpu_ns;
  record.bytes = bytes_;
  record.queue_ns = queue_ns_;
  record.worker = worker_;
  record.group = group_;
  record.slot = slot_;
  record.leaf = leaf_;
  record.seq = buf->next_seq++;
  record.thread_index = buf->index;
  record.depth = depth_;
  record.stage = stage_;
  buf->spans.push_back(record);
}

}  // namespace hepq::obs
