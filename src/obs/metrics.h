#ifndef HEPQUERY_OBS_METRICS_H_
#define HEPQUERY_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/json.h"

namespace hepq::obs::metrics {

// Process-lifetime metrics registry: named counters, gauges, and
// fixed-bucket latency histograms that accumulate across every query a
// process runs — the scrape surface a long-lived `hepqd` daemon needs,
// where a TraceSession (one run, explicit start/stop) is the wrong shape.
//
// The cost contract mirrors trace.cc: when metrics are disabled (the
// default) every instrument site is one relaxed atomic load; when enabled,
// counters are striped over cache-line-padded atomics so concurrent
// workers never contend on one line, and the warm path performs zero heap
// allocations. Registration (the only allocating operation) happens once
// per site via a function-local static:
//
//   static auto& hits = metrics::GetCounter("hepq_cache_chunk_hits_total");
//   hits.Add(1);
//
// Metric names must be string literals (the registry stores the pointer).
// By convention they follow Prometheus naming: `hepq_<area>_<what>_total`
// for counters, `_ns` suffixed histograms, and optional fixed label sets
// spelled inline (`hepq_queries_runs_total{engine="rdf"}`).

inline constexpr int kCounterStripes = 8;
/// Finite histogram buckets; bucket b spans (bound[b-1], 1024ns << b].
/// One overflow bucket past the last bound. 1.024 us .. ~33.6 ms.
inline constexpr int kHistogramBuckets = 16;

/// Inclusive upper bound (Prometheus `le`) of finite bucket b, in ns.
inline constexpr int64_t HistogramBucketBoundNs(int bucket) {
  return int64_t{1024} << bucket;
}

namespace internal {
extern std::atomic<bool> g_enabled;
/// Stable per-thread stripe index (round-robin assignment on first use).
unsigned StripeIndexForThread();
}  // namespace internal

/// True when metric accumulation is on. One relaxed atomic load — the
/// entire cost of every instrument site in a production (disabled) run.
inline bool MetricsEnabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Flips accumulation on/off. Values accumulated while enabled persist.
void SetMetricsEnabled(bool enabled);

/// Monotonic counter, striped over cache-line-padded atomics so parallel
/// workers on different threads rarely share a line.
class Counter {
 public:
  explicit Counter(const char* name) : name_(name) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta = 1) {
    if (!MetricsEnabled()) return;
    cells_[internal::StripeIndexForThread()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Sum over stripes. Relaxed; exact once concurrent writers have joined.
  uint64_t Value() const;
  void Reset();
  const char* name() const { return name_; }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  const char* name_;
  Cell cells_[kCounterStripes];
};

/// Instantaneous signed value (queue depth, resident bytes). Unstriped:
/// gauges are set/adjusted at coarse points, not in per-row loops.
class Gauge {
 public:
  explicit Gauge(const char* name) : name_(name) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) {
    if (!MetricsEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Sub(int64_t delta) { Add(-delta); }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const char* name() const { return name_; }

 private:
  const char* name_;
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket latency histogram (power-of-two bounds from 1.024 us, one
/// overflow bucket) plus exact sum/count. Bounds are compile-time fixed so
/// observation is branch-light and merging across processes is index-wise.
class Histogram {
 public:
  explicit Histogram(const char* name) : name_(name) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(int64_t ns);

  uint64_t BucketCount(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  uint64_t TotalCount() const {
    return count_.load(std::memory_order_relaxed);
  }
  int64_t SumNs() const { return sum_ns_.load(std::memory_order_relaxed); }
  void Reset();
  const char* name() const { return name_; }

  /// Index of the finite or overflow bucket `ns` falls into.
  static int BucketFor(int64_t ns);

 private:
  const char* name_;
  std::atomic<uint64_t> buckets_[kHistogramBuckets + 1] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_ns_{0};
};

/// Looks up (or registers) the named metric. `name` must be a string
/// literal; the same name always returns the same instance. Thread-safe;
/// allocates only on first registration of a name.
Counter& GetCounter(const char* name);
Gauge& GetGauge(const char* name);
Histogram& GetHistogram(const char* name);

enum class MetricKind : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

/// One metric's point-in-time value, detached from the registry — the
/// unit of exposition, cross-process shipping, and merging.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  int64_t value = 0;               ///< counter / gauge value
  std::vector<uint64_t> buckets;   ///< histogram: kHistogramBuckets+1 counts
  uint64_t observations = 0;       ///< histogram: total count
  int64_t sum_ns = 0;              ///< histogram: sum of observed ns
};

/// Every registered metric's current value, sorted by name — deterministic
/// modulo the values themselves.
std::vector<MetricSample> SnapshotMetrics();

/// Merges `from` into `into` by name: counters, gauges, and histogram
/// buckets sum; names only in `from` are appended. Keeps `into` sorted.
void MergeMetricSamples(std::vector<MetricSample>* into,
                        const std::vector<MetricSample>& from);

/// Prometheus text exposition (TYPE comments + samples). Histogram bucket
/// lines are cumulative with `le` labels, per the format.
std::string MetricsToPrometheus(const std::vector<MetricSample>& samples);

/// Writes the samples as a JSON array (each sample one object) into `out`
/// — the RunReport's "metrics" member; MetricsToJson wraps it in a
/// `{"metrics": ...}` document.
void MetricSamplesJsonArray(const std::vector<MetricSample>& samples,
                            json::Writer* out);
std::string MetricsToJson(const std::vector<MetricSample>& samples);

/// Zeroes every registered metric's value (registrations persist). Tests
/// only — production metrics are process-lifetime by design.
void ResetMetricsForTest();

}  // namespace hepq::obs::metrics

#endif  // HEPQUERY_OBS_METRICS_H_
