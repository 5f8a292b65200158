// hepq_bench: the repository benchmark. One invocation runs one named
// workload with one seed, checks every histogram it produces, and prints
// one JSON object as the last line of stdout: the end-to-end metrics
// (--trace 0) or the per-layer metrics computed from the benchmark's own
// spans (--trace 1). perfbench/run.py builds this binary and forwards its
// arguments; perfbench/README.md describes the workloads and metrics.
//
// Usage: hepq_bench --workload scan|trijet|session|scatter [--seed N]
//                   [--seconds S] [--trace 0|1] [--smoke] [--print-digests]

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "core/histogram.h"
#include "core/json.h"
#include "core/stopwatch.h"
#include "datagen/dataset.h"
#include "datagen/generator.h"
#include "fileio/dataset_reader.h"
#include "fileio/layout_optimizer.h"
#include "fileio/writer.h"
#include "json_writer.h"
#include "queries/adl.h"
#include "replay.h"
#include "scatter/scatter.h"
#include "trace.h"

namespace perfbench {
namespace {

using hepq::queries::EngineKind;
using hepq::queries::QueryRunOutput;

constexpr uint64_t kDefaultSeed = 20120601;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Every workload runs the runtime on one thread and `scatter` uses one
/// worker process. With two threads (`session`) or two workers (`scatter`)
/// the wait for the slower one turned host noise into quartile spreads of
/// 0.13-0.29 of the wall metrics over ten seeds on a shared 4-vCPU host,
/// while CPU per event spread 0.03-0.07.
constexpr int kScatterWorkers = 1;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json lists; run.py --smoke cross-checks.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"events_per_s", "events/s"},
    {"query_ms_p50", "ms"},
    {"query_tail_ratio", "ratio"},
    {"cpu_us_per_event", "us/event"},
    {"storage_bytes_per_event", "B/event"},
    {"stored_bytes_per_event", "B/event"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"datagen.generate_s", "s"},
    {"fileio.write_mb_per_s", "MB/s"},
    {"fileio.optimize_s", "s"},
    {"fileio.open_ms", "ms"},
    {"fileio.checksum_ms", "ms"},
    {"fileio.decompress_ms", "ms"},
    {"fileio.decode_ms", "ms"},
    {"fileio.checksum_mb_per_s", "MB/s"},
    {"fileio.decompress_mb_per_s", "MB/s"},
    {"fileio.decode_mb_per_s", "MB/s"},
    {"fileio.read_leaf_ms", "ms"},
    {"fileio.share_of_wall", "ratio"},
    {"fileio.decoded_bytes_per_event", "B/event"},
    {"fileio.rows_pruned_frac", "ratio"},
    {"fileio.pages_pruned_frac", "ratio"},
    {"cache.chunk_hit_ratio", "ratio"},
    {"cache.footer_hit_ratio", "ratio"},
    {"cache.bytes_served_per_event", "B/event"},
    {"cache.evictions", "count"},
    {"cache.bytes_held_mb", "MiB"},
    {"exec.cpu_util", "ratio"},
    {"rdf.compute_ns_per_event", "ns/event"},
    {"engine.bq.compute_ns_per_event", "ns/event"},
    {"engine.presto.compute_ns_per_event", "ns/event"},
    {"doc.compute_ns_per_event", "ns/event"},
    {"engine.ops_per_event", "ops/event"},
    {"scatter.coord_overhead_ms", "ms"},
    {"scatter.worker_wall_ms", "ms"},
    {"bench.host_probe_gbps", "GB/s"},
    {"bench.trace_overhead_frac", "ratio"},
    {"bench.span_coverage", "ratio"},
    {"bench.tail_samples_beyond", "count"},
    {"failed_frac", "ratio"},
};

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool print_digests = false;
};

enum class Kind { kScan, kTrijet, kSession, kScatter };

/// What one workload runs and over which data (see README.md).
struct Workload {
  Kind kind = Kind::kScan;
  std::vector<int> queries;
  std::vector<EngineKind> engines;
  int64_t events = 0;  // per shard when `shards` > 0
  int64_t row_group_size = 0;
  int shards = 0;
  bool footer_cache = true;
  /// When set, every event draws its jet multiplicity from one Poisson of
  /// this mean instead of the generator's soft/busy/very-busy mixture.
  double single_jet_mean = 0.0;
  /// Clear the footer cache before every query, so each one pays the cold
  /// open a separate hepq_run process pays.
  bool clear_footer_cache = false;
};

std::optional<Workload> MakeWorkload(const std::string& name, bool smoke) {
  const std::vector<int> scan_mix = {1, 2, 3, 4, 5, 7, 8};
  const std::vector<EngineKind> three = {EngineKind::kRdf,
                                         EngineKind::kBigQueryShape,
                                         EngineKind::kPrestoShape};
  Workload w;
  if (name == "scan") {
    w.kind = Kind::kScan;
    w.queries = scan_mix;
    w.engines = three;
    w.events = smoke ? 4000 : 100000;
    w.row_group_size = smoke ? 1000 : 25000;
    w.clear_footer_cache = true;
  } else if (name == "trijet") {
    w.kind = Kind::kTrijet;
    w.queries = {6};
    w.engines = {EngineKind::kRdf, EngineKind::kBigQueryShape,
                 EngineKind::kPrestoShape, EngineKind::kDoc};
    w.events = smoke ? 200 : 2000;
    w.row_group_size = smoke ? 100 : 500;
    w.footer_cache = false;
    // E[C(J,3)] = mean^3 / 6 = 42 for a Poisson, the paper's Table 2 trijet
    // combinatorics. With the default mixture a third of that comes from
    // ~4 very busy events in 2k, so the work swung by +-17% between seeds.
    w.single_jet_mean = 6.3;
  } else if (name == "session") {
    w.kind = Kind::kSession;
    w.queries = scan_mix;
    w.engines = three;
    w.events = smoke ? 4000 : 100000;
    w.row_group_size = smoke ? 1000 : 25000;
  } else if (name == "scatter") {
    w.kind = Kind::kScatter;
    w.queries = {1, 5, 7, 8};
    w.engines = {EngineKind::kRdf, EngineKind::kBigQueryShape};
    w.shards = 4;
    w.events = smoke ? 1000 : 25000;
    w.row_group_size = smoke ? 500 : 25000;
  } else {
    return std::nullopt;
  }
  return w;
}

/// The engine's hepq_run command-line name.
const char* CliName(EngineKind engine) {
  switch (engine) {
    case EngineKind::kRdf: return "rdf";
    case EngineKind::kBigQueryShape: return "bigquery";
    case EngineKind::kPrestoShape: return "presto";
    case EngineKind::kDoc: return "doc";
  }
  return "?";
}

/// The per-layer compute metric of the engine's layer.
const char* ComputeMetric(EngineKind engine) {
  switch (engine) {
    case EngineKind::kRdf: return "rdf.compute_ns_per_event";
    case EngineKind::kBigQueryShape: return "engine.bq.compute_ns_per_event";
    case EngineKind::kPrestoShape:
      return "engine.presto.compute_ns_per_event";
    case EngineKind::kDoc: return "doc.compute_ns_per_event";
  }
  return "?";
}

/// FNV-1a over every accumulator of every histogram, raw IEEE-754 bits:
/// equal digests mean bit-identical results.
uint64_t Digest(const std::vector<hepq::Histogram1D>& histograms) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const hepq::Histogram1D& histogram : histograms) {
    const hepq::HistogramParts parts = histogram.ToParts();
    mix(parts.spec.name.data(), parts.spec.name.size());
    mix(&parts.spec.num_bins, sizeof(parts.spec.num_bins));
    mix(&parts.spec.lo, sizeof(double));
    mix(&parts.spec.hi, sizeof(double));
    mix(parts.bins.data(), parts.bins.size() * sizeof(double));
    for (double v : {parts.underflow, parts.overflow, parts.sum_w,
                     parts.sum_wx, parts.sum_wx2}) {
      mix(&v, sizeof(v));
    }
    mix(&parts.num_entries, sizeof(parts.num_entries));
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The CrossEngineAgreement rule: same binning and entry counts, every bin
/// (and both flow bins) equal within 1e-6 relative.
bool Agrees(const std::vector<hepq::Histogram1D>& a,
            const std::vector<hepq::Histogram1D>& b) {
  if (a.size() != b.size()) return false;
  auto close = [](double x, double y) {
    return std::abs(x - y) <=
           1e-6 * std::max({1.0, std::abs(x), std::abs(y)});
  };
  for (size_t i = 0; i < a.size(); ++i) {
    const hepq::HistogramParts pa = a[i].ToParts();
    const hepq::HistogramParts pb = b[i].ToParts();
    if (pa.bins.size() != pb.bins.size() ||
        pa.num_entries != pb.num_entries ||
        !close(pa.underflow, pb.underflow) ||
        !close(pa.overflow, pb.overflow)) {
      return false;
    }
    for (size_t k = 0; k < pa.bins.size(); ++k) {
      if (!close(pa.bins[k], pb.bins[k])) return false;
    }
  }
  return true;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ChildCpuSeconds() {
  rusage usage{};
  if (getrusage(RUSAGE_CHILDREN, &usage) != 0) return 0.0;
  return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 +
         usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
}

/// CPU of this process plus its reaped children (scatter workers).
double CpuSeconds() { return hepq::ProcessCpuSeconds() + ChildCpuSeconds(); }

/// Resets the kernel's resident-set high-water mark of this process, so
/// the peak measured afterwards excludes set-up.
void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

/// VmHWM of this process in KiB (0 when unavailable).
double PeakRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6);
  }
  return 0.0;
}

/// Committed digests, HEPQ_DIGESTS_PATH: "<small|full> <workload> Q<q>
/// <engine> <hex>" lines, '#' comments. Empty when the file is missing.
std::map<std::string, std::string> LoadDigests() {
  std::map<std::string, std::string> out;
  std::ifstream in(HEPQ_DIGESTS_PATH);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string size, workload, query, engine, hex;
    if (fields >> size >> workload >> query >> engine >> hex) {
      out[size + " " + workload + " " + query + " " + engine] = hex;
    }
  }
  return out;
}

/// One (query, frontend) pair of a workload and its correctness state.
struct Pair {
  int q = 0;
  EngineKind engine = EngineKind::kRdf;
  std::string label;  // "<workload> Q<q> <engine>"
  std::vector<double> walls;  // timed executions
  bool have_first = false;
  std::vector<hepq::Histogram1D> first;
  uint64_t first_digest = 0;
  uint64_t first_storage_bytes = 0;
  int64_t first_events = 0;
  std::optional<uint64_t> in_process_digest;  // scatter reference
};

/// Totals of one timed pass over every pair.
struct Pass {
  bool traced = false;
  double query_s = 0.0;  // summed execution walls
  double events = 0.0;
  double cpu_s = 0.0;    // process + children CPU over the pass
};

/// One completed execution.
struct Exec {
  int64_t id = 0;
  int pair = 0;
  bool timed = false;
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double worker_wall_s = 0.0;  // scatter, traced: the worker's own wall
  int64_t events = 0;
  uint64_t ops = 0;
  hepq::ScanStats scan;
};

class Bench {
 public:
  /// `work_dir` is private to this Bench and removed when it ends.
  Bench(Options options, Workload workload, std::string work_dir)
      : options_(std::move(options)),
        w_(std::move(workload)),
        work_dir_(std::move(work_dir)) {
    for (int q : w_.queries) {
      for (EngineKind engine : w_.engines) {
        Pair pair;
        pair.q = q;
        pair.engine = engine;
        pair.label = options_.workload + " Q" + std::to_string(q) + " " +
                     CliName(engine);
        pairs_.push_back(std::move(pair));
      }
    }
    run_options_.footer_cache = w_.footer_cache;
    check_committed_ = options_.seed == kDefaultSeed;
  }

  ~Bench() {
    std::error_code ec;
    std::filesystem::remove_all(work_dir_, ec);
    std::filesystem::remove(".bench_work", ec);  // only if no other run's
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Set-up: kSetupRepeats timed set-ups into fresh directories (the last
  /// one is kept) untraced, or one traced set-up.
  hepq::Status Setup() {
    if (check_committed_) {
      committed_ = LoadDigests();
      if (committed_.empty()) {
        return hepq::Status::IoError("no committed digests in " +
                                     std::string(HEPQ_DIGESTS_PATH));
      }
    }
    std::error_code ec;
    std::filesystem::create_directories(work_dir_, ec);
    if (ec) return hepq::Status::IoError("cannot create " + work_dir_);
    const int repeats = options_.trace || options_.smoke ? 1 : kSetupRepeats;
    for (int k = 0; k < repeats; ++k) {
      if (k > 0) std::filesystem::remove_all(data_dir_, ec);
      data_dir_ = work_dir_ + "/setup_" + std::to_string(k);
      tracer_.set_enabled(options_.trace);
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer_, "setup");
        HEPQ_RETURN_NOT_OK(SetupOnce());
      }
      const double seconds = (NowNs() - t0) * 1e-9;
      tracer_.set_enabled(false);
      setup_seconds_.push_back(seconds);
      if (options_.trace) traced_window_s_ += seconds;
    }
    if (w_.kind == Kind::kScatter) InProcessReferences();
    return hepq::Status::OK();
  }

  /// The timed phase: whole passes over every pair until `seconds` pass.
  /// A traced run alternates untraced and traced passes.
  void Run() {
    // Return set-up's freed heap to the OS so the peak measured below
    // starts from live memory only.
    malloc_trim(0);
    ResetPeakRss();
    const hepq::cache::CacheCounters cache_before = CacheCountersNow();
    const int64_t start = NowNs();
    const int min_passes = options_.trace ? 2 : 1;
    for (int pass = 0;; ++pass) {
      Pass stats;
      stats.traced = options_.trace && pass % 2 == 1;
      tracer_.set_enabled(stats.traced);
      const double cpu0 = CpuSeconds();
      const int64_t pass_t0 = NowNs();
      for (size_t p = 0; p < pairs_.size(); ++p) {
        if (const Exec* e =
                Execute(static_cast<int>(p), /*timed=*/true, stats.traced)) {
          stats.query_s += e->wall_s;
          stats.events += static_cast<double>(e->events);
        }
      }
      if (stats.traced) traced_window_s_ += (NowNs() - pass_t0) * 1e-9;
      stats.cpu_s = CpuSeconds() - cpu0;
      tracer_.set_enabled(false);
      passes_.push_back(stats);
      if (!agreement_checked_) CheckAgreement();
      const double elapsed = (NowNs() - start) * 1e-9;
      if (pass + 1 >= min_passes &&
          (options_.smoke || elapsed >= options_.seconds)) {
        break;
      }
    }
    const hepq::cache::CacheCounters cache_after = CacheCountersNow();
    cache_hits_ = cache_after.hits - cache_before.hits;
    cache_misses_ = cache_after.misses - cache_before.misses;
    cache_evictions_ = cache_after.evictions - cache_before.evictions;
    cache_held_bytes_ = cache_after.bytes_held;
    peak_rss_kib_ = PeakRssKib();
    if (w_.kind == Kind::kScatter) {
      // Workers run concurrently: count the largest one once per process.
      peak_rss_kib_ += kScatterWorkers * ChildPeakRssKib();
    }
    std::vector<double> pass_s;
    for (const Pass& pass : passes_) pass_s.push_back(pass.query_s);
    std::fprintf(stderr, "timed passes: %zu, summed query wall per pass: "
                 "median %.4f s, min %.4f s, max %.4f s\n",
                 pass_s.size(), Median(pass_s),
                 *std::min_element(pass_s.begin(), pass_s.end()),
                 *std::max_element(pass_s.begin(), pass_s.end()));
    if (options_.trace) {
      tracer_.set_enabled(true);
      const int64_t t0 = NowNs();
      HostProbe();
      traced_window_s_ += (NowNs() - t0) * 1e-9;
      tracer_.set_enabled(false);
    }
  }

  std::vector<std::pair<std::string, double>> EndToEndMetrics() const;
  std::vector<std::pair<std::string, double>> PerLayerMetrics() const;

  /// Writes the Chrome trace and parses it back; an error if malformed.
  hepq::Status WriteTrace(const std::string& path) const;

  /// One untimed pass over every pair, each execution checked as in the
  /// timed phase, then the agreement with rdf.
  void Verify() {
    for (size_t p = 0; p < pairs_.size(); ++p) {
      Execute(static_cast<int>(p), /*timed=*/false, /*traced=*/false);
    }
    CheckAgreement();
  }

  void PrintDigests() const {
    for (const Pair& pair : pairs_) {
      std::printf("%s %s\n", DigestKey(pair).c_str(),
                  Hex(pair.first_digest).c_str());
    }
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  /// Median wall of every pair, in pair order.
  std::vector<double> PairMedians() const;
  /// query_tail_ratio and how many executions lie beyond it.
  std::pair<double, size_t> Tail() const;

  static double ChildPeakRssKib() {
    rusage usage{};
    if (getrusage(RUSAGE_CHILDREN, &usage) != 0) return 0.0;
    return static_cast<double>(usage.ru_maxrss);
  }

  /// The pair's key in the committed digests.
  std::string DigestKey(const Pair& pair) const {
    return (options_.smoke ? "small " : "full ") + pair.label;
  }

  hepq::cache::CacheCounters CacheCountersNow() const {
    return cache_ ? cache_->counters() : hepq::cache::CacheCounters{};
  }

  hepq::Status SetupOnce() {
    hepq::cache::FooterCache::Process().Clear();
    std::error_code ec;
    std::filesystem::create_directories(data_dir_, ec);
    if (ec) return hepq::Status::IoError("cannot create " + data_dir_);
    if (w_.shards > 0) {
      hepq::ShardedDatasetSpec spec;
      spec.num_shards = w_.shards;
      spec.events_per_shard = w_.events;
      spec.row_group_size = w_.row_group_size;
      spec.seed = options_.seed;
      std::string dir;
      if (options_.trace) {
        dir = data_dir_ + "/" + spec.DirName();
        std::filesystem::create_directories(dir, ec);
        for (int shard = 0; shard < spec.num_shards; ++shard) {
          hepq::GeneratorConfig config;
          config.seed = hepq::ShardSeed(spec.seed, shard);
          config.first_event_id = shard * spec.events_per_shard;
          HEPQ_RETURN_NOT_OK(WriteDataset(
              dir + "/" + spec.ShardFileName(shard), config,
              spec.events_per_shard, spec.row_group_size));
        }
      } else {
        HEPQ_ASSIGN_OR_RETURN(dir, hepq::EnsureShardedDataset(data_dir_, spec));
      }
      data_path_ = dir;
      HEPQ_ASSIGN_OR_RETURN(files_, hepq::ListLaqFiles(dir));
    } else {
      hepq::DatasetSpec spec;
      spec.num_events = w_.events;
      spec.row_group_size = w_.row_group_size;
      spec.seed = options_.seed;
      std::string path;
      if (options_.trace || w_.single_jet_mean > 0) {
        path = data_dir_ + "/" + spec.FileName();
        hepq::GeneratorConfig config;
        config.seed = spec.seed;
        if (w_.single_jet_mean > 0) {
          config.jet_busy_fraction = 0.0;
          config.jet_very_busy_fraction = 0.0;
          config.jet_soft_mean = w_.single_jet_mean;
        }
        HEPQ_RETURN_NOT_OK(WriteDataset(path, config, spec.num_events,
                                        spec.row_group_size));
      } else {
        HEPQ_ASSIGN_OR_RETURN(path, hepq::EnsureDataset(data_dir_, spec));
      }
      if (w_.kind == Kind::kSession) {
        const std::string optimized = data_dir_ + "/optimized.laq";
        ScopedSpan span(tracer_, "fileio.optimize");
        HEPQ_RETURN_NOT_OK(hepq::OptimizeLaqFile(path, optimized).status());
        path = optimized;
      }
      data_path_ = path;
      files_ = {path};
    }
    stored_bytes_ = 0;
    for (const std::string& file : files_) {
      stored_bytes_ += std::filesystem::file_size(file, ec);
    }
    if (w_.kind == Kind::kSession) {
      // The cold pass that fills a fresh chunk cache is part of set-up.
      cache_ = std::make_shared<hepq::cache::ChunkCache>();
      run_options_.chunk_cache = cache_;
      for (size_t p = 0; p < pairs_.size(); ++p) {
        Execute(static_cast<int>(p), /*timed=*/false, options_.trace);
      }
    }
    return hepq::Status::OK();
  }

  /// Generates and writes one dataset file the way EnsureDataset does,
  /// with the generator and the writer under separate spans.
  hepq::Status WriteDataset(const std::string& path,
                            const hepq::GeneratorConfig& config,
                            int64_t events, int64_t row_group_size) {
    ScopedSpan dataset(tracer_, "setup.dataset");
    hepq::EventGenerator generator(config);
    hepq::WriterOptions options;
    options.row_group_size = row_group_size;
    std::unique_ptr<hepq::LaqWriter> writer;
    {
      ScopedSpan span(tracer_, "fileio.write");
      HEPQ_ASSIGN_OR_RETURN(
          writer, hepq::LaqWriter::Open(
                      path, hepq::EventGenerator::CmsSchema(), options));
    }
    for (int64_t remaining = events; remaining > 0;) {
      const int64_t n = std::min(remaining, row_group_size);
      hepq::RecordBatchPtr batch;
      {
        ScopedSpan span(tracer_, "datagen.generate");
        batch = generator.GenerateBatch(n);
      }
      ScopedSpan span(tracer_, "fileio.write");
      HEPQ_RETURN_NOT_OK(writer->WriteBatch(*batch));
      remaining -= n;
    }
    ScopedSpan span(tracer_, "fileio.write");
    HEPQ_RETURN_NOT_OK(writer->Close());
    std::error_code ec;
    span.set_bytes(std::filesystem::file_size(path, ec));
    return hepq::Status::OK();
  }

  /// Runs the pair's query. A traced scatter execution also asks the
  /// workers for their reports and sets `worker_wall_s` to the longest
  /// worker session (its shard loop and frame writes, without spawn).
  hepq::Result<QueryRunOutput> RunQuery(const Pair& pair, bool traced,
                                        double* worker_wall_s) {
    if (w_.kind != Kind::kScatter) {
      return hepq::queries::RunAdlQuery(pair.engine, pair.q, data_path_,
                                        run_options_);
    }
    auto make_argv = [&](hepq::scatter::ShardRange range) {
      std::vector<std::string> argv = {HEPQ_RUN_PATH, std::to_string(pair.q),
                                       CliName(pair.engine),
                                       "--data=" + data_path_, "--threads=1"};
      if (traced) argv.push_back("--worker-report");
      argv.push_back("--worker-shards=" + std::to_string(range.begin) + ":" +
                     std::to_string(range.end));
      return argv;
    };
    std::vector<hepq::obs::ProcessReport> reports;
    auto result = hepq::scatter::RunScattered(files_, kScatterWorkers,
                                              make_argv,
                                              traced ? &reports : nullptr);
    for (const hepq::obs::ProcessReport& report : reports) {
      if (!report.received) continue;
      *worker_wall_s = std::max(
          *worker_wall_s,
          (report.session_stop_ns - report.session_start_ns) * 1e-9);
    }
    return result;
  }

  /// Runs one execution of pair `p`, checks it, and (traced) replays its
  /// storage work. Returns its record, or null when it failed.
  const Exec* Execute(int p, bool timed, bool traced) {
    Pair& pair = pairs_[static_cast<size_t>(p)];
    const int64_t id = next_exec_++;
    ScopedSpan exec_span(tracer_, "exec", id);
    if (w_.clear_footer_cache) hepq::cache::FooterCache::Process().Clear();
    const double cpu0 = CpuSeconds();
    int64_t t0 = 0, t1 = 0;
    double worker_wall = 0.0;
    auto result = [&] {
      ScopedSpan span(tracer_, "query", id);
      t0 = NowNs();
      auto r = RunQuery(pair, traced, &worker_wall);
      t1 = NowNs();
      return r;
    }();
    const double cpu = CpuSeconds() - cpu0;
    ++attempted_;
    if (!result.ok()) {
      Fail(pair, "error: " + result.status().ToString());
      return nullptr;
    }
    bool ok = true;
    {
      ScopedSpan span(tracer_, "check", id);
      ok = Check(pair, *result);
    }
    const double wall = (t1 - t0) * 1e-9;
    Exec exec;
    exec.id = id;
    exec.pair = p;
    exec.timed = timed;
    exec.traced = traced;
    exec.wall_s = wall;
    exec.cpu_s = cpu;
    exec.worker_wall_s = worker_wall;
    exec.events = result->events_processed;
    exec.ops = result->ops;
    if (traced && timed) {
      const hepq::Status replay =
          ReplayFileio(files_, result->scan, id, tracer_, &replay_scratch_);
      if (!replay.ok()) {
        Fail(pair, "replay: " + replay.ToString());
        ok = false;
      }
      exec.scan = std::move(result->scan);
    }
    if (!ok) return nullptr;
    if (timed) pair.walls.push_back(wall);
    execs_.push_back(std::move(exec));
    return &execs_.back();
  }

  void Fail(const Pair& pair, const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "FAILED %s: %s\n", pair.label.c_str(), why.c_str());
  }

  /// Bit-identity with the pair's first execution; the first execution is
  /// checked against the committed digest and, for scatter, the in-process
  /// run over the same shards.
  bool Check(Pair& pair, const QueryRunOutput& out) {
    const uint64_t digest = Digest(out.histograms);
    if (pair.have_first) {
      if (digest == pair.first_digest) return true;
      Fail(pair, "result differs from its first execution (" + Hex(digest) +
                     " vs " + Hex(pair.first_digest) + ")");
      return false;
    }
    pair.have_first = true;
    pair.first = out.histograms;
    pair.first_digest = digest;
    pair.first_storage_bytes = out.scan.storage_bytes;
    pair.first_events = out.events_processed;
    if (pair.in_process_digest && *pair.in_process_digest != digest) {
      Fail(pair, "scattered result " + Hex(digest) +
                     " differs from the in-process run " +
                     Hex(*pair.in_process_digest));
      return false;
    }
    if (check_committed_) {
      const auto it = committed_.find(DigestKey(pair));
      if (it == committed_.end()) {
        Fail(pair, "no committed digest");
        return false;
      }
      if (it->second != Hex(digest)) {
        Fail(pair, "digest " + Hex(digest) + " differs from committed " +
                       it->second);
        return false;
      }
    }
    return true;
  }

  /// Every frontend's first result matches rdf's within 1e-6 relative.
  void CheckAgreement() {
    agreement_checked_ = true;
    for (const Pair& pair : pairs_) {
      if (pair.engine == EngineKind::kRdf || !pair.have_first) continue;
      for (const Pair& ref : pairs_) {
        if (ref.engine != EngineKind::kRdf || ref.q != pair.q ||
            !ref.have_first) {
          continue;
        }
        if (!Agrees(pair.first, ref.first)) {
          Fail(pair, "disagrees with rdf beyond 1e-6 relative");
        }
      }
    }
  }

  /// Scatter: the in-process run over the same shard directory, the
  /// reference every scattered result must equal bit for bit.
  void InProcessReferences() {
    for (Pair& pair : pairs_) {
      ++attempted_;
      auto result =
          hepq::queries::RunAdlQuery(pair.engine, pair.q, data_path_);
      if (!result.ok()) {
        Fail(pair, "in-process reference: " + result.status().ToString());
        continue;
      }
      pair.in_process_digest = Digest(result->histograms);
    }
  }

  /// Fixed-size memcpy bandwidth, so per-layer rates compare across hosts.
  void HostProbe() {
    constexpr size_t kBytes = 16u << 20;
    constexpr int kRounds = 16;
    ScopedSpan span(tracer_, "bench.host_probe");
    std::vector<uint8_t> src(kBytes, 1), dst(kBytes);
    const int64_t t0 = NowNs();
    for (int r = 0; r < kRounds; ++r) {
      src[static_cast<size_t>(r)] = static_cast<uint8_t>(r);
      std::memcpy(dst.data(), src.data(), kBytes);
    }
    const double seconds = (NowNs() - t0) * 1e-9;
    volatile uint8_t sink = dst[kBytes / 2];
    (void)sink;
    probe_gbps_ = seconds > 0 ? kBytes * double{kRounds} / seconds * 1e-9 : 0;
    span.set_bytes(kBytes * kRounds);
  }

  Options options_;
  Workload w_;
  std::string work_dir_;
  std::string data_dir_;
  std::string data_path_;
  std::vector<std::string> files_;
  uint64_t stored_bytes_ = 0;
  hepq::queries::RunOptions run_options_;
  std::shared_ptr<hepq::cache::ChunkCache> cache_;
  std::vector<Pair> pairs_;
  std::vector<Exec> execs_;
  int64_t next_exec_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool agreement_checked_ = false;
  bool check_committed_ = false;
  std::map<std::string, std::string> committed_;
  Tracer tracer_;
  ReplayScratch replay_scratch_;
  std::vector<double> setup_seconds_;
  std::vector<Pass> passes_;
  double traced_window_s_ = 0.0;
  double peak_rss_kib_ = 0.0;
  double probe_gbps_ = 0.0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t cache_evictions_ = 0;
  uint64_t cache_held_bytes_ = 0;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The tail percentile of query_tail_ratio. Fixed rather than "the highest
/// with ten samples beyond it": that rank moves with the sample count, so a
/// faster build (more executions in the same run time) would read a higher
/// percentile and look worse.
constexpr double kTailPercentile = 90.0;

/// Nearest-rank kTailPercentile of `values`, and how many samples lie
/// beyond it.
std::pair<double, size_t> TailQuantile(std::vector<double> values) {
  if (values.empty()) return {0.0, 0};
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t rank = static_cast<size_t>(
      std::ceil(kTailPercentile / 100.0 * static_cast<double>(n)));
  const size_t idx = std::max<size_t>(rank, 1) - 1;
  return {values[idx], n - 1 - idx};
}

std::vector<double> Bench::PairMedians() const {
  std::vector<double> medians;
  for (const Pair& pair : pairs_) medians.push_back(Median(pair.walls));
  return medians;
}

std::pair<double, size_t> Bench::Tail() const {
  const std::vector<double> medians = PairMedians();
  std::vector<double> ratios;
  for (const Exec& e : execs_) {
    if (e.timed) {
      ratios.push_back(Ratio(e.wall_s, medians[static_cast<size_t>(e.pair)]));
    }
  }
  return TailQuantile(std::move(ratios));
}

std::vector<std::pair<std::string, double>> Bench::EndToEndMetrics() const {
  double log_sum = 0.0;
  int n = 0;
  for (double m : PairMedians()) {
    if (m > 0) {
      log_sum += std::log(m * 1e3);
      ++n;
    }
  }
  double first_storage = 0.0, first_events = 0.0;
  for (const Pair& pair : pairs_) {
    first_storage += static_cast<double>(pair.first_storage_bytes);
    first_events += static_cast<double>(pair.first_events);
  }
  const double dataset_events =
      static_cast<double>(w_.events) * std::max(1, w_.shards);
  // Totals over the whole timed phase rather than medians over passes: the
  // host's speed shifts by 20-40 % for tens of seconds at a time, and a
  // median over passes jumps between those levels where a total averages
  // them.
  Pass total;
  for (const Pass& pass : passes_) {
    if (pass.traced) continue;
    total.query_s += pass.query_s;
    total.events += pass.events;
    total.cpu_s += pass.cpu_s;
  }
  return {
      {"setup_s", Median(setup_seconds_)},
      {"events_per_s", Ratio(total.events, total.query_s)},
      {"query_ms_p50", n > 0 ? std::exp(log_sum / n) : 0.0},
      {"query_tail_ratio", Tail().first},
      {"cpu_us_per_event", Ratio(total.cpu_s * 1e6, total.events)},
      {"storage_bytes_per_event", Ratio(first_storage, first_events)},
      {"stored_bytes_per_event",
       Ratio(static_cast<double>(stored_bytes_), dataset_events)},
      {"peak_rss_mb", peak_rss_kib_ / 1024.0},
  };
}

std::vector<std::pair<std::string, double>> Bench::PerLayerMetrics() const {
  const auto open_by_exec = tracer_.SecondsByExec("fileio.open");
  const auto checksum_by_exec = tracer_.SecondsByExec("fileio.checksum");
  const auto decompress_by_exec = tracer_.SecondsByExec("fileio.decompress");
  const auto decode_by_exec = tracer_.SecondsByExec("fileio.decode");
  auto at = [](const std::unordered_map<int64_t, double>& m, int64_t id) {
    const auto it = m.find(id);
    return it == m.end() ? 0.0 : it->second;
  };
  // Queries pay a cold footer open unless the footer cache stays warm.
  const bool cold_open = w_.kind != Kind::kSession;

  double traced = 0, wall = 0, cpu = 0, events = 0, ops = 0, fileio = 0;
  double decoded = 0, rows_pruned = 0, rows_read = 0, pages_pruned = 0;
  double pages_read = 0, footer_hits = 0, footer_misses = 0, served = 0;
  double coord = 0, worker_wall = 0;
  std::map<std::string, std::pair<double, double>> compute;  // ns, events
  for (EngineKind engine : {EngineKind::kRdf, EngineKind::kBigQueryShape,
                            EngineKind::kPrestoShape, EngineKind::kDoc}) {
    compute[ComputeMetric(engine)] = {0.0, 0.0};
  }
  for (const Exec& e : execs_) {
    if (!e.traced || !e.timed) continue;
    traced += 1;
    const double io = at(checksum_by_exec, e.id) +
                      at(decompress_by_exec, e.id) +
                      at(decode_by_exec, e.id) +
                      (cold_open ? at(open_by_exec, e.id) : 0.0);
    wall += e.wall_s;
    cpu += e.cpu_s;
    events += static_cast<double>(e.events);
    ops += static_cast<double>(e.ops);
    fileio += io;
    decoded += static_cast<double>(e.scan.decoded_bytes);
    rows_pruned += static_cast<double>(e.scan.rows_pruned);
    rows_read += static_cast<double>(e.scan.rows_read);
    pages_pruned += static_cast<double>(e.scan.pages_pruned);
    pages_read += static_cast<double>(e.scan.pages_read);
    footer_hits += static_cast<double>(e.scan.footer_cache_hits);
    footer_misses += static_cast<double>(e.scan.footer_cache_misses);
    served += static_cast<double>(e.scan.cache_bytes_served);
    if (w_.kind == Kind::kScatter) {
      coord += e.wall_s - e.worker_wall_s;
      worker_wall += e.worker_wall_s;
    }
    auto& c = compute[ComputeMetric(pairs_[static_cast<size_t>(e.pair)].engine)];
    c.first += (e.wall_s - io) * 1e9;
    c.second += static_cast<double>(e.events);
  }
  auto rate = [this](const char* name) {
    return Ratio(static_cast<double>(tracer_.TotalBytes(name)) * 1e-6,
                 tracer_.TotalSeconds(name));
  };
  auto per_query_ms = [&](const char* name) {
    return Ratio(tracer_.TotalSeconds(name) * 1e3, traced);
  };
  const int threads = w_.kind == Kind::kScatter ? kScatterWorkers : 1;
  std::vector<double> traced_pass_s, untraced_pass_s;
  for (const Pass& pass : passes_) {
    (pass.traced ? traced_pass_s : untraced_pass_s).push_back(pass.query_s);
  }
  const double untraced_pass = Median(untraced_pass_s);
  std::vector<std::pair<std::string, double>> out = {
      {"datagen.generate_s", tracer_.TotalSeconds("datagen.generate")},
      {"fileio.write_mb_per_s", rate("fileio.write")},
      {"fileio.optimize_s", tracer_.TotalSeconds("fileio.optimize")},
      {"fileio.open_ms",
       Ratio(tracer_.TotalSeconds("fileio.open") * 1e3,
             static_cast<double>(tracer_.Count("fileio.open")))},
      {"fileio.checksum_ms", per_query_ms("fileio.checksum")},
      {"fileio.decompress_ms", per_query_ms("fileio.decompress")},
      {"fileio.decode_ms", per_query_ms("fileio.decode")},
      {"fileio.checksum_mb_per_s", rate("fileio.checksum")},
      {"fileio.decompress_mb_per_s", rate("fileio.decompress")},
      {"fileio.decode_mb_per_s", rate("fileio.decode")},
      {"fileio.read_leaf_ms", per_query_ms("fileio.read_leaf")},
      {"fileio.share_of_wall", Ratio(fileio, wall)},
      {"fileio.decoded_bytes_per_event", Ratio(decoded, events)},
      {"fileio.rows_pruned_frac", Ratio(rows_pruned, rows_pruned + rows_read)},
      {"fileio.pages_pruned_frac",
       Ratio(pages_pruned, pages_pruned + pages_read)},
      {"cache.chunk_hit_ratio",
       Ratio(static_cast<double>(cache_hits_),
             static_cast<double>(cache_hits_ + cache_misses_))},
      {"cache.footer_hit_ratio",
       Ratio(footer_hits, footer_hits + footer_misses)},
      {"cache.bytes_served_per_event", Ratio(served, events)},
      {"cache.evictions", static_cast<double>(cache_evictions_)},
      {"cache.bytes_held_mb", static_cast<double>(cache_held_bytes_) / (1 << 20)},
      {"exec.cpu_util", Ratio(cpu, wall * threads)},
      {"engine.ops_per_event", Ratio(ops, events)},
      {"scatter.coord_overhead_ms", Ratio(coord * 1e3, traced)},
      {"scatter.worker_wall_ms", Ratio(worker_wall * 1e3, traced)},
      {"bench.host_probe_gbps", probe_gbps_},
      {"bench.trace_overhead_frac",
       Ratio(Median(traced_pass_s) - untraced_pass, untraced_pass)},
      {"bench.span_coverage",
       Ratio(tracer_.SelfSecondsTotal(), traced_window_s_)},
      {"bench.tail_samples_beyond", static_cast<double>(Tail().second)},
  };
  for (const auto& [name, c] : compute) {
    out.emplace_back(name, Ratio(c.first, c.second));
  }
  return out;
}

hepq::Status Bench::WriteTrace(const std::string& path) const {
  const std::string text = tracer_.ChromeTraceJson();
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out) return hepq::Status::IoError("cannot write " + path);
  }
  hepq::json::JsonValue doc;
  HEPQ_ASSIGN_OR_RETURN(doc, hepq::json::ParseJsonFile(path));
  const hepq::json::JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array() ||
      events->array_items().size() != tracer_.spans().size()) {
    return hepq::Status::Corruption("trace: traceEvents missing or short");
  }
  for (const hepq::json::JsonValue& e : events->array_items()) {
    const auto* name = e.Find("name");
    const auto* ph = e.Find("ph");
    const auto* ts = e.Find("ts");
    const auto* dur = e.Find("dur");
    if (name == nullptr || !name->is_string() || ph == nullptr ||
        !ph->is_string() || ph->string_value() != "X" || ts == nullptr ||
        !ts->is_number() || ts->number_value() < 0 || dur == nullptr ||
        !dur->is_number() || dur->number_value() < 0) {
      return hepq::Status::Corruption("trace: malformed event");
    }
  }
  return hepq::Status::OK();
}

/// Renders the result line and proves it parses back with every expected
/// metric present, finite and with its unit.
hepq::Result<std::string> RenderResult(
    bool correct, int64_t attempted, int64_t failed,
    const std::vector<std::pair<std::string, double>>& values,
    const MetricDef* defs, size_t num_defs) {
  std::map<std::string, double> by_name(values.begin(), values.end());
  JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct);
  w.Key("attempted");
  w.Int(attempted);
  w.Key("failed");
  w.Int(failed);
  w.Key("metrics");
  w.BeginObject();
  for (size_t i = 0; i < num_defs; ++i) {
    const auto it = by_name.find(defs[i].name);
    if (it == by_name.end()) {
      return hepq::Status::Invalid(std::string("metric not computed: ") +
                                   defs[i].name);
    }
    w.Key(defs[i].name);
    w.BeginObject();
    w.Key("value");
    w.Number(it->second);
    w.Key("unit");
    w.String(defs[i].unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();

  hepq::json::JsonValue doc;
  HEPQ_ASSIGN_OR_RETURN(doc, hepq::json::ParseJson(w.str()));
  if (doc.object_items().size() != 4) {
    return hepq::Status::Invalid("result: wrong top-level keys");
  }
  const auto* metrics = doc.Find("metrics");
  if (metrics == nullptr || metrics->object_items().size() != num_defs) {
    return hepq::Status::Invalid("result: wrong metric count");
  }
  for (size_t i = 0; i < num_defs; ++i) {
    const auto* m = metrics->Find(defs[i].name);
    const auto* value = m == nullptr ? nullptr : m->Find("value");
    const auto* unit = m == nullptr ? nullptr : m->Find("unit");
    if (value == nullptr || !value->is_number() ||
        !std::isfinite(value->number_value()) || unit == nullptr ||
        !unit->is_string() || unit->string_value() != defs[i].unit) {
      return hepq::Status::Invalid(std::string("result: metric '") +
                                   defs[i].name +
                                   "' is missing, non-finite or mislabelled");
    }
  }
  return w.str();
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "hepq_bench: %s\nusage: hepq_bench --workload "
               "scan|trijet|session|scatter [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--print-digests]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--print-digests") {
      options.print_digests = true;
    } else {
      return Usage(("unknown argument '" + arg + "'").c_str());
    }
  }
  const std::optional<Workload> workload =
      MakeWorkload(options.workload, options.smoke);
  if (!workload) return Usage("unknown or missing --workload");

  const std::string pid = std::to_string(::getpid());
  Bench bench(options, *workload,
              ".bench_work/" + options.workload + "_" + pid);
  const hepq::Status setup = bench.Setup();
  if (!setup.ok()) {
    std::fprintf(stderr, "hepq_bench: set-up failed: %s\n",
                 setup.ToString().c_str());
    return 1;
  }
  bench.Run();
  if (options.print_digests) bench.PrintDigests();

  // Whatever --seed was measured, every run also checks the workload at
  // its small sizes and the default seed against the committed digests,
  // so a change that alters results fails on every run.
  Options reference_options = options;
  reference_options.seed = kDefaultSeed;
  reference_options.smoke = true;
  reference_options.trace = false;
  Bench reference(reference_options, *MakeWorkload(options.workload, true),
                  ".bench_work/" + options.workload + "_reference_" + pid);
  const hepq::Status reference_setup = reference.Setup();
  if (!reference_setup.ok()) {
    std::fprintf(stderr, "hepq_bench: reference set-up failed: %s\n",
                 reference_setup.ToString().c_str());
    return 1;
  }
  reference.Verify();
  const int64_t attempted = bench.attempted() + reference.attempted();
  const int64_t failed = bench.failed() + reference.failed();

  std::vector<std::pair<std::string, double>> values;
  const MetricDef* defs = kEndToEnd;
  size_t num_defs = std::size(kEndToEnd);
  if (options.trace) {
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    const std::string path = ".bench_out/trace_" + options.workload + "_s" +
                             std::to_string(options.seed) + ".json";
    const hepq::Status trace = bench.WriteTrace(path);
    if (!trace.ok()) {
      std::fprintf(stderr, "hepq_bench: %s\n", trace.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "chrome trace: %s\n", path.c_str());
    values = bench.PerLayerMetrics();
    values.emplace_back("failed_frac", Ratio(static_cast<double>(failed),
                                             static_cast<double>(attempted)));
    defs = kPerLayer;
    num_defs = std::size(kPerLayer);
  } else {
    values = bench.EndToEndMetrics();
  }
  auto line = RenderResult(failed == 0, attempted, failed, values, defs,
                           num_defs);
  if (!line.ok()) {
    std::fprintf(stderr, "hepq_bench: %s\n", line.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", line->c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
