#ifndef HEPQUERY_QUERIES_ADL_H_
#define HEPQUERY_QUERIES_ADL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/histogram.h"
#include "fileio/reader.h"

namespace hepq::queries {

/// The execution stacks under test, mirroring the paper's systems:
///   kRdf          — RDataFrame-style compiled event loop (the baseline).
///   kBigQueryShape— columnar scan with array expressions / nested
///                   subqueries inside the scan; struct projection
///                   pushdown enabled (BigQuery).
///   kPrestoShape  — CROSS JOIN UNNEST + GROUP BY plans where idiomatic,
///                   array-function fallbacks otherwise; struct projection
///                   pushdown disabled (Presto and Athena, which share a
///                   code base in the paper).
///   kDoc          — boxed item-at-a-time FLWOR interpretation with
///                   full-file scans (Rumble/JSONiq).
enum class EngineKind {
  kRdf,
  kBigQueryShape,
  kPrestoShape,
  kDoc,
};

const char* EngineKindName(EngineKind kind);

/// ADL benchmark query ids. Q6 produces two histograms (Q6a, Q6b) from one
/// pass, as in the paper.
inline constexpr int kNumAdlQueries = 8;

/// Histogram axes used by every engine for query `q` (1-based); Q6 returns
/// two specs, all others one.
std::vector<HistogramSpec> AdlHistogramSpecs(int q);

/// Short description of query `q` for reports.
const char* AdlQueryTitle(int q);

struct QueryRunOutput {
  std::vector<Histogram1D> histograms;
  int64_t events_processed = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  /// Records/record-combinations explored per the engine's own counter
  /// (Table 2); 0 when the engine does not instrument this.
  uint64_t ops = 0;
  ScanStats scan;
  /// True when the whole output came from the result cache: histograms
  /// are the bit-identical cached parts, wall/cpu are the (near-zero)
  /// lookup costs, and `scan` is empty — no reader was opened at all.
  bool from_result_cache = false;
};

/// Expression-execution tier for the BigQuery/Presto plan shapes — the
/// per-row tree-walking interpreter or the compiled fused simd kernels.
/// Histograms are bit-identical across both tiers on every query;
/// only the cost model differs. Ignored by kRdf and kDoc, which have no
/// expression trees.
enum class VexprTier {
  kInterpret,
  kSimd,
};

/// Stable lowercase tier name ("interpret" / "simd").
const char* VexprTierName(VexprTier tier);
/// Parses a tier name; returns false (leaving `out` untouched) on any
/// other string.
bool ParseVexprTier(const std::string& name, VexprTier* out);
/// Parses a non-negative decimal (ASCII digits only: no sign, space,
/// prefix or suffix) that fits `uint64_t` (a `--seed=`); returns false
/// (leaving `out` untouched) otherwise. The other parsers below share its
/// digit rules.
bool ParseNonNegativeInt(const std::string& text, uint64_t* out);
/// The same for an int-sized index (a `--worker-shards=` bound): values
/// above INT_MAX are rejected too.
bool ParseNonNegativeInt(const std::string& text, int* out);
/// Parses a positive decimal count of at most 18 digits (an event count,
/// a `--cache=` byte budget, a shard or row-group size); returns false
/// (leaving `out` untouched) on an empty, non-numeric, non-positive, or
/// longer string. The CLI tools parse their counts through it.
bool ParsePositiveInt(const std::string& text, int64_t* out);
/// The same for an int-sized count (a query id, `--threads=`,
/// `--procs=`, `--repeat=`): values above INT_MAX are rejected too.
bool ParsePositiveInt(const std::string& text, int* out);

struct RunOptions {
  /// Reader behaviour is forced per engine (pushdown on for BigQuery/RDF,
  /// off for Presto shape, full scans for Doc); checksum validation and
  /// threads are caller-controlled. All four engines scan row groups in
  /// parallel with up to `num_threads` workers of the shared pool;
  /// results are bit-identical for any thread count.
  int num_threads = 1;
  bool validate_checksums = true;
  /// Expression tier for the BigQuery/Presto plan shapes (the
  /// `--vexpr-tier` flag).
  VexprTier vexpr_tier = VexprTier::kSimd;
  /// Zone-map predicate pushdown: each frontend extracts the sargable
  /// residue of its own filters and the reader prunes row groups and pages
  /// whose min/max statistics cannot satisfy it. Histograms are
  /// bit-identical with the feature on or off; exposed for the ablation
  /// and `hepq_run --no-pushdown`.
  bool scan_pushdown = true;
  /// Late materialization: decode predicate columns first and skip
  /// decoding the remaining projected columns for row groups with no
  /// surviving events. Only observable through ScanStats (decoded bytes);
  /// exposed for the ablation and `hepq_run --no-late-mat`.
  bool late_materialization = true;
  /// Consult the process-wide footer/metadata cache when opening shards
  /// (see ReaderOptions::footer_cache). On by default: it costs no data
  /// bytes and a cached open reports the same errors as a cold one.
  bool footer_cache = true;
  /// Shared decoded-chunk LRU threaded into every reader the run opens;
  /// null (the default) disables chunk caching. Histograms are
  /// bit-identical with the cache cold, warm, or absent — the CI gate
  /// asserts this across all engines and thread counts.
  std::shared_ptr<cache::ChunkCache> chunk_cache;
  /// Query-fingerprint result cache consulted by RunAdlQuery before
  /// dispatching to an engine; null disables result caching. The key is
  /// engine + canonical plan text + dataset content version, so a hit is
  /// the bit-identical histogram set of a previous run over the same
  /// bytes; regenerating the dataset changes its version and misses.
  std::shared_ptr<cache::ResultCache> result_cache;
};

/// Runs ADL query `q` (1..8) with the given engine over the data set at
/// `path`. All engines produce identical histograms up to floating-point
/// noise; the integration suite asserts this.
Result<QueryRunOutput> RunAdlQuery(EngineKind engine, int q,
                                   const std::string& path,
                                   const RunOptions& options = {});

// Per-engine entry points (used by RunAdlQuery and by targeted tests).
Result<QueryRunOutput> RunAdlQueryRdf(int q, const std::string& path,
                                      const RunOptions& options);
Result<QueryRunOutput> RunAdlQueryBq(int q, const std::string& path,
                                     const RunOptions& options);
Result<QueryRunOutput> RunAdlQueryPresto(int q, const std::string& path,
                                         const RunOptions& options);
Result<QueryRunOutput> RunAdlQueryDoc(int q, const std::string& path,
                                      const RunOptions& options);

}  // namespace hepq::queries

#endif  // HEPQUERY_QUERIES_ADL_H_
