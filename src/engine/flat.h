#ifndef HEPQUERY_ENGINE_FLAT_H_
#define HEPQUERY_ENGINE_FLAT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/histogram.h"
#include "engine/expr.h"
#include "fileio/reader.h"

namespace hepq::engine {

/// A fully materialized flat (NF1) batch: named all-double columns. This is
/// what CROSS JOIN UNNEST produces in the Presto/Athena plan shape — every
/// event-level attribute is duplicated per emitted particle row, which is
/// exactly the cost the paper attributes to that shape. Pipeline
/// expressions read these columns as ScalarRef slots (FlatPipeline::Column).
struct FlatBatch {
  std::vector<std::string> names;
  std::vector<std::vector<double>> columns;
  size_t num_rows = 0;

  int ColumnIndex(const std::string& name) const;
  void Clear();
  uint64_t NumCells() const { return num_rows * columns.size(); }
};

/// One UNNEST participant in the FROM clause. Each member `m` becomes the
/// flat column "<alias>.<m>"; WITH ORDINALITY adds "<alias>.idx".
struct UnnestList {
  std::string column;                // e.g. "Jet"
  std::vector<std::string> members;  // e.g. {"pt", "eta"}
  std::string alias;                 // e.g. "j1"
};

/// Grouped aggregation functions over the flat rows, keyed by event.
enum class FlatAggKind {
  kCount,   // COUNT(*)
  kSum,     // SUM(input)
  kMin,     // MIN(input)
  kMax,     // MAX(input)
  kFirst,   // ARBITRARY(input): event-constant columns carried as keys
  kMinBy,   // MIN_BY(input, key)
};

struct FlatAggSpec {
  FlatAggKind kind = FlatAggKind::kCount;
  std::string input;   // input column name (unused for kCount)
  std::string key;     // ordering column for kMinBy
  std::string output;  // output column name
};

struct FlatQueryResult {
  std::vector<Histogram1D> histograms;
  int64_t events_processed = 0;
  /// Flat rows materialized by the unnest (the plan-shape cost driver and
  /// the Table 2 ops proxy for this engine).
  uint64_t rows_materialized = 0;
  uint64_t cells_materialized = 0;
  int64_t groups = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  ScanStats scan;
};

/// The Presto/Athena plan shape (Listing 4b of the paper): CROSS JOIN
/// UNNEST flattens the particle arrays (duplicating event columns), WHERE
/// filters the flat rows, and GROUP BY event undoes the flattening for
/// per-event predicates (HAVING) before the final histogram aggregation.
///
/// Its expressions are the same engine::Expr trees the BigQuery shape
/// evaluates per event, restricted to Lit/ScalarRef/Bin/Call: a flat column
/// is `ScalarRef(Column(name))`, and at Execute each slot binds to the
/// chunk column (or aggregate-output column) of that name.
///
/// Pipeline steps run in registration order and see columns added by
/// earlier projections. If any aggregate is registered, HAVING and
/// histogram fills run over the per-event aggregate output; otherwise they
/// run directly over the flat rows (Q2/Q3-style queries).
class FlatPipeline {
 public:
  explicit FlatPipeline(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// The ScalarRef slot of flat column `name` ("j.pt", "MET.pt", a
  /// projection or an aggregate output), interned on first use. A name no
  /// layout provides fails Execute with KeyError.
  int Column(const std::string& name);

  /// FROM events CROSS JOIN UNNEST(...) [CROSS JOIN UNNEST(...) ...].
  /// With no unnest list, rows are the events themselves (Q1).
  void AddUnnest(UnnestList list);
  /// Event-level scalar carried through the flattening ("MET.pt").
  void AddKeepScalar(const std::string& leaf_path);
  /// WHERE predicate over flat rows (and previously projected columns).
  void AddFilter(ExprPtr predicate);
  /// Computed column over flat rows.
  void AddProject(std::string name, ExprPtr value);
  /// GROUP BY event aggregate.
  void AddAggregate(FlatAggSpec spec);
  /// HAVING predicate over the aggregate output.
  void AddHaving(ExprPtr predicate);
  /// Final histogram: filled per aggregate-output row if aggregates exist,
  /// else per surviving flat row.
  int AddHistogram(HistogramSpec spec, ExprPtr value);

  /// Selects between the compiled batch-kernel path (the default, through
  /// the CompiledExprKernel lowering the BigQuery shape also uses) and the
  /// per-row tree-walking interpreter. In compiled mode filters narrow a
  /// selection vector instead of physically compacting every materialized
  /// column; results are bit-identical either way, and the interpreter is
  /// kept for the interpreted-vs-compiled ablation.
  void set_expr_exec(ExprExec exec) { expr_exec_ = exec; }
  ExprExec expr_exec() const { return expr_exec_; }

  /// Runs the pipeline over `path` (a .laq file or a dataset directory)
  /// through exec::DatasetScan with up to `num_threads` workers, each
  /// row group with its own aggregation state (sound because every
  /// event's rows live in exactly one row group). Results are
  /// bit-identical for any thread count.
  Result<FlatQueryResult> Execute(const std::string& path,
                                  ReaderOptions reader_options,
                                  int num_threads) const;

  std::vector<std::string> Projection() const;

  /// Sargable residue of the WHERE/HAVING steps and the unnest structure
  /// (an event only emits flat rows when every unnest list is non-empty;
  /// strict idx-order filters raise that bound). Only conditions every
  /// output row must satisfy are extracted — see fileio/predicate.h.
  ScanPredicateSet ScanPredicates() const;

  /// EXPLAIN-style plan rendering: column slots, unnests, steps,
  /// aggregates, having, fills.
  std::string Explain() const;

 private:
  struct Step {
    bool is_filter = false;
    std::string name;  // projection output column
    ExprPtr expr;
  };
  std::string name_;
  std::vector<std::string> columns_;  // ScalarRef slot -> column name
  std::vector<UnnestList> unnests_;
  std::vector<std::string> keep_scalars_;
  std::vector<Step> steps_;
  std::vector<FlatAggSpec> aggregates_;
  std::vector<ExprPtr> having_;
  std::vector<std::pair<HistogramSpec, ExprPtr>> fills_;
  ExprExec expr_exec_ = ExprExec::kSimd;
};

}  // namespace hepq::engine

#endif  // HEPQUERY_ENGINE_FLAT_H_
