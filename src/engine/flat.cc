#include "engine/flat.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <unordered_map>
#include <utility>

#include "core/stopwatch.h"
#include "engine/vexpr.h"
#include "exec/exec.h"
#include "obs/trace.h"

namespace hepq::engine {

int FlatBatch::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

void FlatBatch::Clear() {
  num_rows = 0;
  for (auto& column : columns) column.clear();
}

namespace {

/// Hash aggregation state, keyed by the __event column.
class EventAggregator {
 public:
  explicit EventAggregator(const std::vector<FlatAggSpec>& specs)
      : specs_(specs) {
    state_offsets_.reserve(specs.size());
    int offset = 0;
    for (const FlatAggSpec& spec : specs) {
      state_offsets_.push_back(offset);
      offset += spec.kind == FlatAggKind::kMinBy ? 2 : 1;
    }
    state_width_ = offset;
  }

  Status Resolve(const FlatBatch& layout) {
    input_cols_.assign(specs_.size(), -1);
    key_cols_.assign(specs_.size(), -1);
    for (size_t a = 0; a < specs_.size(); ++a) {
      const FlatAggSpec& spec = specs_[a];
      if (spec.kind != FlatAggKind::kCount) {
        input_cols_[a] = layout.ColumnIndex(spec.input);
        if (input_cols_[a] < 0) {
          return Status::KeyError("aggregate input column '" + spec.input +
                                  "' not found");
        }
      }
      if (spec.kind == FlatAggKind::kMinBy) {
        key_cols_[a] = layout.ColumnIndex(spec.key);
        if (key_cols_[a] < 0) {
          return Status::KeyError("aggregate key column '" + spec.key +
                                  "' not found");
        }
      }
    }
    return Status::OK();
  }

  void Consume(const FlatBatch& batch, int event_col) {
    Consume(batch, event_col, nullptr, batch.num_rows);
  }

  /// Selection-vector form: consumes rows sel[0..n) (all rows when `sel`
  /// is null). Visiting the same surviving rows in the same ascending
  /// order as the compacting path keeps group insertion order — and hence
  /// the merged output — bit-identical.
  void Consume(const FlatBatch& batch, int event_col, const uint32_t* sel,
               size_t n) {
    const auto& event_ids =
        batch.columns[static_cast<size_t>(event_col)];
    for (size_t lane = 0; lane < n; ++lane) {
      const size_t row = sel != nullptr ? sel[lane] : lane;
      const int64_t key = static_cast<int64_t>(event_ids[row]);
      auto [it, inserted] = groups_.try_emplace(key, states_.size());
      if (inserted) {
        keys_.push_back(key);
        states_.resize(states_.size() + static_cast<size_t>(state_width_));
        InitState(&states_[it->second]);
      }
      double* state = &states_[it->second];
      for (size_t a = 0; a < specs_.size(); ++a) {
        double* s = state + state_offsets_[a];
        const FlatAggSpec& spec = specs_[a];
        const double v =
            spec.kind == FlatAggKind::kCount
                ? 1.0
                : batch.columns[static_cast<size_t>(input_cols_[a])][row];
        switch (spec.kind) {
          case FlatAggKind::kCount:
          case FlatAggKind::kSum:
            s[0] += v;
            break;
          case FlatAggKind::kMin:
            s[0] = std::min(s[0], v);
            break;
          case FlatAggKind::kMax:
            s[0] = std::max(s[0], v);
            break;
          case FlatAggKind::kFirst:
            if (std::isnan(s[0])) s[0] = v;
            break;
          case FlatAggKind::kMinBy: {
            const double k =
                batch.columns[static_cast<size_t>(key_cols_[a])][row];
            if (k < s[0]) {
              s[0] = k;
              s[1] = v;
            }
            break;
          }
        }
      }
    }
  }

  /// Emits one row per group: "__event" plus one column per aggregate.
  FlatBatch Finish() const {
    FlatBatch out;
    out.names.push_back("__event");
    for (const FlatAggSpec& spec : specs_) out.names.push_back(spec.output);
    out.columns.resize(out.names.size());
    out.num_rows = keys_.size();
    for (size_t g = 0; g < keys_.size(); ++g) {
      out.columns[0].push_back(static_cast<double>(keys_[g]));
      const double* state = &states_[g * static_cast<size_t>(state_width_)];
      for (size_t a = 0; a < specs_.size(); ++a) {
        const double* s = state + state_offsets_[a];
        const double v =
            specs_[a].kind == FlatAggKind::kMinBy ? s[1] : s[0];
        out.columns[a + 1].push_back(v);
      }
    }
    return out;
  }

  size_t num_groups() const { return keys_.size(); }

 private:
  void InitState(double* state) {
    for (size_t a = 0; a < specs_.size(); ++a) {
      double* s = state + state_offsets_[a];
      switch (specs_[a].kind) {
        case FlatAggKind::kCount:
        case FlatAggKind::kSum:
          s[0] = 0.0;
          break;
        case FlatAggKind::kMin:
          s[0] = std::numeric_limits<double>::infinity();
          break;
        case FlatAggKind::kMax:
          s[0] = -std::numeric_limits<double>::infinity();
          break;
        case FlatAggKind::kFirst:
          s[0] = std::numeric_limits<double>::quiet_NaN();
          break;
        case FlatAggKind::kMinBy:
          s[0] = std::numeric_limits<double>::infinity();
          s[1] = 0.0;
          break;
      }
    }
  }

  const std::vector<FlatAggSpec>& specs_;
  std::vector<int> state_offsets_;
  int state_width_ = 0;
  std::unordered_map<int64_t, size_t> groups_;  // key -> state offset
  std::vector<int64_t> keys_;                   // insertion order
  std::vector<double> states_;
  std::vector<int> input_cols_;
  std::vector<int> key_cols_;
};

constexpr size_t kChunkRows = 32768;

/// Checks that `e` is a flat-row expression (literals, column refs,
/// operators and calls) whose every column slot resolves in `cols` (slot
/// -> column index of the layout it runs over, -1 where the name is
/// missing).
Status CheckRowExpr(const Expr& e, const std::vector<int>& cols,
                    const std::vector<std::string>& names) {
  const ExprShape s = e.Shape();
  switch (s.kind) {
    case ExprShape::Kind::kLit:
      return Status::OK();
    case ExprShape::Kind::kScalarRef: {
      const size_t slot = static_cast<size_t>(s.scalar_slot);
      if (s.scalar_slot < 0 || slot >= cols.size()) {
        return Status::KeyError("flat pipeline has no column slot " +
                                std::to_string(s.scalar_slot));
      }
      if (cols[slot] < 0) {
        return Status::KeyError("flat pipeline has no column '" +
                                names[slot] + "'");
      }
      return Status::OK();
    }
    case ExprShape::Kind::kBin:
    case ExprShape::Kind::kCall:
      for (const Expr* operand : s.operands) {
        HEPQ_RETURN_NOT_OK(CheckRowExpr(*operand, cols, names));
      }
      return Status::OK();
    default:
      return Status::Invalid("not a flat-row expression: " + e.ToString());
  }
}

/// Binds column slot i to `batch` column cols[i] (unbound where -1).
BatchBindings BindFlat(const FlatBatch& batch, const std::vector<int>& cols) {
  std::vector<const double*> data(cols.size(), nullptr);
  for (size_t slot = 0; slot < cols.size(); ++slot) {
    if (cols[slot] >= 0) {
      data[slot] = batch.columns[static_cast<size_t>(cols[slot])].data();
    }
  }
  return BatchBindings::Float64Scalars(data);
}

}  // namespace

int FlatPipeline::Column(const std::string& name) {
  for (size_t slot = 0; slot < columns_.size(); ++slot) {
    if (columns_[slot] == name) return static_cast<int>(slot);
  }
  columns_.push_back(name);
  return static_cast<int>(columns_.size()) - 1;
}

void FlatPipeline::AddUnnest(UnnestList list) {
  unnests_.push_back(std::move(list));
}
void FlatPipeline::AddKeepScalar(const std::string& leaf_path) {
  keep_scalars_.push_back(leaf_path);
}
void FlatPipeline::AddFilter(ExprPtr predicate) {
  Step step;
  step.is_filter = true;
  step.expr = std::move(predicate);
  steps_.push_back(std::move(step));
}
void FlatPipeline::AddProject(std::string name, ExprPtr value) {
  Step step;
  step.name = std::move(name);
  step.expr = std::move(value);
  steps_.push_back(std::move(step));
}
void FlatPipeline::AddAggregate(FlatAggSpec spec) {
  aggregates_.push_back(std::move(spec));
}
void FlatPipeline::AddHaving(ExprPtr predicate) {
  having_.push_back(std::move(predicate));
}
int FlatPipeline::AddHistogram(HistogramSpec spec, ExprPtr value) {
  fills_.emplace_back(std::move(spec), std::move(value));
  return static_cast<int>(fills_.size()) - 1;
}

std::vector<std::string> FlatPipeline::Projection() const {
  std::vector<std::string> projection;
  for (const UnnestList& u : unnests_) {
    for (const std::string& member : u.members) {
      projection.push_back(u.column + "." + member);
    }
    if (u.members.empty()) projection.push_back(u.column);
  }
  for (const std::string& scalar : keep_scalars_) {
    projection.push_back(scalar);
  }
  if (projection.empty()) projection.push_back("event");
  return projection;
}

ScanPredicateSet FlatPipeline::ScanPredicates() const {
  ScanPredicateSet preds;
  std::vector<const Expr*> conjuncts;
  for (const Step& step : steps_) {
    if (step.is_filter) SplitConjuncts(step.expr.get(), &conjuncts);
  }
  // The flat column a node reads, or null when it is not a column ref.
  auto column_of = [&](const Expr* e) -> const std::string* {
    const ExprShape s = e->Shape();
    if (s.kind != ExprShape::Kind::kScalarRef || s.scalar_slot < 0 ||
        static_cast<size_t>(s.scalar_slot) >= columns_.size()) {
      return nullptr;
    }
    return &columns_[static_cast<size_t>(s.scalar_slot)];
  };

  // An event emits flat rows only when every unnest list is non-empty
  // (the Cartesian product is empty otherwise); strict idx-order filters
  // between aliases of the same column ("m1.idx < m2.idx") mean those
  // aliases bind distinct elements, so the longest strict chain raises
  // the cardinality bound (Q5 pairs need 2 muons, Q6 trijets 3 jets).
  const size_t n_unnests = unnests_.size();
  std::vector<std::vector<char>> before(n_unnests,
                                        std::vector<char>(n_unnests, 0));
  auto alias_index = [&](const std::string* col) -> int {
    if (col == nullptr) return -1;
    for (size_t u = 0; u < n_unnests; ++u) {
      if (*col == unnests_[u].alias + ".idx") return static_cast<int>(u);
    }
    return -1;
  };
  for (const Expr* conjunct : conjuncts) {
    const ExprShape s = conjunct->Shape();
    if (s.kind != ExprShape::Kind::kBin ||
        (s.bin_op != BinOp::kLt && s.bin_op != BinOp::kGt)) {
      continue;
    }
    int a = alias_index(column_of(s.operands[0]));
    int b = alias_index(column_of(s.operands[1]));
    if (a < 0 || b < 0) continue;
    if (s.bin_op == BinOp::kGt) std::swap(a, b);
    if (unnests_[static_cast<size_t>(a)].column ==
        unnests_[static_cast<size_t>(b)].column) {
      before[static_cast<size_t>(a)][static_cast<size_t>(b)] = 1;
    }
  }
  // Longest strict chain through each alias (graphs here are 2-3 nodes).
  std::vector<int> chain(n_unnests, 0);
  std::function<int(size_t)> longest = [&](size_t u) -> int {
    if (chain[u] != 0) return chain[u];
    int best = 1;
    for (size_t v = 0; v < n_unnests; ++v) {
      if (before[u][v]) best = std::max(best, 1 + longest(v));
    }
    return chain[u] = best;
  };
  for (size_t u = 0; u < n_unnests; ++u) {
    bool first = true;
    for (size_t v = 0; v < u; ++v) {
      if (unnests_[v].column == unnests_[u].column) first = false;
    }
    if (!first) continue;
    int bound = 1;
    for (size_t v = 0; v < n_unnests; ++v) {
      if (unnests_[v].column == unnests_[u].column) {
        bound = std::max(bound, longest(v));
      }
    }
    preds.AddMinCount(unnests_[u].column, bound);
  }

  // WHERE conjuncts comparing a column with a literal: keep-scalars are
  // event-constant (a failing event contributes no row at all), unnest
  // members are element-existence conditions.
  for (const Expr* conjunct : conjuncts) {
    BinOp op;
    double lit;
    const Expr* var = MatchCmpWithLit(conjunct->Shape(), &op, &lit);
    if (var == nullptr) continue;
    const std::string* col = column_of(var);
    if (col == nullptr) continue;
    double lo, hi;
    if (!CmpToRange(op, lit, &lo, &hi)) continue;
    bool matched = false;
    for (const std::string& scalar : keep_scalars_) {
      if (*col == scalar) {
        preds.AddRange(scalar, lo, hi);
        matched = true;
        break;
      }
    }
    if (matched) continue;
    for (const UnnestList& u : unnests_) {
      for (const std::string& member : u.members) {
        if (*col == u.alias + "." + member) {
          preds.AddItemRange(u.column + "." + member, lo, hi);
          matched = true;
          break;
        }
      }
      if (matched) break;
    }
  }

  // HAVING COUNT(*) >= n over a single unnest: the count tallies
  // surviving elements of that one list, so the event needs at least
  // ceil(n) elements (Listing 4b's n_jets >= 2).
  if (n_unnests == 1) {
    for (const ExprPtr& predicate : having_) {
      std::vector<const Expr*> having_conjuncts;
      SplitConjuncts(predicate.get(), &having_conjuncts);
      for (const Expr* conjunct : having_conjuncts) {
        BinOp op;
        double lit;
        const Expr* var = MatchCmpWithLit(conjunct->Shape(), &op, &lit);
        if (var == nullptr || (op != BinOp::kGe && op != BinOp::kGt)) {
          continue;
        }
        const std::string* col = column_of(var);
        if (col == nullptr) continue;
        for (const FlatAggSpec& spec : aggregates_) {
          if (spec.kind == FlatAggKind::kCount && spec.output == *col) {
            const double n =
                op == BinOp::kGe ? std::ceil(lit) : std::floor(lit) + 1.0;
            if (n >= 1.0) {
              preds.AddMinCount(unnests_[0].column,
                                static_cast<int64_t>(n));
            }
          }
        }
      }
    }
  }
  return preds;
}

std::string FlatPipeline::Explain() const {
  std::string out = "FlatPipeline " + name_ + " (unnest + regroup plan)\n";
  for (size_t slot = 0; slot < columns_.size(); ++slot) {
    out += "  scalar" + std::to_string(slot) + " = " + columns_[slot] + "\n";
  }
  for (const UnnestList& u : unnests_) {
    out += "  CROSS JOIN UNNEST(" + u.column + ") AS " + u.alias + " {";
    for (size_t m = 0; m < u.members.size(); ++m) {
      if (m > 0) out += ", ";
      out += u.members[m];
    }
    out += "} WITH ORDINALITY\n";
  }
  for (const std::string& scalar : keep_scalars_) {
    out += "  keep " + scalar + "\n";
  }
  for (const Step& step : steps_) {
    out += step.is_filter ? "  WHERE " : "  PROJECT " + step.name + " = ";
    out += step.expr->ToString() + "\n";
  }
  if (!aggregates_.empty()) {
    out += "  GROUP BY event:";
    for (const FlatAggSpec& spec : aggregates_) {
      out += " " + spec.output;
    }
    out += "\n";
  }
  for (const ExprPtr& predicate : having_) {
    out += "  HAVING " + predicate->ToString() + "\n";
  }
  for (const auto& [spec, expr] : fills_) {
    out += "  fill '" + spec.name + "': " + expr->ToString() + "\n";
  }
  return out;
}

Result<FlatQueryResult> FlatPipeline::Execute(const std::string& path,
                                              ReaderOptions reader_options,
                                              int num_threads) const {
  obs::ScopedSpan run_span("run", obs::Stage::kRun);
  FlatQueryResult result;
  for (const auto& [spec, expr] : fills_) {
    result.histograms.emplace_back(spec);
  }
  Stopwatch wall;
  const double cpu0 = ProcessCpuSeconds();
  obs::ScopedSpan plan_span("flat_compile", obs::Stage::kPlan);

  // ---- layout of the flat chunk (shared by every worker's chunk) ----
  FlatBatch layout;
  layout.names.push_back("__event");
  for (const UnnestList& u : unnests_) {
    layout.names.push_back(u.alias + ".idx");
    for (const std::string& member : u.members) {
      layout.names.push_back(u.alias + "." + member);
    }
  }
  for (const std::string& scalar : keep_scalars_) {
    layout.names.push_back(scalar);
  }
  const size_t base_columns = layout.names.size();
  // Projections extend the layout in step order.
  for (const Step& step : steps_) {
    if (!step.is_filter) layout.names.push_back(step.name);
  }
  layout.columns.resize(layout.names.size());

  // Bind every column slot by name: to its chunk column for the steps
  // (and ungrouped fills), to its aggregate-output column for HAVING and
  // grouped fills. Each expression is checked against the layout it runs
  // over before the scan starts.
  const bool grouped = !aggregates_.empty();
  EventAggregator prototype(aggregates_);
  FlatBatch agg_layout;
  if (grouped) {
    HEPQ_RETURN_NOT_OK(prototype.Resolve(layout));
    agg_layout.names.push_back("__event");
    for (const FlatAggSpec& spec : aggregates_) {
      agg_layout.names.push_back(spec.output);
    }
  }
  std::vector<int> chunk_cols(columns_.size());
  std::vector<int> agg_cols(columns_.size());
  for (size_t slot = 0; slot < columns_.size(); ++slot) {
    chunk_cols[slot] = layout.ColumnIndex(columns_[slot]);
    agg_cols[slot] = agg_layout.ColumnIndex(columns_[slot]);
  }
  const std::vector<int>& sink_cols = grouped ? agg_cols : chunk_cols;
  for (const Step& step : steps_) {
    HEPQ_RETURN_NOT_OK(CheckRowExpr(*step.expr, chunk_cols, columns_));
  }
  for (const ExprPtr& predicate : having_) {
    HEPQ_RETURN_NOT_OK(CheckRowExpr(*predicate, sink_cols, columns_));
  }
  for (const auto& [spec, expr] : fills_) {
    HEPQ_RETURN_NOT_OK(CheckRowExpr(*expr, sink_cols, columns_));
  }
  if (!grouped && !having_.empty()) {
    return Status::Invalid("HAVING requires aggregates");
  }

  // ---- compile the hot flat-row expressions to batch kernels ----
  // One kernel per pipeline step and (when ungrouped) per fill, through
  // the same lowering as the BigQuery shape; HAVING and grouped fills run
  // over the tiny per-event aggregate output where batching buys nothing,
  // so they stay on the interpreter. Kernels are immutable and shared by
  // all workers; each worker brings its own VexprScratch.
  const bool compiled = expr_exec_ != ExprExec::kInterpreted;
  std::vector<CompiledExprKernel> step_kernels;
  std::vector<CompiledExprKernel> fill_kernels;
  if (compiled) {
    for (const Step& step : steps_) {
      HEPQ_ASSIGN_OR_RETURN(step_kernels.emplace_back(),
                            CompiledExprKernel::Compile(step.expr));
    }
    if (!grouped) {
      for (const auto& [spec, expr] : fills_) {
        HEPQ_ASSIGN_OR_RETURN(fill_kernels.emplace_back(),
                              CompiledExprKernel::Compile(expr));
      }
    }
  }

  // ---- declarations for the storage bindings ----
  std::vector<ListDecl> list_decls;
  for (const UnnestList& u : unnests_) {
    list_decls.push_back(ListDecl{u.column, u.members, {}});
  }
  std::vector<ScalarDecl> scalar_decls;
  for (const std::string& s : keep_scalars_) {
    scalar_decls.push_back(ScalarDecl{s});
  }

  plan_span.End();

  exec::DatasetScan scan;
  HEPQ_ASSIGN_OR_RETURN(scan, exec::DatasetScan::Open(path, reader_options));
  const exec::DatasetLayout& layout_map = scan.layout();
  const size_t num_groups = layout_map.groups.size();
  // Event ids are global row numbers across the whole dataset: per-group
  // bases accumulated over the layout's file-major group order.
  std::vector<int64_t> event_base(num_groups + 1, 0);
  for (size_t g = 0; g < num_groups; ++g) {
    event_base[g + 1] = event_base[g] + layout_map.groups[g].num_rows;
  }

  // Per-row-group partial state, merged in ascending group order below.
  // GROUP BY event can be split this way because an event's flat rows all
  // come from the one row group holding the event.
  struct GroupPartial {
    GroupPartial(const EventAggregator& proto,
                 const std::vector<Histogram1D>& histo_specs)
        : aggregator(proto), histos(histo_specs) {}
    EventAggregator aggregator;
    std::vector<Histogram1D> histos;
    int64_t events = 0;
    uint64_t rows_materialized = 0;
    uint64_t cells_materialized = 0;
  };
  std::vector<GroupPartial> partials;
  partials.reserve(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    partials.emplace_back(prototype, result.histograms);
  }

  // ---- scan ----
  const std::vector<std::string> projection = Projection();
  const ScanPredicateSet preds = ScanPredicates();
  HEPQ_ASSIGN_OR_RETURN(
      result.scan,
      scan.Run(num_threads, [&](const exec::ScanGroup& sg) -> Status {
        const int g = sg.group;
        RecordBatchPtr batch;
        HEPQ_ASSIGN_OR_RETURN(
            batch, sg.reader->ReadRowGroupFiltered(sg.loc->local_group,
                                                   projection, preds,
                                                   sg.scratch));
        if (batch == nullptr) {
          // Pruned group: no event in it can emit an output row, but the
          // events were still processed.
          partials[static_cast<size_t>(g)].events = sg.loc->num_rows;
          return Status::OK();
        }
        BatchBindings bindings;
        HEPQ_ASSIGN_OR_RETURN(
            bindings, BatchBindings::Bind(*batch, list_decls, scalar_decls));
        GroupPartial& p = partials[static_cast<size_t>(g)];
        FlatBatch chunk = layout;
        VexprScratch* vs =
            compiled ? sg.EngineScratch<VexprScratch>() : nullptr;

        auto flush_interpreted = [&]() -> Status {
          if (chunk.num_rows == 0) return Status::OK();
          obs::ScopedSpan flush_span("flat_flush", obs::Stage::kExpr);
          // Apply projections and filters in order. Filters compact all
          // columns materialized so far — the real cost of filtering flat
          // data.
          EvalContext ctx;
          size_t live_columns = base_columns;
          for (const Step& step : steps_) {
            if (!step.is_filter) {
              auto& out = chunk.columns[live_columns];
              out.resize(chunk.num_rows);
              const BatchBindings bound = BindFlat(chunk, chunk_cols);
              ctx.bindings = &bound;
              for (size_t row = 0; row < chunk.num_rows; ++row) {
                ctx.row = static_cast<uint32_t>(row);
                out[row] = step.expr->Eval(&ctx);
              }
              ++live_columns;
              continue;
            }
            const BatchBindings bound = BindFlat(chunk, chunk_cols);
            ctx.bindings = &bound;
            size_t kept = 0;
            for (size_t row = 0; row < chunk.num_rows; ++row) {
              ctx.row = static_cast<uint32_t>(row);
              if (!step.expr->EvalBool(&ctx)) continue;
              if (kept != row) {
                for (size_t c = 0; c < live_columns; ++c) {
                  chunk.columns[c][kept] = chunk.columns[c][row];
                }
              }
              ++kept;
            }
            chunk.num_rows = kept;
            for (size_t c = 0; c < live_columns; ++c) {
              chunk.columns[c].resize(kept);
            }
          }
          if (grouped) {
            p.aggregator.Consume(chunk, /*event_col=*/0);
          } else {
            const BatchBindings bound = BindFlat(chunk, chunk_cols);
            ctx.bindings = &bound;
            for (size_t f = 0; f < fills_.size(); ++f) {
              for (size_t row = 0; row < chunk.num_rows; ++row) {
                ctx.row = static_cast<uint32_t>(row);
                p.histos[f].Fill(fills_[f].second->Eval(&ctx));
              }
            }
          }
          chunk.Clear();
          return Status::OK();
        };

        // Compiled flush: run each step's kernel over the live lanes.
        // Filters narrow the selection vector instead of compacting every
        // materialized column, so downstream steps, fills, and the GROUP
        // BY consume shrink without the interpreter path's O(columns)
        // rewrite per filter. While no filter has run the selection is
        // null and the kernels read the columns contiguously. Lane order
        // stays ascending, so group insertion order and fill order match
        // the compacting path and results are bit-identical.
        auto flush_compiled = [&]() -> Status {
          if (chunk.num_rows == 0) return Status::OK();
          obs::ScopedSpan flush_span("flat_flush", obs::Stage::kExpr);
          VexprScratch::Scope scope(vs);
          std::vector<uint32_t>* sel = vs->AcquireU32();
          std::vector<uint32_t>* gate = vs->AcquireU32();
          std::vector<double>* vals = vs->AcquireF64();
          const uint32_t* sel_ptr = nullptr;  // null: all rows live
          size_t live = chunk.num_rows;
          size_t live_columns = base_columns;
          for (size_t s = 0; s < steps_.size(); ++s) {
            const Step& step = steps_[s];
            if (!step.is_filter) {
              // Sized before binding so the bound pointers stay valid.
              auto& out = chunk.columns[live_columns];
              out.resize(chunk.num_rows);
              const BatchBindings bound = BindFlat(chunk, chunk_cols);
              vals->resize(live);
              HEPQ_RETURN_NOT_OK(step_kernels[s].Eval(
                  bound, sel_ptr, static_cast<int64_t>(live), vs,
                  vals->data(), nullptr));
              // Scatter through the selection so later gathers see the
              // value at its row position; dead rows stay unwritten (and
              // unread).
              if (sel_ptr != nullptr) {
                for (size_t i = 0; i < live; ++i) out[sel_ptr[i]] = (*vals)[i];
              } else {
                std::copy(vals->begin(), vals->end(), out.begin());
              }
              ++live_columns;
              continue;
            }
            // Fused gate: the passing lane positions come out of the
            // kernel directly (no 0/1 vector). When the selection is still
            // dense (the common first-filter case) lane positions ARE row
            // indices; otherwise remap through the old selection — the
            // gate output is ascending, so the rewrite is in-place.
            const BatchBindings bound = BindFlat(chunk, chunk_cols);
            std::vector<uint32_t>* out = sel_ptr == nullptr ? sel : gate;
            out->resize(live);
            int kept;
            HEPQ_ASSIGN_OR_RETURN(
                kept, step_kernels[s].Gate(bound, sel_ptr,
                                           static_cast<int64_t>(live), vs,
                                           out->data(), nullptr));
            if (sel_ptr != nullptr) {
              for (int i = 0; i < kept; ++i) (*sel)[i] = (*sel)[(*gate)[i]];
            }
            sel->resize(static_cast<size_t>(kept));
            sel_ptr = sel->data();
            live = sel->size();
            if (live == 0) break;
          }
          if (live > 0) {
            if (grouped) {
              p.aggregator.Consume(chunk, /*event_col=*/0, sel_ptr, live);
            } else {
              const BatchBindings bound = BindFlat(chunk, chunk_cols);
              vals->resize(live);
              for (size_t f = 0; f < fills_.size(); ++f) {
                HEPQ_RETURN_NOT_OK(fill_kernels[f].Eval(
                    bound, sel_ptr, static_cast<int64_t>(live), vs,
                    vals->data(), nullptr));
                for (size_t i = 0; i < live; ++i) {
                  p.histos[f].Fill((*vals)[i]);
                }
              }
            }
          }
          chunk.Clear();
          return Status::OK();
        };

        auto flush_chunk = [&]() -> Status {
          return compiled ? flush_compiled() : flush_interpreted();
        };

        obs::ScopedSpan loop_span("unnest_emit", obs::Stage::kEventLoop);
        if (loop_span.active()) {
          loop_span.set_worker(sg.worker);
          loop_span.set_group(g);
        }
        const int64_t rows = batch->num_rows();
        std::vector<uint32_t> cursor(unnests_.size());
        for (int64_t row = 0; row < rows; ++row) {
          const double event_id =
              static_cast<double>(event_base[static_cast<size_t>(g)] + row);
          // Full Cartesian product of the unnest lists, exactly like
          // chained CROSS JOIN UNNEST; symmetric dedup (idx1 < idx2)
          // happens in WHERE.
          std::function<Status(size_t)> emit = [&](size_t depth) -> Status {
            if (depth == unnests_.size()) {
              size_t c = 0;
              chunk.columns[c++].push_back(event_id);
              for (size_t u = 0; u < unnests_.size(); ++u) {
                const ListBinding& list = bindings.list(static_cast<int>(u));
                const uint32_t i = cursor[u];
                chunk.columns[c++].push_back(static_cast<double>(
                    i - list.begin(static_cast<uint32_t>(row))));
                for (size_t m = 0; m < unnests_[u].members.size(); ++m) {
                  chunk.columns[c++].push_back(list.members[m].Get(i));
                }
              }
              for (size_t s = 0; s < keep_scalars_.size(); ++s) {
                chunk.columns[c++].push_back(
                    bindings.scalar(static_cast<int>(s))
                        .Get(static_cast<uint32_t>(row)));
              }
              ++chunk.num_rows;
              ++p.rows_materialized;
              p.cells_materialized += base_columns;
              if (chunk.num_rows >= kChunkRows) {
                HEPQ_RETURN_NOT_OK(flush_chunk());
              }
              return Status::OK();
            }
            const ListBinding& list =
                bindings.list(static_cast<int>(depth));
            const uint32_t begin = list.begin(static_cast<uint32_t>(row));
            const uint32_t end = list.end(static_cast<uint32_t>(row));
            for (uint32_t i = begin; i < end; ++i) {
              cursor[depth] = i;
              HEPQ_RETURN_NOT_OK(emit(depth + 1));
            }
            return Status::OK();
          };
          HEPQ_RETURN_NOT_OK(emit(0));
        }
        HEPQ_RETURN_NOT_OK(flush_chunk());
        p.events = rows;
        return Status::OK();
      }));

  // ---- two-level deterministic merge (exec::FoldGroups) ----
  // Row counters go straight into the result; only the FP histograms
  // need the per-file subtotal.
  HEPQ_RETURN_NOT_OK(exec::FoldGroups(
      layout_map,
      [&] {
        std::vector<Histogram1D> file_histos;
        file_histos.reserve(fills_.size());
        for (const auto& [spec, expr] : fills_) file_histos.emplace_back(spec);
        return file_histos;
      },
      [&](std::vector<Histogram1D>* file_histos, int g) -> Status {
        GroupPartial& p = partials[static_cast<size_t>(g)];
        result.events_processed += p.events;
        result.rows_materialized += p.rows_materialized;
        result.cells_materialized += p.cells_materialized;
        if (!grouped) {
          for (size_t f = 0; f < fills_.size(); ++f) {
            HEPQ_RETURN_NOT_OK((*file_histos)[f].Merge(p.histos[f]));
          }
          return Status::OK();
        }
        // Event keys are disjoint across row groups, so concatenating the
        // per-group aggregate outputs in group order reproduces the
        // sequential scan's group order exactly.
        const FlatBatch groups = p.aggregator.Finish();
        result.groups += static_cast<int64_t>(groups.num_rows);
        const BatchBindings bound = BindFlat(groups, agg_cols);
        EvalContext ctx;
        ctx.bindings = &bound;
        for (size_t row = 0; row < groups.num_rows; ++row) {
          ctx.row = static_cast<uint32_t>(row);
          bool pass = true;
          for (const ExprPtr& predicate : having_) {
            if (!predicate->EvalBool(&ctx)) {
              pass = false;
              break;
            }
          }
          if (!pass) continue;
          for (size_t f = 0; f < fills_.size(); ++f) {
            (*file_histos)[f].Fill(fills_[f].second->Eval(&ctx));
          }
        }
        return Status::OK();
      },
      [&](const std::vector<Histogram1D>& file_histos) -> Status {
        for (size_t f = 0; f < fills_.size(); ++f) {
          HEPQ_RETURN_NOT_OK(result.histograms[f].Merge(file_histos[f]));
        }
        return Status::OK();
      }));

  result.wall_seconds = wall.Seconds();
  result.cpu_seconds = ProcessCpuSeconds() - cpu0;
  return result;
}

}  // namespace hepq::engine
