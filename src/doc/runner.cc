#include "doc/runner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/stopwatch.h"
#include "doc/convert.h"
#include "exec/exec.h"
#include "obs/trace.h"

namespace hepq::doc {

namespace {

/// Interprets the query over one row group's batch, accumulating into a
/// per-group partial (histograms pre-sized by the caller).
Status RunBatch(const DocQuery& query, const RecordBatch& batch,
                DocQueryResult* result) {
  // Per-clause attribution: a span per row (let alone per clause) would
  // dwarf the work being measured, so clause timings accumulate into
  // per-batch counters instead. All timing is gated on an active session
  // — a production run takes only the one `tracing` branch per batch.
  obs::ScopedSpan batch_span("flwor_batch", obs::Stage::kEventLoop);
  const bool tracing = batch_span.active();
  int64_t let_ns = 0, where_ns = 0, return_ns = 0;
  int64_t let_evals = 0, where_evals = 0, return_fills = 0;
  const int64_t rows = batch.num_rows();
  for (int64_t row = 0; row < rows; ++row) {
    DocContext ctx;
    ctx.Push("event", Sequence{EventToItem(batch, row)});
    size_t pushed = 1;
    int64_t t0 = tracing ? obs::NowNs() : 0;
    for (const auto& [name, expr] : query.lets) {
      auto value = expr->Eval(&ctx);
      if (!value.ok()) return value.status();
      ctx.Push(name, std::move(*value));
      ++pushed;
      ++let_evals;
    }
    if (tracing) {
      const int64_t t1 = obs::NowNs();
      let_ns += t1 - t0;
      t0 = t1;
    }
    bool selected = true;
    if (query.guard != nullptr) {
      Sequence cond;
      HEPQ_ASSIGN_OR_RETURN(cond, query.guard->Eval(&ctx));
      selected = EffectiveBooleanValue(cond);
      ++where_evals;
    }
    if (tracing) {
      const int64_t t1 = obs::NowNs();
      where_ns += t1 - t0;
      t0 = t1;
    }
    if (selected) {
      ++result->events_selected;
      for (size_t f = 0; f < query.fills.size(); ++f) {
        Sequence values;
        HEPQ_ASSIGN_OR_RETURN(values, query.fills[f].second->Eval(&ctx));
        for (const ItemPtr& item : values) {
          result->histograms[f].Fill(item->AsDouble());
        }
        ++return_fills;
      }
      if (tracing) return_ns += obs::NowNs() - t0;
    }
    result->interpreter_steps += ctx.steps;
    for (size_t p = 0; p < pushed; ++p) ctx.Pop();
  }
  if (tracing) {
    obs::CountStage("flwor_let", obs::Stage::kExpr, let_ns,
                    static_cast<uint64_t>(let_evals));
    obs::CountStage("flwor_where", obs::Stage::kExpr, where_ns,
                    static_cast<uint64_t>(where_evals));
    obs::CountStage("flwor_return", obs::Stage::kExpr, return_ns,
                    static_cast<uint64_t>(return_fills));
  }
  result->events_processed += rows;
  return Status::OK();
}

DocQueryResult EmptyResult(const DocQuery& query) {
  DocQueryResult result;
  for (const auto& [spec, expr] : query.fills) {
    result.histograms.emplace_back(spec);
  }
  return result;
}

Status MergeResult(DocQueryResult* into, const DocQueryResult& part) {
  for (size_t f = 0; f < into->histograms.size(); ++f) {
    HEPQ_RETURN_NOT_OK(into->histograms[f].Merge(part.histograms[f]));
  }
  into->events_processed += part.events_processed;
  into->events_selected += part.events_selected;
  into->interpreter_steps += part.interpreter_steps;
  return Status::OK();
}

// ---- Scan-predicate extraction --------------------------------------------
//
// Pattern-matches the FLWOR guard for sargable necessary conditions (see
// fileio/predicate.h for the fail-fill soundness contract). The guard gates
// every fill in RunBatch, so rows that provably fail an extracted conjunct
// can be zone-map-pruned without touching any histogram: pruned groups are
// compensated as processed-but-unselected, and fail-filled lanes evaluate
// the unmodified guard to false exactly as their true values would.

using DocEnv = std::vector<std::pair<std::string, const DocExpr*>>;

/// Follows $var chains through let bindings (innermost wins); leaves the
/// expression untouched when the variable is unbound (e.g. $event).
const DocExpr* ResolveDocVar(const DocExpr* e, const DocEnv& env) {
  for (int depth = 0; e != nullptr && depth < 32; ++depth) {
    DocShape s = e->Shape();
    if (s.kind != DocShape::Kind::kVar) return e;
    const DocExpr* next = nullptr;
    for (auto it = env.rbegin(); it != env.rend(); ++it) {
      if (it->first == s.name) {
        next = it->second;
        break;
      }
    }
    if (next == nullptr) return e;
    e = next;
  }
  return e;
}

/// Matches the particle-collection idiom `$event.<column>[]`.
bool MatchDocParticles(const DocExpr* e, const DocEnv& env,
                       std::string* column) {
  e = ResolveDocVar(e, env);
  if (e == nullptr) return false;
  const DocShape unbox = e->Shape();
  if (unbox.kind != DocShape::Kind::kUnbox) return false;
  const DocExpr* member_expr = ResolveDocVar(unbox.input, env);
  if (member_expr == nullptr) return false;
  const DocShape member = member_expr->Shape();
  if (member.kind != DocShape::Kind::kMember) return false;
  const DocExpr* root = ResolveDocVar(member.input, env);
  if (root == nullptr) return false;
  const DocShape var = root->Shape();
  if (var.kind != DocShape::Kind::kVar || var.name != "event") return false;
  *column = member.name;
  return true;
}

/// Matches a member chain rooted at $event with no unboxing, yielding the
/// dotted leaf path ("MET.pt"). Chains through list members degenerate to
/// empty sequences in the interpreter and bind conservatively in fileio,
/// so no kind check is needed here.
bool MatchDocScalarLeaf(const DocExpr* e, const DocEnv& env,
                        std::string* path) {
  e = ResolveDocVar(e, env);
  if (e == nullptr) return false;
  const DocShape s = e->Shape();
  if (s.kind != DocShape::Kind::kMember) return false;
  const DocExpr* input = ResolveDocVar(s.input, env);
  if (input == nullptr) return false;
  const DocShape inner = input->Shape();
  if (inner.kind == DocShape::Kind::kVar && inner.name == "event") {
    *path = s.name;
    return true;
  }
  std::string prefix;
  if (!MatchDocScalarLeaf(s.input, env, &prefix)) return false;
  *path = prefix + "." + s.name;
  return true;
}

void SplitDocConjuncts(const DocExpr* e, std::vector<const DocExpr*>* out) {
  if (e == nullptr) return;
  const DocShape s = e->Shape();
  if (s.kind == DocShape::Kind::kBin && s.bin_op == DocBinOp::kAnd) {
    SplitDocConjuncts(s.args[0], out);
    SplitDocConjuncts(s.args[1], out);
    return;
  }
  out->push_back(e);
}

bool DocCmpToRange(DocBinOp op, double lit, double* lo, double* hi) {
  const double inf = std::numeric_limits<double>::infinity();
  switch (op) {
    case DocBinOp::kGt:
    case DocBinOp::kGe:
      *lo = lit;
      *hi = inf;
      return true;
    case DocBinOp::kLt:
    case DocBinOp::kLe:
      *lo = -inf;
      *hi = lit;
      return true;
    case DocBinOp::kEq:
      *lo = lit;
      *hi = lit;
      return true;
    default:
      return false;
  }
}

DocBinOp MirrorDocCmp(DocBinOp op) {
  switch (op) {
    case DocBinOp::kLt:
      return DocBinOp::kGt;
    case DocBinOp::kLe:
      return DocBinOp::kGe;
    case DocBinOp::kGt:
      return DocBinOp::kLt;
    case DocBinOp::kGe:
      return DocBinOp::kLe;
    default:
      return op;
  }
}

/// Normalizes a comparison conjunct to `<variable-side> op <literal>`;
/// returns the variable-side expression or nullptr.
const DocExpr* MatchDocCmpWithLit(const DocShape& s, const DocEnv& env,
                                  DocBinOp* op, double* lit) {
  if (s.kind != DocShape::Kind::kBin || s.args.size() != 2) return nullptr;
  switch (s.bin_op) {
    case DocBinOp::kLt:
    case DocBinOp::kLe:
    case DocBinOp::kGt:
    case DocBinOp::kGe:
    case DocBinOp::kEq:
      break;
    default:
      return nullptr;
  }
  const DocExpr* lhs = ResolveDocVar(s.args[0], env);
  const DocExpr* rhs = ResolveDocVar(s.args[1], env);
  if (lhs == nullptr || rhs == nullptr) return nullptr;
  const DocShape ls = lhs->Shape();
  const DocShape rs = rhs->Shape();
  if (rs.kind == DocShape::Kind::kNum) {
    *op = s.bin_op;
    *lit = rs.num;
    return lhs;
  }
  if (ls.kind == DocShape::Kind::kNum) {
    *op = MirrorDocCmp(s.bin_op);
    *lit = ls.num;
    return rhs;
  }
  return nullptr;
}

/// Extracts `$$.<member> op literal` element conditions from a predicate
/// expression applied to elements of `column`.
void ExtractDocItemRanges(const DocExpr* pred, const std::string& column,
                          const DocEnv& env, ScanPredicateSet* out) {
  std::vector<const DocExpr*> conjuncts;
  SplitDocConjuncts(pred, &conjuncts);
  for (const DocExpr* conjunct : conjuncts) {
    DocBinOp op = DocBinOp::kAdd;
    double lit = 0.0;
    const DocExpr* side =
        MatchDocCmpWithLit(conjunct->Shape(), env, &op, &lit);
    if (side == nullptr) continue;
    const DocShape member = side->Shape();
    if (member.kind != DocShape::Kind::kMember) continue;
    const DocExpr* root = ResolveDocVar(member.input, env);
    if (root == nullptr ||
        root->Shape().kind != DocShape::Kind::kContextItem) {
      continue;
    }
    double lo = 0.0;
    double hi = 0.0;
    if (!DocCmpToRange(op, lit, &lo, &hi)) continue;
    out->AddItemRange(column + "." + member.name, lo, hi);
  }
}

void ExtractDocConjunct(const DocExpr* e, const DocEnv& env,
                        ScanPredicateSet* out);

/// Necessary conditions of "this expression evaluates to a non-empty
/// sequence" — the meaning of exists(...) and of an absent-else `if`.
void ExtractDocExists(const DocExpr* e, const DocEnv& env,
                      ScanPredicateSet* out) {
  e = ResolveDocVar(e, env);
  if (e == nullptr) return;
  const DocShape s = e->Shape();
  switch (s.kind) {
    case DocShape::Kind::kUnbox: {
      std::string column;
      if (MatchDocParticles(e, env, &column)) out->AddMinCount(column, 1);
      return;
    }
    case DocShape::Kind::kIf: {
      // No else branch: a non-empty result requires the condition to hold
      // AND the then-branch to be non-empty.
      if (s.args.size() == 2 && s.args[1] == nullptr) {
        ExtractDocConjunct(s.input, env, out);
        ExtractDocExists(s.args[0], env, out);
      }
      return;
    }
    case DocShape::Kind::kPredicate: {
      const DocShape pred = s.predicate->Shape();
      if (pred.kind == DocShape::Kind::kNum) {
        // Positional predicate input[n]: non-empty iff input has >= n
        // items (n is 1-based).
        ExtractDocExists(s.input, env, out);
        std::string column;
        const double n = std::floor(pred.num);
        if (n == pred.num && n >= 1.0 && n <= 1e9 &&
            MatchDocParticles(s.input, env, &column)) {
          out->AddMinCount(column, static_cast<int64_t>(n));
        }
        return;
      }
      std::string column;
      if (MatchDocParticles(s.input, env, &column)) {
        out->AddMinCount(column, 1);
        ExtractDocItemRanges(s.predicate, column, env, out);
      } else {
        ExtractDocExists(s.input, env, out);
      }
      return;
    }
    case DocShape::Kind::kFlwor: {
      // A non-empty FLWOR result needs every for-source non-empty; strict
      // orderings between "at" position counters of for-clauses over the
      // same collection raise that to the longest such chain.
      struct ForClause {
        std::string column;
        std::string position_var;
      };
      DocEnv local = env;
      std::vector<ForClause> fors;
      std::vector<const DocExpr*> wheres;
      for (const FlworClause& clause : *s.clauses) {
        switch (clause.kind) {
          case FlworClause::Kind::kFor: {
            std::string column;
            if (MatchDocParticles(clause.expr.get(), local, &column)) {
              fors.push_back(ForClause{column, clause.position_var});
            }
            break;
          }
          case FlworClause::Kind::kLet:
            local.emplace_back(clause.var, clause.expr.get());
            break;
          case FlworClause::Kind::kWhere:
            SplitDocConjuncts(clause.expr.get(), &wheres);
            break;
          case FlworClause::Kind::kGroupBy:
            break;
        }
      }
      if (fors.empty()) return;
      // before[a][b]: position of for-clause a is strictly less than b's.
      const size_t n = fors.size();
      std::vector<std::vector<bool>> before(n, std::vector<bool>(n, false));
      auto position_index = [&](const DocExpr* var_expr) -> int {
        if (var_expr == nullptr) return -1;
        const DocShape vs = var_expr->Shape();
        if (vs.kind != DocShape::Kind::kVar) return -1;
        for (size_t i = 0; i < n; ++i) {
          if (!fors[i].position_var.empty() &&
              fors[i].position_var == vs.name) {
            return static_cast<int>(i);
          }
        }
        return -1;
      };
      for (const DocExpr* where : wheres) {
        const DocShape ws = where->Shape();
        if (ws.kind != DocShape::Kind::kBin || ws.args.size() != 2) continue;
        int a = -1;
        int b = -1;
        if (ws.bin_op == DocBinOp::kLt) {
          a = position_index(ws.args[0]);
          b = position_index(ws.args[1]);
        } else if (ws.bin_op == DocBinOp::kGt) {
          a = position_index(ws.args[1]);
          b = position_index(ws.args[0]);
        } else {
          continue;
        }
        if (a >= 0 && b >= 0 && a != b &&
            fors[static_cast<size_t>(a)].column ==
                fors[static_cast<size_t>(b)].column) {
          before[static_cast<size_t>(a)][static_cast<size_t>(b)] = true;
        }
      }
      // Longest strict chain per clause (the ordering is a DAG: kLt edges
      // between distinct position counters cannot form a cycle that a
      // non-empty result could satisfy, and memoization caps the walk).
      std::vector<int> longest(n, 0);
      std::function<int(size_t)> chain = [&](size_t u) -> int {
        if (longest[u] > 0) return longest[u];
        int best = 1;
        for (size_t v = 0; v < n; ++v) {
          if (before[u][v] && longest[v] != -1) {
            longest[u] = -1;  // cycle guard: mark in-progress
            best = std::max(best, 1 + chain(v));
          }
        }
        longest[u] = best;
        return best;
      };
      std::vector<std::pair<std::string, int>> column_bound;
      for (size_t i = 0; i < n; ++i) {
        const int len = chain(i);
        bool found = false;
        for (auto& [column, bound] : column_bound) {
          if (column == fors[i].column) {
            bound = std::max(bound, len);
            found = true;
          }
        }
        if (!found) column_bound.emplace_back(fors[i].column, len);
      }
      for (const auto& [column, bound] : column_bound) {
        out->AddMinCount(column, bound);
      }
      // Element conditions on a for-variable's members hold for at least
      // one element whenever the FLWOR yields anything.
      for (const DocExpr* where : wheres) {
        DocBinOp op = DocBinOp::kAdd;
        double lit = 0.0;
        const DocExpr* side =
            MatchDocCmpWithLit(where->Shape(), local, &op, &lit);
        if (side == nullptr) continue;
        const DocShape member = side->Shape();
        if (member.kind != DocShape::Kind::kMember) continue;
        const DocShape root = member.input->Shape();
        if (root.kind != DocShape::Kind::kVar) continue;
        for (const FlworClause& clause : *s.clauses) {
          if (clause.kind != FlworClause::Kind::kFor ||
              clause.var != root.name) {
            continue;
          }
          std::string column;
          double lo = 0.0;
          double hi = 0.0;
          if (MatchDocParticles(clause.expr.get(), local, &column) &&
              DocCmpToRange(op, lit, &lo, &hi)) {
            out->AddItemRange(column + "." + member.name, lo, hi);
          }
          break;
        }
      }
      return;
    }
    default:
      return;
  }
}

void ExtractDocConjunct(const DocExpr* e, const DocEnv& env,
                        ScanPredicateSet* out) {
  e = ResolveDocVar(e, env);
  if (e == nullptr) return;
  const DocShape s = e->Shape();
  if (s.kind == DocShape::Kind::kBin && s.bin_op == DocBinOp::kAnd) {
    ExtractDocConjunct(s.args[0], env, out);
    ExtractDocConjunct(s.args[1], env, out);
    return;
  }
  if (s.kind == DocShape::Kind::kCall && s.name == "exists" &&
      s.args.size() == 1) {
    ExtractDocExists(s.args[0], env, out);
    return;
  }
  DocBinOp op = DocBinOp::kAdd;
  double lit = 0.0;
  const DocExpr* side = MatchDocCmpWithLit(s, env, &op, &lit);
  if (side == nullptr) return;
  double lo = 0.0;
  double hi = 0.0;

  // count(<source>) op literal.
  const DocShape call = side->Shape();
  if (call.kind == DocShape::Kind::kCall && call.name == "count" &&
      call.args.size() == 1) {
    const DocExpr* src = ResolveDocVar(call.args[0], env);
    if (src == nullptr) return;
    std::string column;
    if (MatchDocParticles(src, env, &column)) {
      // Exact cardinality: any comparison maps onto the lengths leaf.
      if (DocCmpToRange(op, lit, &lo, &hi)) {
        out->AddRange(column + "#lengths", lo, hi);
      }
      return;
    }
    const DocShape pred_shape = src->Shape();
    if (pred_shape.kind == DocShape::Kind::kPredicate &&
        MatchDocParticles(pred_shape.input, env, &column)) {
      // count(col[pred]) >= n: at least n elements overall, and at least
      // one of them satisfies every sargable element condition.
      double min_count = 0.0;
      if (op == DocBinOp::kGe) {
        min_count = std::ceil(lit);
      } else if (op == DocBinOp::kGt) {
        min_count = std::floor(lit) + 1.0;
      } else {
        return;
      }
      if (!(min_count >= 1.0) || min_count > 1e9) return;
      out->AddMinCount(column, static_cast<int64_t>(min_count));
      ExtractDocItemRanges(pred_shape.predicate, column, env, out);
    }
    return;
  }

  // <scalar leaf> op literal.
  std::string path;
  if (MatchDocScalarLeaf(side, env, &path) &&
      DocCmpToRange(op, lit, &lo, &hi)) {
    out->AddRange(path, lo, hi);
  }
}

/// Sargable residue of the query guard (empty when there is no guard or
/// nothing matches): necessary conditions every selected event satisfies.
ScanPredicateSet ExtractDocScanPredicates(const DocQuery& query) {
  ScanPredicateSet out;
  if (query.guard == nullptr) return out;
  DocEnv env;
  env.reserve(query.lets.size());
  for (const auto& [name, expr] : query.lets) {
    env.emplace_back(name, expr.get());
  }
  std::vector<const DocExpr*> conjuncts;
  SplitDocConjuncts(query.guard.get(), &conjuncts);
  for (const DocExpr* conjunct : conjuncts) {
    ExtractDocConjunct(conjunct, env, &out);
  }
  return out;
}

}  // namespace

Result<DocQueryResult> RunDocQuery(const std::string& path,
                                   ReaderOptions reader_options,
                                   int num_threads, const DocQuery& query) {
  obs::ScopedSpan run_span("run", obs::Stage::kRun);
  DocQueryResult result = EmptyResult(query);
  Stopwatch wall;
  const double cpu0 = ProcessCpuSeconds();

  exec::DatasetScan scan;
  HEPQ_ASSIGN_OR_RETURN(scan, exec::DatasetScan::Open(path, reader_options));
  // Full-width read unless the query carries a projection (Rumble only
  // pushes projections for the simplest queries, paper Figure 4b).
  std::vector<std::string> projection = query.projection;
  if (projection.empty()) {
    for (const Field& f : scan.layout().schema.fields()) {
      projection.push_back(f.name);
    }
  }
  const ScanPredicateSet preds = ExtractDocScanPredicates(query);
  std::vector<DocQueryResult> partials(scan.layout().groups.size());
  for (DocQueryResult& p : partials) p = EmptyResult(query);
  HEPQ_ASSIGN_OR_RETURN(
      result.scan,
      scan.Run(num_threads, [&](const exec::ScanGroup& sg) -> Status {
        RecordBatchPtr batch;
        HEPQ_ASSIGN_OR_RETURN(
            batch, sg.reader->ReadRowGroupFiltered(sg.loc->local_group,
                                                   projection, preds,
                                                   sg.scratch));
        DocQueryResult& partial = partials[static_cast<size_t>(sg.group)];
        if (batch == nullptr) {
          // Zone maps proved no event in this group can pass the guard:
          // everything counts as processed-but-unselected.
          partial.events_processed += sg.loc->num_rows;
          return Status::OK();
        }
        return RunBatch(query, *batch, &partial);
      }));
  HEPQ_RETURN_NOT_OK(exec::FoldGroups(
      scan.layout(), [&] { return EmptyResult(query); },
      [&](DocQueryResult* file_total, int g) {
        return MergeResult(file_total, partials[static_cast<size_t>(g)]);
      },
      [&](const DocQueryResult& file_total) {
        return MergeResult(&result, file_total);
      }));

  result.wall_seconds = wall.Seconds();
  result.cpu_seconds = ProcessCpuSeconds() - cpu0;
  return result;
}

}  // namespace hepq::doc
