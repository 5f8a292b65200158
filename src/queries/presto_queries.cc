#include "engine/flat.h"
#include "queries/adl.h"
#include "queries/builders.h"

namespace hepq::queries {

namespace {

using engine::Abs;
using engine::And;
using engine::Call;
using engine::ExprPtr;
using engine::FlatAggKind;
using engine::FlatAggSpec;
using engine::FlatPipeline;
using engine::Fn;
using engine::Ge;
using engine::Gt;
using engine::Lit;
using engine::Lt;
using engine::Ne;
using engine::Sub;
using engine::UnnestList;

/// `ScalarRef` of a flat column, interned in `pipeline`.
ExprPtr Col(FlatPipeline* pipeline, const std::string& name) {
  return engine::ScalarRef(pipeline->Column(name));
}

std::vector<ExprPtr> Kinematics(FlatPipeline* pipeline,
                                const std::vector<std::string>& aliases) {
  std::vector<ExprPtr> out;
  for (const std::string& alias : aliases) {
    for (const char* member : {".pt", ".eta", ".phi", ".mass"}) {
      out.push_back(Col(pipeline, alias + member));
    }
  }
  return out;
}

}  // namespace

Result<engine::FlatPipeline> BuildAdlFlatPipeline(int q) {
  const std::vector<HistogramSpec> specs = AdlHistogramSpecs(q);
  FlatPipeline pipeline("adl_q" + std::to_string(q) + "_flat");
  FlatPipeline* p = &pipeline;
  switch (q) {
    case 1: {
      // SELECT HistogramBin(MET.pt) ... GROUP BY bin — no unnesting.
      pipeline.AddKeepScalar("MET.pt");
      pipeline.AddHistogram(specs[0], Col(p, "MET.pt"));
      return pipeline;
    }
    case 2: {
      // SELECT j.pt FROM events CROSS JOIN UNNEST(Jet) AS j.
      pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
      pipeline.AddHistogram(specs[0], Col(p, "j.pt"));
      return pipeline;
    }
    case 3: {
      pipeline.AddUnnest(UnnestList{"Jet", {"pt", "eta"}, "j"});
      pipeline.AddFilter(Lt(Abs(Col(p, "j.eta")), Lit(1.0)));
      pipeline.AddHistogram(specs[0], Col(p, "j.pt"));
      return pipeline;
    }
    case 4: {
      // Listing 4b: unnest, filter, GROUP BY event HAVING COUNT(*) >= 2.
      pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
      pipeline.AddKeepScalar("MET.pt");
      pipeline.AddFilter(Gt(Col(p, "j.pt"), Lit(40.0)));
      pipeline.AddAggregate(
          FlatAggSpec{FlatAggKind::kCount, "", "", "n_jets"});
      pipeline.AddAggregate(
          FlatAggSpec{FlatAggKind::kFirst, "MET.pt", "", "met"});
      pipeline.AddHaving(Ge(Col(p, "n_jets"), Lit(2.0)));
      pipeline.AddHistogram(specs[0], Col(p, "met"));
      return pipeline;
    }
    case 5: {
      // Listing 6b: self cross join with ordinality, idx1 < idx2 in WHERE.
      pipeline.AddUnnest(
          UnnestList{"Muon", {"pt", "eta", "phi", "mass", "charge"}, "m1"});
      pipeline.AddUnnest(
          UnnestList{"Muon", {"pt", "eta", "phi", "mass", "charge"}, "m2"});
      pipeline.AddKeepScalar("MET.pt");
      pipeline.AddFilter(Lt(Col(p, "m1.idx"), Col(p, "m2.idx")));
      pipeline.AddFilter(Ne(Col(p, "m1.charge"), Col(p, "m2.charge")));
      pipeline.AddProject("pair_mass",
                          Call(Fn::kInvMass2, Kinematics(p, {"m1", "m2"})));
      pipeline.AddFilter(And(Gt(Col(p, "pair_mass"), Lit(60.0)),
                             Lt(Col(p, "pair_mass"), Lit(120.0))));
      pipeline.AddAggregate(
          FlatAggSpec{FlatAggKind::kCount, "", "", "n_pairs"});
      pipeline.AddAggregate(
          FlatAggSpec{FlatAggKind::kFirst, "MET.pt", "", "met"});
      pipeline.AddHaving(Ge(Col(p, "n_pairs"), Lit(1.0)));
      pipeline.AddHistogram(specs[0], Col(p, "met"));
      return pipeline;
    }
    case 6: {
      // Triple self cross join; the full n^3 product is materialized and
      // the i<j<k restriction applied in WHERE — the plan shape that made
      // Q6 intractable on Presto in the paper (run on 1/4 of the data).
      const std::vector<std::string> members = {"pt", "eta", "phi", "mass",
                                                "btag"};
      pipeline.AddUnnest(UnnestList{"Jet", members, "j1"});
      pipeline.AddUnnest(UnnestList{"Jet", members, "j2"});
      pipeline.AddUnnest(UnnestList{"Jet", members, "j3"});
      pipeline.AddFilter(And(Lt(Col(p, "j1.idx"), Col(p, "j2.idx")),
                             Lt(Col(p, "j2.idx"), Col(p, "j3.idx"))));
      const std::vector<ExprPtr> trijet = Kinematics(p, {"j1", "j2", "j3"});
      pipeline.AddProject(
          "mass_diff",
          Abs(Sub(Call(Fn::kInvMass3, trijet), Lit(172.5))));
      pipeline.AddProject("trijet_pt", Call(Fn::kSumPt3, trijet));
      pipeline.AddProject(
          "max_btag",
          Call(Fn::kMax2,
               {Call(Fn::kMax2, {Col(p, "j1.btag"), Col(p, "j2.btag")}),
                Col(p, "j3.btag")}));
      pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kMinBy, "trijet_pt",
                                        "mass_diff", "best_pt"});
      pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kMinBy, "max_btag",
                                        "mass_diff", "best_btag"});
      pipeline.AddHistogram(specs[0], Col(p, "best_pt"));
      pipeline.AddHistogram(specs[1], Col(p, "best_btag"));
      return pipeline;
    }
    default:
      // Q7/Q8 need correlated anti-joins across two particle arrays; the
      // idiomatic Presto implementations use array functions (FILTER /
      // CARDINALITY), i.e. the per-event expression plan.
      return Status::NotImplemented(
          "no idiomatic UNNEST plan for this query; use the array-function "
          "fallback");
  }
}

Result<QueryRunOutput> RunAdlQueryPresto(int q, const std::string& path,
                                         const RunOptions& options) {
  // Presto/Athena cannot push projections into structs (Java Parquet
  // limitation, paper §4.3): every member of a touched struct is read.
  ReaderOptions reader_options;
  reader_options.struct_projection_pushdown = false;
  reader_options.validate_checksums = options.validate_checksums;
  reader_options.scan_pushdown = options.scan_pushdown;
  reader_options.late_materialization = options.late_materialization;
  reader_options.footer_cache = options.footer_cache;
  reader_options.chunk_cache = options.chunk_cache;

  QueryRunOutput out;
  auto flat_result = BuildAdlFlatPipeline(q);
  if (flat_result.ok()) {
    flat_result->set_expr_exec(ExprExecFor(options.vexpr_tier));
    engine::FlatQueryResult result;
    HEPQ_ASSIGN_OR_RETURN(
        result,
        flat_result->Execute(path, reader_options, options.num_threads));
    out.histograms = std::move(result.histograms);
    out.events_processed = result.events_processed;
    out.wall_seconds = result.wall_seconds;
    out.cpu_seconds = result.cpu_seconds;
    out.ops = result.rows_materialized;
    out.scan = result.scan;
    return out;
  }
  if (flat_result.status().code() != StatusCode::kNotImplemented) {
    return flat_result.status();
  }
  engine::EventQuery query("");
  HEPQ_ASSIGN_OR_RETURN(query, BuildAdlEventQuery(q));
  query.set_expr_exec(ExprExecFor(options.vexpr_tier));
  engine::EventQueryResult result;
  HEPQ_ASSIGN_OR_RETURN(
      result, query.Execute(path, reader_options, options.num_threads));
  out.histograms = std::move(result.histograms);
  out.events_processed = result.events_processed;
  out.wall_seconds = result.wall_seconds;
  out.cpu_seconds = result.cpu_seconds;
  out.ops = result.ops;
  out.scan = result.scan;
  return out;
}

}  // namespace hepq::queries
