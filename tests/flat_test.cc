#include <gtest/gtest.h>

#include "columnar/builder.h"
#include "engine/flat.h"
#include "fileio/writer.h"

namespace hepq::engine {
namespace {

/// `ScalarRef` of flat column `name`, interned in `pipeline`.
ExprPtr Col(FlatPipeline& pipeline, const std::string& name) {
  return ScalarRef(pipeline.Column(name));
}

/// Writes a three-event file:
///   event 0: MET 10; jets (pt): 50, 10, 45
///   event 1: MET 20; jets: 20
///   event 2: MET 30; jets: (none)
const std::string& TinyFile() {
  static const auto& path = *new std::string([] {
    auto schema = std::make_shared<Schema>(std::vector<Field>{
        {"MET", DataType::Struct({{"pt", DataType::Float32()}})},
        {"Jet", DataType::List(DataType::Struct(
                    {{"pt", DataType::Float32()},
                     {"eta", DataType::Float32()}}))},
    });
    auto met = StructArray::Make({{"pt", DataType::Float32()}},
                                 {MakeFloat32Array({10, 20, 30})})
                   .ValueOrDie();
    auto jets = MakeListOfStructArray(
                    {{"pt", DataType::Float32()},
                     {"eta", DataType::Float32()}},
                    {0, 3, 4, 4},
                    {MakeFloat32Array({50, 10, 45, 20}),
                     MakeFloat32Array({0.5f, -2.0f, 1.5f, 0.0f})})
                    .ValueOrDie();
    auto batch = RecordBatch::Make(schema, {met, jets}).ValueOrDie();
    const std::string file = ::testing::TempDir() + "/flat_tiny.laq";
    WriteLaqFile(file, schema, {RecordBatchPtr(batch)}).Check();
    return file;
  }());
  return path;
}

TEST(FlatPipelineTest, NoUnnestFillsPerEvent) {
  FlatPipeline pipeline("q1");
  pipeline.AddKeepScalar("MET.pt");
  pipeline.AddHistogram({"met", "", 10, 0, 100}, Col(pipeline, "MET.pt"));
  auto result = pipeline.Execute(TinyFile(), ReaderOptions{}, 1).ValueOrDie();
  EXPECT_EQ(result.events_processed, 3);
  EXPECT_EQ(result.rows_materialized, 3u);
  EXPECT_EQ(result.histograms[0].num_entries(), 3u);
  EXPECT_DOUBLE_EQ(result.histograms[0].mean(), 20.0);
}

TEST(FlatPipelineTest, UnnestDropsParticleFreeEvents) {
  FlatPipeline pipeline("unnest");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
  pipeline.AddHistogram({"pt", "", 10, 0, 100}, Col(pipeline, "j.pt"));
  auto result = pipeline.Execute(TinyFile(), ReaderOptions{}, 1).ValueOrDie();
  // Inner-join semantics of CROSS JOIN UNNEST: event 2 vanishes.
  EXPECT_EQ(result.rows_materialized, 4u);
  EXPECT_EQ(result.histograms[0].num_entries(), 4u);
}

TEST(FlatPipelineTest, FilterThenProjectInRegistrationOrder) {
  FlatPipeline pipeline("chain");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
  pipeline.AddFilter(Gt(Col(pipeline, "j.pt"), Lit(15.0)));
  pipeline.AddProject("double_pt", Mul(Col(pipeline, "j.pt"), Lit(2.0)));
  pipeline.AddFilter(Lt(Col(pipeline, "double_pt"), Lit(95.0)));
  pipeline.AddHistogram({"pt", "", 10, 0, 200}, Col(pipeline, "double_pt"));
  auto result = pipeline.Execute(TinyFile(), ReaderOptions{}, 1).ValueOrDie();
  // 50, 45, 20 pass the first filter; doubled: 100, 90, 40; < 95: 90, 40.
  EXPECT_EQ(result.histograms[0].num_entries(), 2u);
  EXPECT_DOUBLE_EQ(result.histograms[0].mean(), 65.0);
}

TEST(FlatPipelineTest, GroupByEventAggregates) {
  FlatPipeline pipeline("agg");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
  pipeline.AddKeepScalar("MET.pt");
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kCount, "", "", "n"});
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kSum, "j.pt", "", "sum"});
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kMin, "j.pt", "", "lo"});
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kMax, "j.pt", "", "hi"});
  pipeline.AddAggregate(
      FlatAggSpec{FlatAggKind::kFirst, "MET.pt", "", "met"});
  pipeline.AddAggregate(
      FlatAggSpec{FlatAggKind::kMinBy, "j.pt", "j.idx", "first_jet_pt"});
  // One histogram per aggregate output to observe each value.
  pipeline.AddHistogram({"n", "", 10, 0, 10}, Col(pipeline, "n"));
  pipeline.AddHistogram({"sum", "", 10, 0, 200}, Col(pipeline, "sum"));
  pipeline.AddHistogram({"met", "", 10, 0, 100}, Col(pipeline, "met"));
  pipeline.AddHistogram({"fj", "", 10, 0, 100}, Col(pipeline, "first_jet_pt"));
  auto result = pipeline.Execute(TinyFile(), ReaderOptions{}, 1).ValueOrDie();
  EXPECT_EQ(result.groups, 2);  // events 0 and 1
  // n: {3, 1} -> mean 2; sum: {105, 20}; met: {10, 20};
  // min_by idx -> first jet pt {50, 20}.
  EXPECT_DOUBLE_EQ(result.histograms[0].mean(), 2.0);
  EXPECT_DOUBLE_EQ(result.histograms[1].mean(), 62.5);
  EXPECT_DOUBLE_EQ(result.histograms[2].mean(), 15.0);
  EXPECT_DOUBLE_EQ(result.histograms[3].mean(), 35.0);
}

TEST(FlatPipelineTest, HavingFiltersGroups) {
  FlatPipeline pipeline("having");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
  pipeline.AddKeepScalar("MET.pt");
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kCount, "", "", "n"});
  pipeline.AddAggregate(
      FlatAggSpec{FlatAggKind::kFirst, "MET.pt", "", "met"});
  pipeline.AddHaving(Ge(Col(pipeline, "n"), Lit(2.0)));
  pipeline.AddHistogram({"met", "", 10, 0, 100}, Col(pipeline, "met"));
  auto result = pipeline.Execute(TinyFile(), ReaderOptions{}, 1).ValueOrDie();
  EXPECT_EQ(result.histograms[0].num_entries(), 1u);
  EXPECT_DOUBLE_EQ(result.histograms[0].mean(), 10.0);
}

TEST(FlatPipelineTest, SelfJoinProducesFullProduct) {
  FlatPipeline pipeline("pairs");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "a"});
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "b"});
  pipeline.AddHistogram({"x", "", 10, 0, 200},
                        Add(Col(pipeline, "a.pt"), Col(pipeline, "b.pt")));
  auto result = pipeline.Execute(TinyFile(), ReaderOptions{}, 1).ValueOrDie();
  // Full Cartesian product per event: 3*3 + 1*1 = 10 rows (the plan-shape
  // cost the WHERE idx filter would then cut down).
  EXPECT_EQ(result.rows_materialized, 10u);
}

TEST(FlatPipelineTest, OrdinalsAreZeroBasedPerEvent) {
  FlatPipeline pipeline("ord");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
  pipeline.AddFilter(Eq(Col(pipeline, "j.idx"), Lit(0.0)));
  pipeline.AddHistogram({"lead", "", 10, 0, 100}, Col(pipeline, "j.pt"));
  auto result = pipeline.Execute(TinyFile(), ReaderOptions{}, 1).ValueOrDie();
  // Leading jets: 50 (event 0) and 20 (event 1).
  EXPECT_EQ(result.histograms[0].num_entries(), 2u);
  EXPECT_DOUBLE_EQ(result.histograms[0].mean(), 35.0);
}

TEST(FlatPipelineTest, UnknownColumnFailsAtPreparation) {
  FlatPipeline pipeline("bad");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
  pipeline.AddHistogram({"x", "", 10, 0, 1}, Col(pipeline, "j.nope"));
  EXPECT_EQ(pipeline.Execute(TinyFile(), ReaderOptions{}, 1).status().code(),
            StatusCode::kKeyError);
}

TEST(FlatPipelineTest, ColumnsInternToOneSlotPerName) {
  FlatPipeline pipeline("slots");
  const int pt = pipeline.Column("j.pt");
  EXPECT_EQ(pipeline.Column("j.eta"), pt + 1);
  EXPECT_EQ(pipeline.Column("j.pt"), pt);
}

TEST(FlatPipelineTest, HavingReadsOnlyAggregateOutputs) {
  // Grouped HAVING runs over the aggregate output, where flat-row columns
  // no longer exist.
  FlatPipeline pipeline("bad");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kCount, "", "", "n"});
  pipeline.AddHaving(Gt(Col(pipeline, "j.pt"), Lit(0.0)));
  pipeline.AddHistogram({"x", "", 10, 0, 1}, Col(pipeline, "n"));
  EXPECT_EQ(pipeline.Execute(TinyFile(), ReaderOptions{}, 1).status().code(),
            StatusCode::kKeyError);
}

TEST(FlatPipelineTest, IteratorMemberIsInvalid) {
  // Flat rows bind no particle lists, so iterator members cannot resolve.
  FlatPipeline pipeline("bad");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
  pipeline.AddHistogram({"x", "", 10, 0, 1}, IterMember(0, 0, 0));
  EXPECT_EQ(pipeline.Execute(TinyFile(), ReaderOptions{}, 1).status().code(),
            StatusCode::kInvalid);
}

TEST(FlatPipelineTest, InterpretedAndCompiledTiersAgree) {
  for (const ExprExec exec : {ExprExec::kInterpreted, ExprExec::kSimd}) {
    FlatPipeline pipeline("tiers");
    pipeline.AddUnnest(UnnestList{"Jet", {"pt", "eta"}, "j"});
    pipeline.AddFilter(Gt(Col(pipeline, "j.pt"), Lit(15.0)));
    pipeline.AddProject("x",
                        Mul(Col(pipeline, "j.pt"), Col(pipeline, "j.eta")));
    pipeline.AddFilter(Lt(Col(pipeline, "x"), Lit(70.0)));
    pipeline.AddHistogram({"x", "", 10, -100, 100}, Col(pipeline, "x"));
    pipeline.set_expr_exec(exec);
    auto result =
        pipeline.Execute(TinyFile(), ReaderOptions{}, 1).ValueOrDie();
    // 50*0.5, 45*1.5, 20*0 pass the first filter: 25, 67.5, 0 (all < 70).
    EXPECT_EQ(result.histograms[0].num_entries(), 3u);
    EXPECT_DOUBLE_EQ(result.histograms[0].mean(), 92.5 / 3.0);
  }
}

TEST(FlatPipelineTest, HavingWithoutAggregatesIsInvalid) {
  FlatPipeline pipeline("bad");
  pipeline.AddKeepScalar("MET.pt");
  pipeline.AddHaving(Gt(Col(pipeline, "MET.pt"), Lit(0.0)));
  pipeline.AddHistogram({"x", "", 10, 0, 1}, Col(pipeline, "MET.pt"));
  EXPECT_EQ(pipeline.Execute(TinyFile(), ReaderOptions{}, 1).status().code(),
            StatusCode::kInvalid);
}

TEST(FlatPipelineTest, ProjectionCoversUnnestsAndScalars) {
  FlatPipeline pipeline("proj");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt", "eta"}, "j"});
  pipeline.AddKeepScalar("MET.pt");
  EXPECT_EQ(pipeline.Projection(),
            (std::vector<std::string>{"Jet.pt", "Jet.eta", "MET.pt"}));
}

}  // namespace
}  // namespace hepq::engine
