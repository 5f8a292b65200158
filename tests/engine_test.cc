#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "columnar/builder.h"
#include "datagen/dataset.h"
#include "engine/event_query.h"
#include "engine/flat.h"
#include "fileio/writer.h"

namespace hepq::engine {
namespace {

/// Two-event batch:
///   event 0: MET.pt = 25; jets (pt, q): (50, 1), (10, -1), (45, 1)
///   event 1: MET.pt = 60; jets: (20, -1)
RecordBatchPtr TinyBatch() {
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"MET", DataType::Struct({{"pt", DataType::Float32()}})},
      {"Jet", DataType::List(DataType::Struct(
                  {{"pt", DataType::Float32()},
                   {"charge", DataType::Int32()}}))},
  });
  auto met = StructArray::Make({{"pt", DataType::Float32()}},
                               {MakeFloat32Array({25.0f, 60.0f})})
                 .ValueOrDie();
  auto jets = MakeListOfStructArray(
                  {{"pt", DataType::Float32()},
                   {"charge", DataType::Int32()}},
                  {0, 3, 4},
                  {MakeFloat32Array({50, 10, 45, 20}),
                   MakeInt32Array({1, -1, 1, -1})})
                  .ValueOrDie();
  return RecordBatch::Make(schema, {met, jets}).ValueOrDie();
}

class ExprTest : public ::testing::Test {
 protected:
  void SetUp() override {
    batch_ = TinyBatch();
    bindings_ = std::make_unique<BatchBindings>(
        BatchBindings::Bind(*batch_, {{"Jet", {"pt", "charge"}, {}}},
                            {{"MET.pt"}})
            .ValueOrDie());
    ctx_.bindings = bindings_.get();
  }

  double Eval(const ExprPtr& e, uint32_t row) {
    ctx_.row = row;
    return e->Eval(&ctx_);
  }

  RecordBatchPtr batch_;
  std::unique_ptr<BatchBindings> bindings_;
  EvalContext ctx_;
};

TEST_F(ExprTest, LiteralsAndScalars) {
  EXPECT_DOUBLE_EQ(Eval(Lit(3.5), 0), 3.5);
  EXPECT_DOUBLE_EQ(Eval(ScalarRef(0), 0), 25.0);
  EXPECT_DOUBLE_EQ(Eval(ScalarRef(0), 1), 60.0);
}

TEST_F(ExprTest, BinaryOperators) {
  EXPECT_DOUBLE_EQ(Eval(Add(Lit(2), Lit(3)), 0), 5.0);
  EXPECT_DOUBLE_EQ(Eval(Sub(Lit(2), Lit(3)), 0), -1.0);
  EXPECT_DOUBLE_EQ(Eval(Mul(Lit(2), Lit(3)), 0), 6.0);
  EXPECT_DOUBLE_EQ(Eval(Bin(BinOp::kDiv, Lit(3), Lit(2)), 0), 1.5);
  EXPECT_DOUBLE_EQ(Eval(Lt(Lit(1), Lit(2)), 0), 1.0);
  EXPECT_DOUBLE_EQ(Eval(Ge(Lit(2), Lit(2)), 0), 1.0);
  EXPECT_DOUBLE_EQ(Eval(Eq(Lit(2), Lit(3)), 0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(And(Lit(1), Lit(0)), 0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(Or(Lit(1), Lit(0)), 0), 1.0);
  EXPECT_DOUBLE_EQ(Eval(Not(Lit(0)), 0), 1.0);
}

TEST_F(ExprTest, ListSizeAndAggregates) {
  EXPECT_DOUBLE_EQ(Eval(ListSize(0), 0), 3.0);
  EXPECT_DOUBLE_EQ(Eval(ListSize(0), 1), 1.0);
  // count jets with pt > 40
  const ExprPtr count = AggOverList(
      AggKind::kCount, 0, 0, Gt(IterMember(0, 0, 0), Lit(40.0)), nullptr);
  EXPECT_DOUBLE_EQ(Eval(count, 0), 2.0);
  EXPECT_DOUBLE_EQ(Eval(count, 1), 0.0);
  // sum of all pts
  const ExprPtr sum =
      AggOverList(AggKind::kSum, 0, 0, nullptr, IterMember(0, 0, 0));
  EXPECT_DOUBLE_EQ(Eval(sum, 0), 105.0);
  // min / max
  EXPECT_DOUBLE_EQ(
      Eval(AggOverList(AggKind::kMin, 0, 0, nullptr, IterMember(0, 0, 0)),
           0),
      10.0);
  EXPECT_DOUBLE_EQ(
      Eval(AggOverList(AggKind::kMax, 0, 0, nullptr, IterMember(0, 0, 0)),
           0),
      50.0);
  // any with negative charge
  EXPECT_DOUBLE_EQ(
      Eval(AggOverList(AggKind::kAny, 0, 0,
                       Lt(IterMember(0, 0, 1), Lit(0.0)), nullptr),
           0),
      1.0);
}

TEST_F(ExprTest, OpsCounterCountsElementVisits) {
  ctx_.ops = 0;
  Eval(AggOverList(AggKind::kCount, 0, 0, nullptr, nullptr), 0);
  EXPECT_EQ(ctx_.ops, 3u);
}

TEST_F(ExprTest, AnyCombinationFindsOppositeChargePair) {
  // Pair of jets with opposite charge and both pt > 15.
  const ExprPtr any = AnyCombination(
      {{0, 0}, {0, 1}},
      And(Ne(IterMember(0, 0, 1), IterMember(0, 1, 1)),
          And(Gt(IterMember(0, 0, 0), Lit(15.0)),
              Gt(IterMember(0, 1, 0), Lit(15.0)))));
  // Event 0 pairs: (50,10) q opp but 10<15; (50,45) same q; (10,45) opp but
  // 10 < 15 -> no match.
  EXPECT_DOUBLE_EQ(Eval(any, 0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(any, 1), 0.0);  // single jet, no pair
}

TEST_F(ExprTest, SymmetricCombinationCount) {
  ctx_.ops = 0;
  ctx_.row = 0;
  const ExprPtr all_pairs = AnyCombination({{0, 0}, {0, 1}}, Lit(0.0));
  EXPECT_DOUBLE_EQ(all_pairs->Eval(&ctx_), 0.0);
  EXPECT_EQ(ctx_.ops, 3u);  // C(3,2) pairs explored
}

TEST_F(ExprTest, BestCombinationBindsWinningPair) {
  // Pair with the largest pt sum: maximize = minimize negated sum.
  const ExprPtr best = BestCombination(
      {{0, 0}, {0, 1}}, nullptr,
      Sub(Lit(0.0), Add(IterMember(0, 0, 0), IterMember(0, 1, 0))));
  ctx_.row = 0;
  ASSERT_DOUBLE_EQ(best->Eval(&ctx_), 1.0);
  // Winners: jets 0 (pt 50) and 2 (pt 45).
  EXPECT_DOUBLE_EQ(IterMember(0, 0, 0)->Eval(&ctx_), 50.0);
  EXPECT_DOUBLE_EQ(IterMember(0, 1, 0)->Eval(&ctx_), 45.0);
  EXPECT_DOUBLE_EQ(IterOrdinal(0, 0)->Eval(&ctx_), 0.0);
  EXPECT_DOUBLE_EQ(IterOrdinal(0, 1)->Eval(&ctx_), 2.0);
}

TEST_F(ExprTest, BestCombinationRespectsFilter) {
  const ExprPtr best =
      BestCombination({{0, 0}, {0, 1}}, Lit(0.0), Lit(1.0));
  ctx_.row = 0;
  EXPECT_DOUBLE_EQ(best->Eval(&ctx_), 0.0);  // filter rejects everything
}

TEST_F(ExprTest, BestElementPicksExtremum) {
  const ExprPtr best =
      BestElement(0, 2, nullptr, Sub(Lit(0.0), IterMember(0, 2, 0)));
  ctx_.row = 0;
  ASSERT_DOUBLE_EQ(best->Eval(&ctx_), 1.0);
  EXPECT_DOUBLE_EQ(IterMember(0, 2, 0)->Eval(&ctx_), 50.0);
}

TEST_F(ExprTest, PhysicsFunctions) {
  EXPECT_NEAR(Eval(Call(Fn::kDeltaPhi, {Lit(0.5), Lit(0.2)}), 0), 0.3,
              1e-12);
  EXPECT_NEAR(Eval(Call(Fn::kInvMass2,
                        {Lit(40), Lit(0), Lit(0), Lit(0), Lit(40), Lit(0),
                         Lit(M_PI), Lit(0)}),
                   0),
              80.0, 1e-9);
  EXPECT_NEAR(Eval(Call(Fn::kTransverseMass,
                        {Lit(25), Lit(0), Lit(25), Lit(M_PI)}),
                   0),
              50.0, 1e-9);
}

TEST(BindingsTest, ErrorsOnUnknownColumnsAndMembers) {
  auto batch = TinyBatch();
  EXPECT_FALSE(BatchBindings::Bind(*batch, {{"Nope", {"pt"}, {}}}, {}).ok());
  EXPECT_FALSE(
      BatchBindings::Bind(*batch, {{"Jet", {"nope"}, {}}}, {}).ok());
  EXPECT_FALSE(BatchBindings::Bind(*batch, {{"MET", {"pt"}, {}}}, {}).ok());
  EXPECT_FALSE(BatchBindings::Bind(*batch, {}, {{"nope"}}).ok());
  EXPECT_FALSE(BatchBindings::Bind(*batch, {}, {{"MET.nope"}}).ok());
}

TEST(BindingsTest, UnionListConcatenatesSources) {
  auto batch = TinyBatch();
  // Union of Jet with itself, tagging the copies 0 / 1.
  auto bindings =
      BatchBindings::Bind(*batch,
                          {{"Both",
                            {"pt", "tag"},
                            {UnionSource{"Jet", {"pt"}, 0.0},
                             UnionSource{"Jet", {"pt"}, 1.0}}}},
                          {})
          .ValueOrDie();
  const ListBinding& both = bindings.list(0);
  EXPECT_EQ(both.size(0), 6u);
  EXPECT_EQ(both.size(1), 2u);
  // First three from copy 0, next three from copy 1.
  EXPECT_DOUBLE_EQ(both.members[0].Get(0), 50.0);
  EXPECT_DOUBLE_EQ(both.members[1].Get(0), 0.0);
  EXPECT_DOUBLE_EQ(both.members[0].Get(3), 50.0);
  EXPECT_DOUBLE_EQ(both.members[1].Get(3), 1.0);
}

// ---------------------------------------------------------------------------
// EventQuery
// ---------------------------------------------------------------------------

TEST(EventQueryTest, GuardAndScalarFill) {
  EventQuery query("test");
  const int jets = query.DeclareList("Jet", {"pt"});
  const int met = query.DeclareScalar("MET.pt");
  query.AddStage(Ge(ListSize(jets), Lit(2.0)));
  query.AddHistogram({"met", "", 10, 0, 100}, ScalarRef(met));
  EventQueryResult result = query.MakeResult();
  ASSERT_TRUE(query.ExecuteBatch(*TinyBatch(), &result).ok());
  EXPECT_EQ(result.events_processed, 2);
  EXPECT_EQ(result.events_selected, 1);  // only event 0 has >= 2 jets
  EXPECT_EQ(result.histograms[0].num_entries(), 1u);
  EXPECT_DOUBLE_EQ(result.histograms[0].mean(), 25.0);
}

TEST(EventQueryTest, PerElementFill) {
  EventQuery query("test");
  const int jets = query.DeclareList("Jet", {"pt"});
  query.AddPerElementHistogram({"pt", "", 10, 0, 100}, jets, 0,
                               Gt(IterMember(jets, 0, 0), Lit(15.0)),
                               IterMember(jets, 0, 0));
  EventQueryResult result = query.MakeResult();
  ASSERT_TRUE(query.ExecuteBatch(*TinyBatch(), &result).ok());
  EXPECT_EQ(result.histograms[0].num_entries(), 3u);  // 50, 45, 20
}

TEST(EventQueryTest, PerCombinationFill) {
  EventQuery query("pairs");
  const int jets = query.DeclareList("Jet", {"pt"});
  // One entry per unordered jet pair, value = pt sum, no filter.
  query.AddPerCombinationHistogram(
      {"pairs", "", 10, 0, 200}, {{jets, 0}, {jets, 1}},
      /*filter=*/nullptr,
      Add(IterMember(jets, 0, 0), IterMember(jets, 1, 0)));
  EventQueryResult result = query.MakeResult();
  ASSERT_TRUE(query.ExecuteBatch(*TinyBatch(), &result).ok());
  // Event 0: C(3,2) = 3 pairs (60, 95, 55); event 1: single jet, none.
  EXPECT_EQ(result.histograms[0].num_entries(), 3u);
  EXPECT_DOUBLE_EQ(result.histograms[0].mean(), 70.0);
}

TEST(EventQueryTest, PerCombinationFillRespectsFilter) {
  EventQuery query("pairs");
  const int jets = query.DeclareList("Jet", {"pt", "charge"});
  query.AddPerCombinationHistogram(
      {"os", "", 10, 0, 200}, {{jets, 0}, {jets, 1}},
      Ne(IterMember(jets, 0, 1), IterMember(jets, 1, 1)),
      Add(IterMember(jets, 0, 0), IterMember(jets, 1, 0)));
  EventQueryResult result = query.MakeResult();
  ASSERT_TRUE(query.ExecuteBatch(*TinyBatch(), &result).ok());
  // Opposite-charge pairs in event 0: (50,10) and (10,45) -> 2 entries.
  EXPECT_EQ(result.histograms[0].num_entries(), 2u);
}

TEST(EventQueryTest, PerCombinationFillCountsOps) {
  EventQuery query("pairs");
  const int jets = query.DeclareList("Jet", {"pt"});
  query.AddPerCombinationHistogram(
      {"pairs", "", 10, 0, 200}, {{jets, 0}, {jets, 1}}, nullptr,
      IterMember(jets, 0, 0));
  EventQueryResult result = query.MakeResult();
  ASSERT_TRUE(query.ExecuteBatch(*TinyBatch(), &result).ok());
  // 2 base accesses + 3 pair evaluations (event 1 has no pair).
  EXPECT_EQ(result.ops, 5u);
}

TEST(EventQueryTest, ProjectionListsDeclaredLeaves) {
  EventQuery query("test");
  query.DeclareList("Jet", {"pt", "eta"});
  query.DeclareScalar("MET.pt");
  EXPECT_EQ(query.Projection(),
            (std::vector<std::string>{"Jet.pt", "Jet.eta", "MET.pt"}));
}

TEST(EventQueryTest, UnionProjectionListsSourceLeaves) {
  EventQuery query("test");
  query.DeclareUnionList("Lepton", {"pt", "flavor"},
                         {UnionSource{"Electron", {"pt"}, 0.0},
                          UnionSource{"Muon", {"pt"}, 1.0}});
  EXPECT_EQ(query.Projection(),
            (std::vector<std::string>{"Electron.pt", "Muon.pt"}));
}

TEST(ExplainTest, ExprToStringRendersTree) {
  EXPECT_EQ(Lit(2.5)->ToString(), "2.5");
  EXPECT_EQ(ScalarRef(1)->ToString(), "scalar1");
  EXPECT_EQ(IterMember(0, 2, 3)->ToString(), "it2.m3");
  EXPECT_EQ(Add(Lit(1), Lit(2))->ToString(), "(1 + 2)");
  EXPECT_EQ(And(Lit(1), Lit(0))->ToString(), "(1 AND 0)");
  EXPECT_EQ(Abs(Lit(-3))->ToString(), "abs(-3)");
  EXPECT_EQ(ListSize(0)->ToString(), "cardinality(list0)");
  EXPECT_EQ(IterOrdinal(0, 1)->ToString(), "ordinal(it1)");
  EXPECT_EQ(AggOverList(AggKind::kCount, 0, 0,
                        Gt(IterMember(0, 0, 0), Lit(40.0)), nullptr)
                ->ToString(),
            "count(list0@it0 where (it0.m0 > 40))");
  EXPECT_EQ(BestCombination({{0, 0}, {0, 1}}, nullptr, Lit(1.0))->ToString(),
            "best_combination(list0@it0, list0@it1 minimize 1)");
  EXPECT_EQ(AnyCombination({{0, 0}}, Lit(1.0))->ToString(),
            "any_combination(list0@it0 where 1)");
}

TEST(ExplainTest, EventQueryExplainListsPlan) {
  EventQuery query("demo");
  const int jets = query.DeclareList("Jet", {"pt"});
  const int met = query.DeclareScalar("MET.pt");
  query.AddStage(Ge(ListSize(jets), Lit(2.0)));
  query.AddHistogram({"met", "", 10, 0, 100}, ScalarRef(met));
  const std::string plan = query.Explain();
  EXPECT_NE(plan.find("EventQuery demo"), std::string::npos);
  EXPECT_NE(plan.find("list0 = Jet"), std::string::npos);
  EXPECT_NE(plan.find("scalar0 = MET.pt"), std::string::npos);
  EXPECT_NE(plan.find("stage 0: (cardinality(list0) >= 2)"),
            std::string::npos);
  EXPECT_NE(plan.find("fill 'met': scalar0"), std::string::npos);
}

TEST(ExplainTest, FlatPipelineExplainListsPlan) {
  FlatPipeline pipeline("demo");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
  pipeline.AddKeepScalar("MET.pt");
  pipeline.AddFilter(Gt(ScalarRef(pipeline.Column("j.pt")), Lit(40.0)));
  pipeline.AddAggregate(
      engine::FlatAggSpec{FlatAggKind::kCount, "", "", "n"});
  pipeline.AddHaving(Ge(ScalarRef(pipeline.Column("n")), Lit(2.0)));
  pipeline.AddHistogram({"met", "", 10, 0, 100},
                        ScalarRef(pipeline.Column("MET.pt")));
  const std::string plan = pipeline.Explain();
  EXPECT_NE(plan.find("scalar0 = j.pt"), std::string::npos);
  EXPECT_NE(plan.find("CROSS JOIN UNNEST(Jet) AS j"), std::string::npos);
  EXPECT_NE(plan.find("keep MET.pt"), std::string::npos);
  EXPECT_NE(plan.find("WHERE (scalar0 > 40)"), std::string::npos);
  EXPECT_NE(plan.find("GROUP BY event: n"), std::string::npos);
  EXPECT_NE(plan.find("HAVING (scalar1 >= 2)"), std::string::npos);
  EXPECT_NE(plan.find("fill 'met': scalar2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// FlatBatch / flat bindings
// ---------------------------------------------------------------------------

TEST(FlatBatchTest, ColumnLookupAndClear) {
  FlatBatch batch;
  batch.names = {"a", "b"};
  batch.columns = {{1, 2}, {3, 4}};
  batch.num_rows = 2;
  EXPECT_EQ(batch.ColumnIndex("b"), 1);
  EXPECT_EQ(batch.ColumnIndex("z"), -1);
  EXPECT_EQ(batch.NumCells(), 4u);
  batch.Clear();
  EXPECT_EQ(batch.num_rows, 0u);
  EXPECT_TRUE(batch.columns[0].empty());
}

TEST(FlatRowBindingsTest, ScalarRefsReadBoundDoubleColumns) {
  // Flat rows bind as kFloat64 scalar slots: the one expression tree of
  // both plan shapes evaluates over them unchanged.
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {10, 20, 30};
  const BatchBindings bound =
      BatchBindings::Float64Scalars({x.data(), nullptr, y.data()});
  auto expr = Add(ScalarRef(0), Mul(ScalarRef(2), Lit(2.0)));
  EvalContext ctx;
  ctx.bindings = &bound;
  ctx.row = 1;
  EXPECT_DOUBLE_EQ(expr->Eval(&ctx), 42.0);
  EXPECT_EQ(bound.scalar(1).data, nullptr);
}

// ---------------------------------------------------------------------------
// Execution determinism through the shared runtime: per-row-group
// accumulator slots merged in ascending group order must make the path-
// based Execute overloads bit-identical for any thread count.
// ---------------------------------------------------------------------------

const std::string& DeterminismDataset() {
  static auto& path = *new std::string(
      EnsureDataset(::testing::TempDir() + "/hepq_engine_det",
                    DatasetSpec{.num_events = 2000, .row_group_size = 500})
          .ValueOrDie());
  return path;
}

void ExpectSameBits(const Histogram1D& a, const Histogram1D& b) {
  EXPECT_EQ(a.num_entries(), b.num_entries());
  EXPECT_EQ(a.sum_weights(), b.sum_weights());
  EXPECT_EQ(a.underflow(), b.underflow());
  EXPECT_EQ(a.overflow(), b.overflow());
  for (int i = 0; i < a.spec().num_bins; ++i) {
    EXPECT_EQ(a.BinContent(i), b.BinContent(i)) << "bin " << i;
  }
}

TEST(EventQueryTest, ThreadCountNeverChangesResults) {
  EventQuery query("det");
  const int jets = query.DeclareList("Jet", {"pt"});
  const int met = query.DeclareScalar("MET.pt");
  query.AddStage(Ge(
      AggOverList(AggKind::kCount, jets, 0,
                  Gt(IterMember(jets, 0, 0), Lit(40.0)), nullptr),
      Lit(2.0)));
  query.AddHistogram({"met", "", 100, 0, 200}, ScalarRef(met));
  auto baseline = query.Execute(DeterminismDataset(), ReaderOptions{}, 1);
  ASSERT_TRUE(baseline.ok());
  for (int threads : {2, 4}) {
    auto run = query.Execute(DeterminismDataset(), ReaderOptions{}, threads);
    ASSERT_TRUE(run.ok());
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_EQ(run->events_processed, baseline->events_processed);
    EXPECT_EQ(run->events_selected, baseline->events_selected);
    EXPECT_EQ(run->ops, baseline->ops);  // identical Table 2 counters
    EXPECT_EQ(run->scan.storage_bytes, baseline->scan.storage_bytes);
    ExpectSameBits(run->histograms[0], baseline->histograms[0]);
  }
}

/// A data set whose MET.pt values are clustered: group g holds values in
/// [100g, 100(g+1)), sorted within the group so pages carry tight zone
/// maps. Jet.pt rides along as a projected non-predicate column whose
/// decode late materialization can skip entirely for dead groups.
const std::string& ClusteredDataset() {
  static const auto& path = *new std::string([] {
    auto schema = std::make_shared<Schema>(std::vector<Field>{
        {"MET", DataType::Struct({{"pt", DataType::Float32()}})},
        {"Jet", DataType::List(DataType::Struct(
                    {{"pt", DataType::Float32()}}))},
    });
    constexpr int kGroups = 4;
    constexpr int kRows = 256;
    std::vector<RecordBatchPtr> batches;
    for (int g = 0; g < kGroups; ++g) {
      std::vector<float> met(kRows);
      std::vector<uint32_t> offsets(kRows + 1, 0);
      std::vector<float> jet_pt;
      for (int i = 0; i < kRows; ++i) {
        met[static_cast<size_t>(i)] =
            100.0f * g + 100.0f * i / kRows;  // sorted within the group
        jet_pt.push_back(30.0f + i % 20);
        jet_pt.push_back(15.0f + i % 7);
        offsets[static_cast<size_t>(i) + 1] =
            static_cast<uint32_t>(jet_pt.size());
      }
      auto met_col =
          StructArray::Make({{"pt", DataType::Float32()}},
                            {MakeFloat32Array(met)})
              .ValueOrDie();
      auto jets = MakeListOfStructArray({{"pt", DataType::Float32()}},
                                        offsets,
                                        {MakeFloat32Array(jet_pt)})
                      .ValueOrDie();
      batches.push_back(
          RecordBatch::Make(schema, {met_col, jets}).ValueOrDie());
    }
    const std::string p = ::testing::TempDir() + "/clustered.laq";
    WriterOptions options;
    options.row_group_size = kRows;
    options.page_values = 64;  // 4 pages per 256-row chunk
    WriteLaqFile(p, schema, batches, options).Check();
    return p;
  }());
  return path;
}

/// The acceptance check for predicate pushdown + late materialization: a
/// Q2-style selective MET cut must prune at least half the row groups,
/// skip pages inside the straddling group, and decode measurably fewer
/// bytes — with bit-identical histograms and event counters.
TEST(EventQueryTest, ZoneMapPruningDecodesFewerBytes) {
  EventQuery query("selective");
  const int met = query.DeclareScalar("MET.pt");
  query.DeclareList("Jet", {"pt"});
  query.AddStage(Gt(ScalarRef(met), Lit(250.0)));
  query.AddHistogram({"met", "", 100, 0, 400}, ScalarRef(met));

  ReaderOptions with;
  ReaderOptions without;
  without.scan_pushdown = false;
  without.late_materialization = false;
  auto on = query.Execute(ClusteredDataset(), with, 1);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  auto off = query.Execute(ClusteredDataset(), without, 1);
  ASSERT_TRUE(off.ok()) << off.status().ToString();

  // Groups 0/1 ([0,100) and [100,200)) are disjoint from (250, inf);
  // group 2 straddles 250 so only its trailing pages survive.
  EXPECT_EQ(on->scan.groups_pruned, 2u);
  EXPECT_GE(on->scan.pages_pruned, 2u);
  EXPECT_GT(on->scan.rows_pruned, 0u);
  EXPECT_LT(on->scan.decoded_bytes, off->scan.decoded_bytes);
  EXPECT_EQ(off->scan.groups_pruned, 0u);
  EXPECT_EQ(off->scan.pages_pruned, 0u);

  // Results are bit-identical regardless of pruning.
  EXPECT_EQ(on->events_processed, 1024);
  EXPECT_EQ(off->events_processed, 1024);
  EXPECT_EQ(on->events_selected, off->events_selected);
  ASSERT_EQ(on->histograms.size(), off->histograms.size());
  ExpectSameBits(on->histograms[0], off->histograms[0]);
}

/// Late materialization alone (pushdown on in both runs): disabling it
/// must change decoded bytes only, never any result.
TEST(EventQueryTest, LateMaterializationToggleIsInvisibleInResults) {
  EventQuery query("latemat");
  const int met = query.DeclareScalar("MET.pt");
  query.DeclareList("Jet", {"pt"});
  query.AddStage(Gt(ScalarRef(met), Lit(250.0)));
  query.AddHistogram({"met", "", 100, 0, 400}, ScalarRef(met));

  ReaderOptions eager;
  eager.late_materialization = false;
  auto lazy = query.Execute(ClusteredDataset(), ReaderOptions{}, 1);
  ASSERT_TRUE(lazy.ok());
  auto eager_run = query.Execute(ClusteredDataset(), eager, 1);
  ASSERT_TRUE(eager_run.ok());
  EXPECT_LE(lazy->scan.decoded_bytes, eager_run->scan.decoded_bytes);
  EXPECT_EQ(lazy->events_selected, eager_run->events_selected);
  ExpectSameBits(lazy->histograms[0], eager_run->histograms[0]);
}

TEST(FlatPipelineTest, ThreadCountNeverChangesResults) {
  FlatPipeline pipeline("det_flat");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
  pipeline.AddKeepScalar("MET.pt");
  pipeline.AddFilter(Gt(ScalarRef(pipeline.Column("j.pt")), Lit(40.0)));
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kCount, "", "", "n_jets"});
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kFirst, "MET.pt", "", "met"});
  pipeline.AddHaving(Ge(ScalarRef(pipeline.Column("n_jets")), Lit(2.0)));
  pipeline.AddHistogram({"met", "", 100, 0, 200},
                        ScalarRef(pipeline.Column("met")));
  auto baseline = pipeline.Execute(DeterminismDataset(), ReaderOptions{}, 1);
  ASSERT_TRUE(baseline.ok());
  for (int threads : {2, 4}) {
    auto run =
        pipeline.Execute(DeterminismDataset(), ReaderOptions{}, threads);
    ASSERT_TRUE(run.ok());
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_EQ(run->events_processed, baseline->events_processed);
    EXPECT_EQ(run->rows_materialized, baseline->rows_materialized);
    EXPECT_EQ(run->cells_materialized, baseline->cells_materialized);
    EXPECT_EQ(run->groups, baseline->groups);
    ExpectSameBits(run->histograms[0], baseline->histograms[0]);
  }
}

}  // namespace
}  // namespace hepq::engine
