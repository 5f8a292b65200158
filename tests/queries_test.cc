#include <gtest/gtest.h>

#include <climits>
#include <cstdint>

#include "datagen/dataset.h"
#include "queries/adl.h"
#include "queries/builders.h"

namespace hepq::queries {
namespace {

/// Shared small data set for the integration tests.
const std::string& TestDataset() {
  static const auto& path = *new std::string([] {
    DatasetSpec spec;
    spec.num_events = 6000;
    spec.row_group_size = 2000;
    return EnsureDataset(::testing::TempDir() + "/hepq_queries", spec)
        .ValueOrDie();
  }());
  return path;
}

TEST(AdlSpecTest, EveryQueryHasSpecs) {
  for (int q = 1; q <= kNumAdlQueries; ++q) {
    const auto specs = AdlHistogramSpecs(q);
    ASSERT_FALSE(specs.empty()) << "Q" << q;
    EXPECT_EQ(specs.size(), q == 6 ? 2u : 1u);
    for (const HistogramSpec& spec : specs) {
      EXPECT_EQ(spec.num_bins, 100);  // paper: 100 bins is typical
      EXPECT_LT(spec.lo, spec.hi);
    }
    EXPECT_STRNE(AdlQueryTitle(q), "unknown query");
  }
}

TEST(VexprTierTest, ParseRoundTripsNamesAndRejectsOthers) {
  for (const VexprTier tier : {VexprTier::kInterpret, VexprTier::kSimd}) {
    VexprTier parsed = tier == VexprTier::kSimd ? VexprTier::kInterpret
                                                : VexprTier::kSimd;
    ASSERT_TRUE(ParseVexprTier(VexprTierName(tier), &parsed))
        << VexprTierName(tier);
    EXPECT_EQ(parsed, tier);
  }
  for (const char* bad : {"bytecode", ""}) {
    VexprTier out = VexprTier::kInterpret;
    EXPECT_FALSE(ParseVexprTier(bad, &out)) << '"' << bad << '"';
    EXPECT_EQ(out, VexprTier::kInterpret) << '"' << bad << '"';
  }
}

TEST(ParsePositiveIntTest, AcceptsPositiveDecimalsOnly) {
  int out = 0;
  EXPECT_TRUE(ParsePositiveInt("1", &out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ParsePositiveInt("16", &out));
  EXPECT_EQ(out, 16);
  for (const char* bad : {"", "0", "-2", "abc", "3x", " 4", "+4",
                          "9999999999", "1x", "-5", "2x", "12k", "1e5"}) {
    out = 7;
    EXPECT_FALSE(ParsePositiveInt(bad, &out)) << '"' << bad << '"';
    EXPECT_EQ(out, 7) << '"' << bad << '"';
  }
}

TEST(ParsePositiveIntTest, WideFormTakesEighteenDigits) {
  int64_t out = 0;
  EXPECT_TRUE(ParsePositiveInt("100000", &out));
  EXPECT_EQ(out, 100000);
  EXPECT_TRUE(ParsePositiveInt("9999999999", &out));
  EXPECT_EQ(out, int64_t{9999999999});
  EXPECT_TRUE(ParsePositiveInt("999999999999999999", &out));
  EXPECT_EQ(out, int64_t{999999999999999999});
  for (const char* bad : {"", "0", "abc", "-5", "1e5", "12k", "2x", "0x10",
                          "1000000000000000000"}) {
    out = 7;
    EXPECT_FALSE(ParsePositiveInt(bad, &out)) << '"' << bad << '"';
    EXPECT_EQ(out, 7) << '"' << bad << '"';
  }
}

TEST(ParseNonNegativeIntTest, AcceptsDecimalsThatFit) {
  uint64_t seed = 7;
  EXPECT_TRUE(ParseNonNegativeInt("0", &seed));
  EXPECT_EQ(seed, 0u);
  EXPECT_TRUE(ParseNonNegativeInt("18446744073709551615", &seed));
  EXPECT_EQ(seed, UINT64_MAX);
  int bound = 7;
  EXPECT_TRUE(ParseNonNegativeInt("0", &bound));
  EXPECT_EQ(bound, 0);
  EXPECT_TRUE(ParseNonNegativeInt("2147483647", &bound));
  EXPECT_EQ(bound, INT_MAX);
  for (const char* bad : {"", "abc", "12x", "-1", "+1", " 7", "7 ", "0x10",
                          "1e5", "18446744073709551616",
                          "99999999999999999999"}) {
    seed = 7;
    EXPECT_FALSE(ParseNonNegativeInt(bad, &seed)) << '"' << bad << '"';
    EXPECT_EQ(seed, 7u) << '"' << bad << '"';
  }
  for (const char* bad : {"", "0x", "1y", "-1", "2147483648"}) {
    bound = 7;
    EXPECT_FALSE(ParseNonNegativeInt(bad, &bound)) << '"' << bad << '"';
    EXPECT_EQ(bound, 7) << '"' << bad << '"';
  }
}

TEST(AdlSpecTest, InvalidQueryIdsRejected) {
  EXPECT_FALSE(RunAdlQuery(EngineKind::kRdf, 0, TestDataset()).ok());
  EXPECT_FALSE(RunAdlQuery(EngineKind::kRdf, 9, TestDataset()).ok());
  EXPECT_TRUE(AdlHistogramSpecs(0).empty());
}

/// The core integration property: all four engines produce identical
/// histograms for every benchmark query.
class CrossEngineAgreement : public ::testing::TestWithParam<int> {};

TEST_P(CrossEngineAgreement, AllEnginesMatchRdf) {
  const int q = GetParam();
  const auto reference =
      RunAdlQuery(EngineKind::kRdf, q, TestDataset());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_FALSE(reference->histograms.empty());
  EXPECT_EQ(reference->events_processed, 6000);

  for (EngineKind engine :
       {EngineKind::kBigQueryShape, EngineKind::kPrestoShape,
        EngineKind::kDoc}) {
    const auto result = RunAdlQuery(engine, q, TestDataset());
    ASSERT_TRUE(result.ok())
        << EngineKindName(engine) << ": " << result.status().ToString();
    ASSERT_EQ(result->histograms.size(), reference->histograms.size());
    for (size_t h = 0; h < result->histograms.size(); ++h) {
      EXPECT_TRUE(result->histograms[h].ApproxEquals(
          reference->histograms[h], 1e-6))
          << "Q" << q << " histogram " << h << " differs on "
          << EngineKindName(engine) << "\nreference:\n"
          << reference->histograms[h].ToString() << "\ngot:\n"
          << result->histograms[h].ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, CrossEngineAgreement,
                         ::testing::Range(1, 9));

/// Property sweep: engine agreement is not an artefact of one particular
/// data set — it holds across generator seeds (and hence across particle
/// multiplicity patterns, Z-decay placements, edge events, ...).
class SeededAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededAgreement, EnginesAgreeOnHardQueries) {
  DatasetSpec spec;
  spec.num_events = 1500;
  spec.row_group_size = 500;
  spec.seed = GetParam();
  const std::string path =
      EnsureDataset(::testing::TempDir() + "/hepq_seeds", spec)
          .ValueOrDie();
  // Q6 and Q8 exercise every engine feature (combinations, argmin,
  // unions, ordinals); Q5 adds the existence pattern.
  for (int q : {5, 6, 8}) {
    const auto reference = RunAdlQuery(EngineKind::kRdf, q, path);
    ASSERT_TRUE(reference.ok());
    for (EngineKind engine :
         {EngineKind::kBigQueryShape, EngineKind::kPrestoShape,
          EngineKind::kDoc}) {
      const auto result = RunAdlQuery(engine, q, path);
      ASSERT_TRUE(result.ok());
      for (size_t h = 0; h < result->histograms.size(); ++h) {
        EXPECT_TRUE(result->histograms[h].ApproxEquals(
            reference->histograms[h], 1e-6))
            << "seed " << GetParam() << " Q" << q << " on "
            << EngineKindName(engine);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededAgreement,
                         ::testing::Values(7, 42, 271828, 3141592,
                                           20120601, 99999999));

/// The golden acceptance property of predicate pushdown + late
/// materialization: for every query on every frontend, pruning is
/// invisible in the results — histograms bit-identical, event counters
/// equal — and never decodes more than the unpruned scan.
class PruningBitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(PruningBitIdentity, AllFrontendsUnchangedByPushdownToggles) {
  const int q = GetParam();
  for (EngineKind engine :
       {EngineKind::kRdf, EngineKind::kBigQueryShape,
        EngineKind::kPrestoShape, EngineKind::kDoc}) {
    RunOptions off;
    off.scan_pushdown = false;
    off.late_materialization = false;
    RunOptions pushdown_only;
    pushdown_only.late_materialization = false;
    const auto baseline = RunAdlQuery(engine, q, TestDataset(), off);
    ASSERT_TRUE(baseline.ok())
        << EngineKindName(engine) << ": " << baseline.status().ToString();
    EXPECT_EQ(baseline->scan.groups_pruned, 0u);
    EXPECT_EQ(baseline->scan.pages_pruned, 0u);
    for (const RunOptions& options : {RunOptions{}, pushdown_only}) {
      const auto run = RunAdlQuery(engine, q, TestDataset(), options);
      ASSERT_TRUE(run.ok())
          << EngineKindName(engine) << ": " << run.status().ToString();
      EXPECT_EQ(run->events_processed, baseline->events_processed)
          << "Q" << q << " on " << EngineKindName(engine);
      EXPECT_LE(run->scan.decoded_bytes, baseline->scan.decoded_bytes)
          << "Q" << q << " on " << EngineKindName(engine);
      ASSERT_EQ(run->histograms.size(), baseline->histograms.size());
      for (size_t h = 0; h < run->histograms.size(); ++h) {
        const Histogram1D& a = run->histograms[h];
        const Histogram1D& b = baseline->histograms[h];
        ASSERT_EQ(a.num_entries(), b.num_entries())
            << "Q" << q << " histogram " << h << " on "
            << EngineKindName(engine);
        ASSERT_EQ(a.sum_weights(), b.sum_weights());
        ASSERT_EQ(a.underflow(), b.underflow());
        ASSERT_EQ(a.overflow(), b.overflow());
        for (int i = 0; i < a.spec().num_bins; ++i) {
          ASSERT_EQ(a.BinContent(i), b.BinContent(i))
              << "Q" << q << " histogram " << h << " bin " << i << " on "
              << EngineKindName(engine);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, PruningBitIdentity,
                         ::testing::Range(1, 9));

/// Row accounting closes: every event in the file is either skipped by a
/// row-group zone map (rows_pruned) or enters decode (rows_read). Page
/// skips within a surviving group land in lanes_pruned instead, so the
/// two row counters cannot double-count (the regression this pins down:
/// page skips used to add into rows_pruned on top of the group skips).
class RowAccounting : public ::testing::TestWithParam<int> {};

TEST_P(RowAccounting, PrunedPlusReadEqualsTotal) {
  const int q = GetParam();
  for (EngineKind engine :
       {EngineKind::kRdf, EngineKind::kBigQueryShape,
        EngineKind::kPrestoShape, EngineKind::kDoc}) {
    for (const bool pushdown : {true, false}) {
      RunOptions options;
      options.scan_pushdown = pushdown;
      const auto run = RunAdlQuery(engine, q, TestDataset(), options);
      ASSERT_TRUE(run.ok())
          << EngineKindName(engine) << ": " << run.status().ToString();
      EXPECT_EQ(run->scan.rows_pruned + run->scan.rows_read, 6000u)
          << "Q" << q << " on " << EngineKindName(engine)
          << " pushdown=" << pushdown;
      if (!pushdown) {
        EXPECT_EQ(run->scan.rows_pruned, 0u);
        EXPECT_EQ(run->scan.lanes_pruned, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, RowAccounting, ::testing::Range(1, 9));

TEST(QueriesTest, OpsCountersTrackComplexity) {
  // Q6 must explore far more combinations per event than Q2 (Table 2).
  const auto q2 =
      RunAdlQuery(EngineKind::kBigQueryShape, 2, TestDataset());
  const auto q6 =
      RunAdlQuery(EngineKind::kBigQueryShape, 6, TestDataset());
  ASSERT_TRUE(q2.ok());
  ASSERT_TRUE(q6.ok());
  const double q2_ops =
      static_cast<double>(q2->ops) / q2->events_processed;
  const double q6_ops =
      static_cast<double>(q6->ops) / q6->events_processed;
  EXPECT_GT(q6_ops, 5.0 * q2_ops);
}

TEST(QueriesTest, PrestoShapeReadsMoreBytesThanBigQueryShape) {
  // No struct projection pushdown: Q1 touches one MET member, Presto
  // must read all seven (paper Figure 4b).
  const auto bq = RunAdlQuery(EngineKind::kBigQueryShape, 1, TestDataset());
  const auto presto =
      RunAdlQuery(EngineKind::kPrestoShape, 1, TestDataset());
  ASSERT_TRUE(bq.ok());
  ASSERT_TRUE(presto.ok());
  EXPECT_GT(presto->scan.storage_bytes, bq->scan.storage_bytes);
  EXPECT_EQ(presto->scan.logical_bytes_bq, bq->scan.logical_bytes_bq);
}

TEST(QueriesTest, DocEngineScansWholeFileOnComplexQueries) {
  // Rumble pushes projections only for the simplest queries (Fig. 4b):
  // Q1 reads little, Q5 reads the full file.
  const auto doc_q1 = RunAdlQuery(EngineKind::kDoc, 1, TestDataset());
  const auto doc_q5 = RunAdlQuery(EngineKind::kDoc, 5, TestDataset());
  const auto bq_q5 =
      RunAdlQuery(EngineKind::kBigQueryShape, 5, TestDataset());
  ASSERT_TRUE(doc_q1.ok());
  ASSERT_TRUE(doc_q5.ok());
  ASSERT_TRUE(bq_q5.ok());
  EXPECT_GT(doc_q5->scan.storage_bytes, 5 * bq_q5->scan.storage_bytes);
  EXPECT_LT(doc_q1->scan.storage_bytes, doc_q5->scan.storage_bytes / 5);
}

TEST(QueriesTest, FlatPipelineOnlyForUnnestFriendlyQueries) {
  for (int q = 1; q <= 6; ++q) {
    EXPECT_TRUE(BuildAdlFlatPipeline(q).ok()) << "Q" << q;
  }
  EXPECT_EQ(BuildAdlFlatPipeline(7).status().code(),
            StatusCode::kNotImplemented);
  EXPECT_EQ(BuildAdlFlatPipeline(8).status().code(),
            StatusCode::kNotImplemented);
}

// Golden sargable residue of both SQL plan shapes. A predicate matcher
// lost from either extractor would only show as more bytes read, so the
// extracted sets are pinned here exactly.
TEST(QueriesTest, ScanPredicatesPerPlanShape) {
  const char* const kFlat[] = {
      "",
      "Jet#lengths in [1, inf]\n",
      "Jet#lengths in [1, inf]\n",
      "Jet#lengths in [2, inf]\nJet.pt has element in [40, inf]\n",
      "Muon#lengths in [2, inf]\n",
      "Jet#lengths in [3, inf]\n",
  };
  for (int q = 1; q <= 6; ++q) {
    auto pipeline = BuildAdlFlatPipeline(q);
    ASSERT_TRUE(pipeline.ok()) << "Q" << q;
    EXPECT_EQ(pipeline->ScanPredicates().ToString(), kFlat[q - 1])
        << "flat Q" << q;
  }
  const char* const kEvent[] = {
      "",
      "",
      "",
      "Jet#lengths in [2, inf]\nJet.pt has element in [40, inf]\n",
      "Muon#lengths in [2, inf]\n",
      "Jet#lengths in [3, inf]\n",
      "",
      "Electron#lengths + Muon#lengths >= 3\n",
  };
  for (int q = 1; q <= 8; ++q) {
    auto query = BuildAdlEventQuery(q);
    ASSERT_TRUE(query.ok()) << "Q" << q;
    EXPECT_EQ(query->ScanPredicates().ToString(), kEvent[q - 1])
        << "event Q" << q;
  }
}

/// The document engine's work per query: interpreter steps over the test
/// data set, captured before the interpreter's allocation and lookup
/// overheads were cut. A change that makes the doc engine faster by doing
/// less modelled work (hoisting a `where`, skipping a boxing step) shows
/// up here.
TEST(QueriesTest, DocInterpreterStepsPerQuery) {
  const uint64_t kSteps[] = {18000,  24000,    124150, 120389,
                             151987, 13834271, 324852, 448927};
  for (int q = 1; q <= 8; ++q) {
    const auto run = RunAdlQuery(EngineKind::kDoc, q, TestDataset());
    ASSERT_TRUE(run.ok()) << "Q" << q << ": " << run.status().ToString();
    EXPECT_EQ(run->ops, kSteps[q - 1]) << "doc Q" << q;
  }
}

TEST(QueriesTest, EventQueryBuildersForAllQueries) {
  for (int q = 1; q <= 8; ++q) {
    EXPECT_TRUE(BuildAdlEventQuery(q).ok()) << "Q" << q;
    EXPECT_TRUE(BuildAdlDocQuery(q).ok()) << "Q" << q;
  }
  EXPECT_FALSE(BuildAdlEventQuery(0).ok());
  EXPECT_FALSE(BuildAdlDocQuery(9).ok());
}

TEST(QueriesTest, Q4SelectsSubsetOfEvents) {
  const auto q1 = RunAdlQuery(EngineKind::kRdf, 1, TestDataset());
  const auto q4 = RunAdlQuery(EngineKind::kRdf, 4, TestDataset());
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q4.ok());
  EXPECT_LT(q4->histograms[0].num_entries(),
            q1->histograms[0].num_entries());
  EXPECT_GT(q4->histograms[0].num_entries(), 0u);
}

TEST(QueriesTest, Q5FindsZCandidates) {
  const auto q5 = RunAdlQuery(EngineKind::kRdf, 5, TestDataset());
  ASSERT_TRUE(q5.ok());
  // The generator injects Z -> mumu decays in ~15% of events; with soft
  // dimuons as combinatorial background the yield must be substantial.
  EXPECT_GT(q5->histograms[0].num_entries(), 300u);
}

TEST(QueriesTest, Q6ProducesTwoHistogramsFromOnePass) {
  const auto q6 = RunAdlQuery(EngineKind::kRdf, 6, TestDataset());
  ASSERT_TRUE(q6.ok());
  ASSERT_EQ(q6->histograms.size(), 2u);
  // Same events feed both plots.
  EXPECT_EQ(q6->histograms[0].num_entries(),
            q6->histograms[1].num_entries());
  // b-tag discriminant lives in [0, 1].
  EXPECT_DOUBLE_EQ(q6->histograms[1].underflow(), 0.0);
  EXPECT_DOUBLE_EQ(q6->histograms[1].overflow(), 0.0);
}

TEST(QueriesTest, Q7SumIncludesZeroEvents) {
  const auto q7 = RunAdlQuery(EngineKind::kRdf, 7, TestDataset());
  ASSERT_TRUE(q7.ok());
  // Every event gets a (possibly zero) scalar sum.
  EXPECT_EQ(q7->histograms[0].num_entries(), 6000u);
}

TEST(QueriesTest, Q8RequiresThreeLeptons) {
  const auto q8 = RunAdlQuery(EngineKind::kRdf, 8, TestDataset());
  ASSERT_TRUE(q8.ok());
  EXPECT_GT(q8->histograms[0].num_entries(), 0u);
  EXPECT_LT(q8->histograms[0].num_entries(), 6000u);
}

}  // namespace
}  // namespace hepq::queries
