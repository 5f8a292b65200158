#include <cmath>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "datagen/dataset.h"
#include "datagen/generator.h"
#include "fileio/reader.h"

namespace hepq {
namespace {

TEST(GeneratorTest, SchemaHasBenchmarkShape) {
  const SchemaPtr schema = EventGenerator::CmsSchema();
  EXPECT_GE(schema->num_fields(), 13);
  EXPECT_GE(schema->FieldIndex("MET"), 0);
  EXPECT_GE(schema->FieldIndex("Jet"), 0);
  EXPECT_GE(schema->FieldIndex("Muon"), 0);
  EXPECT_GE(schema->FieldIndex("Electron"), 0);
  // The benchmark data set has ~65 attributes; ours shreds to a
  // comparable number of physical leaf columns.
  EXPECT_GE(schema->NumLeaves(), 40);
}

TEST(GeneratorTest, DeterministicAcrossInstances) {
  EventGenerator g1, g2;
  auto b1 = g1.GenerateBatch(500);
  auto b2 = g2.GenerateBatch(500);
  EXPECT_TRUE(b1->Equals(*b2));
}

TEST(GeneratorTest, SequentialBatchesContinueEventIds) {
  EventGenerator g;
  auto b1 = g.GenerateBatch(10);
  auto b2 = g.GenerateBatch(10);
  const auto& id1 = static_cast<const Int64Array&>(
      *b1->ColumnByName("event"));
  const auto& id2 = static_cast<const Int64Array&>(
      *b2->ColumnByName("event"));
  EXPECT_EQ(id1.Value(0), 0);
  EXPECT_EQ(id2.Value(0), 10);
  EXPECT_EQ(g.events_generated(), 20);
}

TEST(GeneratorTest, DifferentSeedsProduceDifferentData) {
  GeneratorConfig a, b;
  a.seed = 1;
  b.seed = 2;
  EventGenerator g1(a), g2(b);
  EXPECT_FALSE(g1.GenerateBatch(100)->Equals(*g2.GenerateBatch(100)));
}

/// Calibration targets from the paper's Table 2 workload analysis.
TEST(GeneratorTest, MultiplicityMomentsMatchPaper) {
  EventGenerator g;
  auto batch = g.GenerateBatch(60000);
  const auto& jets =
      static_cast<const ListArray&>(*batch->ColumnByName("Jet"));
  const auto& muons =
      static_cast<const ListArray&>(*batch->ColumnByName("Muon"));
  const auto& electrons =
      static_cast<const ListArray&>(*batch->ColumnByName("Electron"));

  double sum_j = 0, sum_j3 = 0, sum_m2 = 0, sum_e = 0;
  const int64_t n = batch->num_rows();
  for (int64_t i = 0; i < n; ++i) {
    const double j = jets.list_length(i);
    const double m = muons.list_length(i);
    sum_j += j;
    sum_j3 += j * (j - 1) * (j - 2) / 6.0;  // C(J,3)
    sum_m2 += m * (m - 1) / 2.0;            // C(M,2)
    sum_e += electrons.list_length(i);
  }
  // E[J] ~ 3.2 (Q2 ops/event in Table 2).
  EXPECT_NEAR(sum_j / n, 3.2, 0.4);
  // E[C(J,3)] ~ 41.8 (Q6: 42.8 = 1 + E[C(J,3)]). Heavy-tailed, so loose.
  EXPECT_GT(sum_j3 / n, 15.0);
  EXPECT_LT(sum_j3 / n, 90.0);
  // E[C(M,2)] ~ 0.6 (Q5: 1.6 = 1 + E[C(M,2)]).
  EXPECT_NEAR(sum_m2 / n, 0.6, 0.3);
  // Electrons in the low single digits (Figure 3).
  EXPECT_LT(sum_e / n, 1.0);
}

TEST(GeneratorTest, JetTailReachesSeveralDozen) {
  EventGenerator g;
  auto batch = g.GenerateBatch(50000);
  const auto& jets =
      static_cast<const ListArray&>(*batch->ColumnByName("Jet"));
  int32_t max_jets = 0;
  for (int64_t i = 0; i < batch->num_rows(); ++i) {
    max_jets = std::max(max_jets, jets.list_length(i));
  }
  EXPECT_GE(max_jets, 24);  // "several dozen jets" (paper Figure 3)
}

TEST(GeneratorTest, ZPeakPresentInDimuonSpectrum) {
  EventGenerator g;
  auto batch = g.GenerateBatch(20000);
  const auto& muons =
      static_cast<const ListArray&>(*batch->ColumnByName("Muon"));
  const auto& st = static_cast<const StructArray&>(*muons.child());
  const auto& pt = static_cast<const Float32Array&>(*st.ChildByName("pt"));
  const auto& charge =
      static_cast<const Int32Array&>(*st.ChildByName("charge"));
  // Count events whose first two muons are opposite-charge with pt > 20 —
  // a proxy for reconstructable Z decays, which should be common.
  int z_candidates = 0;
  for (int64_t i = 0; i < batch->num_rows(); ++i) {
    if (muons.list_length(i) < 2) continue;
    const uint32_t o = muons.list_offset(i);
    if (charge.Value(o) != charge.Value(o + 1) && pt.Value(o) > 20.0f) {
      ++z_candidates;
    }
  }
  EXPECT_GT(z_candidates, batch->num_rows() / 20);
}

TEST(GeneratorTest, KinematicSanity) {
  EventGenerator g;
  auto batch = g.GenerateBatch(5000);
  const auto& jets =
      static_cast<const ListArray&>(*batch->ColumnByName("Jet"));
  const auto& st = static_cast<const StructArray&>(*jets.child());
  const auto& pt = static_cast<const Float32Array&>(*st.ChildByName("pt"));
  const auto& eta = static_cast<const Float32Array&>(*st.ChildByName("eta"));
  const auto& phi = static_cast<const Float32Array&>(*st.ChildByName("phi"));
  const auto& btag =
      static_cast<const Float32Array&>(*st.ChildByName("btag"));
  for (int64_t i = 0; i < pt.length(); ++i) {
    EXPECT_GT(pt.Value(i), 0.0f);
    EXPECT_LE(std::abs(eta.Value(i)), 4.7f);
    EXPECT_LE(std::abs(phi.Value(i)), static_cast<float>(M_PI) + 1e-5f);
    EXPECT_GE(btag.Value(i), 0.0f);
    EXPECT_LE(btag.Value(i), 1.0f);
  }
}

TEST(DatasetTest, FileNameEncodesSpec) {
  DatasetSpec spec;
  spec.num_events = 123;
  spec.row_group_size = 45;
  spec.seed = 6;
  spec.codec = Codec::kNone;
  EXPECT_EQ(spec.FileName(), "cms_123ev_45rg_s6_none.laq");
}

TEST(DatasetTest, EnsureDatasetWritesAndCaches) {
  const std::string dir = ::testing::TempDir() + "/hepq_ds";
  DatasetSpec spec;
  spec.num_events = 1000;
  spec.row_group_size = 400;
  auto path1 = EnsureDataset(dir, spec);
  ASSERT_TRUE(path1.ok());
  auto reader = LaqReader::Open(*path1);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->total_rows(), 1000);
  EXPECT_EQ((*reader)->num_row_groups(), 3);  // 400 + 400 + 200

  // Second call reuses the file (same path, still readable).
  auto path2 = EnsureDataset(dir, spec);
  ASSERT_TRUE(path2.ok());
  EXPECT_EQ(*path1, *path2);
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// A file under the canonical name is reused only if it is a readable laq
// file with the spec's row count. Anything else — stray bytes, a
// truncated write, a file of another spec — is regenerated, so the
// returned path always holds the same bytes a fresh write produces.
TEST(DatasetTest, InvalidCachedFileIsRegenerated) {
  DatasetSpec spec;
  spec.num_events = 600;
  spec.row_group_size = 200;
  const std::string fresh =
      SlurpFile(EnsureDataset(::testing::TempDir() + "/hepq_ds_fresh", spec)
                    .ValueOrDie());
  ASSERT_FALSE(fresh.empty());
  DatasetSpec other = spec;
  other.num_events = 400;
  const std::string wrong_rows =
      SlurpFile(EnsureDataset(::testing::TempDir() + "/hepq_ds_other", other)
                    .ValueOrDie());

  const std::string dir = ::testing::TempDir() + "/hepq_ds_stale";
  ASSERT_TRUE(EnsureDataset(dir, spec).ok());
  const std::string path = dir + "/" + spec.FileName();
  const std::pair<const char*, std::string> stale[] = {
      {"garbage", "this is not a laq file, just stray bytes"},
      {"truncated", fresh.substr(0, fresh.size() / 2)},
      {"empty", ""},
      {"wrong row count", wrong_rows},
  };
  for (const auto& [what, bytes] : stale) {
    SCOPED_TRACE(what);
    WriteFile(path, bytes);
    auto again = EnsureDataset(dir, spec);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(*again, path);
    EXPECT_TRUE(SlurpFile(path) == fresh) << "stale file was returned";
  }
}

TEST(DatasetTest, InvalidCachedShardIsRegenerated) {
  ShardedDatasetSpec spec;
  spec.num_shards = 3;
  spec.events_per_shard = 300;
  spec.row_group_size = 150;
  const std::string dir =
      EnsureShardedDataset(::testing::TempDir() + "/hepq_shards_stale", spec)
          .ValueOrDie();
  const std::string shard1 = dir + "/" + spec.ShardFileName(1);
  const std::string fresh = SlurpFile(shard1);
  WriteFile(shard1, fresh.substr(0, fresh.size() - 7));
  ASSERT_TRUE(EnsureShardedDataset(::testing::TempDir() + "/hepq_shards_stale",
                                   spec)
                  .ok());
  EXPECT_TRUE(SlurpFile(shard1) == fresh) << "truncated shard was reused";
}

TEST(DatasetTest, RowGroupsHaveExactSpecSize) {
  const std::string dir = ::testing::TempDir() + "/hepq_ds2";
  DatasetSpec spec;
  spec.num_events = 900;
  spec.row_group_size = 300;
  auto path = EnsureDataset(dir, spec);
  ASSERT_TRUE(path.ok());
  auto reader = LaqReader::Open(*path);
  ASSERT_TRUE(reader.ok());
  for (const RowGroupMeta& rg : (*reader)->metadata().row_groups) {
    EXPECT_EQ(rg.num_rows, 300);
  }
}

}  // namespace
}  // namespace hepq
