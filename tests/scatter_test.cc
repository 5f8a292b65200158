// Tests for the multi-process scatter/gather layer: shard-range
// partitioning, sharded-generation determinism, the IPC frame protocol
// (bit-exact doubles, malformed-frame detection), deterministic fault
// attribution in the gather, and the core contract — a scattered merge is
// bit-identical to the in-process dataset run.

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/dataset.h"
#include "fileio/dataset_reader.h"
#include "queries/adl.h"
#include "scatter/ipc.h"
#include "scatter/scatter.h"

namespace hepq {
namespace {

using scatter::CombineWorkerStreams;
using scatter::DecodeFragmentPayload;
using scatter::DecodeReportPayload;
using scatter::EncodeFragmentPayload;
using scatter::EncodeReportPayload;
using scatter::EncodeFrame;
using scatter::Frame;
using scatter::FrameType;
using scatter::MergeShardOutputs;
using scatter::ParseWorkerStream;
using scatter::RunWorker;
using scatter::ShardFragment;
using scatter::ShardRange;
using scatter::ShardRangeFor;
using scatter::TryParseFrame;
using scatter::WorkerStream;

TEST(ShardRangeTest, PartitionsExactlyForAnyWorkerCount) {
  for (int files : {1, 3, 4, 7, 16}) {
    for (int workers : {1, 2, 3, 5, 16, 20}) {
      int covered = 0;
      int prev_end = 0;
      int max_size = 0;
      int min_size = files;  // over nonempty ranges
      for (int w = 0; w < workers; ++w) {
        const ShardRange range = ShardRangeFor(files, workers, w);
        EXPECT_EQ(range.begin, prev_end)
            << "files=" << files << " workers=" << workers << " w=" << w;
        EXPECT_GE(range.size(), 0);
        prev_end = range.end;
        covered += range.size();
        max_size = std::max(max_size, range.size());
        if (range.size() > 0) min_size = std::min(min_size, range.size());
      }
      EXPECT_EQ(prev_end, files);
      EXPECT_EQ(covered, files);
      // Balanced: nonempty ranges differ by at most one shard.
      if (workers <= files) EXPECT_LE(max_size - min_size, 1);
    }
  }
}

TEST(ShardSeedTest, DeterministicAndDecorrelated) {
  EXPECT_EQ(ShardSeed(20120601, 3), ShardSeed(20120601, 3));
  EXPECT_NE(ShardSeed(20120601, 0), ShardSeed(20120601, 1));
  EXPECT_NE(ShardSeed(20120601, 0), ShardSeed(20120602, 0));
  // The mix must not collapse to the identity: consecutive shard seeds
  // should not be consecutive integers.
  EXPECT_NE(ShardSeed(1, 1), ShardSeed(1, 0) + 1);
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes.empty()) << path;
  return bytes;
}

TEST(ShardedDatasetTest, ShardBytesIndependentOfShardCount) {
  ShardedDatasetSpec small;
  small.num_shards = 2;
  small.events_per_shard = 400;
  small.row_group_size = 200;
  ShardedDatasetSpec large = small;
  large.num_shards = 3;
  const std::string dir = ::testing::TempDir() + "/hepq_shard_stable";
  auto small_path = EnsureShardedDataset(dir, small);
  ASSERT_TRUE(small_path.ok()) << small_path.status().message();
  auto large_path = EnsureShardedDataset(dir, large);
  ASSERT_TRUE(large_path.ok()) << large_path.status().message();
  ASSERT_NE(*small_path, *large_path);
  for (int shard = 0; shard < small.num_shards; ++shard) {
    const std::string name = small.ShardFileName(shard);
    EXPECT_EQ(SlurpFile(*small_path + "/" + name),
              SlurpFile(*large_path + "/" + name))
        << name << " changed when the shard count grew";
  }
}

/// A fragment with adversarial doubles: NaN, infinities, a denormal,
/// negative zero. The wire format must reproduce every bit pattern.
ShardFragment MakeFragment(int shard) {
  ShardFragment fragment;
  fragment.file_index = shard;
  fragment.output.events_processed = 100 + shard;
  fragment.output.cpu_seconds = 0.25 * shard;
  fragment.output.wall_seconds = 0.5 + shard;
  fragment.output.ops = 7u * static_cast<uint64_t>(shard + 1);
  fragment.output.scan.storage_bytes = 1000u + static_cast<uint64_t>(shard);
  fragment.output.scan.checksum_bytes = 900u + static_cast<uint64_t>(shard);
  fragment.output.scan.values_read = 10u;
  Histogram1D histogram(HistogramSpec{"h", "title", 4, 0.0, 4.0});
  histogram.Fill(0.5 + shard, 1.0);
  histogram.Fill(std::numeric_limits<double>::quiet_NaN());
  histogram.Fill(std::numeric_limits<double>::infinity());
  histogram.Fill(-std::numeric_limits<double>::infinity());
  histogram.Fill(std::numeric_limits<double>::denorm_min(), -0.0);
  fragment.output.histograms.push_back(std::move(histogram));
  return fragment;
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectBitEqual(const Histogram1D& a, const Histogram1D& b) {
  ASSERT_EQ(a.spec(), b.spec());
  EXPECT_EQ(a.num_entries(), b.num_entries());
  EXPECT_EQ(Bits(a.underflow()), Bits(b.underflow()));
  EXPECT_EQ(Bits(a.overflow()), Bits(b.overflow()));
  EXPECT_EQ(Bits(a.sum_weights()), Bits(b.sum_weights()));
  EXPECT_EQ(Bits(a.mean()), Bits(b.mean()));
  for (int i = 0; i < a.spec().num_bins; ++i) {
    EXPECT_EQ(Bits(a.BinContent(i)), Bits(b.BinContent(i))) << "bin " << i;
  }
}

TEST(ScatterIpcTest, FragmentFrameRoundTripsBitExactly) {
  const ShardFragment original = MakeFragment(3);
  const std::vector<uint8_t> wire =
      EncodeFrame(FrameType::kFragment, EncodeFragmentPayload(original));
  Frame frame;
  size_t consumed = 0;
  auto complete = TryParseFrame(wire.data(), wire.size(), &frame, &consumed);
  ASSERT_TRUE(complete.ok()) << complete.status().message();
  ASSERT_TRUE(*complete);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(frame.type, FrameType::kFragment);
  auto decoded = DecodeFragmentPayload(frame.payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->file_index, 3);
  EXPECT_EQ(decoded->output.events_processed, 103);
  EXPECT_EQ(decoded->output.ops, original.output.ops);
  EXPECT_EQ(Bits(decoded->output.cpu_seconds),
            Bits(original.output.cpu_seconds));
  EXPECT_EQ(decoded->output.scan.storage_bytes,
            original.output.scan.storage_bytes);
  EXPECT_EQ(decoded->output.scan.checksum_bytes,
            original.output.scan.checksum_bytes);
  ASSERT_EQ(decoded->output.histograms.size(), 1u);
  ExpectBitEqual(decoded->output.histograms[0],
                 original.output.histograms[0]);
}

TEST(ScatterIpcTest, PartialFrameAsksForMoreBytes) {
  const std::vector<uint8_t> wire =
      EncodeFrame(FrameType::kFragment,
                  EncodeFragmentPayload(MakeFragment(0)));
  Frame frame;
  for (size_t size : {size_t{0}, size_t{3}, size_t{19}, wire.size() - 1}) {
    size_t consumed = 99;
    auto complete = TryParseFrame(wire.data(), size, &frame, &consumed);
    ASSERT_TRUE(complete.ok()) << "size=" << size;
    EXPECT_FALSE(*complete) << "size=" << size;
    EXPECT_EQ(consumed, 0u) << "size=" << size;
  }
}

TEST(ScatterIpcTest, MalformedFramesAreErrors) {
  const std::vector<uint8_t> good =
      EncodeFrame(FrameType::kFragment,
                  EncodeFragmentPayload(MakeFragment(0)));
  Frame frame;
  size_t consumed = 0;

  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xFF;
  auto magic_result =
      TryParseFrame(bad_magic.data(), bad_magic.size(), &frame, &consumed);
  ASSERT_FALSE(magic_result.ok());
  EXPECT_NE(magic_result.status().message().find("magic"),
            std::string::npos);

  std::vector<uint8_t> bad_version = good;
  bad_version[4] = 42;  // version field, little-endian low byte
  auto version_result = TryParseFrame(bad_version.data(),
                                      bad_version.size(), &frame, &consumed);
  ASSERT_FALSE(version_result.ok());
  const std::string want_version =
      "version 42, expected " + std::to_string(scatter::kFrameVersion);
  EXPECT_NE(version_result.status().message().find(want_version),
            std::string::npos);

  std::vector<uint8_t> bad_crc = good;
  bad_crc[bad_crc.size() - 1] ^= 0x01;
  auto crc_result =
      TryParseFrame(bad_crc.data(), bad_crc.size(), &frame, &consumed);
  ASSERT_FALSE(crc_result.ok());
  EXPECT_NE(crc_result.status().message().find("CRC"), std::string::npos);
}

/// Serializes `fragments` (+ optional done frame) as one worker's stream.
std::vector<uint8_t> StreamOf(const std::vector<ShardFragment>& fragments,
                              bool done) {
  std::vector<uint8_t> bytes;
  for (const ShardFragment& fragment : fragments) {
    const std::vector<uint8_t> frame =
        EncodeFrame(FrameType::kFragment, EncodeFragmentPayload(fragment));
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  if (done) {
    const std::vector<uint8_t> frame = EncodeFrame(
        FrameType::kDone, scatter::EncodeDonePayload(
                              static_cast<int>(fragments.size())));
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
}

TEST(ScatterGatherTest, TruncatedStreamKeepsWholeFragments) {
  std::vector<uint8_t> bytes = StreamOf({MakeFragment(0), MakeFragment(1)},
                                        /*done=*/false);
  bytes.resize(bytes.size() - 7);  // break the second fragment's frame
  const WorkerStream stream = ParseWorkerStream(bytes.data(), bytes.size());
  ASSERT_EQ(stream.fragments.size(), 1u);
  EXPECT_EQ(stream.fragments[0].file_index, 0);
  EXPECT_FALSE(stream.done);
  ASSERT_FALSE(stream.parse_error.ok());
  EXPECT_NE(stream.parse_error.message().find("ends mid-frame"),
            std::string::npos);
}

/// The gather's determinism contract: the same missing shard produces the
/// same error for any grouping of shards into workers.
TEST(ScatterGatherTest, MissingShardErrorIndependentOfWorkerCount) {
  const std::vector<std::string> files = {"fa", "fb", "fc", "fd"};
  // Shard 2's worker died before emitting it; shard 3 was never reached.
  auto broken = [&](int num_workers) {
    std::vector<WorkerStream> streams;
    for (int w = 0; w < num_workers; ++w) {
      const ShardRange range = ShardRangeFor(4, num_workers, w);
      std::vector<ShardFragment> fragments;
      for (int s = range.begin; s < range.end && s < 2; ++s) {
        fragments.push_back(MakeFragment(s));
      }
      const std::vector<uint8_t> bytes =
          StreamOf(fragments, /*done=*/range.end <= 2);
      WorkerStream stream = ParseWorkerStream(bytes.data(), bytes.size());
      stream.range = range;
      streams.push_back(std::move(stream));
    }
    return CombineWorkerStreams(streams, files).status();
  };
  const Status one = broken(1);
  const Status two = broken(2);
  const Status four = broken(4);
  ASSERT_FALSE(one.ok());
  EXPECT_EQ(one.ToString(), two.ToString());
  EXPECT_EQ(one.ToString(), four.ToString());
  EXPECT_NE(one.message().find("before completing shard 2 ('fc')"),
            std::string::npos)
      << one.message();
}

TEST(ScatterGatherTest, ParseErrorAttributedToWorkersOwnRange) {
  const std::vector<std::string> files = {"fa", "fb", "fc", "fd"};
  // Worker 0 owns shards [0,2) and completes; worker 1 owns [2,4) and its
  // stream breaks before any fragment. The error must name shard 2, not
  // shard 0.
  std::vector<uint8_t> ok_bytes =
      StreamOf({MakeFragment(0), MakeFragment(1)}, /*done=*/true);
  WorkerStream ok_stream =
      ParseWorkerStream(ok_bytes.data(), ok_bytes.size());
  ok_stream.range = {0, 2};
  std::vector<uint8_t> broken_bytes =
      StreamOf({MakeFragment(2)}, /*done=*/false);
  broken_bytes.resize(broken_bytes.size() / 2);
  WorkerStream broken_stream =
      ParseWorkerStream(broken_bytes.data(), broken_bytes.size());
  broken_stream.range = {2, 4};
  std::vector<WorkerStream> streams;
  streams.push_back(std::move(ok_stream));
  streams.push_back(std::move(broken_stream));
  const Status status = CombineWorkerStreams(streams, files).status();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("shard 2 ('fc')"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("ends mid-frame"), std::string::npos);
}

TEST(ScatterGatherTest, DuplicateFragmentIsCorruption) {
  const std::vector<std::string> files = {"fa", "fb"};
  std::vector<uint8_t> bytes =
      StreamOf({MakeFragment(0), MakeFragment(0), MakeFragment(1)},
               /*done=*/true);
  WorkerStream stream = ParseWorkerStream(bytes.data(), bytes.size());
  stream.range = {0, 2};
  std::vector<WorkerStream> streams;
  streams.push_back(std::move(stream));
  const Status status = CombineWorkerStreams(streams, files).status();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("duplicate"), std::string::npos);
}

TEST(ScatterWorkerTest, EmitsFragmentPerShardThenDone) {
  const std::vector<std::string> files = {"fa", "fb", "fc"};
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const Status status = RunWorker(
      files, ShardRange{1, 3},
      [&](const std::string& file) -> Result<queries::QueryRunOutput> {
        const int shard = file == "fb" ? 1 : 2;
        return MakeFragment(shard).output;
      },
      fds[1]);
  ::close(fds[1]);
  ASSERT_TRUE(status.ok()) << status.message();
  std::vector<uint8_t> bytes(1 << 16);
  size_t total = 0;
  for (;;) {
    const ssize_t n =
        ::read(fds[0], bytes.data() + total, bytes.size() - total);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    total += static_cast<size_t>(n);
  }
  ::close(fds[0]);
  const WorkerStream stream = ParseWorkerStream(bytes.data(), total);
  ASSERT_TRUE(stream.parse_error.ok()) << stream.parse_error.message();
  EXPECT_TRUE(stream.done);
  ASSERT_EQ(stream.fragments.size(), 2u);
  EXPECT_EQ(stream.fragments[0].file_index, 1);
  EXPECT_EQ(stream.fragments[1].file_index, 2);
}

TEST(ScatterWorkerTest, ShardFailureEmitsErrorFrame) {
  const std::vector<std::string> files = {"fa", "fb"};
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const Status status = RunWorker(
      files, ShardRange{0, 2},
      [&](const std::string& file) -> Result<queries::QueryRunOutput> {
        if (file == "fb") return Status::Invalid("boom");
        return MakeFragment(0).output;
      },
      fds[1]);
  ::close(fds[1]);
  EXPECT_FALSE(status.ok());
  std::vector<uint8_t> bytes(1 << 16);
  size_t total = 0;
  for (;;) {
    const ssize_t n =
        ::read(fds[0], bytes.data() + total, bytes.size() - total);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    total += static_cast<size_t>(n);
  }
  ::close(fds[0]);
  WorkerStream stream = ParseWorkerStream(bytes.data(), total);
  stream.range = {0, 2};
  ASSERT_EQ(stream.fragments.size(), 1u);
  ASSERT_EQ(stream.errors.size(), 1u);
  EXPECT_EQ(stream.errors[0].first, 1);
  std::vector<WorkerStream> streams;
  streams.push_back(std::move(stream));
  const Status combined = CombineWorkerStreams(streams, files).status();
  ASSERT_FALSE(combined.ok());
  EXPECT_NE(combined.message().find("shard 1 ('fb') failed: boom"),
            std::string::npos)
      << combined.message();
}

// ---------------------------------------------------------------------------
// The end-to-end contract: merging per-shard results reproduces the
// in-process dataset run bit for bit.
// ---------------------------------------------------------------------------

class ScatterMergeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ShardedDatasetSpec spec;
    spec.num_shards = 3;
    spec.events_per_shard = 600;
    spec.row_group_size = 250;
    dataset_ = new std::string(
        EnsureShardedDataset(::testing::TempDir() + "/hepq_scatter", spec)
            .ValueOrDie());
  }

  static std::string* dataset_;
};

std::string* ScatterMergeTest::dataset_ = nullptr;

TEST_F(ScatterMergeTest, MergedShardFragmentsMatchDatasetRun) {
  using queries::EngineKind;
  const auto files = ListLaqFiles(*dataset_).ValueOrDie();
  ASSERT_EQ(files.size(), 3u);
  const EngineKind engines[] = {EngineKind::kRdf, EngineKind::kBigQueryShape,
                                EngineKind::kPrestoShape, EngineKind::kDoc};
  for (int q : {1, 5}) {
    for (EngineKind engine : engines) {
      SCOPED_TRACE("q" + std::to_string(q) + " engine " +
                   std::string(queries::EngineKindName(engine)));
      auto whole = queries::RunAdlQuery(engine, q, *dataset_);
      ASSERT_TRUE(whole.ok()) << whole.status().message();
      std::vector<ShardFragment> fragments;
      for (size_t shard = 0; shard < files.size(); ++shard) {
        auto part = queries::RunAdlQuery(engine, q, files[shard]);
        ASSERT_TRUE(part.ok()) << part.status().message();
        ShardFragment fragment;
        fragment.file_index = static_cast<int>(shard);
        fragment.output = std::move(*part);
        fragments.push_back(std::move(fragment));
      }
      auto merged = MergeShardOutputs(fragments);
      ASSERT_TRUE(merged.ok()) << merged.status().message();
      EXPECT_EQ(merged->events_processed, whole->events_processed);
      EXPECT_EQ(merged->ops, whole->ops);
      EXPECT_EQ(merged->scan.storage_bytes, whole->scan.storage_bytes);
      ASSERT_EQ(merged->histograms.size(), whole->histograms.size());
      for (size_t h = 0; h < merged->histograms.size(); ++h) {
        ExpectBitEqual(merged->histograms[h], whole->histograms[h]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// kReport frames: the observability side-channel. The contract is twofold —
// a healthy report round-trips exactly (raw IEEE-754 doubles, interned
// span names), and a lost/corrupt/truncated report degrades the merged
// RunReport without ever dooming the query result.
// ---------------------------------------------------------------------------

/// A ProcessReport with every section populated and an adversarial double
/// (denormal cpu_seconds): the wire format must reproduce each field.
obs::ProcessReport MakeReport(int shard_begin, int shard_end) {
  obs::ProcessReport report;
  report.shard_begin = shard_begin;
  report.shard_end = shard_end;
  report.session_start_ns = 1000000;
  report.session_stop_ns = 9999999;
  obs::RunReport& r = report.report;
  r.info.query = "Q5";
  r.info.engine = "rdf";
  r.info.threads = 3;
  r.info.events_processed = 40000 + shard_begin;
  r.info.wall_seconds = 0.5;
  r.info.cpu_seconds = std::numeric_limits<double>::denorm_min();
  r.scan.storage_bytes = 123456u + static_cast<uint64_t>(shard_begin);
  r.scan.decoded_bytes = 77777u;
  r.scan.cache_bytes_served = 4096u;
  r.scan.values_read = 999u;
  r.run_span_ns = 88;
  r.total_span_ns = 99;
  r.window_ns = 111;
  obs::StageSummary stage;
  stage.stage = obs::Stage::kRowGroup;
  stage.wall_ns = 1234;
  stage.cpu_ns = 1200;
  stage.bytes = 4096;
  stage.count = 7;
  r.stages.push_back(stage);
  obs::WorkerSummary worker;
  worker.worker = 1;
  worker.busy_ns = 500;
  worker.idle_ns = 50;
  worker.busy_fraction = 0.9090625;
  worker.row_groups = 7;
  worker.max_queue_ns = 12;
  worker.max_queue_group = 3;
  obs::WorkerSummary::TimelineEntry entry;
  entry.group = 3;
  entry.slot = 0;
  entry.start_ns = 10;
  entry.dur_ns = 20;
  entry.queue_ns = 2;
  entry.bytes = 64;
  worker.timeline.push_back(entry);
  r.workers.push_back(worker);
  obs::Straggler straggler;
  straggler.group = 3;
  straggler.worker = 1;
  straggler.slot = 0;
  straggler.wall_ns = 20;
  straggler.bytes = 64;
  r.stragglers.push_back(straggler);
  obs::CounterSummary counter;
  counter.name = "flwor_rows";
  counter.stage = obs::Stage::kEventLoop;
  counter.ns = 5;
  counter.count = 6;
  counter.bytes = 7;
  r.counters.push_back(counter);
  obs::metrics::MetricSample c;
  c.name = "hepq_test_total";
  c.kind = obs::metrics::MetricKind::kCounter;
  c.value = 42;
  r.metrics.push_back(c);
  obs::metrics::MetricSample h;
  h.name = "hepq_test_wait_ns";
  h.kind = obs::metrics::MetricKind::kHistogram;
  h.buckets.assign(obs::metrics::kHistogramBuckets + 1, 0);
  h.buckets[1] = 3;
  h.observations = 3;
  h.sum_ns = 4500;
  r.metrics.push_back(h);
  obs::SpanRecord run_span;
  run_span.name = report.InternName("run");
  run_span.stage = obs::Stage::kRun;
  run_span.start_ns = 1000000;
  run_span.end_ns = 9999999;
  run_span.cpu_ns = 800;
  run_span.thread_index = 0;
  report.spans.push_back(run_span);
  obs::SpanRecord span;
  span.name = report.InternName("row_group");
  span.stage = obs::Stage::kRowGroup;
  span.start_ns = 1000100;
  span.end_ns = 1000200;
  span.cpu_ns = 90;
  span.bytes = 64;
  span.queue_ns = 2;
  span.worker = 1;
  span.group = 3;
  span.slot = 0;
  span.leaf = -1;
  span.seq = 1;
  span.thread_index = 2;
  span.depth = 1;
  report.spans.push_back(span);
  return report;
}

TEST(ScatterIpcTest, ReportPayloadRoundTripsExactly) {
  const obs::ProcessReport original = MakeReport(2, 5);
  const std::vector<uint8_t> wire =
      EncodeFrame(FrameType::kReport, EncodeReportPayload(original));
  Frame frame;
  size_t consumed = 0;
  auto complete = TryParseFrame(wire.data(), wire.size(), &frame, &consumed);
  ASSERT_TRUE(complete.ok()) << complete.status().message();
  ASSERT_TRUE(*complete);
  EXPECT_EQ(frame.type, FrameType::kReport);
  auto decoded = DecodeReportPayload(frame.payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();

  EXPECT_EQ(decoded->shard_begin, 2);
  EXPECT_EQ(decoded->shard_end, 5);
  EXPECT_EQ(decoded->session_start_ns, original.session_start_ns);
  EXPECT_EQ(decoded->session_stop_ns, original.session_stop_ns);
  const obs::RunReport& a = original.report;
  const obs::RunReport& b = decoded->report;
  EXPECT_EQ(b.info.query, a.info.query);
  EXPECT_EQ(b.info.engine, a.info.engine);
  EXPECT_EQ(b.info.threads, a.info.threads);
  EXPECT_EQ(b.info.events_processed, a.info.events_processed);
  EXPECT_EQ(Bits(b.info.wall_seconds), Bits(a.info.wall_seconds));
  EXPECT_EQ(Bits(b.info.cpu_seconds), Bits(a.info.cpu_seconds));
  EXPECT_EQ(b.scan.storage_bytes, a.scan.storage_bytes);
  EXPECT_EQ(b.scan.decoded_bytes, a.scan.decoded_bytes);
  EXPECT_EQ(b.scan.cache_bytes_served, a.scan.cache_bytes_served);
  EXPECT_EQ(b.scan.values_read, a.scan.values_read);
  EXPECT_EQ(b.run_span_ns, a.run_span_ns);
  EXPECT_EQ(b.total_span_ns, a.total_span_ns);
  EXPECT_EQ(b.window_ns, a.window_ns);
  ASSERT_EQ(b.stages.size(), 1u);
  EXPECT_EQ(b.stages[0].stage, obs::Stage::kRowGroup);
  EXPECT_EQ(b.stages[0].wall_ns, 1234);
  EXPECT_EQ(b.stages[0].count, 7u);
  ASSERT_EQ(b.workers.size(), 1u);
  EXPECT_EQ(b.workers[0].worker, 1);
  EXPECT_EQ(Bits(b.workers[0].busy_fraction), Bits(a.workers[0].busy_fraction));
  EXPECT_EQ(b.workers[0].max_queue_group, 3);
  ASSERT_EQ(b.workers[0].timeline.size(), 1u);
  EXPECT_EQ(b.workers[0].timeline[0].group, 3);
  EXPECT_EQ(b.workers[0].timeline[0].dur_ns, 20);
  EXPECT_EQ(b.workers[0].timeline[0].bytes, 64u);
  ASSERT_EQ(b.stragglers.size(), 1u);
  EXPECT_EQ(b.stragglers[0].group, 3);
  EXPECT_EQ(b.stragglers[0].wall_ns, 20);
  ASSERT_EQ(b.counters.size(), 1u);
  EXPECT_EQ(b.counters[0].name, "flwor_rows");
  EXPECT_EQ(b.counters[0].stage, obs::Stage::kEventLoop);
  EXPECT_EQ(b.counters[0].count, 6u);
  ASSERT_EQ(b.metrics.size(), 2u);
  EXPECT_EQ(b.metrics[0].name, "hepq_test_total");
  EXPECT_EQ(b.metrics[0].kind, obs::metrics::MetricKind::kCounter);
  EXPECT_EQ(b.metrics[0].value, 42);
  EXPECT_EQ(b.metrics[1].name, "hepq_test_wait_ns");
  EXPECT_EQ(b.metrics[1].kind, obs::metrics::MetricKind::kHistogram);
  ASSERT_EQ(b.metrics[1].buckets.size(),
            static_cast<size_t>(obs::metrics::kHistogramBuckets + 1));
  EXPECT_EQ(b.metrics[1].buckets[1], 3u);
  EXPECT_EQ(b.metrics[1].observations, 3u);
  EXPECT_EQ(b.metrics[1].sum_ns, 4500);
  // Span names decode into the report's own pool; both sites that shared
  // a name share the interned pointer again.
  ASSERT_EQ(decoded->spans.size(), 2u);
  EXPECT_STREQ(decoded->spans[0].name, "run");
  EXPECT_STREQ(decoded->spans[1].name, "row_group");
  EXPECT_EQ(decoded->spans[0].stage, obs::Stage::kRun);
  EXPECT_EQ(decoded->spans[1].stage, obs::Stage::kRowGroup);
  EXPECT_EQ(decoded->spans[1].start_ns, 1000100);
  EXPECT_EQ(decoded->spans[1].end_ns, 1000200);
  EXPECT_EQ(decoded->spans[1].cpu_ns, 90);
  EXPECT_EQ(decoded->spans[1].queue_ns, 2);
  EXPECT_EQ(decoded->spans[1].bytes, 64u);
  EXPECT_EQ(decoded->spans[1].worker, 1);
  EXPECT_EQ(decoded->spans[1].group, 3);
  EXPECT_EQ(decoded->spans[1].slot, 0);
  EXPECT_EQ(decoded->spans[1].leaf, -1);
  EXPECT_EQ(decoded->spans[1].seq, 1u);
  EXPECT_EQ(decoded->spans[1].thread_index, 2);
  EXPECT_EQ(decoded->spans[1].depth, 1);
}

// The checksum stage (and kOther, the highest stage id) crosses the wire
// in stage rollups, counters and spans; an id past the last stage is a
// decode error, not a silently misfiled stage.
TEST(ScatterIpcTest, ReportPayloadCarriesChecksumStage) {
  obs::ProcessReport original = MakeReport(0, 1);
  obs::RunReport& r = original.report;
  r.scan.checksum_bytes = 8192u;
  obs::StageSummary checksum;
  checksum.stage = obs::Stage::kChecksum;
  checksum.wall_ns = 321;
  checksum.cpu_ns = 300;
  checksum.bytes = 8192;
  checksum.count = 2;
  r.stages.push_back(checksum);
  r.counters[0].stage = obs::Stage::kOther;
  obs::SpanRecord span = original.spans[1];
  span.name = original.InternName("chunk_checksum");
  span.stage = obs::Stage::kChecksum;
  span.bytes = 4096;
  original.spans.push_back(span);

  auto decoded = DecodeReportPayload(EncodeReportPayload(original));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  const obs::RunReport& b = decoded->report;
  EXPECT_EQ(b.scan.checksum_bytes, 8192u);
  ASSERT_EQ(b.stages.size(), 2u);
  EXPECT_EQ(b.stages[1].stage, obs::Stage::kChecksum);
  EXPECT_EQ(b.stages[1].wall_ns, 321);
  EXPECT_EQ(b.stages[1].bytes, 8192u);
  EXPECT_EQ(b.stages[1].count, 2u);
  ASSERT_EQ(b.counters.size(), 1u);
  EXPECT_EQ(b.counters[0].stage, obs::Stage::kOther);
  ASSERT_EQ(decoded->spans.size(), 3u);
  EXPECT_STREQ(decoded->spans[2].name, "chunk_checksum");
  EXPECT_EQ(decoded->spans[2].stage, obs::Stage::kChecksum);
  EXPECT_EQ(decoded->spans[2].bytes, 4096u);

  // Re-encode with the checksum rollup's stage id bumped past the range.
  r.stages[1].stage = static_cast<obs::Stage>(obs::kNumStages);
  auto rejected = DecodeReportPayload(EncodeReportPayload(original));
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("unknown stage"),
            std::string::npos);
}

TEST(ScatterWorkerTest, EmitsReportBetweenFragmentsAndDone) {
  const std::vector<std::string> files = {"fa", "fb", "fc"};
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const Status status = RunWorker(
      files, ShardRange{1, 3},
      [&](const std::string& file) -> Result<queries::QueryRunOutput> {
        return MakeFragment(file == "fb" ? 1 : 2).output;
      },
      fds[1],
      [] { return EncodeReportPayload(MakeReport(1, 3)); });
  ::close(fds[1]);
  ASSERT_TRUE(status.ok()) << status.message();
  std::vector<uint8_t> bytes(1 << 16);
  size_t total = 0;
  for (;;) {
    const ssize_t n =
        ::read(fds[0], bytes.data() + total, bytes.size() - total);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    total += static_cast<size_t>(n);
  }
  ::close(fds[0]);
  // Raw frame order: every fragment, then the one report, then done.
  std::vector<FrameType> order;
  size_t pos = 0;
  while (pos < total) {
    Frame frame;
    size_t consumed = 0;
    auto complete =
        TryParseFrame(bytes.data() + pos, total - pos, &frame, &consumed);
    ASSERT_TRUE(complete.ok()) << complete.status().message();
    ASSERT_TRUE(*complete);
    order.push_back(frame.type);
    pos += consumed;
  }
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], FrameType::kFragment);
  EXPECT_EQ(order[1], FrameType::kFragment);
  EXPECT_EQ(order[2], FrameType::kReport);
  EXPECT_EQ(order[3], FrameType::kDone);
  const WorkerStream stream = ParseWorkerStream(bytes.data(), total);
  ASSERT_TRUE(stream.parse_error.ok()) << stream.parse_error.message();
  EXPECT_TRUE(stream.done);
  ASSERT_EQ(stream.fragments.size(), 2u);
  ASSERT_EQ(stream.reports.size(), 1u);
  EXPECT_EQ(stream.reports[0].shard_begin, 1);
  EXPECT_EQ(stream.reports[0].shard_end, 3);
  ASSERT_EQ(stream.reports[0].spans.size(), 2u);
  EXPECT_STREQ(stream.reports[0].spans[1].name, "row_group");
}

/// Appends one kReport frame (optionally mangled) to a fragment stream.
std::vector<uint8_t> StreamWithReport(
    const std::vector<ShardFragment>& fragments, bool done,
    std::vector<uint8_t> report_frame) {
  std::vector<uint8_t> bytes = StreamOf(fragments, /*done=*/false);
  bytes.insert(bytes.end(), report_frame.begin(), report_frame.end());
  if (done) {
    const std::vector<uint8_t> frame = EncodeFrame(
        FrameType::kDone,
        scatter::EncodeDonePayload(static_cast<int>(fragments.size())));
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
}

// A kReport frame whose CRC fails (the badreport fault shape: a payload
// byte flipped after encoding) stops parsing — but every fragment
// precedes the report, so the gather still merges and only the report is
// lost. The observability channel must never doom the result.
TEST(ScatterGatherTest, CorruptReportFrameKeepsFragmentsMerging) {
  const std::vector<std::string> files = {"fa", "fb"};
  std::vector<uint8_t> report_frame =
      EncodeFrame(FrameType::kReport, EncodeReportPayload(MakeReport(0, 2)));
  ASSERT_GT(report_frame.size(), 24u);
  report_frame[24] ^= 0xff;  // first payload byte: CRC now fails
  const std::vector<uint8_t> bytes = StreamWithReport(
      {MakeFragment(0), MakeFragment(1)}, /*done=*/true, report_frame);
  WorkerStream stream = ParseWorkerStream(bytes.data(), bytes.size());
  stream.range = {0, 2};
  EXPECT_FALSE(stream.parse_error.ok());
  EXPECT_TRUE(stream.reports.empty());
  ASSERT_EQ(stream.fragments.size(), 2u);
  std::vector<WorkerStream> streams;
  streams.push_back(std::move(stream));
  auto combined = CombineWorkerStreams(streams, files);
  ASSERT_TRUE(combined.ok()) << combined.status().message();
  EXPECT_EQ(combined->size(), 2u);
}

// A kReport frame that passes the CRC but whose payload no longer decodes
// (schema drift / truncated body re-framed intact) is dropped silently:
// the stream stays healthy through kDone.
TEST(ScatterGatherTest, UndecodableReportPayloadIsDroppedNotFatal) {
  const std::vector<std::string> files = {"fa", "fb"};
  std::vector<uint8_t> payload = EncodeReportPayload(MakeReport(0, 2));
  payload.resize(payload.size() / 2);  // valid frame, malformed body
  const std::vector<uint8_t> bytes =
      StreamWithReport({MakeFragment(0), MakeFragment(1)}, /*done=*/true,
                       EncodeFrame(FrameType::kReport, payload));
  WorkerStream stream = ParseWorkerStream(bytes.data(), bytes.size());
  stream.range = {0, 2};
  EXPECT_TRUE(stream.parse_error.ok()) << stream.parse_error.message();
  EXPECT_TRUE(stream.done);
  EXPECT_TRUE(stream.reports.empty());
  ASSERT_EQ(stream.fragments.size(), 2u);
  std::vector<WorkerStream> streams;
  streams.push_back(std::move(stream));
  auto combined = CombineWorkerStreams(streams, files);
  ASSERT_TRUE(combined.ok()) << combined.status().message();
  EXPECT_EQ(combined->size(), 2u);
}

// A worker that dies mid-kReport (truncated write) has already emitted
// all its fragments, so the merge still succeeds.
TEST(ScatterGatherTest, TruncatedReportFrameKeepsFragmentsMerging) {
  const std::vector<std::string> files = {"fa", "fb"};
  std::vector<uint8_t> report_frame =
      EncodeFrame(FrameType::kReport, EncodeReportPayload(MakeReport(0, 2)));
  report_frame.resize(report_frame.size() / 2);
  const std::vector<uint8_t> bytes = StreamWithReport(
      {MakeFragment(0), MakeFragment(1)}, /*done=*/false, report_frame);
  WorkerStream stream = ParseWorkerStream(bytes.data(), bytes.size());
  stream.range = {0, 2};
  ASSERT_FALSE(stream.parse_error.ok());
  EXPECT_NE(stream.parse_error.message().find("ends mid-frame"),
            std::string::npos);
  EXPECT_TRUE(stream.reports.empty());
  ASSERT_EQ(stream.fragments.size(), 2u);
  std::vector<WorkerStream> streams;
  streams.push_back(std::move(stream));
  auto combined = CombineWorkerStreams(streams, files);
  ASSERT_TRUE(combined.ok()) << combined.status().message();
  EXPECT_EQ(combined->size(), 2u);
}

// ---------------------------------------------------------------------------
// Merged-report determinism: the same per-shard observability content
// grouped into 2 workers or 4 workers must yield the same cross-process
// RunReport (modulo the processes[] table, which names the grouping).
// ---------------------------------------------------------------------------

/// One worker's report covering shards [begin, end): per-shard content is
/// a fixed "unit" scaled by the shard index so any regrouping that
/// changes totals is caught.
obs::ProcessReport MakeGroupedReport(int begin, int end) {
  obs::ProcessReport report = MakeReport(begin, end);
  obs::RunReport& r = report.report;
  r.info.events_processed = 0;
  r.scan = ScanStats{};
  r.stages[0].wall_ns = 0;
  r.stages[0].cpu_ns = 0;
  r.stages[0].bytes = 0;
  r.stages[0].count = 0;
  r.counters[0].ns = 0;
  r.counters[0].count = 0;
  r.counters[0].bytes = 0;
  r.metrics[0].value = 0;
  r.run_span_ns = 0;
  r.total_span_ns = 0;
  for (int shard = begin; shard < end; ++shard) {
    r.info.events_processed += 1000 + shard;
    r.scan.storage_bytes += 10000u + static_cast<uint64_t>(shard);
    r.scan.decoded_bytes += 500u * static_cast<uint64_t>(shard + 1);
    r.stages[0].wall_ns += 100 + shard;
    r.stages[0].cpu_ns += 90 + shard;
    r.stages[0].bytes += 64u;
    r.stages[0].count += 1;
    r.counters[0].ns += 5 + shard;
    r.counters[0].count += 1;
    r.counters[0].bytes += 8u;
    r.metrics[0].value += 2 + shard;
    r.run_span_ns += 1000 + shard;
    r.total_span_ns += 1000 + shard;
  }
  return report;
}

TEST(ScatterReportMergeTest, MergedReportInvariantToWorkerGrouping) {
  obs::RunInfo info;
  info.query = "Q5";
  info.engine = "rdf";
  info.threads = 2;
  info.events_processed = 4 * 1000 + 0 + 1 + 2 + 3;
  ScanStats merged_scan;
  for (int shard = 0; shard < 4; ++shard) {
    merged_scan.storage_bytes += 10000u + static_cast<uint64_t>(shard);
    merged_scan.decoded_bytes += 500u * static_cast<uint64_t>(shard + 1);
  }

  std::vector<obs::ProcessReport> two;
  two.push_back(MakeGroupedReport(0, 2));
  two.push_back(MakeGroupedReport(2, 4));
  std::vector<obs::ProcessReport> four;
  for (int shard = 0; shard < 4; ++shard) {
    four.push_back(MakeGroupedReport(shard, shard + 1));
  }
  const obs::RunReport a = obs::MergeProcessReports(info, merged_scan, two);
  const obs::RunReport b = obs::MergeProcessReports(info, merged_scan, four);

  EXPECT_FALSE(a.partial);
  EXPECT_FALSE(b.partial);
  EXPECT_EQ(a.info.events_processed, b.info.events_processed);
  EXPECT_EQ(a.scan.decoded_bytes, b.scan.decoded_bytes);
  EXPECT_EQ(a.run_span_ns, b.run_span_ns);
  EXPECT_EQ(a.total_span_ns, b.total_span_ns);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (size_t s = 0; s < a.stages.size(); ++s) {
    EXPECT_EQ(a.stages[s].stage, b.stages[s].stage);
    EXPECT_EQ(a.stages[s].wall_ns, b.stages[s].wall_ns);
    EXPECT_EQ(a.stages[s].cpu_ns, b.stages[s].cpu_ns);
    EXPECT_EQ(a.stages[s].bytes, b.stages[s].bytes);
    EXPECT_EQ(a.stages[s].count, b.stages[s].count);
  }
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (size_t c = 0; c < a.counters.size(); ++c) {
    EXPECT_EQ(a.counters[c].name, b.counters[c].name);
    EXPECT_EQ(a.counters[c].ns, b.counters[c].ns);
    EXPECT_EQ(a.counters[c].count, b.counters[c].count);
    EXPECT_EQ(a.counters[c].bytes, b.counters[c].bytes);
  }
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (size_t m = 0; m < a.metrics.size(); ++m) {
    EXPECT_EQ(a.metrics[m].name, b.metrics[m].name);
    EXPECT_EQ(a.metrics[m].value, b.metrics[m].value) << a.metrics[m].name;
  }
  // Per-process scan totals reconcile against the merged scan — the
  // schema_version 4 contract — for both groupings.
  for (const obs::RunReport* r : {&a, &b}) {
    uint64_t decoded = 0;
    uint64_t storage = 0;
    for (const auto& process : r->processes) {
      EXPECT_TRUE(process.report_received);
      decoded += process.decoded_bytes;
      storage += process.storage_bytes;
    }
    EXPECT_EQ(decoded, r->scan.decoded_bytes);
    EXPECT_EQ(storage, r->scan.storage_bytes);
  }
  EXPECT_EQ(a.processes.size(), 2u);
  EXPECT_EQ(b.processes.size(), 4u);
  EXPECT_EQ(b.processes[2].proc, 2);
  EXPECT_EQ(b.processes[2].shard_begin, 2);
  EXPECT_EQ(b.processes[2].shard_end, 3);
}

// A placeholder (worker whose kReport never arrived) degrades the merged
// report deterministically: partial, one warning keyed by shard range.
TEST(ScatterReportMergeTest, MissingReportYieldsDeterministicWarning) {
  obs::RunInfo info;
  info.query = "Q1";
  info.engine = "doc";
  ScanStats merged_scan;
  std::vector<obs::ProcessReport> reports;
  reports.push_back(MakeGroupedReport(0, 2));
  obs::ProcessReport placeholder;
  placeholder.shard_begin = 2;
  placeholder.shard_end = 4;
  placeholder.received = false;
  reports.push_back(std::move(placeholder));
  const obs::RunReport merged =
      obs::MergeProcessReports(info, merged_scan, reports);
  EXPECT_TRUE(merged.partial);
  ASSERT_EQ(merged.warnings.size(), 1u);
  EXPECT_EQ(merged.warnings[0],
            "worker for shards [2,4) sent no run report; per-process "
            "attribution is incomplete");
  ASSERT_EQ(merged.processes.size(), 2u);
  EXPECT_TRUE(merged.processes[0].report_received);
  EXPECT_FALSE(merged.processes[1].report_received);
  EXPECT_EQ(merged.processes[1].shard_begin, 2);
  EXPECT_EQ(merged.processes[1].shard_end, 4);
}

}  // namespace
}  // namespace hepq
