#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/bench_util.h"
#include "core/fourvector.h"
#include "core/histogram.h"
#include "core/json.h"
#include "core/physics.h"
#include "core/rng.h"
#include "core/status.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace hepq {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status st = Status::Invalid("bad arg");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalid);
  EXPECT_EQ(st.message(), "bad arg");
  EXPECT_EQ(st.ToString(), "Invalid: bad arg");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IOError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotImplemented),
               "NotImplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kTypeError), "TypeError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kKeyError), "KeyError");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::KeyError("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kKeyError);
}

TEST(ResultTest, MoveTo) {
  Result<std::string> r(std::string("hello"));
  std::string out;
  ASSERT_TRUE(r.MoveTo(&out).ok());
  EXPECT_EQ(out, "hello");
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform(10.0, 20.0);
  EXPECT_NEAR(sum / n, 15.0, 0.05);
}

TEST(RngTest, NextBelowBounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

class RngPoissonTest : public ::testing::TestWithParam<double> {};

TEST_P(RngPoissonTest, MeanAndVarianceMatch) {
  const double lambda = GetParam();
  Rng rng(23);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const int v = rng.NextPoisson(lambda);
    EXPECT_GE(v, 0);
    sum += v;
    sum2 += static_cast<double>(v) * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, lambda, std::max(0.05, lambda * 0.03));
  EXPECT_NEAR(var, lambda, std::max(0.1, lambda * 0.06));
}

INSTANTIATE_TEST_SUITE_P(Lambdas, RngPoissonTest,
                         ::testing::Values(0.3, 1.0, 3.0, 16.0, 80.0));

TEST(RngTest, PoissonZeroMean) {
  Rng rng(29);
  EXPECT_EQ(rng.NextPoisson(0.0), 0);
  EXPECT_EQ(rng.NextPoisson(-1.0), 0);
}

TEST(RngTest, BernoulliFraction) {
  Rng rng(31);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.3)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, FindBinEdges) {
  Histogram1D h({"h", "", 10, 0.0, 10.0});
  EXPECT_EQ(h.FindBin(-0.001), -1);
  EXPECT_EQ(h.FindBin(0.0), 0);
  EXPECT_EQ(h.FindBin(0.999), 0);
  EXPECT_EQ(h.FindBin(1.0), 1);
  EXPECT_EQ(h.FindBin(9.999), 9);
  EXPECT_EQ(h.FindBin(10.0), 10);  // overflow
}

TEST(HistogramTest, FillAndFlows) {
  Histogram1D h({"h", "", 4, 0.0, 4.0});
  h.Fill(-1.0);
  h.Fill(0.5);
  h.Fill(1.5, 2.0);
  h.Fill(7.0);
  EXPECT_EQ(h.num_entries(), 4u);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.BinContent(0), 1.0);
  EXPECT_DOUBLE_EQ(h.BinContent(1), 2.0);
  EXPECT_DOUBLE_EQ(h.sum_weights(), 5.0);
}

TEST(HistogramTest, MeanAndStddev) {
  Histogram1D h({"h", "", 100, 0.0, 10.0});
  for (int i = 0; i < 1000; ++i) h.Fill(4.0);
  for (int i = 0; i < 1000; ++i) h.Fill(6.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  EXPECT_NEAR(h.stddev(), 1.0, 1e-12);
}

TEST(HistogramTest, MergeRequiresMatchingSpec) {
  Histogram1D a({"a", "", 10, 0.0, 1.0});
  Histogram1D b({"b", "", 10, 0.0, 1.0});
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(HistogramTest, MergeAddsContents) {
  Histogram1D a({"h", "", 10, 0.0, 10.0});
  Histogram1D b({"h", "", 10, 0.0, 10.0});
  a.Fill(1.0);
  b.Fill(1.0);
  b.Fill(20.0);
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_DOUBLE_EQ(a.BinContent(1), 2.0);
  EXPECT_DOUBLE_EQ(a.overflow(), 1.0);
  EXPECT_EQ(a.num_entries(), 3u);
}

TEST(HistogramTest, ApproxEquals) {
  Histogram1D a({"h", "", 10, 0.0, 10.0});
  Histogram1D b({"h", "", 10, 0.0, 10.0});
  a.Fill(3.0);
  b.Fill(3.0);
  EXPECT_TRUE(a.ApproxEquals(b));
  b.Fill(4.0);
  EXPECT_FALSE(a.ApproxEquals(b));
}

TEST(HistogramTest, BinGeometry) {
  Histogram1D h({"h", "", 4, 0.0, 8.0});
  EXPECT_DOUBLE_EQ(h.BinLowEdge(0), 0.0);
  EXPECT_DOUBLE_EQ(h.BinLowEdge(4), 8.0);
  EXPECT_DOUBLE_EQ(h.BinCenter(1), 3.0);
}

TEST(HistogramTest, DegenerateSpecIsSanitized) {
  Histogram1D h({"h", "", 0, 5.0, 5.0});
  EXPECT_GE(h.spec().num_bins, 1);
  EXPECT_GT(h.spec().hi, h.spec().lo);
  h.Fill(5.0);  // must not crash
}

TEST(HistogramTest, CsvIncludesFlowRows) {
  Histogram1D h({"h", "", 2, 0.0, 2.0});
  h.Fill(-5.0);
  h.Fill(0.5);
  h.Fill(1.5);
  h.Fill(1.5);
  h.Fill(99.0);
  EXPECT_EQ(h.ToCsv(),
            "bin_low,bin_high,content\n"
            "-inf,0,1\n"
            "0,1,1\n"
            "1,2,2\n"
            "2,inf,1\n");
}

// Property sweep: every in-range value lands in exactly the bin whose
// edges contain it.
class HistogramBinProperty : public ::testing::TestWithParam<int> {};

TEST_P(HistogramBinProperty, ValueWithinItsBinEdges) {
  const int bins = GetParam();
  Histogram1D h({"h", "", bins, -3.0, 7.0});
  Rng rng(41);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.Uniform(-3.0, 7.0);
    const int bin = h.FindBin(v);
    ASSERT_GE(bin, 0);
    ASSERT_LT(bin, bins);
    EXPECT_GE(v, h.BinLowEdge(bin));
    EXPECT_LT(v, h.BinLowEdge(bin + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(BinCounts, HistogramBinProperty,
                         ::testing::Values(1, 7, 100, 1000));

// ---------------------------------------------------------------------------
// Four-vectors & physics
// ---------------------------------------------------------------------------

TEST(FourVectorTest, RoundTripConversion) {
  const PtEtaPhiM p{50.0, 1.2, -2.1, 5.0};
  const PtEtaPhiM q = p.ToPxPyPzE().ToPtEtaPhiM();
  EXPECT_NEAR(q.pt, p.pt, 1e-9);
  EXPECT_NEAR(q.eta, p.eta, 1e-9);
  EXPECT_NEAR(q.phi, p.phi, 1e-9);
  EXPECT_NEAR(q.mass, p.mass, 1e-7);
}

TEST(FourVectorTest, MassOfSingleParticle) {
  const PtEtaPhiM p{30.0, 0.5, 1.0, 4.2};
  EXPECT_NEAR(p.ToPxPyPzE().Mass(), 4.2, 1e-9);
}

TEST(FourVectorTest, BackToBackMasslessPairMass) {
  // Two massless particles, equal pt, opposite phi, eta = 0:
  // m^2 = 2 pt^2 (1 - cos(pi)) = 4 pt^2.
  const PtEtaPhiM p1{40.0, 0.0, 0.0, 0.0};
  const PtEtaPhiM p2{40.0, 0.0, M_PI, 0.0};
  EXPECT_NEAR(InvariantMass2(p1, p2), 80.0, 1e-9);
}

TEST(FourVectorTest, CollinearPairHasSumMass) {
  const PtEtaPhiM p1{40.0, 0.7, 0.3, 0.0};
  const PtEtaPhiM p2{10.0, 0.7, 0.3, 0.0};
  EXPECT_NEAR(InvariantMass2(p1, p2), 0.0, 1e-6);
}

TEST(FourVectorTest, AdditionIsCommutativeAndAssociative) {
  Rng rng(43);
  for (int i = 0; i < 200; ++i) {
    const PtEtaPhiM a{rng.Uniform(1, 100), rng.Uniform(-2, 2),
                      rng.Uniform(-3, 3), rng.Uniform(0, 10)};
    const PtEtaPhiM b{rng.Uniform(1, 100), rng.Uniform(-2, 2),
                      rng.Uniform(-3, 3), rng.Uniform(0, 10)};
    const PtEtaPhiM c{rng.Uniform(1, 100), rng.Uniform(-2, 2),
                      rng.Uniform(-3, 3), rng.Uniform(0, 10)};
    EXPECT_NEAR((a + b).pt, (b + a).pt, 1e-9);
    EXPECT_NEAR(((a + b) + c).pt, AddPtEtaPhiM3(a, b, c).pt, 1e-9);
    EXPECT_NEAR(((a + b) + c).mass, AddPtEtaPhiM3(a, b, c).mass, 1e-6);
  }
}

TEST(PhysicsTest, DeltaPhiWrapsIntoRange) {
  Rng rng(47);
  for (int i = 0; i < 2000; ++i) {
    const double d =
        DeltaPhi(rng.Uniform(-10.0, 10.0), rng.Uniform(-10.0, 10.0));
    EXPECT_GT(d, -M_PI - 1e-12);
    EXPECT_LE(d, M_PI + 1e-12);
  }
}

TEST(PhysicsTest, DeltaPhiKnownValues) {
  EXPECT_NEAR(DeltaPhi(0.5, 0.2), 0.3, 1e-12);
  EXPECT_NEAR(DeltaPhi(3.0, -3.0), 6.0 - 2 * M_PI, 1e-12);
}

TEST(PhysicsTest, DeltaRIsSymmetricAndNonNegative) {
  Rng rng(53);
  for (int i = 0; i < 500; ++i) {
    const double eta1 = rng.Uniform(-3, 3), phi1 = rng.Uniform(-3, 3);
    const double eta2 = rng.Uniform(-3, 3), phi2 = rng.Uniform(-3, 3);
    const double d12 = DeltaR(eta1, phi1, eta2, phi2);
    EXPECT_GE(d12, 0.0);
    EXPECT_NEAR(d12, DeltaR(eta2, phi2, eta1, phi1), 1e-12);
    EXPECT_NEAR(DeltaR(eta1, phi1, eta1, phi1), 0.0, 1e-12);
  }
}

TEST(PhysicsTest, InvariantMassAtLeastSumOfMasses) {
  Rng rng(59);
  for (int i = 0; i < 500; ++i) {
    const PtEtaPhiM p1{rng.Uniform(1, 100), rng.Uniform(-2, 2),
                       rng.Uniform(-3, 3), rng.Uniform(0, 5)};
    const PtEtaPhiM p2{rng.Uniform(1, 100), rng.Uniform(-2, 2),
                       rng.Uniform(-3, 3), rng.Uniform(0, 5)};
    EXPECT_GE(InvariantMass2(p1, p2), p1.mass + p2.mass - 1e-6);
  }
}

TEST(PhysicsTest, TransverseMassKnownValue) {
  // Back-to-back: mT = sqrt(2 pt1 pt2 (1 - cos pi)) = 2 sqrt(pt1 pt2).
  EXPECT_NEAR(TransverseMass(25.0, 0.0, 25.0, M_PI), 50.0, 1e-9);
  // Collinear: mT = 0.
  EXPECT_NEAR(TransverseMass(25.0, 1.0, 30.0, 1.0), 0.0, 1e-9);
}

// ---------------------------------------------------------------------------
// JSON writer -> parser round trips
// ---------------------------------------------------------------------------

json::JsonValue ParseOrDie(const std::string& text) {
  auto parsed = json::ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  return parsed.ok() ? *parsed : json::JsonValue();
}

TEST(JsonWriterTest, StringsRoundTripEveryByte) {
  std::string s = "quote\" backslash\\ slash/ ";
  for (int c = 0x00; c < 0x20; ++c) s.push_back(static_cast<char>(c));
  s += " caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80 raw\xff";
  json::Writer w;
  w.BeginObject().Field(s, s).EndObject();
  // Nothing below 0x20 survives unescaped.
  for (const char c : w.str()) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  EXPECT_NE(w.str().find("\\u0000"), std::string::npos);
  EXPECT_NE(w.str().find("\\u001f"), std::string::npos);
  EXPECT_NE(w.str().find("\\n"), std::string::npos);
  const json::JsonValue doc = ParseOrDie(w.str());
  ASSERT_EQ(doc.object_items().size(), 1u);
  EXPECT_EQ(doc.object_items()[0].first, s);
  EXPECT_EQ(doc.object_items()[0].second.string_value(), s);
}

TEST(JsonWriterTest, IntegersAreExact) {
  json::Writer w;
  w.BeginArray()
      .Value(std::numeric_limits<int64_t>::min())
      .Value(std::numeric_limits<int64_t>::max())
      .Value(std::numeric_limits<uint64_t>::max())
      .Value(0)
      .Value(-1)
      .EndArray();
  EXPECT_EQ(w.str(),
            "[-9223372036854775808,9223372036854775807,"
            "18446744073709551615,0,-1]");
  const json::JsonValue doc = ParseOrDie(w.str());
  ASSERT_EQ(doc.array_items().size(), 5u);
  EXPECT_EQ(doc.array_items()[0].number_value(), -9223372036854775808.0);
  EXPECT_EQ(doc.array_items()[2].number_value(), 18446744073709551615.0);
}

TEST(JsonWriterTest, DoublesRoundTripBitExact) {
  const std::vector<double> values = {
      0.1,     1e-300, -0.0, 1000001.0, 0.1234561, 0.1234562,
      1.0 / 3, 5e-324, std::numeric_limits<double>::max()};
  json::Writer w;
  w.BeginArray();
  for (const double v : values) w.Value(v);
  w.EndArray();
  const json::JsonValue doc = ParseOrDie(w.str());
  ASSERT_EQ(doc.array_items().size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(doc.array_items()[i].number_value()),
              std::bit_cast<uint64_t>(values[i]))
        << w.str();
  }
  // Shortest digits: no padding, no precision loss.
  EXPECT_EQ(w.str().substr(0, 28), "[0.1,1e-300,-0,1000001,0.123");
}

TEST(JsonWriterTest, NonFiniteNumbersAreNull) {
  json::Writer w;
  w.BeginObject()
      .Field("nan", std::numeric_limits<double>::quiet_NaN())
      .Field("inf", std::numeric_limits<double>::infinity())
      .Field("ninf", -std::numeric_limits<double>::infinity())
      .EndObject();
  EXPECT_EQ(w.str(), "{\"nan\":null,\"inf\":null,\"ninf\":null}");
  const json::JsonValue doc = ParseOrDie(w.str());
  for (const auto& [key, value] : doc.object_items()) {
    EXPECT_TRUE(value.is_null()) << key;
  }
}

TEST(JsonWriterTest, EmptyAndNestedContainers) {
  json::Writer w;
  w.BeginObject()
      .Key("a").BeginArray().EndArray()
      .Key("o").BeginObject().EndObject()
      .Key("n").BeginArray()
      .BeginArray().BeginObject().EndObject().EndArray()
      .BeginObject().Field("x", true).Key("y").Null().EndObject()
      .Value("s")
      .EndArray()
      .EndObject();
  EXPECT_EQ(w.str(),
            "{\"a\":[],\"o\":{},\"n\":[[{}],{\"x\":true,\"y\":null},\"s\"]}");
  const json::JsonValue doc = ParseOrDie(w.str());
  EXPECT_TRUE(doc.Find("a")->array_items().empty());
  EXPECT_TRUE(doc.Find("o")->object_items().empty());
  const auto& nested = doc.Find("n")->array_items();
  ASSERT_EQ(nested.size(), 3u);
  EXPECT_TRUE(nested[0].array_items()[0].is_object());
  EXPECT_TRUE(nested[1].Find("x")->bool_value());
  EXPECT_TRUE(nested[1].Find("y")->is_null());
  EXPECT_EQ(nested[2].string_value(), "s");
}

// Every emitter in the repo writes through json::Writer; each document
// must parse, including the strings that need escaping.

TEST(JsonEmittersTest, RunReportWithQuotedQueryAndWarningParses) {
  obs::TraceSession session;
  session.Start();
  { obs::ScopedSpan span("run", obs::Stage::kRun); }
  session.Stop();
  obs::RunInfo info;
  info.query = "Q\"5\"\n\\";
  info.engine = "rdf";
  obs::RunReport report = obs::BuildRunReport(session, info, ScanStats{});
  report.warnings.push_back("shard \"a b\"\tlost");
  const json::JsonValue doc = ParseOrDie(obs::ReportToJson(report));
  EXPECT_EQ(doc.Find("schema_version")->number_value(), 4.0);
  EXPECT_EQ(doc.Find("query")->string_value(), info.query);
  ASSERT_EQ(doc.Find("warnings")->array_items().size(), 1u);
  EXPECT_EQ(doc.Find("warnings")->array_items()[0].string_value(),
            "shard \"a b\"\tlost");
  EXPECT_TRUE(doc.Find("metrics")->is_array());
  EXPECT_EQ(doc.Find("figure4")->Find("cpu_ns_per_event")->number_value(),
            0.0);
}

TEST(JsonEmittersTest, MetricsWithLabelledNamesParse) {
  obs::metrics::SetMetricsEnabled(true);
  obs::metrics::GetCounter("json_test_runs_total{engine=\"rdf\"}").Add(3);
  obs::metrics::GetHistogram("json_test_ns{engine=\"rdf\"}").Observe(5000);
  obs::metrics::SetMetricsEnabled(false);
  const json::JsonValue doc = ParseOrDie(
      obs::metrics::MetricsToJson(obs::metrics::SnapshotMetrics()));
  EXPECT_EQ(doc.Find("bucket_bounds_ns")->array_items().size(),
            static_cast<size_t>(obs::metrics::kHistogramBuckets));
  int found = 0;
  for (const json::JsonValue& metric : doc.Find("metrics")->array_items()) {
    const std::string& name = metric.Find("name")->string_value();
    if (name == "json_test_runs_total{engine=\"rdf\"}") {
      EXPECT_EQ(metric.Find("value")->number_value(), 3.0);
      ++found;
    } else if (name == "json_test_ns{engine=\"rdf\"}") {
      EXPECT_EQ(metric.Find("count")->number_value(), 1.0);
      EXPECT_EQ(metric.Find("buckets")->array_items().size(),
                static_cast<size_t>(obs::metrics::kHistogramBuckets + 1));
      ++found;
    }
  }
  EXPECT_EQ(found, 2);
}

TEST(JsonEmittersTest, BothTraceFormsParse) {
  obs::TraceSession session;
  session.Start();
  {
    obs::ScopedSpan span("run \"quoted\"", obs::Stage::kRun);
    obs::ScopedSpan inner("row_group", obs::Stage::kRowGroup);
  }
  session.Stop();
  // In-process: one process, empty shard range, no process_name.
  std::vector<obs::ProcessReport> one;
  one.push_back(
      obs::BuildProcessReport(session, obs::RunInfo{}, ScanStats{}, 0, 0));
  const json::JsonValue in_process = ParseOrDie(obs::ChromeTraceJson(one));
  EXPECT_EQ(in_process.Find("traceEvents")->array_items().size(), 3u);
  // Scattered: two workers plus a lost one (skipped), each named.
  std::vector<obs::ProcessReport> workers;
  workers.push_back(
      obs::BuildProcessReport(session, obs::RunInfo{}, ScanStats{}, 0, 2));
  workers.push_back(
      obs::BuildProcessReport(session, obs::RunInfo{}, ScanStats{}, 2, 3));
  workers.emplace_back();
  workers.back().received = false;
  const json::JsonValue stitched = ParseOrDie(obs::ChromeTraceJson(workers));
  const auto& events = stitched.Find("traceEvents")->array_items();
  ASSERT_EQ(events.size(), 8u);  // per worker: process + thread + 2 spans
  EXPECT_EQ(events[0].Find("name")->string_value(), "process_name");
  EXPECT_EQ(events[0].Find("args")->Find("name")->string_value(),
            "worker p0 shards [0,2)");
  EXPECT_EQ(events[2].Find("name")->string_value(), "run \"quoted\"");
  EXPECT_EQ(events[7].Find("pid")->number_value(), 2.0);
}

TEST(JsonEmittersTest, BenchRecordsParse) {
  bench::BenchJson records("json_test");
  records.Add("Q\"1", "rdf", 0.25, 10, 20, 30);
  records.AddTier("k", "simd", std::numeric_limits<double>::quiet_NaN(), 2,
                  0.5);
  const json::JsonValue doc = ParseOrDie(records.ToJson());
  ASSERT_EQ(doc.array_items().size(), 2u);
  EXPECT_EQ(doc.array_items()[0].Find("query")->string_value(), "Q\"1");
  EXPECT_EQ(doc.array_items()[0].Find("cpu_s")->number_value(), 0.25);
  EXPECT_EQ(doc.array_items()[0].Find("rows_pruned")->number_value(), 30.0);
  EXPECT_TRUE(doc.array_items()[1].Find("ns_per_row")->is_null());
}

}  // namespace
}  // namespace hepq
