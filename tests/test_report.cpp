//===- tests/test_report.cpp - JSON writer + report layer unit tests ------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the benchmark telemetry layer: JSON string escaping, writer
/// structure (commas, nesting, non-finite handling), RunStats per-sample
/// round-trip with the p50/p99 repeat spread, and the Report document
/// schema (metadata fields, per-point records) across the three formats.
/// A minimal recursive-descent syntax checker verifies every emitted
/// document actually parses, mirroring what the CI bench-smoke job does
/// with `python3 -m json.tool`.
///
//===----------------------------------------------------------------------===//

#include "support/json.h"
#include "support/report.h"
#include "support/stats.h"

#include "gtest/gtest.h"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

using namespace lfsmr;

namespace {

//===----------------------------------------------------------------------===
// A minimal JSON syntax checker (tests only)

class JsonChecker {
public:
  explicit JsonChecker(const std::string &S) : S(S) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  void skipWs() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }
  bool literal(const char *L) {
    const std::size_t N = std::char_traits<char>::length(L);
    if (S.compare(Pos, N, L) != 0)
      return false;
    Pos += N;
    return true;
  }
  bool string() {
    if (Pos >= S.size() || S[Pos] != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (static_cast<unsigned char>(S[Pos]) < 0x20)
        return false; // raw control character: invalid JSON
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
        const char E = S[Pos];
        if (E == 'u') {
          for (int I = 0; I < 4; ++I)
            if (++Pos >= S.size() ||
                !std::isxdigit(static_cast<unsigned char>(S[Pos])))
              return false;
        } else if (!std::strchr("\"\\/bfnrt", E)) {
          return false;
        }
      }
      ++Pos;
    }
    if (Pos >= S.size())
      return false;
    ++Pos; // closing quote
    return true;
  }
  bool number() {
    const std::size_t Begin = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
            std::strchr(".eE+-", S[Pos])))
      ++Pos;
    return Pos > Begin;
  }
  bool value() {
    skipWs();
    if (Pos >= S.size())
      return false;
    const char C = S[Pos];
    if (C == '{')
      return object();
    if (C == '[')
      return array();
    if (C == '"')
      return string();
    if (C == 't')
      return literal("true");
    if (C == 'f')
      return literal("false");
    if (C == 'n')
      return literal("null");
    return number();
  }
  bool object() {
    ++Pos; // '{'
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':')
        return false;
      ++Pos;
      if (!value())
        return false;
      skipWs();
      if (Pos < S.size() && S[Pos] == ',') {
        ++Pos;
        continue;
      }
      break;
    }
    if (Pos >= S.size() || S[Pos] != '}')
      return false;
    ++Pos;
    return true;
  }
  bool array() {
    ++Pos; // '['
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      if (!value())
        return false;
      skipWs();
      if (Pos < S.size() && S[Pos] == ',') {
        ++Pos;
        continue;
      }
      break;
    }
    if (Pos >= S.size() || S[Pos] != ']')
      return false;
    ++Pos;
    return true;
  }

  const std::string &S;
  std::size_t Pos = 0;
};

bool parses(const std::string &Doc) { return JsonChecker(Doc).valid(); }

//===----------------------------------------------------------------------===
// json::escape

TEST(JsonEscape, PlainPassthrough) {
  EXPECT_EQ(json::escape("hello world"), "hello world");
}

TEST(JsonEscape, QuotesAndBackslash) {
  EXPECT_EQ(json::escape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonEscape, CommonControls) {
  EXPECT_EQ(json::escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json::escape("\b\f"), "\\b\\f");
}

TEST(JsonEscape, RareControlsUseUnicodeForm) {
  EXPECT_EQ(json::escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json::escape(std::string(1, '\x1f')), "\\u001f");
}

TEST(JsonEscape, HighBytesPassThrough) {
  // UTF-8 multi-byte sequences must survive unmangled.
  EXPECT_EQ(json::escape("\xc3\xa9"), "\xc3\xa9");
}

//===----------------------------------------------------------------------===
// json::Writer

TEST(JsonWriter, ObjectWithMixedValues) {
  json::Writer W;
  W.beginObject();
  W.key("s").value("text");
  W.key("i").value(int64_t{-3});
  W.key("u").value(uint64_t{7});
  W.key("d").value(1.5);
  W.key("b").value(true);
  W.key("n").null();
  W.endObject();
  const std::string Doc = W.take();
  EXPECT_TRUE(parses(Doc)) << Doc;
  EXPECT_NE(Doc.find("\"s\": \"text\""), std::string::npos);
  EXPECT_NE(Doc.find("\"i\": -3"), std::string::npos);
  EXPECT_NE(Doc.find("\"b\": true"), std::string::npos);
  EXPECT_NE(Doc.find("\"n\": null"), std::string::npos);
}

TEST(JsonWriter, NestedArraysAndObjects) {
  json::Writer W;
  W.beginObject();
  W.key("points").beginArray();
  for (int I = 0; I < 3; ++I) {
    W.beginObject();
    W.key("idx").value(int64_t{I});
    W.key("vals").beginArray().value(1.0).value(2.0).endArray();
    W.endObject();
  }
  W.endArray();
  W.key("empty_obj").beginObject().endObject();
  W.key("empty_arr").beginArray().endArray();
  W.endObject();
  const std::string Doc = W.take();
  EXPECT_TRUE(parses(Doc)) << Doc;
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  json::Writer W;
  W.beginArray();
  W.value(std::numeric_limits<double>::quiet_NaN());
  W.value(std::numeric_limits<double>::infinity());
  W.value(-std::numeric_limits<double>::infinity());
  W.endArray();
  const std::string Doc = W.take();
  EXPECT_TRUE(parses(Doc)) << Doc;
  EXPECT_EQ(Doc.find("nan"), std::string::npos);
  EXPECT_EQ(Doc.find("inf"), std::string::npos);
}

TEST(JsonWriter, EscapedKeyAndValue) {
  json::Writer W;
  W.beginObject();
  W.key("we\"ird").value("line\nbreak");
  W.endObject();
  const std::string Doc = W.take();
  EXPECT_TRUE(parses(Doc)) << Doc;
  EXPECT_NE(Doc.find("we\\\"ird"), std::string::npos);
  EXPECT_NE(Doc.find("line\\nbreak"), std::string::npos);
}

//===----------------------------------------------------------------------===
// RunStats: per-sample retention + percentiles

TEST(StatsSamples, RoundTrip) {
  RunStats S;
  S.add(3.0);
  S.add(1.0);
  S.add(2.0);
  ASSERT_EQ(S.samples().size(), 3u);
  // Insertion order is preserved (the report publishes raw repeats).
  EXPECT_DOUBLE_EQ(S.samples()[0], 3.0);
  EXPECT_DOUBLE_EQ(S.samples()[1], 1.0);
  EXPECT_DOUBLE_EQ(S.samples()[2], 2.0);
  EXPECT_DOUBLE_EQ(S.mean(), 2.0);
  EXPECT_DOUBLE_EQ(S.min(), 1.0);
  EXPECT_DOUBLE_EQ(S.max(), 3.0);
  EXPECT_DOUBLE_EQ(S.stddev(), 1.0);
}

TEST(StatsSamples, PercentileMedian) {
  RunStats S;
  for (double V : {5.0, 1.0, 3.0})
    S.add(V);
  EXPECT_DOUBLE_EQ(S.percentile(50), 3.0);
}

TEST(StatsSamples, PercentileInterpolates) {
  RunStats S;
  S.add(0.0);
  S.add(10.0);
  EXPECT_DOUBLE_EQ(S.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(S.percentile(25), 2.5);
}

TEST(StatsSamples, PercentileEdges) {
  RunStats S;
  for (double V : {4.0, 8.0, 6.0})
    S.add(V);
  EXPECT_DOUBLE_EQ(S.percentile(0), 4.0);
  EXPECT_DOUBLE_EQ(S.percentile(100), 8.0);
  EXPECT_DOUBLE_EQ(RunStats().percentile(50), 0.0);
}

TEST(StatsSamples, P99NearMax) {
  RunStats S;
  for (int I = 1; I <= 100; ++I)
    S.add(static_cast<double>(I));
  EXPECT_NEAR(S.percentile(99), 99.01, 1e-9);
  EXPECT_NEAR(S.percentile(50), 50.5, 1e-9);
}

//===----------------------------------------------------------------------===
// Report documents

/// Renders a small two-point report in \p F and returns the output.
std::string renderReport(report::Format F) {
  std::FILE *Tmp = std::tmpfile();
  EXPECT_NE(Tmp, nullptr);
  {
    report::Report Rep(F, Tmp);
    report::RunMetadata Meta = report::collectMetadata();
    Meta.Command = "lfsmr-bench test --format x";
    Meta.Seed = 0x5eed;
    Meta.Suites = {"hashmap"};
    Rep.setMetadata(std::move(Meta));

    report::DataPoint Pt;
    Pt.Suite = "hashmap";
    Pt.Panel = "fig11b+12b";
    Pt.Structure = "hashmap";
    Pt.Mix = "write";
    Pt.Scheme = "epoch";
    Pt.Threads = 8;
    Pt.Mops.add(1.5);
    Pt.Mops.add(2.5);
    Pt.AvgUnreclaimed.add(100.0);
    Pt.AvgUnreclaimed.add(200.0);
    Pt.PeakUnreclaimed.add(400.0);
    Pt.PeakUnreclaimed.add(300.0);
    Pt.TotalOps = 123456;
    Pt.WallSec = 0.5;
    Rep.addPoint(Pt);

    // The second point carries the optional latency stats (kv-snap-cycle
    // panels): JSON must emit them here and omit them on the first point.
    Pt.Scheme = "hyalines";
    Pt.LatP50Ns.add(120.0);
    Pt.LatP99Ns.add(900.0);
    Pt.AbortPct.add(12.5); // kv-txn panels: abort rate rides along
    Pt.ZipfTheta = 0.99;   // kv-serve panels: key-skew dimension
    // u64 kv-read panels: the prefill's heap bytes per key.
    Pt.HeapBytesPerKey.add(136.25);
    Rep.addPoint(Pt);

    report::QualRow Row;
    Row.Name = "Epoch";
    Row.BasedOn = "RCU";
    Row.Performance = "Fast";
    Row.Robust = "No";
    Row.Transparent = "No (retire)";
    Row.HeaderBytes = 16;
    Row.PaperHeader = "1 word";
    Row.Api = "Very easy";
    Rep.addQualRow(Row);

    Rep.note("a note with \"quotes\"");
    Rep.finish();
  }
  std::rewind(Tmp);
  std::string Out;
  char Buf[4096];
  std::size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), Tmp)) > 0)
    Out.append(Buf, N);
  std::fclose(Tmp);
  return Out;
}

TEST(ReportJson, DocumentParses) {
  const std::string Doc = renderReport(report::Format::Json);
  EXPECT_TRUE(parses(Doc)) << Doc;
}

TEST(ReportJson, SchemaFieldsPresent) {
  const std::string Doc = renderReport(report::Format::Json);
  for (const char *Field :
       {"\"schema_version\"", "\"metadata\"", "\"tool\"", "\"command\"",
        "\"git_sha\"", "\"compiler\"", "\"flags\"", "\"build_type\"",
        "\"hardware_concurrency\"", "\"seed\"", "\"suites\"",
        "\"started_unix\"", "\"wall_time_sec\"", "\"points\"", "\"suite\"",
        "\"panel\"", "\"structure\"", "\"mix\"", "\"scheme\"",
        "\"threads\"", "\"repeats\"", "\"mops\"", "\"avg_unreclaimed\"",
        "\"peak_unreclaimed\"", "\"mean\"", "\"stddev\"", "\"min\"",
        "\"max\"", "\"p50\"", "\"p99\"", "\"samples\"", "\"zipf_theta\"",
        "\"total_ops\"", "\"wall_sec\"", "\"table1\"", "\"header_bytes\"",
        "\"notes\""})
    EXPECT_NE(Doc.find(Field), std::string::npos) << "missing " << Field;
}

TEST(ReportJson, LatencyStatsEmittedOnlyWhenPresent) {
  const std::string Doc = renderReport(report::Format::Json);
  // Exactly one of the two points carries latency samples.
  std::size_t Count = 0;
  for (std::size_t At = Doc.find("\"lat_p50_ns\""); At != std::string::npos;
       At = Doc.find("\"lat_p50_ns\"", At + 1))
    ++Count;
  EXPECT_EQ(Count, 1u);
  EXPECT_NE(Doc.find("\"lat_p99_ns\""), std::string::npos);
  EXPECT_NE(Doc.find("900"), std::string::npos);
}

TEST(ReportJson, AbortStatsEmittedOnlyWhenPresent) {
  const std::string Doc = renderReport(report::Format::Json);
  // Only the second point carries an abort rate (kv-txn panels).
  std::size_t Count = 0;
  for (std::size_t At = Doc.find("\"abort_pct\""); At != std::string::npos;
       At = Doc.find("\"abort_pct\"", At + 1))
    ++Count;
  EXPECT_EQ(Count, 1u);
  EXPECT_NE(Doc.find("12.5"), std::string::npos);
}

TEST(ReportJson, ZipfThetaEmittedOnlyWhenPresent) {
  const std::string Doc = renderReport(report::Format::Json);
  // Only the second point carries a skew dimension (kv-serve panels);
  // the default (negative) must not leak into the document.
  std::size_t Count = 0;
  for (std::size_t At = Doc.find("\"zipf_theta\""); At != std::string::npos;
       At = Doc.find("\"zipf_theta\"", At + 1))
    ++Count;
  EXPECT_EQ(Count, 1u);
  EXPECT_NE(Doc.find("0.99"), std::string::npos);
}

TEST(ReportJson, HeapBytesPerKeyEmittedOnlyWhenPresent) {
  const std::string Doc = renderReport(report::Format::Json);
  // Only the second point carries a heap footprint (u64 kv-read panels).
  std::size_t Count = 0;
  for (std::size_t At = Doc.find("\"heap_bytes_per_key\"");
       At != std::string::npos;
       At = Doc.find("\"heap_bytes_per_key\"", At + 1))
    ++Count;
  EXPECT_EQ(Count, 1u);
  EXPECT_NE(Doc.find("136.25"), std::string::npos);
}

TEST(ReportJson, StatsRoundTrip) {
  const std::string Doc = renderReport(report::Format::Json);
  // mean of {1.5, 2.5}, and both raw samples, must appear.
  EXPECT_NE(Doc.find("\"mean\": 2"), std::string::npos);
  EXPECT_NE(Doc.find("1.5"), std::string::npos);
  EXPECT_NE(Doc.find("2.5"), std::string::npos);
  EXPECT_NE(Doc.find("\"total_ops\": 123456"), std::string::npos);
  EXPECT_NE(Doc.find("\"repeats\": 2"), std::string::npos);
}

TEST(ReportJson, MetadataValues) {
  const std::string Doc = renderReport(report::Format::Json);
  EXPECT_NE(Doc.find("\"seed\": 24301"), std::string::npos); // 0x5eed
  EXPECT_NE(Doc.find("\"tool\": \"lfsmr-bench\""), std::string::npos);
  // collectMetadata never leaves the sha empty.
  EXPECT_EQ(Doc.find("\"git_sha\": \"\""), std::string::npos);
}

TEST(ReportCsv, HeaderAndRows) {
  const std::string Doc = renderReport(report::Format::Csv);
  EXPECT_NE(
      Doc.find("suite,panel,structure,mix,scheme,threads,repeats,mops_mean"),
      std::string::npos);
  EXPECT_NE(Doc.find("lat_p50_ns_mean,lat_p99_ns_mean,abort_pct_mean"),
            std::string::npos)
      << "csv header must carry the latency and abort columns";
  EXPECT_NE(Doc.find("abort_pct_mean,zipf_theta,total_ops"),
            std::string::npos)
      << "csv header must carry the kv-serve skew column";
  // The second row carries the skew; the first leaves its cell empty.
  EXPECT_NE(Doc.find(",0.99,"), std::string::npos);
  EXPECT_NE(Doc.find("hashmap,fig11b+12b,hashmap,write,epoch,8,2,2.0000"),
            std::string::npos);
  EXPECT_NE(Doc.find("# git_sha="), std::string::npos);
  EXPECT_NE(Doc.find("# wall_time_sec="), std::string::npos);
}

TEST(ReportHuman, MentionsPointsAndTable) {
  const std::string Doc = renderReport(report::Format::Human);
  EXPECT_NE(Doc.find("hashmap/fig11b+12b"), std::string::npos);
  EXPECT_NE(Doc.find("epoch"), std::string::npos);
  EXPECT_NE(Doc.find("Table 1"), std::string::npos);
}

TEST(ReportFormat, ParseNames) {
  report::Format F;
  EXPECT_TRUE(report::parseFormat("json", F));
  EXPECT_EQ(F, report::Format::Json);
  EXPECT_TRUE(report::parseFormat("csv", F));
  EXPECT_EQ(F, report::Format::Csv);
  EXPECT_TRUE(report::parseFormat("human", F));
  EXPECT_EQ(F, report::Format::Human);
  EXPECT_FALSE(report::parseFormat("yaml", F));
  EXPECT_FALSE(report::parseFormat("", F));
}

} // namespace
