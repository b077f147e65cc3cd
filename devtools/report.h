//===- devtools/report.h - Benchmark telemetry reports ----------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured output layer behind `lfsmr-bench`. Every benchmark
/// suite produces DataPoint records — (suite, panel, structure, mix,
/// scheme, threads) coordinates plus per-repeat RunStats for throughput
/// and the Figure 12 memory metric — and a Report renders them in one of
/// three formats:
///
///  - `json`:  one machine-readable document wrapping the points in run
///             metadata (git sha, compiler, flags, hardware concurrency,
///             suite seed, wall time). This is the `BENCH_*.json` schema
///             CI archives; see README "Benchmark telemetry" for the
///             field-by-field description.
///  - `csv`:   streaming rows with `# key=value` metadata comments,
///             superseding the ad-hoc printf CSV of the old per-figure
///             binaries.
///  - `human`: aligned, progress-friendly lines grouped by suite/panel.
///
/// CSV and human output stream as points arrive (a sweep can take
/// minutes); JSON buffers and is written by finish(), which also stamps
/// the total wall time.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_DEVTOOLS_REPORT_H
#define LFSMR_DEVTOOLS_REPORT_H

#include "devtools/stats.h"
#include "lfsmr/telemetry.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace lfsmr::report {

enum class Format { Json, Csv, Human };

/// Parses "json"/"csv"/"human" into \p Out; false on any other name.
bool parseFormat(const std::string &Name, Format &Out);
const char *formatName(Format F);

/// Provenance stamped into every report.
struct RunMetadata {
  std::string Tool = "lfsmr-bench";
  std::string Command;      ///< the argv line that produced the report
  std::string GitSha;       ///< configure-time sha or $GITHUB_SHA
  std::string Compiler;     ///< e.g. "GNU 12.2.0"
  std::string Flags;        ///< compile flags of the library build
  std::string BuildType;    ///< e.g. "RelWithDebInfo"
  unsigned HardwareConcurrency = 0;
  uint64_t Seed = 0;        ///< base suite seed (repeat R uses Seed + R)
  std::vector<std::string> Suites; ///< suite names this run covers
  int64_t StartedUnix = 0;  ///< wall-clock start, Unix seconds
};

/// Fills GitSha/Compiler/Flags/BuildType from build_info.h,
/// HardwareConcurrency and StartedUnix from the runtime. Command, Seed,
/// and Suites stay for the caller.
RunMetadata collectMetadata();

/// One measured data point: the coordinates identifying it plus
/// per-repeat statistics. Suites that have no structure/mix (table1,
/// enter-leave, stall) use "-".
struct DataPoint {
  std::string Suite;
  std::string Panel;     ///< figure panel ("fig11b+12b") or series label
  std::string Structure; ///< "list", "hashmap", "nmtree", "bonsai", "-"
  std::string Mix;       ///< "write", "read", "-"
  std::string Scheme;
  unsigned Threads = 0;
  RunStats Mops;            ///< throughput per repeat, Mops/s
  RunStats AvgUnreclaimed;  ///< Figure 12 metric per repeat
  RunStats PeakUnreclaimed; ///< peak sampled unreclaimed per repeat
  /// Optional per-operation latency distribution (kv-snap-cycle):
  /// each repeat contributes its sampled p50/p99 in nanoseconds. Empty
  /// (count() == 0) for suites that only measure throughput; JSON emits
  /// the `lat_*` objects only when present.
  RunStats LatP50Ns;
  RunStats LatP99Ns;
  /// Optional abort rate in percent (kv-txn panels): per repeat, the
  /// share of commit attempts that aborted on conflict. Empty for
  /// suites without an abort notion; emitted only when present.
  RunStats AbortPct;
  /// Optional heap footprint per key (u64 kv-read panels): per repeat,
  /// the glibc in-use heap bytes the single-threaded prefill took,
  /// divided by the key count. Empty off glibc; emitted only when
  /// present, JSON-only.
  RunStats HeapBytesPerKey;
  /// Optional workload skew knob (kv-serve panels): the zipfian theta the
  /// point ran under. Negative means "no skew dimension"; JSON emits
  /// `zipf_theta` and csv/human print it only when >= 0.
  double ZipfTheta = -1.0;
  /// Optional end-of-run telemetry snapshot of the store the point ran
  /// against (`store::stats()` after the last repeat quiesced): the
  /// same schema `lfsmr::telemetry::to_json` renders, embedded as the
  /// point's `stats` object so a BENCH document carries scheme-level
  /// accounting (retired/freed/unreclaimed/era) and store counters next
  /// to the throughput numbers. JSON-only; csv/human omit it.
  std::optional<lfsmr::telemetry::store_stats> Stats;
  uint64_t TotalOps = 0;    ///< raw operations summed over repeats
  double WallSec = 0;       ///< measured wall time summed over repeats
};

/// One qualitative row of the paper's Table 1 (scheme traits with the
/// measured header size). Kept as plain strings so the support layer does
/// not depend on the scheme headers.
struct QualRow {
  std::string Name;
  std::string BasedOn;
  std::string Performance;
  std::string Robust;
  std::string Transparent;
  std::size_t HeaderBytes = 0;
  std::string PaperHeader; ///< the paper's figure for contrast
  std::string Api;
  bool NeedsDeref = false;
  bool NeedsIndices = false;
  bool SupportsBonsai = false;
};

/// Renders data points (and optional Table 1 rows / free-form notes) to
/// \p Out in the chosen format. The caller owns \p Out; finish() must be
/// called exactly once before the Report is destroyed (the destructor
/// finishes as a backstop).
class Report {
public:
  Report(Format F, std::FILE *Out);
  ~Report();

  Report(const Report &) = delete;
  Report &operator=(const Report &) = delete;

  Format format() const { return Fmt; }

  /// Must precede the first addPoint (csv/human stream the preamble).
  void setMetadata(RunMetadata M);

  void addPoint(const DataPoint &P);
  void addQualRow(const QualRow &R);

  /// Attaches a free-form annotation: a comment line in csv/human, an
  /// entry in the `notes` array in JSON.
  void note(std::string Text);

  /// Completes the document: writes the buffered JSON, or the trailing
  /// wall-time comment for csv/human.
  void finish();

private:
  void emitPreamble();
  void emitCsvPoint(const DataPoint &P);
  void emitHumanPoint(const DataPoint &P);
  void emitQualTable();
  std::string renderJson(double WallSec) const;

  Format Fmt;
  std::FILE *Out;
  RunMetadata Meta;
  bool PreambleDone = false;
  bool Finished = false;
  std::vector<DataPoint> Points;   ///< buffered for JSON only
  std::vector<QualRow> QualRows;
  std::vector<std::string> Notes;
  std::string LastGroup;           ///< human format: suite/panel grouping
  std::chrono::steady_clock::time_point Start;
};

} // namespace lfsmr::report

#endif // LFSMR_DEVTOOLS_REPORT_H
