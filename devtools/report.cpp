//===- devtools/report.cpp - Benchmark telemetry reports ------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "devtools/report.h"

#include "devtools/build_info.h"
#include "support/json.h"
#include "support/telemetry.h"

#include <cstdlib>
#include <cstring>
#include <ctime>
#include <thread>

using namespace lfsmr;
using namespace lfsmr::report;

bool report::parseFormat(const std::string &Name, Format &Out) {
  if (Name == "json") {
    Out = Format::Json;
    return true;
  }
  if (Name == "csv") {
    Out = Format::Csv;
    return true;
  }
  if (Name == "human") {
    Out = Format::Human;
    return true;
  }
  return false;
}

const char *report::formatName(Format F) {
  switch (F) {
  case Format::Json:
    return "json";
  case Format::Csv:
    return "csv";
  case Format::Human:
    return "human";
  }
  return "?";
}

RunMetadata report::collectMetadata() {
  RunMetadata M;
  M.GitSha = LFSMR_BUILD_GIT_SHA;
  if (M.GitSha == "unknown")
    if (const char *Env = std::getenv("GITHUB_SHA"))
      M.GitSha = Env;
  M.Compiler = LFSMR_BUILD_COMPILER;
  M.Flags = LFSMR_BUILD_FLAGS;
  M.BuildType = LFSMR_BUILD_TYPE;
  M.HardwareConcurrency = std::thread::hardware_concurrency();
  M.StartedUnix = static_cast<int64_t>(std::time(nullptr));
  return M;
}

namespace {

/// Repeat count of a point: throughput samples when present, else the
/// memory metric's (the stall series has no throughput dimension).
std::size_t repeatsOf(const DataPoint &P) {
  return P.Mops.count() ? P.Mops.count() : P.AvgUnreclaimed.count();
}

} // namespace

Report::Report(Format F, std::FILE *OutFile)
    : Fmt(F), Out(OutFile), Start(std::chrono::steady_clock::now()) {}

Report::~Report() {
  if (!Finished)
    finish();
}

void Report::setMetadata(RunMetadata M) { Meta = std::move(M); }

void Report::emitPreamble() {
  if (PreambleDone)
    return;
  PreambleDone = true;
  if (Fmt == Format::Csv) {
    std::fprintf(Out, "# %s report\n", Meta.Tool.c_str());
    std::fprintf(Out, "# command=%s\n", Meta.Command.c_str());
    std::fprintf(Out, "# git_sha=%s compiler=%s build_type=%s\n",
                 Meta.GitSha.c_str(), Meta.Compiler.c_str(),
                 Meta.BuildType.c_str());
    std::fprintf(Out, "# flags=%s\n", Meta.Flags.c_str());
    std::fprintf(Out,
                 "# hardware_concurrency=%u seed=%llu started_unix=%lld\n",
                 Meta.HardwareConcurrency,
                 static_cast<unsigned long long>(Meta.Seed),
                 static_cast<long long>(Meta.StartedUnix));
    std::fprintf(Out,
                 "suite,panel,structure,mix,scheme,threads,repeats,"
                 "mops_mean,mops_stddev,mops_min,mops_max,"
                 "avg_unreclaimed_mean,avg_unreclaimed_max,"
                 "peak_unreclaimed_max,lat_p50_ns_mean,lat_p99_ns_mean,"
                 "abort_pct_mean,zipf_theta,total_ops,wall_sec\n");
  } else if (Fmt == Format::Human) {
    std::fprintf(Out, "%s — git %s, %s (%s)\n", Meta.Tool.c_str(),
                 Meta.GitSha.c_str(), Meta.Compiler.c_str(),
                 Meta.BuildType.c_str());
    std::fprintf(Out, "hardware threads: %u, suite seed: 0x%llx\n",
                 Meta.HardwareConcurrency,
                 static_cast<unsigned long long>(Meta.Seed));
  }
  std::fflush(Out);
}

void Report::addPoint(const DataPoint &P) {
  emitPreamble();
  switch (Fmt) {
  case Format::Json:
    Points.push_back(P);
    break;
  case Format::Csv:
    emitCsvPoint(P);
    break;
  case Format::Human:
    emitHumanPoint(P);
    break;
  }
}

void Report::emitCsvPoint(const DataPoint &P) {
  // The skew column is empty for points without a zipfian dimension, so
  // consumers can tell "no skew knob" from any numeric value.
  char Theta[16] = "";
  if (P.ZipfTheta >= 0)
    std::snprintf(Theta, sizeof(Theta), "%.2f", P.ZipfTheta);
  std::fprintf(Out,
               "%s,%s,%s,%s,%s,%u,%zu,%.4f,%.4f,%.4f,%.4f,%.1f,%.1f,%.0f,"
               "%.1f,%.1f,%.2f,%s,%llu,%.3f\n",
               P.Suite.c_str(), P.Panel.c_str(), P.Structure.c_str(),
               P.Mix.c_str(), P.Scheme.c_str(), P.Threads, repeatsOf(P),
               P.Mops.mean(), P.Mops.stddev(), P.Mops.min(), P.Mops.max(),
               P.AvgUnreclaimed.mean(), P.AvgUnreclaimed.max(),
               P.PeakUnreclaimed.max(), P.LatP50Ns.mean(), P.LatP99Ns.mean(),
               P.AbortPct.mean(), Theta,
               static_cast<unsigned long long>(P.TotalOps), P.WallSec);
  std::fflush(Out);
}

void Report::emitHumanPoint(const DataPoint &P) {
  std::string Group = P.Suite + "/" + P.Panel;
  if (P.Structure != "-")
    Group += " (" + P.Structure + ", " + P.Mix + ")";
  if (Group != LastGroup) {
    std::fprintf(Out, "\n%s\n", Group.c_str());
    LastGroup = Group;
  }
  std::fprintf(Out,
               "  %-10s %4u thr  %9.3f ±%.3f Mops/s   unreclaimed avg "
               "%10.1f peak %10.0f",
               P.Scheme.c_str(), P.Threads, P.Mops.mean(), P.Mops.stddev(),
               P.AvgUnreclaimed.mean(), P.PeakUnreclaimed.max());
  if (P.LatP50Ns.count() || P.LatP99Ns.count())
    std::fprintf(Out, "   lat p50 %8.0f ns p99 %8.0f ns", P.LatP50Ns.mean(),
                 P.LatP99Ns.mean());
  if (P.AbortPct.count())
    std::fprintf(Out, "   abort %5.2f%%", P.AbortPct.mean());
  if (P.ZipfTheta >= 0)
    std::fprintf(Out, "   zipf %.2f", P.ZipfTheta);
  std::fputc('\n', Out);
  std::fflush(Out);
}

void Report::addQualRow(const QualRow &R) {
  emitPreamble();
  QualRows.push_back(R);
}

void Report::note(std::string Text) {
  emitPreamble();
  if (Fmt == Format::Json) {
    Notes.push_back(std::move(Text));
    return;
  }
  std::fprintf(Out, "# %s\n", Text.c_str());
  std::fflush(Out);
}

void Report::emitQualTable() {
  if (QualRows.empty())
    return;
  if (Fmt == Format::Csv) {
    std::fprintf(Out, "# table1: name,based_on,performance,robust,"
                      "transparent,header_bytes,paper_header,api,"
                      "needs_deref,needs_indices,supports_bonsai\n");
    for (const QualRow &R : QualRows)
      std::fprintf(Out, "# table1: %s,%s,%s,%s,%s,%zu,%s,%s,%d,%d,%d\n",
                   R.Name.c_str(), R.BasedOn.c_str(), R.Performance.c_str(),
                   R.Robust.c_str(), R.Transparent.c_str(), R.HeaderBytes,
                   R.PaperHeader.c_str(), R.Api.c_str(), R.NeedsDeref,
                   R.NeedsIndices, R.SupportsBonsai);
    return;
  }
  // Human: the paper's Table 1 shape with measured header sizes.
  std::fprintf(Out, "\nTable 1: comparison of Hyaline with SMR baselines "
                    "(measured header sizes)\n\n");
  std::fprintf(Out, "| %-10s | %-24s | %-8s | %-4s | %-11s | %-24s | %-9s |\n",
               "Scheme", "Based on", "Perf.", "Rob.", "Transparent",
               "Header size", "Usage/API");
  std::fprintf(Out, "|------------|--------------------------|----------|"
                    "------|-------------|--------------------------|"
                    "-----------|\n");
  for (const QualRow &R : QualRows) {
    char Header[32];
    std::snprintf(Header, sizeof(Header), "%zu B (paper: %s)", R.HeaderBytes,
                  R.PaperHeader.c_str());
    std::fprintf(Out, "| %-10s | %-24s | %-8s | %-4s | %-11s | %-24s | "
                      "%-9s |\n",
                 R.Name.c_str(), R.BasedOn.c_str(), R.Performance.c_str(),
                 R.Robust.c_str(), R.Transparent.c_str(), Header,
                 R.Api.c_str());
  }
}

namespace {

void writeStats(json::Writer &W, const char *Key, const RunStats &S) {
  W.key(Key).beginObject();
  W.key("mean").value(S.mean());
  W.key("stddev").value(S.stddev());
  W.key("min").value(S.min());
  W.key("max").value(S.max());
  W.key("p50").value(S.percentile(50));
  W.key("p99").value(S.percentile(99));
  W.key("samples").beginArray();
  for (const double V : S.samples())
    W.value(V);
  W.endArray();
  W.endObject();
}

} // namespace

std::string Report::renderJson(double WallSec) const {
  json::Writer W;
  W.beginObject();
  W.key("schema_version").value(int64_t{1});
  W.key("metadata").beginObject();
  W.key("tool").value(Meta.Tool);
  W.key("command").value(Meta.Command);
  W.key("git_sha").value(Meta.GitSha);
  W.key("compiler").value(Meta.Compiler);
  W.key("flags").value(Meta.Flags);
  W.key("build_type").value(Meta.BuildType);
  W.key("hardware_concurrency").value(Meta.HardwareConcurrency);
  W.key("seed").value(Meta.Seed);
  W.key("suites").beginArray();
  for (const std::string &S : Meta.Suites)
    W.value(S);
  W.endArray();
  W.key("started_unix").value(Meta.StartedUnix);
  W.key("wall_time_sec").value(WallSec);
  W.endObject();

  W.key("points").beginArray();
  for (const DataPoint &P : Points) {
    W.beginObject();
    W.key("suite").value(P.Suite);
    W.key("panel").value(P.Panel);
    W.key("structure").value(P.Structure);
    W.key("mix").value(P.Mix);
    W.key("scheme").value(P.Scheme);
    W.key("threads").value(P.Threads);
    W.key("repeats").value(static_cast<uint64_t>(repeatsOf(P)));
    writeStats(W, "mops", P.Mops);
    writeStats(W, "avg_unreclaimed", P.AvgUnreclaimed);
    writeStats(W, "peak_unreclaimed", P.PeakUnreclaimed);
    if (P.LatP50Ns.count() || P.LatP99Ns.count()) {
      writeStats(W, "lat_p50_ns", P.LatP50Ns);
      writeStats(W, "lat_p99_ns", P.LatP99Ns);
    }
    if (P.AbortPct.count())
      writeStats(W, "abort_pct", P.AbortPct);
    if (P.HeapBytesPerKey.count())
      writeStats(W, "heap_bytes_per_key", P.HeapBytesPerKey);
    if (P.ZipfTheta >= 0)
      W.key("zipf_theta").value(P.ZipfTheta);
    if (P.Stats) {
      W.key("stats");
      telemetry::writeJson(W, *P.Stats);
    }
    W.key("total_ops").value(P.TotalOps);
    W.key("wall_sec").value(P.WallSec);
    W.endObject();
  }
  W.endArray();

  if (!QualRows.empty()) {
    W.key("table1").beginArray();
    for (const QualRow &R : QualRows) {
      W.beginObject();
      W.key("name").value(R.Name);
      W.key("based_on").value(R.BasedOn);
      W.key("performance").value(R.Performance);
      W.key("robust").value(R.Robust);
      W.key("transparent").value(R.Transparent);
      W.key("header_bytes").value(static_cast<uint64_t>(R.HeaderBytes));
      W.key("paper_header").value(R.PaperHeader);
      W.key("api").value(R.Api);
      W.key("needs_deref").value(R.NeedsDeref);
      W.key("needs_indices").value(R.NeedsIndices);
      W.key("supports_bonsai").value(R.SupportsBonsai);
      W.endObject();
    }
    W.endArray();
  }

  if (!Notes.empty()) {
    W.key("notes").beginArray();
    for (const std::string &N : Notes)
      W.value(N);
    W.endArray();
  }

  W.endObject();
  std::string Doc = W.take();
  Doc.push_back('\n');
  return Doc;
}

void Report::finish() {
  if (Finished)
    return;
  Finished = true;
  emitPreamble();
  const double WallSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  if (Fmt == Format::Json) {
    const std::string Doc = renderJson(WallSec);
    std::fwrite(Doc.data(), 1, Doc.size(), Out);
  } else {
    emitQualTable();
    std::fprintf(Out, "# wall_time_sec=%.3f\n", WallSec);
  }
  std::fflush(Out);
}
