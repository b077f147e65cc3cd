//===- bench/suites.cpp - lfsmr-bench suite registry ----------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "suites.h"

#include "lfsmr/version.h"

#include <string>

using namespace lfsmr;
using namespace lfsmr::bench;

namespace {

/// Every flag any suite understands. One union set: common flags stay
/// accepted (and ignored) by suites that do not consume them, so `all`
/// can pass one flag vector to every suite.
const std::vector<std::string> &knownFlags() {
  static const std::vector<std::string> Flags = {
      "help",    "format",  "out",      "full",     "seed",
      "threads", "secs",    "repeats",  "keyrange", "prefill",
      "schemes", "ops",     "writers",  "sample",   "version",
      "slots",   "minbatch", "zipf-theta"};
  return Flags;
}

std::string joinCommand(int Argc, char **Argv) {
  std::string Out;
  for (int I = 0; I < Argc; ++I) {
    if (I)
      Out.push_back(' ');
    Out += Argv[I];
  }
  return Out;
}

int runSuites(const std::vector<const Suite *> &Suites,
              const CommandLine &Cmd, const char *DefaultFormat,
              std::string Command) {
  report::Format Fmt;
  const std::string FmtName = Cmd.getString("format", DefaultFormat);
  if (!report::parseFormat(FmtName, Fmt)) {
    std::fprintf(stderr,
                 "error: unknown --format '%s' (expected json, csv, or "
                 "human)\n",
                 FmtName.c_str());
    return 2;
  }

  std::FILE *Out = stdout;
  const std::string OutPath = Cmd.getString("out", "");
  if (!OutPath.empty()) {
    Out = std::fopen(OutPath.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "error: cannot open --out file '%s'\n",
                   OutPath.c_str());
      return 2;
    }
  }

  report::RunMetadata Meta = report::collectMetadata();
  Meta.Command = std::move(Command);
  Meta.Seed = static_cast<uint64_t>(Cmd.getInt("seed", 0x5eed));
  for (const Suite *S : Suites)
    Meta.Suites.push_back(S->Name);

  {
    report::Report Rep(Fmt, Out);
    Rep.setMetadata(std::move(Meta));
    for (const Suite *S : Suites)
      S->Run(Cmd, Rep);
    Rep.finish();
  }
  if (Out != stdout)
    std::fclose(Out);
  return 0;
}

} // namespace

const std::vector<Suite> &lfsmr::bench::allSuites() {
  static const std::vector<Suite> Suites = {
      {"list", "Harris-Michael list sweep (Fig. 11a/11d, 12a/12d)",
       &runListSuite},
      {"hashmap", "Michael hash-map sweep (Fig. 11b/11e, 12b/12e)",
       &runHashMapSuite},
      {"nmtree", "Natarajan-Mittal tree sweep (Fig. 11c/11f, 12c/12f)",
       &runNMTreeSuite},
      {"bonsai", "Bonsai tree sweep (Fig. 13)", &runBonsaiSuite},
      {"kv", "versioned KV store: snapshot reads/scans, string keys, resize",
       &runKvSuite},
      {"kv-snap-cycle",
       "snapshot open/close latency: one-RMW fast path p50/p99",
       &runKvSnapCycleSuite},
      {"kv-serve",
       "serving realism: zipf skew, thread churn, oversub, stalled reader",
       &runKvServeSuite},
      {"kv-async",
       "batched submission write path vs direct sync API (A/B)",
       &runKvAsyncSuite},
      {"enter-leave", "SMR primitive microbenchmarks (Section 3.2 costs)",
       &runEnterLeaveSuite},
      {"ablation", "Hyaline Slots x MinBatch knob sweep (Section 3.2)",
       &runAblationSuite},
      {"stall", "stalled-reader robustness series (Theorem 5)",
       &runStallSuite},
      {"table1", "qualitative comparison, measured header sizes (Table 1)",
       &runTable1Suite},
  };
  return Suites;
}

void lfsmr::bench::printUsage(std::FILE *Out) {
  std::fprintf(Out, "usage: lfsmr-bench <suite> [flags]\n\nsuites:\n");
  for (const Suite &S : allSuites())
    std::fprintf(Out, "  %-12s %s\n", S.Name, S.Description);
  std::fprintf(Out, "  %-12s %s\n", "all",
               "every suite above, one combined report");
  std::fprintf(
      Out,
      "\nflags:\n"
      "  --format json|csv|human   output format (default human)\n"
      "  --out FILE                write the report to FILE\n"
      "  --full                    paper-sized parameters (10 s x 5 "
      "repeats, dense sweep)\n"
      "  --threads 1,4,8           thread counts to sweep\n"
      "  --secs S                  measured seconds per data point\n"
      "  --repeats N               repeats per data point\n"
      "  --schemes a,b             scheme subset; `all` = every runnable\n"
      "                            scheme incl. ablations\n"
      "  --keyrange N --prefill N  key space / prefill size\n"
      "  --seed S                  base suite seed (repeat R uses S+R)\n"
      "  --ops N --writers N --sample N   stall-suite churn parameters\n"
      "  --slots 1,2,4 --minbatch 8,64    ablation-suite knob grids\n"
      "  --zipf-theta T            kv-serve key skew, in (0, 1) "
      "(default 0.99)\n"
      "  --version                 print version + build git sha, exit\n"
      "  --help                    this message\n");
}

int lfsmr::bench::benchMain(int Argc, char **Argv) {
  const CommandLine Cmd(Argc, Argv);
  if (Cmd.has("help")) {
    printUsage(stdout);
    return 0;
  }
  if (Cmd.has("version")) {
    // The sha comes from the same provenance the JSON reports stamp
    // (configure-time git sha with the $GITHUB_SHA runtime fallback).
    std::printf("lfsmr-bench %s (%s)\n", LFSMR_VERSION_STRING,
                report::collectMetadata().GitSha.c_str());
    return 0;
  }
  const std::vector<std::string> Unknown = Cmd.unknownFlags(knownFlags());
  if (!Unknown.empty()) {
    std::fprintf(stderr, "error: unknown flag --%s\n\n", Unknown[0].c_str());
    printUsage(stderr);
    return 2;
  }
  if (Cmd.positional().size() != 1) {
    std::fprintf(stderr, "error: expected exactly one suite name\n\n");
    printUsage(stderr);
    return 2;
  }

  const std::string Name = Cmd.positional()[0];
  std::vector<const Suite *> Run;
  if (Name == "all") {
    for (const Suite &S : allSuites())
      Run.push_back(&S);
  } else {
    for (const Suite &S : allSuites())
      if (Name == S.Name)
        Run.push_back(&S);
    if (Run.empty()) {
      std::fprintf(stderr, "error: unknown suite '%s'\n\n", Name.c_str());
      printUsage(stderr);
      return 2;
    }
  }
  return runSuites(Run, Cmd, /*DefaultFormat=*/"human",
                   joinCommand(Argc, Argv));
}
