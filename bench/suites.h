//===- bench/suites.h - lfsmr-bench suite registry ---------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The registered benchmark suites behind the unified `lfsmr-bench`
/// binary. Each suite descriptor maps one subcommand to the code that
/// regenerates a slice of the paper's evaluation:
///
///   list        Harris-Michael list        (Fig. 11a/11d + 12a/12d)
///   hashmap     Michael hash map           (Fig. 11b/11e + 12b/12e)
///   nmtree      Natarajan-Mittal tree      (Fig. 11c/11f + 12c/12f)
///   bonsai      Bonsai tree                (Fig. 13)
///   kv          versioned KV store         (snapshot reads/scans, string
///                                           keys, resizing, transactions)
///   kv-snap-cycle snapshot open/close      (one-RMW fast path latency)
///   kv-serve    serving realism            (zipf, churn, oversub, stall)
///   kv-async    batched async writes       (submitter vs sync A/B)
///   enter-leave SMR primitive microbench   (Section 3.2 costs)
///   ablation    Hyaline Slots x MinBatch   (Section 3.2 knob sweep)
///   stall       stalled-reader robustness  (Theorem 5 / Section 4.2)
///   table1      qualitative comparison     (Table 1, measured headers)
///   all         every suite above, one report
///
/// Every suite writes through the structured report layer
/// (devtools/report.h), so one invocation yields one JSON/CSV/human
/// document carrying run metadata. The suites live by family in
/// suites_paper.cpp and suites_kv.cpp, all on the one timed run, point
/// loop and op-mix loop of driver.h; this header's registry is in
/// suites.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_BENCH_SUITES_H
#define LFSMR_BENCH_SUITES_H

#include "devtools/cli.h"
#include "devtools/report.h"

#include <cstdio>
#include <string>
#include <vector>

namespace lfsmr::bench {

/// One registered subcommand.
struct Suite {
  const char *Name;        ///< subcommand, e.g. "hashmap"
  const char *Description; ///< one-line summary for --help
  void (*Run)(const CommandLine &Cmd, report::Report &Rep);
};

/// Suite entry points (suites_paper.cpp).
void runListSuite(const CommandLine &Cmd, report::Report &Rep);
void runHashMapSuite(const CommandLine &Cmd, report::Report &Rep);
void runNMTreeSuite(const CommandLine &Cmd, report::Report &Rep);
void runBonsaiSuite(const CommandLine &Cmd, report::Report &Rep);
void runEnterLeaveSuite(const CommandLine &Cmd, report::Report &Rep);
void runAblationSuite(const CommandLine &Cmd, report::Report &Rep);
void runStallSuite(const CommandLine &Cmd, report::Report &Rep);
void runTable1Suite(const CommandLine &Cmd, report::Report &Rep);

/// Suite entry points (suites_kv.cpp).
void runKvSuite(const CommandLine &Cmd, report::Report &Rep);
void runKvSnapCycleSuite(const CommandLine &Cmd, report::Report &Rep);
void runKvServeSuite(const CommandLine &Cmd, report::Report &Rep);
void runKvAsyncSuite(const CommandLine &Cmd, report::Report &Rep);

/// All suites in presentation order ("all" is synthesized, not listed).
const std::vector<Suite> &allSuites();

/// Prints the subcommand/flag reference to \p Out.
void printUsage(std::FILE *Out);

/// Entry point of `lfsmr-bench`: parses the subcommand (and `--version`),
/// rejects unknown flags/suites/schemes with a usage message, runs the
/// suite(s) into a report. Returns the process exit code.
int benchMain(int Argc, char **Argv);

} // namespace lfsmr::bench

#endif // LFSMR_BENCH_SUITES_H
