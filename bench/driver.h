//===- bench/driver.h - The one timed-run driver -----------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every `lfsmr-bench` suite shares: the sweep flags, the scheme
/// lists and name dispatch (both generated from smr/scheme_list.h), the
/// one timed run (`timedRun`), and the one point loop (`sweepPoints`).
/// A suite supplies a per-thread body and an unreclaimed-count probe;
/// the driver spawns the workers, samples the Figure 12 metric, and folds
/// each repeat into a `report::DataPoint`.
///
/// Two parameter sets:
///  - default: CI-sized (short runs, coarse thread sweep);
///  - --full:  paper-sized (10 s x 5 repeats, dense sweep; Section 6).
/// Other flags: --threads 1,4,8  --secs 0.5  --repeats 2  --schemes a,b
///             --keyrange N  --prefill N  --seed S
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_BENCH_DRIVER_H
#define LFSMR_BENCH_DRIVER_H

#include "core/hyaline.h"
#include "core/hyaline1.h"
#include "smr/ebr.h"
#include "smr/he.h"
#include "smr/hp.h"
#include "smr/ibr.h"
#include "smr/nomm.h"
#include "smr/scheme_list.h"
#include "support/barrier.h"
#include "support/cli.h"
#include "support/report.h"
#include "support/telemetry.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace lfsmr::bench {

//===----------------------------------------------------------------------===//
// Scheme names and dispatch
//===----------------------------------------------------------------------===//

/// The paper's nine-scheme lineup, in its presentation order.
inline const std::vector<std::string> &paperSchemes() {
  static const std::vector<std::string> Names = {
#define LFSMR_SCHEME_NAME(NAME, TYPE) NAME,
      LFSMR_FOREACH_PAPER_SCHEME(LFSMR_SCHEME_NAME)
#undef LFSMR_SCHEME_NAME
  };
  return Names;
}

/// Every scheme runnable by name: the paper lineup plus ablation
/// variants (currently "hyalinep").
inline const std::vector<std::string> &runnableSchemes() {
  static const std::vector<std::string> Names = {
#define LFSMR_SCHEME_NAME(NAME, TYPE) NAME,
      LFSMR_FOREACH_SCHEME(LFSMR_SCHEME_NAME)
#undef LFSMR_SCHEME_NAME
  };
  return Names;
}

/// Calls Op<ConcreteScheme>::run(Name, A...) for the named scheme; false
/// if unknown.
template <template <typename> class Op, typename... Args>
bool dispatchScheme(const std::string &Name, Args &&...A) {
#define LFSMR_DISPATCH_SCHEME(NAME, TYPE)                                    \
  if (Name == NAME) {                                                        \
    Op<TYPE>::run(Name, A...);                                               \
    return true;                                                             \
  }
  LFSMR_FOREACH_SCHEME(LFSMR_DISPATCH_SCHEME)
#undef LFSMR_DISPATCH_SCHEME
  return false;
}

//===----------------------------------------------------------------------===//
// Flags
//===----------------------------------------------------------------------===//

struct SweepOptions {
  std::vector<int64_t> Threads;
  double Secs;
  unsigned Repeats;
  uint64_t KeyRange;
  uint64_t Prefill;
  uint64_t Seed;
  std::vector<std::string> Schemes;
};

/// Expands the `--schemes all` keyword to every runnable scheme (the
/// paper lineup plus ablations); any other list passes through.
inline std::vector<std::string>
expandSchemes(std::vector<std::string> Requested) {
  if (Requested.size() == 1 && Requested[0] == "all")
    return runnableSchemes();
  return Requested;
}

/// Validates each name in \p Requested against the runnable set; on an
/// unknown name prints the valid set and exits 2 (no silent defaulting).
inline void checkSchemes(const std::vector<std::string> &Requested) {
  const std::vector<std::string> &Valid = runnableSchemes();
  if (Requested.empty()) {
    // A trailing `=` typo (--schemes=) must not silently emit an empty
    // report.
    std::fprintf(stderr, "error: --schemes must name at least one scheme\n");
    std::exit(2);
  }
  for (const std::string &S : Requested) {
    bool Found = false;
    for (const std::string &V : Valid)
      if (S == V) {
        Found = true;
        break;
      }
    if (!Found) {
      std::fprintf(stderr, "error: unknown scheme '%s'\nvalid schemes:",
                   S.c_str());
      for (const std::string &V : Valid)
        std::fprintf(stderr, " %s", V.c_str());
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
  }
}

/// Exits 2 unless \p V >= 1. Returns \p V for inline use.
inline int64_t requireAtLeastOne(int64_t V, const char *Flag) {
  if (V < 1) {
    std::fprintf(stderr, "error: --%s must be >= 1\n", Flag);
    std::exit(2);
  }
  return V;
}

/// Exits 2 unless \p Threads is non-empty with every entry >= 1.
inline void checkThreadList(const std::vector<int64_t> &Threads) {
  if (Threads.empty()) {
    std::fprintf(stderr, "error: --threads must list at least one count\n");
    std::exit(2);
  }
  for (const int64_t T : Threads)
    if (T < 1) {
      std::fprintf(stderr, "error: --threads entries must be >= 1\n");
      std::exit(2);
    }
}

/// Reads `--threads` with \p Default as the fallback and validates it.
inline std::vector<int64_t> threadList(const CommandLine &Cmd,
                                       std::vector<int64_t> Default) {
  std::vector<int64_t> Threads = Cmd.getIntList("threads", Default);
  checkThreadList(Threads);
  return Threads;
}

inline SweepOptions parseSweep(const CommandLine &Cmd) {
  SweepOptions O;
  const bool Full = Cmd.has("full");
  const unsigned HW = std::thread::hardware_concurrency();
  std::vector<int64_t> DefaultThreads;
  if (Full)
    DefaultThreads = {1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 40, 48};
  else
    DefaultThreads = {1, 4, 8, static_cast<int64_t>(HW ? HW : 8),
                      static_cast<int64_t>(HW ? HW + HW / 3 : 12),
                      static_cast<int64_t>(HW ? 2 * HW : 16)};
  O.Threads = threadList(Cmd, DefaultThreads);
  O.Secs = Cmd.getDouble("secs", Full ? 10.0 : 0.25);
  O.Repeats = static_cast<unsigned>(
      requireAtLeastOne(Cmd.getInt("repeats", Full ? 5 : 1), "repeats"));
  O.KeyRange = static_cast<uint64_t>(
      requireAtLeastOne(Cmd.getInt("keyrange", 100000), "keyrange"));
  const int64_t Prefill = Cmd.getInt("prefill", 50000);
  if (Prefill < 0 || static_cast<uint64_t>(Prefill) > O.KeyRange) {
    // The prefill draws distinct keys from [0, KeyRange), so it cannot
    // exceed the key space (and a negative value would wrap to ~2^64).
    std::fprintf(stderr,
                 "error: --prefill must be in [0, keyrange=%llu]\n",
                 static_cast<unsigned long long>(O.KeyRange));
    std::exit(2);
  }
  O.Prefill = static_cast<uint64_t>(Prefill);
  O.Seed = static_cast<uint64_t>(Cmd.getInt("seed", 0x5eed));
  O.Schemes = expandSchemes(Cmd.getStringList("schemes", paperSchemes()));
  checkSchemes(O.Schemes);
  return O;
}

//===----------------------------------------------------------------------===//
// The timed run
//===----------------------------------------------------------------------===//

/// Per-thread operation cap — a backstop only, far above what a timed
/// run reaches. A worker that hits it exits early; the rate math uses
/// each worker's own measured interval, so that is harmless.
constexpr uint64_t MicroOpsCap = uint64_t{1} << 40;

/// One measured repeat, as `timedRun` hands it back to `sweepPoints`.
struct RunResult {
  double Mops = 0;
  uint64_t Ops = 0;
  double Elapsed = 0;
  double AvgUnreclaimed = 0;
  double PeakUnreclaimed = 0;
  /// Summary of the repeat's shared latency histogram (count == 0 when
  /// nothing was recorded, e.g. under LFSMR_TELEMETRY=OFF).
  telemetry::histogram_summary Lat;
  /// End-of-repeat `store::stats()` snapshot, embedded in the point's
  /// `stats` block (the last repeat wins). Empty for runs with no store
  /// behind them (figure sweeps, SMR primitives).
  std::optional<telemetry::store_stats> Stats;
  /// Share of commit attempts that aborted, in percent (txn panels only).
  std::optional<double> AbortPct;
  /// Heap bytes per key the store's prefill took (u64 kv-read only;
  /// empty off glibc).
  std::optional<double> HeapBytesPerKey;
};

/// Runs \p Fn on \p Threads workers for roughly \p Secs. Each worker is
/// invoked as Fn(Tid, Lat, Stop) and returns its op count; `Lat` is the
/// repeat's shared latency histogram (workers that do not time ops
/// ignore it). \p Unreclaimed is called from the coordinating thread
/// about once per millisecond while the workers run (the Figure 12
/// sampling), and once after they join for the residual a run too short
/// to sample reports instead.
///
/// Throughput sums per-worker rates, each over that worker's own
/// measured interval, and the elapsed time is the longest interval: a
/// worker that exits early (op cap, session quota) neither inflates nor
/// dilutes the rate.
template <typename Body, typename Probe>
RunResult timedRun(unsigned Threads, double Secs, Body &&Fn,
                   Probe &&Unreclaimed) {
  telemetry::Histogram Lat;
  SpinBarrier Barrier(Threads + 1);
  std::atomic<bool> Stop{false};
  std::vector<uint64_t> Ops(Threads, 0);
  std::vector<double> Took(Threads, 0.0);
  std::vector<std::thread> Workers;
  Workers.reserve(Threads);
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      const auto Begin = std::chrono::steady_clock::now();
      Ops[T] = Fn(T, Lat, Stop);
      Took[T] = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Begin)
                    .count();
    });
  Barrier.arriveAndWait();
  const auto Deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(Secs);
  double Sum = 0;
  int64_t Peak = 0;
  uint64_t Samples = 0;
  while (std::chrono::steady_clock::now() < Deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const int64_t U = Unreclaimed();
    Sum += static_cast<double>(U);
    if (U > Peak)
      Peak = U;
    ++Samples;
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &W : Workers)
    W.join();

  RunResult Rr;
  double RateSum = 0;
  for (unsigned T = 0; T < Threads; ++T) {
    Rr.Ops += Ops[T];
    if (Took[T] > 0)
      RateSum += static_cast<double>(Ops[T]) / Took[T];
    if (Took[T] > Rr.Elapsed)
      Rr.Elapsed = Took[T];
  }
  Rr.Mops = RateSum / 1e6;
  const double Residual = static_cast<double>(Unreclaimed());
  Rr.AvgUnreclaimed = Samples ? Sum / static_cast<double>(Samples) : Residual;
  Rr.PeakUnreclaimed = Samples ? static_cast<double>(Peak) : Residual;
  Rr.Lat = Lat.summarize();
  return Rr;
}

/// timedRun over a kv store: samples `Db.stats().unreclaimed` and ends
/// the repeat with the store's stats snapshot.
template <typename Store, typename Body>
RunResult storeRun(Store &Db, unsigned Threads, double Secs, Body &&Fn) {
  RunResult Rr = timedRun(Threads, Secs, Fn,
                          [&] { return Db.stats().unreclaimed; });
  Rr.Stats = Db.stats();
  return Rr;
}

//===----------------------------------------------------------------------===//
// The point loop
//===----------------------------------------------------------------------===//

/// A point's identity; `sweepPoints` fills in the thread count and the
/// measurements.
inline report::DataPoint point(std::string Suite, std::string Panel,
                               std::string Structure, std::string Mix,
                               std::string Scheme) {
  report::DataPoint Pt;
  Pt.Suite = std::move(Suite);
  Pt.Panel = std::move(Panel);
  Pt.Structure = std::move(Structure);
  Pt.Mix = std::move(Mix);
  Pt.Scheme = std::move(Scheme);
  return Pt;
}

/// Folds one finished repeat into its data point. An empty latency
/// summary (nothing recorded, or an LFSMR_TELEMETRY=OFF build) leaves the
/// `lat_*` fields unset rather than reporting zeros.
inline void addRepeat(report::DataPoint &Pt, const RunResult &Rr) {
  Pt.Mops.add(Rr.Mops);
  Pt.AvgUnreclaimed.add(Rr.AvgUnreclaimed);
  Pt.PeakUnreclaimed.add(Rr.PeakUnreclaimed);
  if (Rr.Lat.count) {
    Pt.LatP50Ns.add(Rr.Lat.p50);
    Pt.LatP99Ns.add(Rr.Lat.p99);
  }
  if (Rr.AbortPct)
    Pt.AbortPct.add(*Rr.AbortPct);
  if (Rr.HeapBytesPerKey)
    Pt.HeapBytesPerKey.add(*Rr.HeapBytesPerKey);
  Pt.TotalOps += Rr.Ops;
  Pt.WallSec += Rr.Elapsed;
  Pt.Stats = Rr.Stats;
}

/// Emits one point per entry of \p Threads, each a copy of \p Tmpl run
/// at \p ThreadMul times that count (the kv-serve oversub panel runs 4x)
/// and averaged over \p Repeats calls of Run(Threads, Repeat).
template <typename RepeatFn>
void sweepPoints(report::Report &Rep, const report::DataPoint &Tmpl,
                 const std::vector<int64_t> &Threads, unsigned ThreadMul,
                 unsigned Repeats, RepeatFn &&Run) {
  for (const int64_t TBase : Threads) {
    report::DataPoint Pt = Tmpl;
    Pt.Threads = static_cast<unsigned>(TBase) * ThreadMul;
    for (unsigned R = 0; R < Repeats; ++R)
      addRepeat(Pt, Run(Pt.Threads, R));
    Rep.addPoint(Pt);
  }
}

} // namespace lfsmr::bench

#endif // LFSMR_BENCH_DRIVER_H
