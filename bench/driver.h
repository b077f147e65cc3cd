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
/// Every point-op panel's body is the one op-mix loop, `mixWorker`: per
/// op it draws a key (`UniformKeys`, or a `workload::ZipfianGenerator`
/// rank), rolls one dice against a `WorkloadMix`, and calls get, put,
/// insert or remove on a target adapter. The adapters live with their
/// suites: a figure structure (value K + 1, suites_paper.cpp), and a u64
/// store (value 2K, remove = erase), a string store (keys `kvStringKey`)
/// and an async submitter (futures through a `CompletionWindow`) in
/// suites_kv.cpp. `prefill` fills any of them before a run.
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
#include "devtools/barrier.h"
#include "devtools/cli.h"
#include "devtools/random.h"
#include "devtools/report.h"
#include "smr/ebr.h"
#include "smr/he.h"
#include "smr/hp.h"
#include "smr/ibr.h"
#include "smr/nomm.h"
#include "smr/scheme_list.h"
#include "support/telemetry.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
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

/// The largest count a flag narrowed to `unsigned` may carry (--repeats,
/// --writers, --slots, --minbatch).
constexpr int64_t MaxUnsigned = std::numeric_limits<unsigned>::max();

/// The largest `--threads` entry: the kv-serve oversub panel runs 4x a
/// swept count, and that product must still fit an `unsigned`.
constexpr int64_t MaxThreadCount = MaxUnsigned / 4;

/// Reads `--threads` with \p Default as the fallback. Exits 2 unless the
/// list is non-empty with every entry in [1, MaxThreadCount].
inline std::vector<int64_t> threadList(const CommandLine &Cmd,
                                       std::vector<int64_t> Default) {
  std::vector<int64_t> Threads =
      Cmd.getIntList("threads", Default, 1, MaxThreadCount);
  if (Threads.empty()) {
    std::fprintf(stderr, "error: --threads must list at least one count\n");
    std::exit(2);
  }
  return Threads;
}

/// Reads `--secs` with \p Default as the fallback. Exits 2 unless it is
/// finite and positive: zero or less would time nothing, and an infinite
/// deadline never arrives.
inline double secsFlag(const CommandLine &Cmd, double Default) {
  const double Secs = Cmd.getDouble("secs", Default);
  if (!(Secs > 0 && std::isfinite(Secs))) {
    std::fprintf(stderr, "error: --secs must be finite and positive\n");
    std::exit(2);
  }
  return Secs;
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
  O.Secs = secsFlag(Cmd, Full ? 10.0 : 0.25);
  O.Repeats = static_cast<unsigned>(
      Cmd.getInt("repeats", Full ? 5 : 1, 1, MaxUnsigned));
  O.KeyRange = static_cast<uint64_t>(Cmd.getInt("keyrange", 100000, 1));
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
// The op-mix loop
//===----------------------------------------------------------------------===//

/// Percentages of each operation in a point-op mix; they sum to 100.
/// `put` is insert-or-replace: replacing retires the old binding, which
/// is what makes a read-dominated mix a *reclamation-unbalanced*
/// workload (few writers retire while many readers only observe).
struct WorkloadMix {
  unsigned GetPct;
  unsigned PutPct;
  unsigned InsertPct;
  unsigned RemovePct;
  const char *Name;
};

/// Stride between latency-sampled ops, commits or cycles (a power of
/// two): timing every one would price the clock.
constexpr uint64_t LatStride = 64;

/// Nanoseconds since \p T0.
inline uint64_t nsSince(std::chrono::steady_clock::time_point T0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
}

/// Worker \p Stream's seed in repeat \p Repeat: a per-thread stream off
/// the suite seed, shifted per repeat.
inline uint64_t workerSeed(const SweepOptions &O, unsigned Repeat,
                           uint64_t Stream) {
  return SplitMix64(O.Seed + Repeat * 1024 + Stream).next();
}

/// Uniform keys in [0, Range): the figure and kv point panels' draw (the
/// skewed panels draw `workload::ZipfianGenerator` ranks instead).
struct UniformKeys {
  uint64_t Range;
  uint64_t next(Xoshiro256 &Rng) const { return Rng.nextBounded(Range); }
};

/// The figure prefill keys: a deterministic shuffled \p O.Prefill-subset
/// of [0, KeyRange), so a structure holds exactly that many distinct keys
/// (the paper's "prefilled with 50,000 elements").
inline std::vector<uint64_t> prefillKeys(const SweepOptions &O,
                                         uint64_t Seed) {
  std::vector<uint64_t> Keys(O.KeyRange);
  for (uint64_t I = 0; I < O.KeyRange; ++I)
    Keys[I] = I;
  Xoshiro256 Rng(Seed);
  for (uint64_t I = O.KeyRange - 1; I > 0; --I)
    std::swap(Keys[I], Keys[Rng.nextBounded(I + 1)]);
  Keys.resize(O.Prefill);
  return Keys;
}

/// Inserts \p Keys through the target adapter \p T (built on thread id
/// 0, strictly before the workers start). A target with a sorted bulk
/// load (the list) takes them in one pass instead of one search each.
template <typename Target, typename Keys>
void prefill(Target &&T, Keys &&Ks) {
  if constexpr (requires { T.insertSorted(Ks); })
    T.insertSorted(std::forward<Keys>(Ks));
  else
    for (const uint64_t K : Ks)
      T.insert(K);
}

/// The one point-op loop: one worker of a mix panel, returning its op
/// count. Per op it draws a key from \p Keys (anything with
/// `next(Xoshiro256 &)`), rolls one dice against \p Mix, and calls the
/// target adapter's `get`, `put`, `insert` or `remove` with the key; the
/// adapter picks the thread id and the value. Per 64-op block it checks
/// \p Stop and `MicroOpsCap`, so the loop stays tight. With \p Lat set,
/// every LatStride-th op is timed into it.
template <typename Target, typename KeyDraw>
uint64_t mixWorker(Target &&T, WorkloadMix Mix, const KeyDraw &Keys,
                   uint64_t Seed, telemetry::Histogram *Lat,
                   const std::atomic<bool> &Stop) {
  Xoshiro256 Rng(Seed);
  uint64_t Ops = 0;
  while (!Stop.load(std::memory_order_relaxed) && Ops < MicroOpsCap) {
    for (unsigned I = 0; I < 64; ++I, ++Ops) {
      const uint64_t K = Keys.next(Rng);
      const uint64_t Dice = Rng.nextBounded(100);
      const bool Timed = Lat && (Ops & (LatStride - 1)) == 0;
      const auto T0 = Timed ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
      if (Dice < Mix.GetPct)
        T.get(K);
      else if (Dice < Mix.GetPct + Mix.PutPct)
        T.put(K);
      else if (Dice < Mix.GetPct + Mix.PutPct + Mix.InsertPct)
        T.insert(K);
      else
        T.remove(K);
      if (Timed)
        Lat->record(nsSince(T0));
    }
  }
  return Ops;
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
