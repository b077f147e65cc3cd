//===- bench/suites_kv.cpp - Versioned kv store suites --------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The suites that drive the versioned kv store (`lfsmr::kv`): point ops,
/// snapshots, scans, string keys, resizing and transactions (kv), the
/// snapshot open/close fast path (kv-snap-cycle), serving realism
/// (kv-serve), and the batched async write path (kv-async).
///
//===----------------------------------------------------------------------===//

#include "suites.h"

#include "driver.h"

#include "devtools/random.h"
#include "devtools/workload.h"
#include "lfsmr/kv.h"
#include "lfsmr/kv_async.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <ranges>
#include <string>

#ifdef __GLIBC__
#include <malloc.h>
#endif

using namespace lfsmr;
using namespace lfsmr::bench;

namespace {

//===----------------------------------------------------------------------===//
// Shared store setup
//===----------------------------------------------------------------------===//

/// Amply sized store for the point-op and scan panels.
kv::Options pointOptions(unsigned Threads, uint64_t KeyRange) {
  kv::Options KO;
  KO.Reclaim.MaxThreads = Threads;
  KO.Shards = 16;
  KO.BucketsPerShard =
      nextPowerOfTwo(std::max<uint64_t>(KeyRange / (16 * 4), 64));
  return KO;
}

/// Heap bytes in use across every malloc arena (glibc's
/// `mallinfo2().uordblks`), or nullopt off glibc.
std::optional<double> heapInUse() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  return static_cast<double>(mallinfo2().uordblks);
#else
  return std::nullopt;
#endif
}

/// The kv prefill keys: [0, Prefill), so every hot zipf rank is bound.
auto storeKeys(const SweepOptions &O) {
  return std::views::iota(uint64_t{0}, O.Prefill);
}

/// The kv point-op mixes: read-heavy serving (kv-read, kv-string,
/// kv-serve's read panels), version churn (kv-write, stall-serve), the
/// value-dist string blend, and ingest with a hot set (kv-async).
constexpr WorkloadMix KvReadMix{90, 8, 0, 2, "read"};
constexpr WorkloadMix KvWriteMix{20, 50, 0, 30, "write"};
constexpr WorkloadMix ValueDistMix{80, 20, 0, 0, "string"};
constexpr WorkloadMix IngestMix{0, 80, 0, 20, "write"};

/// The u64 store target adapter for `mixWorker` and `prefill`: a key K
/// is bound to 2K, remove is erase, and put (insert-or-replace) is also
/// the store's insert.
template <typename S> struct U64Target {
  kv::Store<S> &Db;
  unsigned Tid;
  void get(uint64_t K) { (void)Db.get(Tid, K); }
  void put(uint64_t K) { Db.put(Tid, K, K * 2); }
  void insert(uint64_t K) { put(K); }
  void remove(uint64_t K) { Db.erase(Tid, K); }
};

/// The string-panel key format — one definition, shared by the prefill
/// and the workers (they must stay byte-identical or the panel measures
/// an empty store).
std::string kvStringKey(uint64_t K) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "key/%016llx",
                static_cast<unsigned long long>(K));
  return Buf;
}

/// The string store target adapter: key K is `kvStringKey(K)`, its value
/// `Value(K)`; remove is erase and put is also insert.
template <typename Store, typename ValueFn> struct StringTarget {
  Store &Db;
  unsigned Tid;
  ValueFn Value;
  void get(uint64_t K) { (void)Db.get(Tid, kvStringKey(K)); }
  void put(uint64_t K) { Db.put(Tid, kvStringKey(K), Value(K)); }
  void insert(uint64_t K) { put(K); }
  void remove(uint64_t K) { Db.erase(Tid, kvStringKey(K)); }
};

/// kv-string's written value: "value/<2K>/" padded past the small-string
/// buffer.
constexpr auto PaddedValue = [](uint64_t K) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "value/%llu/padpadpadpadpad",
                static_cast<unsigned long long>(K * 2));
  return std::string(Buf);
};

/// The async target adapter: put and erase go through the submitter,
/// each future into the client's closed-loop window (drained by the
/// caller once the loop ends); get reads the store directly.
template <typename Submitter> struct SubmitTarget {
  Submitter &Sub;
  workload::CompletionWindow<typename Submitter::future> &Win;
  unsigned Tid;
  void get(uint64_t K) { (void)Sub.db().get(Tid, K); }
  void put(uint64_t K) { Win.push(Sub.put(Tid, K, K * 2)); }
  void insert(uint64_t K) { put(K); }
  void remove(uint64_t K) { Win.push(Sub.erase(Tid, K)); }
};

/// The contention-story suites' default thread sweep: \p FullSweep under
/// --full, a CI-sized pair otherwise.
std::vector<int64_t> compactThreads(const CommandLine &Cmd,
                                    std::vector<int64_t> FullSweep) {
  const unsigned HW = std::thread::hardware_concurrency();
  return threadList(Cmd, Cmd.has("full")
                             ? std::move(FullSweep)
                             : std::vector<int64_t>{
                                   2, static_cast<int64_t>(HW ? HW : 4)});
}

//===----------------------------------------------------------------------===//
// kv: versioned key-value store (lfsmr::kv) — snapshot reads, write trim
//===----------------------------------------------------------------------===//

/// The kv suite's burst mixes, which are not dice mixes: snapshot
/// interleaves writes with snapshot-handle read bursts (version pinning
/// + trimming); scan interleaves writes with whole-store snapshot scans
/// (the kv/scan.h layer); resize pours fresh keys into deliberately tiny
/// tables so the cooperative bucket growth runs continuously.
enum class KvMix { Snapshot, Scan, Resize };

/// One thread of a timed burst-mix run; returns its op count. \p
/// NThreads is the worker count (the resize mix strides fresh keys
/// across it).
template <typename S>
uint64_t kvWorker(kv::Store<S> &Db, KvMix Mix, unsigned Tid,
                  unsigned NThreads, uint64_t Seed, uint64_t KeyRange,
                  std::atomic<bool> &Stop) {
  Xoshiro256 Rng(Seed);
  uint64_t Ops = 0;
  uint64_t Seq = 0; // resize mix: per-thread fresh-key sequence
  while (!Stop.load(std::memory_order_relaxed) && Ops < MicroOpsCap) {
    for (unsigned I = 0; I < 64; ++I, ++Ops) {
      const uint64_t K = Rng.nextBounded(KeyRange);
      switch (Mix) {
      case KvMix::Snapshot:
        // Writers churn while every 256th op opens a snapshot and reads
        // a 32-key burst through it (counted as ops).
        if ((Ops & 255) == 0) {
          kv::snapshot Snap = Db.open_snapshot();
          for (unsigned J = 0; J < 32; ++J)
            (void)Db.get(Tid, Rng.nextBounded(KeyRange), Snap);
          Ops += 32;
        }
        if (Rng.nextPercent(60))
          Db.put(Tid, K, K * 2);
        else
          (void)Db.get(Tid, K);
        break;
      case KvMix::Scan:
        // Writers churn while every 4096th op opens a snapshot and scans
        // the whole store through it (each visited binding counts as one
        // op — the scan is the product being measured).
        if ((Ops & 4095) == 0) {
          kv::snapshot Snap = Db.open_snapshot();
          uint64_t Seen = 0;
          Db.scan(Tid, Snap, [&](const uint64_t &, const uint64_t &) {
            ++Seen;
          });
          Ops += Seen;
        }
        if (Rng.nextPercent(60))
          Db.put(Tid, K, K * 2);
        else
          (void)Db.get(Tid, K);
        break;
      case KvMix::Resize:
        // Mostly fresh keys, striped per thread so tables only grow;
        // every 16th op retires an old key. Run against tiny initial
        // tables, this keeps the cooperative doubling hot for the whole
        // measurement.
        if ((Ops & 15) == 0 && Seq > 16)
          Db.erase(Tid, Tid + NThreads * (Seq - 16));
        else
          Db.put(Tid, Tid + NThreads * Seq++, K);
        break;
      }
    }
  }
  return Ops;
}

/// One thread of a timed transactional run: each iteration buffers a
/// \p Batch-key read-modify-write transaction (read-your-writes `get`
/// then `put`) and commits; every LatStride-th commit is timed into
/// \p Lat. Only committed writes count as ops — the panel measures
/// commit throughput, with the abort share reported separately via
/// \p Attempts / \p Aborts.
template <typename S>
uint64_t kvTxnWorker(kv::Store<S> &Db, telemetry::Histogram &Lat,
                     unsigned Batch, unsigned Tid, uint64_t Seed,
                     uint64_t KeyRange, std::atomic<uint64_t> &Attempts,
                     std::atomic<uint64_t> &Aborts, std::atomic<bool> &Stop) {
  Xoshiro256 Rng(Seed);
  uint64_t Ops = 0, Tried = 0, Failed = 0;
  while (!Stop.load(std::memory_order_relaxed) && Ops < MicroOpsCap) {
    for (unsigned I = 0; I < 16; ++I) {
      auto Txn = Db.begin_transaction();
      const uint64_t Base = Rng.nextBounded(KeyRange);
      for (unsigned J = 0; J < Batch; ++J) {
        // Scattered keys off one random base: cheap to draw, spread
        // across shards, still contended enough to exercise aborts.
        const uint64_t K = (Base + J * 7919) % KeyRange;
        const auto Cur = Txn.get(Tid, K);
        Txn.put(K, Cur.value_or(K) + 1);
      }
      ++Tried;
      bool Ok;
      if ((Tried & (LatStride - 1)) == 0) {
        const auto T0 = std::chrono::steady_clock::now();
        Ok = Txn.commit(Tid);
        Lat.record(nsSince(T0));
      } else {
        Ok = Txn.commit(Tid);
      }
      if (Ok)
        Ops += Batch;
      else
        ++Failed;
    }
  }
  Attempts.fetch_add(Tried, std::memory_order_relaxed);
  Aborts.fetch_add(Failed, std::memory_order_relaxed);
  return Ops;
}

template <typename S> struct KvSuiteOp {
  using U64Store = kv::Store<S>;
  using StrStore = kv::Store<S, std::string, std::string>;

  /// One kv-txn repeat: \p Batch-key transactions over a prefilled
  /// store, with the abort share of commit attempts.
  static RunResult txnRepeat(unsigned Batch, const SweepOptions &O,
                             unsigned T, unsigned R) {
    auto Db = std::make_unique<U64Store>(pointOptions(T, O.KeyRange));
    prefill(U64Target<S>{*Db, 0}, storeKeys(O));
    std::atomic<uint64_t> Attempts{0}, Aborts{0};
    RunResult Rr = storeRun(
        *Db, T, O.Secs,
        [&](unsigned Tid, telemetry::Histogram &Lat,
            std::atomic<bool> &Stop) {
          return kvTxnWorker(*Db, Lat, Batch, Tid, workerSeed(O, R, Tid),
                             O.KeyRange, Attempts, Aborts, Stop);
        });
    const uint64_t A = Attempts.load(std::memory_order_relaxed);
    Rr.AbortPct =
        A ? 100.0 *
                static_cast<double>(Aborts.load(std::memory_order_relaxed)) /
                static_cast<double>(A)
          : 0.0;
    return Rr;
  }

  static void run(const std::string &Scheme, const SweepOptions &O,
                  report::Report &Rep) {
    const auto Panel = [&](const char *Name, const char *Mix,
                           auto &&Repeat) {
      sweepPoints(Rep, point("kv", Name, "kv", Mix, Scheme), O.Threads, 1,
                  O.Repeats, Repeat);
    };
    // kv-read / kv-write: uniform u64 point-op mixes over a prefilled
    // store. kv-read also reports the heap bytes per key the
    // (single-threaded) prefill took: the node pool's chunks, plus the
    // bucket-directory arrays growth appended (bucket sentinels live
    // inline there). It stays empty off glibc.
    const auto PointPanel = [&](const char *Name, const WorkloadMix &Mix,
                                bool HeapBytes) {
      Panel(Name, Mix.Name, [&](unsigned T, unsigned R) {
        auto Db = std::make_unique<U64Store>(pointOptions(T, O.KeyRange));
        const std::optional<double> Before =
            HeapBytes ? heapInUse() : std::nullopt;
        prefill(U64Target<S>{*Db, 0}, storeKeys(O));
        std::optional<double> BytesPerKey;
        if (Before && O.Prefill)
          BytesPerKey =
              (*heapInUse() - *Before) / static_cast<double>(O.Prefill);
        RunResult Rr = storeRun(*Db, T, O.Secs,
                                [&](unsigned Tid, telemetry::Histogram &,
                                    std::atomic<bool> &Stop) {
                                  return mixWorker(
                                      U64Target<S>{*Db, Tid}, Mix,
                                      UniformKeys{O.KeyRange},
                                      workerSeed(O, R, Tid), nullptr, Stop);
                                });
        Rr.HeapBytesPerKey = BytesPerKey;
        return Rr;
      });
    };
    PointPanel("kv-read", KvReadMix, /*HeapBytes=*/true);
    PointPanel("kv-write", KvWriteMix, /*HeapBytes=*/false);

    // kv-snapshot / kv-scan: writers between snapshot bursts over a
    // prefilled store. These mixes pin version chains mid-run, so the
    // sampled unreclaimed count matters: the end-of-run residual would
    // badly understate the true peak.
    const auto BurstPanel = [&](const char *Name, const char *Mix,
                                KvMix M) {
      Panel(Name, Mix, [&](unsigned T, unsigned R) {
        auto Db = std::make_unique<U64Store>(pointOptions(T, O.KeyRange));
        prefill(U64Target<S>{*Db, 0}, storeKeys(O));
        return storeRun(*Db, T, O.Secs,
                        [&](unsigned Tid, telemetry::Histogram &,
                            std::atomic<bool> &Stop) {
                          return kvWorker(*Db, M, Tid, T,
                                          workerSeed(O, R, Tid), O.KeyRange,
                                          Stop);
                        });
      });
    };
    BurstPanel("kv-snapshot", "snapshot", KvMix::Snapshot);
    BurstPanel("kv-scan", "scan", KvMix::Scan);

    // kv-resize: deliberately tiny tables, insert-heavy striped keys —
    // measures throughput *while* the cooperative doubling runs.
    Panel("kv-resize", "resize", [&](unsigned T, unsigned R) {
      kv::Options KO;
      KO.Reclaim.MaxThreads = T;
      KO.Shards = 8;
      KO.BucketsPerShard = 4;
      KO.MaxLoadFactor = 2;
      auto Db = std::make_unique<U64Store>(KO);
      return storeRun(*Db, T, O.Secs,
                      [&](unsigned Tid, telemetry::Histogram &,
                          std::atomic<bool> &Stop) {
                        return kvWorker(*Db, KvMix::Resize, Tid, T,
                                        workerSeed(O, R, Tid), O.KeyRange,
                                        Stop);
                      });
    });

    // kv-string: owned byte-string keys and values through the codec
    // layer (variable-size records), read-heavy serving blend.
    Panel("kv-string", "string", [&](unsigned T, unsigned R) {
      auto Db = std::make_unique<StrStore>(pointOptions(T, O.KeyRange));
      prefill(StringTarget{*Db, 0,
                           [](uint64_t K) {
                             return "value/" + std::to_string(K * 2);
                           }},
              storeKeys(O));
      return storeRun(
          *Db, T, O.Secs,
          [&](unsigned Tid, telemetry::Histogram &, std::atomic<bool> &Stop) {
            return mixWorker(StringTarget{*Db, Tid, PaddedValue}, KvReadMix,
                             UniformKeys{O.KeyRange}, workerSeed(O, R, Tid),
                             nullptr, Stop);
          });
    });

    // kv-txn: multi-key read-modify-write transactions at three batch
    // sizes — b1 is the solo fast path (no commit record), b4/b16 run
    // the shared-commit-record protocol with rising conflict odds.
    for (const unsigned Batch : {1u, 4u, 16u})
      Panel(("kv-txn-b" + std::to_string(Batch)).c_str(), "txn",
            [&](unsigned T, unsigned R) { return txnRepeat(Batch, O, T, R); });
  }
};

} // namespace

void lfsmr::bench::runKvSuite(const CommandLine &Cmd, report::Report &Rep) {
  const SweepOptions O = parseSweep(Cmd);
  for (const std::string &Scheme : O.Schemes)
    dispatchScheme<KvSuiteOp>(Scheme, O, Rep);
  Rep.note("kv: every scheme runs the store's one node layout (scheme "
           "header, then the record; an intrusive-mode domain)");
  Rep.note("kv: nomm never reclaims trimmed versions (leaking floor)");
  Rep.note("kv: kv-string runs store<S, std::string, std::string> "
           "(variable-size codec records); kv-resize starts from 4-bucket "
           "shards so cooperative growth runs for the whole measurement");
  Rep.note("kv: kv-txn-bN commits N-key read-modify-write transactions; "
           "mops counts committed writes only, abort_pct is the share of "
           "commit attempts lost to first-writer-wins conflicts, lat_* is "
           "the strided commit-call latency");
  Rep.note("kv: each point's stats object is the final repeat's "
           "store::stats() snapshot (scheme accounting, registry "
           "counters, store histograms); absent counters read 0 when the "
           "library was built with LFSMR_TELEMETRY=OFF");
}

//===----------------------------------------------------------------------===//
// kv-snap-cycle: snapshot open/close fast-path latency (one-RMW acquire)
//===----------------------------------------------------------------------===//

namespace {

/// One thread of a bare-registry open/close run: every cycle is an
/// acquire+release pair; every LatStride-th is timed. \p TickEvery
/// (0 = never) advances the version clock from inside the cycle loop,
/// which strands hints and forces the slow-path fallback — the churn
/// panel's subject.
uint64_t snapCycleWorker(kv::SnapshotRegistry &Reg, telemetry::Histogram &Lat,
                         uint64_t TickEvery, std::atomic<bool> &Stop) {
  uint64_t Ops = 0;
  while (!Stop.load(std::memory_order_relaxed) && Ops < MicroOpsCap) {
    for (unsigned I = 0; I < 64; ++I, ++Ops) {
      if (TickEvery && (Ops % TickEvery) == 0)
        Reg.tick();
      if ((Ops & (LatStride - 1)) == 0) {
        const auto T0 = std::chrono::steady_clock::now();
        const auto T = Reg.acquire();
        Reg.release(T);
        Lat.record(nsSince(T0));
      } else {
        const auto T = Reg.acquire();
        Reg.release(T);
      }
    }
  }
  return Ops;
}

/// One bare-registry panel (scheme-independent, scheme "-"): open/close
/// cycles on a shared SnapshotRegistry, p50/p99 per-cycle latency from
/// the shared telemetry histogram of each repeat. The point's `stats`
/// block carries the final repeat's registry counters (slow acquires,
/// fast rejects, slot capacity), making the one-RMW fast-path hit rate
/// visible per run: fast hits = cycles - slow_acquires.
void runSnapCyclePanel(const char *Panel, const char *Mix, uint64_t TickEvery,
                       const SweepOptions &O, report::Report &Rep) {
  sweepPoints(
      Rep, point("kv-snap-cycle", Panel, "registry", Mix, "-"), O.Threads, 1,
      O.Repeats, [&](unsigned T, unsigned) {
        kv::SnapshotRegistry Reg(std::max<std::size_t>(8, T));
        // No store behind this panel, and no allocation: unreclaimed
        // stays 0.
        RunResult Rr = timedRun(
            T, O.Secs,
            [&](unsigned, telemetry::Histogram &Lat, std::atomic<bool> &Stop) {
              return snapCycleWorker(Reg, Lat, TickEvery, Stop);
            },
            [] { return int64_t{0}; });
        // Synthesize the registry's share of the stats block so the
        // acquire counters still ride the report.
        const kv::SnapshotRegistry::AcquireStats A = Reg.acquireStats();
        telemetry::store_stats St;
        St.version_clock = Reg.clock();
        St.snapshot_slots = Reg.slotCapacity();
        St.slow_acquires = A.SlowAcquires;
        St.fast_rejects = A.FastRejects;
        Rr.Stats = St;
        return Rr;
      });
}

/// The store-level panel: the kv snapshot read blend, but measuring the
/// open+close cost of each snapshot burst (reads run between the two
/// timed windows, untimed) — the fast path under a real mixed workload.
template <typename S> struct KvSnapCycleOp {
  static uint64_t worker(kv::Store<S> &Db, telemetry::Histogram &Lat,
                         unsigned Tid, uint64_t Seed, uint64_t KeyRange,
                         std::atomic<bool> &Stop) {
    Xoshiro256 Rng(Seed);
    uint64_t Ops = 0;
    while (!Stop.load(std::memory_order_relaxed) && Ops < MicroOpsCap) {
      for (unsigned I = 0; I < 64; ++I, ++Ops) {
        const uint64_t K = Rng.nextBounded(KeyRange);
        if ((Ops & 255) == 0) {
          const auto T0 = std::chrono::steady_clock::now();
          kv::snapshot Snap = Db.open_snapshot();
          const uint64_t OpenNs = nsSince(T0);
          for (unsigned J = 0; J < 32; ++J)
            (void)Db.get(Tid, Rng.nextBounded(KeyRange), Snap);
          const auto T1 = std::chrono::steady_clock::now();
          Snap.reset();
          Lat.record(OpenNs + nsSince(T1));
          Ops += 32;
        } else if (Rng.nextPercent(90)) {
          (void)Db.get(Tid, K);
        } else {
          Db.put(Tid, K, K * 2);
        }
      }
    }
    return Ops;
  }

  static void run(const std::string &Scheme, const SweepOptions &O,
                  report::Report &Rep) {
    sweepPoints(
        Rep, point("kv-snap-cycle", "read-mix", "kv", "read", Scheme),
        O.Threads, 1, O.Repeats, [&](unsigned T, unsigned R) {
          auto Db = std::make_unique<kv::Store<S>>(
              pointOptions(T, O.KeyRange));
          prefill(U64Target<S>{*Db, 0}, storeKeys(O));
          return storeRun(*Db, T, O.Secs,
                          [&](unsigned Tid, telemetry::Histogram &Lat,
                              std::atomic<bool> &Stop) {
                            return worker(*Db, Lat, Tid,
                                          workerSeed(O, R, Tid), O.KeyRange,
                                          Stop);
                          });
        });
  }
};

} // namespace

void lfsmr::bench::runKvSnapCycleSuite(const CommandLine &Cmd,
                                       report::Report &Rep) {
  SweepOptions O = parseSweep(Cmd);
  // The fast path is a contention story: sweep 2..64 threads under
  // --full (the acceptance sweep), a CI-sized pair otherwise.
  O.Threads = compactThreads(Cmd, {2, 4, 8, 16, 32, 64});

  runSnapCyclePanel("open-close", "cycle", /*TickEvery=*/0, O, Rep);
  runSnapCyclePanel("open-close-churn", "cycle-churn", /*TickEvery=*/1024, O,
                    Rep);
  for (const std::string &Scheme : O.Schemes)
    dispatchScheme<KvSnapCycleOp>(Scheme, O, Rep);
  Rep.note("kv-snap-cycle: open-close panels drive the bare "
           "SnapshotRegistry (scheme-independent, scheme '-'); the churn "
           "variant ticks the clock every 1024 cycles per thread to price "
           "the slow-path fallback");
  Rep.note("kv-snap-cycle: latency is per open+close pair, sampled every "
           "64th cycle (every snapshot burst for read-mix); lat_p50_ns/"
           "lat_p99_ns aggregate each repeat's sampled percentile");
  Rep.note("kv-snap-cycle: each point's stats object carries the final "
           "repeat's acquire counters — slow_acquires/fast_rejects "
           "against total cycles give the one-RMW fast-path hit rate "
           "(open-close panels synthesize it from the bare registry)");
}

//===----------------------------------------------------------------------===//
// kv-serve: serving-realism workloads (zipf skew, churn, oversub, stalls)
//===----------------------------------------------------------------------===//

namespace {

struct KvServeOptions {
  SweepOptions Sweep;
  double ZipfTheta; ///< skew of every panel's key picks, in (0, 1)
};

/// The kv-serve / kv-async flags: the sweep with a compact default
/// thread list (\p FullSweep under --full) plus `--zipf-theta`.
KvServeOptions parseServe(const CommandLine &Cmd,
                          std::vector<int64_t> FullSweep) {
  KvServeOptions KO;
  KO.Sweep = parseSweep(Cmd);
  KO.Sweep.Threads = compactThreads(Cmd, std::move(FullSweep));
  KO.ZipfTheta = Cmd.getDouble("zipf-theta", 0.99);
  if (!(KO.ZipfTheta > 0.0 && KO.ZipfTheta < 1.0)) {
    std::fprintf(stderr, "error: --zipf-theta must be in (0, 1)\n");
    std::exit(2);
  }
  return KO;
}

/// Runs one zipf-skewed panel: the point template carries the theta.
template <typename RepeatFn>
void zipfPanel(const char *Suite, const char *Panel, const char *Mix,
               const std::string &Scheme, const KvServeOptions &KO,
               report::Report &Rep, unsigned ThreadMul, RepeatFn &&Repeat) {
  report::DataPoint Tmpl = point(Suite, Panel, "kv", Mix, Scheme);
  Tmpl.ZipfTheta = KO.ZipfTheta;
  sweepPoints(Rep, Tmpl, KO.Sweep.Threads, ThreadMul, KO.Sweep.Repeats,
              Repeat);
}

/// One churn *session*: runs on a fresh OS thread (workload::runSessioned
/// spawns one per session), mixes zipf point ops with snapshot read
/// bursts, and exits after a bounded quota so the slot respawns — the
/// join/leave pattern that recycles snapshot-registry slots and
/// thread_local hints mid-run. The burst open+reads+close is the timed
/// unit.
template <typename S>
uint64_t kvServeChurnSession(kv::Store<S> &Db,
                             const workload::ZipfianGenerator &Z,
                             telemetry::Histogram &Lat, unsigned Tid,
                             uint64_t Seed, const std::atomic<bool> &Stop) {
  constexpr uint64_t SessionQuota = 4096;
  Xoshiro256 Rng(Seed);
  uint64_t Ops = 0;
  while (!Stop.load(std::memory_order_relaxed) && Ops < SessionQuota) {
    for (unsigned I = 0; I < 64; ++I, ++Ops) {
      if ((Ops & 255) == 0) {
        const auto T0 = std::chrono::steady_clock::now();
        kv::snapshot Snap = Db.open_snapshot();
        for (unsigned J = 0; J < 16; ++J)
          (void)Db.get(Tid, Z.next(Rng), Snap);
        Snap.reset();
        Lat.record(nsSince(T0));
        Ops += 16;
      } else if (Rng.nextPercent(70)) {
        (void)Db.get(Tid, Z.next(Rng));
      } else {
        const uint64_t K = Z.next(Rng);
        Db.put(Tid, K, K * 2);
      }
    }
  }
  return Ops;
}

template <typename S> struct KvServeOp {
  using U64Store = kv::Store<S>;
  using StrStore = kv::Store<S, std::string, std::string>;

  /// A timed mix repeat over a freshly prefilled u64 store. \p StallCfg
  /// sizes the store for the stall panel (one reserved scheme thread id
  /// for the holder, tightened detection thresholds); \p Stall actually
  /// parks the holder on it. The stall-serve baseline twin runs
  /// StallCfg without Stall, so its store is byte-identical to the
  /// stalled side and the latency A/B isolates the stall itself.
  static RunResult u64MixRepeat(const KvServeOptions &KO, unsigned T,
                                unsigned R, const WorkloadMix &Mix,
                                bool Stall, bool StallCfg) {
    const SweepOptions &O = KO.Sweep;
    auto StoreOpts = pointOptions(StallCfg ? T + 1 : T, O.KeyRange);
    if (StallCfg) {
      // A robust scheme's stall bound is proportional to its detection
      // thresholds (Hyaline-S keeps inserting batches into a stalled
      // slot while threads sharing it keep its access era current, until
      // the traversals the slot owes pass AckThreshold and enter diverts
      // those threads). The library defaults size those for steady state;
      // a smoke-length window ends before the default trip point and
      // every scheme would look unbounded. Tighten detection so the
      // window shows the bound itself, not the pre-trip ramp.
      StoreOpts.Reclaim.EraFreq = 16;
      StoreOpts.Reclaim.AckThreshold = 512;
    }
    auto Db = std::make_unique<U64Store>(std::move(StoreOpts));
    prefill(U64Target<S>{*Db, 0}, storeKeys(O));
    const workload::ZipfianGenerator Z(O.KeyRange, KO.ZipfTheta);
    std::unique_ptr<workload::StalledSnapshotHolder<U64Store>> Holder;
    if (Stall) {
      // The holder squats on the reserved id T. It briefly pins the trim
      // floor with a snapshot (a held snapshot suppresses retirement for
      // every scheme — chains just grow live), then drops the snapshot
      // before the measured phase so the window sees retirement at write
      // rate past a stalled *guard*: the paper's robustness measurement
      // on the serving surface.
      Holder =
          std::make_unique<workload::StalledSnapshotHolder<U64Store>>(*Db, T);
      Holder->waitUntilHeld();
      Holder->releaseSnapshot();
    }
    RunResult Rr = storeRun(*Db, T, O.Secs,
                            [&](unsigned Tid, telemetry::Histogram &Lat,
                                std::atomic<bool> &Stop) {
                              return mixWorker(U64Target<S>{*Db, Tid}, Mix, Z,
                                               workerSeed(O, R, Tid), &Lat,
                                               Stop);
                            });
    if (Holder) {
      // Unpark the holder before the stats snapshot so the stall panel
      // keeps reporting the post-release state of the store.
      Holder->release();
      Rr.Stats = Db->stats();
    }
    return Rr;
  }

  static void run(const std::string &Scheme, const KvServeOptions &KO,
                  report::Report &Rep) {
    const SweepOptions &O = KO.Sweep;
    const auto Panel = [&](const char *Name, const char *Mix,
                           unsigned ThreadMul, auto &&Repeat) {
      zipfPanel("kv-serve", Name, Mix, Scheme, KO, Rep, ThreadMul, Repeat);
    };

    // zipf-hot: skewed read-heavy serving, hot-key contention.
    Panel("zipf-hot", "read", 1, [&](unsigned T, unsigned R) {
      return u64MixRepeat(KO, T, R, KvReadMix, /*Stall=*/false,
                          /*StallCfg=*/false);
    });

    // oversub: the same serve mix at 4x the swept thread count —
    // deliberately past hardware_concurrency (paper Section 6's
    // oversubscription scenario on the kv surface).
    Panel("oversub", "read", 4, [&](unsigned T, unsigned R) {
      return u64MixRepeat(KO, T, R, KvReadMix, /*Stall=*/false,
                          /*StallCfg=*/false);
    });

    // stall-serve: write-heavy serving under a stalled snapshot holder,
    // paired with a baseline twin (mix "write-baseline") over the
    // byte-identical store/config minus the stall. The two mixes'
    // lat_p50_ns/lat_p99_ns come off the same telemetry histograms, so
    // the stalled-vs-unstalled latency A/B reads directly out of one
    // report — the per-scheme tail-latency cost of a stalled reader,
    // next to the memory-bound robustness story.
    Panel("stall-serve", "write-stalled", 1, [&](unsigned T, unsigned R) {
      return u64MixRepeat(KO, T, R, KvWriteMix, /*Stall=*/true,
                          /*StallCfg=*/true);
    });
    Panel("stall-serve", "write-baseline", 1, [&](unsigned T, unsigned R) {
      return u64MixRepeat(KO, T, R, KvWriteMix, /*Stall=*/false,
                          /*StallCfg=*/true);
    });

    // churn: worker slots join and leave mid-run (fresh OS thread per
    // session), mixing zipf ops with snapshot bursts. One timed worker
    // drives all the sessions, so throughput is wall-clock — session
    // spawn/join gaps are part of the product.
    Panel("churn", "churn", 1, [&](unsigned T, unsigned R) {
      auto Db = std::make_unique<U64Store>(pointOptions(T, O.KeyRange));
      prefill(U64Target<S>{*Db, 0}, storeKeys(O));
      const workload::ZipfianGenerator Z(O.KeyRange, KO.ZipfTheta);
      return storeRun(
          *Db, 1, O.Secs,
          [&](unsigned, telemetry::Histogram &Lat, std::atomic<bool> &Stop) {
            return workload::runSessioned(
                T, Stop, [&](unsigned W, unsigned Session) {
                  return kvServeChurnSession(
                      *Db, Z, Lat, W, workerSeed(O, R, W * 8191 + Session),
                      Stop);
                });
          });
    });

    // value-dist: string store, bimodal payload sizes under skew.
    Panel("value-dist", "string", 1, [&](unsigned T, unsigned R) {
      const workload::ValueSizeDist Dist =
          workload::ValueSizeDist::bimodal(16, 512, 10);
      // Value sizes draw from a stream of their own, apart from the op-mix
      // loop's keys and dice.
      const auto SizedValues = [&](uint64_t Seed) {
        return [&Dist, Rng = Xoshiro256(Seed)](uint64_t) mutable {
          return std::string(Dist.sample(Rng), 'v');
        };
      };
      auto Db = std::make_unique<StrStore>(pointOptions(T, O.KeyRange));
      prefill(StringTarget{*Db, 0, SizedValues(O.Seed)}, storeKeys(O));
      const workload::ZipfianGenerator Z(O.KeyRange, KO.ZipfTheta);
      return storeRun(*Db, T, O.Secs,
                      [&](unsigned Tid, telemetry::Histogram &Lat,
                          std::atomic<bool> &Stop) {
                        const uint64_t Seed = workerSeed(O, R, Tid);
                        return mixWorker(
                            StringTarget{*Db, Tid, SizedValues(~Seed)},
                            ValueDistMix, Z, Seed, &Lat, Stop);
                      });
    });
  }
};

} // namespace

void lfsmr::bench::runKvServeSuite(const CommandLine &Cmd,
                                   report::Report &Rep) {
  // Serving panels multiply threads (oversub runs 4x) and run five
  // panels per scheme; default to a compact sweep unless --threads asks
  // otherwise.
  const KvServeOptions KO = parseServe(Cmd, {2, 4, 8, 16, 32});
  for (const std::string &Scheme : KO.Sweep.Schemes)
    dispatchScheme<KvServeOp>(Scheme, KO, Rep);
  Rep.note("kv-serve: all panels draw keys zipfian(theta = zipf_theta), "
           "rank 0 hottest; latency is per-op, sampled every 64th op "
           "(per snapshot burst for churn)");
  Rep.note("kv-serve: oversub runs 4x the swept thread count (threads >> "
           "cores); churn respawns each worker slot on a fresh OS thread "
           "every 4096-op session (snapshot-slot reuse)");
  Rep.note("kv-serve: stall-serve parks a reader on a reserved thread — "
           "its snapshot drops before the window (a held snapshot pins "
           "chains as live memory for every scheme) but its guard stays "
           "stalled, so sampled avg/peak unreclaimed is the paper's "
           "robustness metric on the serving surface: flat for "
           "hp/he/ibr/hyalines/hyaline1s, growing for "
           "epoch/hyaline/hyaline1/nomm (stall stores run EraFreq=16, "
           "AckThreshold=512 so detection trips inside short windows)");
  Rep.note("kv-serve: stall-serve is a latency A/B — mix write-stalled "
           "runs under the holder, mix write-baseline runs the "
           "byte-identical store/config without it, so comparing the two "
           "mixes' lat_p50_ns/lat_p99_ns isolates the stall's tail-"
           "latency cost per scheme");
}

//===----------------------------------------------------------------------===//
// kv-async: batched submission write path vs the direct sync API
//===----------------------------------------------------------------------===//

namespace {

/// The write-path A/B: panel sync-write drives the direct store API,
/// panels async-w64/async-w1024 push the identical mix through the
/// per-shard submission rings with 64/1024 in-flight ops per client. The
/// async panels' stats blocks carry the submission-layer telemetry
/// (async_submits, combiner_takeovers, sync_fallbacks, submit_batch_len)
/// so the amortization — ops per combined guard/stamp window — reads
/// straight out of the report next to the throughput delta.
template <typename S> struct KvAsyncOp {
  using SubmitterT = kv::Submitter<S>;

  static RunResult repeat(bool Async, std::size_t Window,
                          const KvServeOptions &KO, unsigned T, unsigned R) {
    const SweepOptions &O = KO.Sweep;
    // Fewer shards than the other kv suites: submission rings are
    // per-shard, so shard count divides batch depth — and with it the
    // same-key coalescing the suite exists to measure. Both sides of
    // the A/B run the identical store config.
    auto StoreOpts = pointOptions(T, O.KeyRange);
    StoreOpts.Shards = 4;
    auto Db = std::make_unique<kv::Store<S>>(std::move(StoreOpts));
    prefill(U64Target<S>{*Db, 0}, storeKeys(O));
    const workload::ZipfianGenerator Z(O.KeyRange, KO.ZipfTheta);
    std::unique_ptr<SubmitterT> Sub;
    if (Async) {
      // Oversubscription tuning: deep rings so a descheduled combiner
      // doesn't throw the fleet into sync fallback, and a minimal wait
      // spin — when threads far outnumber cores, spinning on a
      // completion word burns the very timeslice the combiner needs.
      kv::async_options AO;
      // Rings must hold the whole closed-loop in-flight population
      // (T x Window spread over the shards, 2x slack) or every submit
      // degenerates into a sync fallback and nothing ever batches.
      AO.RingCapacity = std::max<std::size_t>(
          4096, 2 * static_cast<std::size_t>(T) * Window /
                    Db->options().Shards);
      AO.WaitSpins = 1;
      Sub = std::make_unique<SubmitterT>(*Db, AO);
    }
    RunResult Rr = storeRun(
        *Db, T, O.Secs,
        [&](unsigned Tid, telemetry::Histogram &Lat,
            std::atomic<bool> &Stop) {
          const uint64_t Seed = workerSeed(O, R, Tid);
          if (!Sub)
            return mixWorker(U64Target<S>{*Db, Tid}, IngestMix, Z, Seed,
                             &Lat, Stop);
          // The timed unit is one submit+push, which includes the wait
          // for the window's oldest completion once it is full: the
          // closed-loop client-visible cost, comparable to a sync op.
          workload::CompletionWindow<typename SubmitterT::future> Win(
              Tid, Window);
          const uint64_t Ops =
              mixWorker(SubmitTarget<SubmitterT>{*Sub, Win, Tid}, IngestMix,
                        Z, Seed, &Lat, Stop);
          Win.drain();
          return Ops;
        });
    if (Sub) {
      // The destructor drain must run before the store dies anyway; run
      // it before the final stats capture so the point's stats block
      // reflects every batch the repeat submitted.
      Sub.reset();
      Rr.Stats = Db->stats();
    }
    return Rr;
  }

  static void run(const std::string &Scheme, const KvServeOptions &KO,
                  report::Report &Rep) {
    const auto Panel = [&](const char *Name, bool Async, std::size_t Window) {
      zipfPanel("kv-async", Name, "write", Scheme, KO, Rep, 1,
                [&](unsigned T, unsigned R) {
                  return repeat(Async, Window, KO, T, R);
                });
    };
    Panel("sync-write", /*Async=*/false, 0);
    Panel("async-w64", /*Async=*/true, 64);
    Panel("async-w1024", /*Async=*/true, 1024);
  }
};

} // namespace

void lfsmr::bench::runKvAsyncSuite(const CommandLine &Cmd,
                                   report::Report &Rep) {
  // The submission layer earns its keep when clients outnumber cores
  // (combining collapses context-switched writers into one applier pass),
  // so the full sweep climbs well past hardware_concurrency.
  const KvServeOptions KO = parseServe(Cmd, {2, 4, 8, 16, 32, 64, 256});
  for (const std::string &Scheme : KO.Sweep.Schemes)
    dispatchScheme<KvAsyncOp>(Scheme, KO, Rep);
  Rep.note("kv-async: sync-write drives the direct store API; async-w64/"
           "async-w1024 submit the identical 80p/20e zipf-skewed mix "
           "through kv::submitter with 64/1024 in-flight ops per client "
           "(closed-loop), so same-threads panel pairs are a direct "
           "write-path A/B — shallow windows buy tail latency, deep "
           "windows buy batch depth and with it throughput; combined "
           "batches fold same-key ops into one published version, so "
           "the hot set is where batching pays");
  Rep.note("kv-async: async latency is per submit+push including the "
           "closed-loop wait for the window's oldest completion — "
           "client-visible time per op, comparable to sync per-op "
           "latency");
  Rep.note("kv-async: async panels' stats blocks carry the submission "
           "layer's counters — submit_batch_len is requests per combined "
           "guard/stamp window (the MinBatch amortization applied to the "
           "write path), sync_fallbacks counts ring-full backpressure "
           "events");
  Rep.note("kv-async: a combined batch applies under ONE guard, so batch "
           "depth is also a guard-length robustness probe — the "
           "hyaline family tolerates the long guard (per-batch "
           "accounting), while epoch-family schemes stall reclamation "
           "behind it and collapse at deep windows; compare schemes "
           "before copying the async defaults");
}
