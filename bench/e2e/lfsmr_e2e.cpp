//===- bench/e2e/lfsmr_e2e.cpp - Pinned closed-loop e2e benchmark -*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `lfsmr-e2e`: four closed-loop workloads on `lfsmr::schemes::hyaline_s`,
/// driven through the public headers only, so every layer is measured from
/// outside by timing calls into its public functions.
///
///   lfsmr-e2e <workload|all> [--seed N] [--secs S] [--trace FILE]
///                            [--out FILE]
///
/// Harness rules, identical for every workload: 3 client threads plus 1
/// coordinator, each pinned to its own CPU from the affinity mask (fewer
/// than 4 CPUs: refuse with exit 2); op rings pre-generated from `--seed`;
/// set-up (repeated, median reported), a 1 s untimed warm-up, then the
/// measured window. With `--trace`, a traced window of the same length
/// follows on the same warmed store; end-to-end metrics come only from the
/// untraced window. Exit 0 when every output check passed, 1 when an op
/// failed, 2 on bad usage or too few CPUs.
///
//===----------------------------------------------------------------------===//

#include "e2e_stats.h"
#include "e2e_stream.h"

#include <lfsmr/containers.h>
#include <lfsmr/domain.h>
#include <lfsmr/kv.h>
#include <lfsmr/kv_async.h>
#include <lfsmr/schemes.h>
#include <lfsmr/telemetry.h>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#ifndef E2E_GIT_SHA
#define E2E_GIT_SHA "unknown"
#endif
#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif
#ifndef E2E_FLAGS
#define E2E_FLAGS "unknown"
#endif

namespace {

using namespace e2e;
using Scheme = lfsmr::schemes::hyaline_s;
using HashMap = lfsmr::michael_hashmap<Scheme>;
using Store = lfsmr::kv::store<Scheme>;
using Submitter = lfsmr::kv::submitter<Scheme>;
using Future = lfsmr::kv::future<Scheme>;
using lfsmr::telemetry::domain_stats;
using lfsmr::telemetry::store_stats;
using Clock = std::chrono::steady_clock;

constexpr int ExitFailed = 1;
constexpr int ExitRefused = 2;

constexpr unsigned Clients = 3;
/// The scheme thread id the kv-stall coordinator occupies.
constexpr lfsmr::thread_id StallTid = Clients;
/// CPUs a run pins threads to: the coordinator's and one per client.
constexpr unsigned RunCpus = Clients + 1;
/// Set-up is timed on fresh containers in two slices, one before the
/// warm-up and one after the output checks. A slice builds at least
/// `MinSetupsPerSlice` times and until `SetupSliceSeconds` have passed, at
/// most `MaxSetupsPerSlice` times, moving the coordinator to the next of
/// the run's CPUs before each build and ending on a whole round; `setup_s`
/// is the median of both slices. On a shared host the same set-up runs up
/// to 1.4x slower on one vCPU than on another, and slower again for phases
/// of up to a few seconds, so the builds rotate over the CPUs and the two
/// slices sit a whole run apart. The first one or two set-ups of a process
/// run on fresh heap memory and take up to 1.5x longer, so the median must
/// sit past them.
constexpr unsigned MinSetupsPerSlice = 2 * RunCpus;
constexpr unsigned MaxSetupsPerSlice = 64 * RunCpus;
constexpr double SetupSliceSeconds = 1.0;
/// One op in this many gets its latency taken.
constexpr std::uint64_t LatencyStride = 16;
/// Latency samples kept per class and client over the measured window.
constexpr std::size_t LatencySamples = std::size_t(1) << 16;
/// One op in this many is traced in the traced window.
constexpr std::uint64_t TraceStride = 64;
/// Spans of the largest traced op: a txn attempt (root, begin, a get and a
/// buffered write per key, commit) or a snapshot burst (root, open, the
/// reads, close).
constexpr std::size_t MaxSpansPerOp = std::max(3 + 2 * TxnKeys, 3 + BurstReads);
/// Async futures in flight per client.
constexpr unsigned AsyncWindow = 16;
constexpr std::size_t KvShards = 16;
constexpr double WarmupSeconds = 1.0;
constexpr auto SamplePeriod = std::chrono::milliseconds(1);

const Clock::time_point Epoch = Clock::now();

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - Epoch)
          .count());
}

void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

std::vector<int> affinityCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Cpus;
  if (sched_getaffinity(0, sizeof Set, &Set) != 0)
    return Cpus;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      Cpus.push_back(C);
  return Cpus;
}

bool pinTo(int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  return pthread_setaffinity_np(pthread_self(), sizeof Set, &Set) == 0;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// Span names. The first ten are client-op roots and share `Op`'s
/// numbering; the rest wrap one call into a layer's public function.
enum class SpanName : std::uint8_t {
  DsInsert = static_cast<std::uint8_t>(Op::More) + 1,
  DsRemove,
  KvGet,
  KvPut,
  KvErase,
  KvMerge,
  SnapshotOpen,
  SnapshotGet,
  SnapshotClose,
  TxnBegin,
  TxnGet,
  TxnBuffer,
  TxnCommit,
  Submit,
  FutureWait,
  Count,
};

constexpr SpanName rootName(Op K) { return static_cast<SpanName>(K); }

struct SpanInfo {
  const char *Name;
  const char *Layer;
};

constexpr SpanInfo SpanInfos[] = {
    {"op.get", "client"},
    {"op.put", "client"},
    {"op.erase", "client"},
    {"op.merge", "client"},
    {"op.insert", "client"},
    {"op.remove", "client"},
    {"op.async_put", "client"},
    {"op.async_erase", "client"},
    {"op.txn", "client"},
    {"op.snapshot", "client"},
    {"op.more", "client"},
    {"ds.insert", "ds"},
    {"ds.remove", "ds"},
    {"kv.get", "kv.read"},
    {"kv.put", "kv.write"},
    {"kv.erase", "kv.write"},
    {"kv.merge", "kv.write"},
    {"kv.snapshot_open", "kv.snapshot"},
    {"kv.snapshot_get", "kv.snapshot"},
    {"kv.snapshot_close", "kv.snapshot"},
    {"kv.txn_begin", "kv.txn"},
    {"kv.txn_get", "kv.txn"},
    {"kv.txn_buffer", "kv.txn"},
    {"kv.txn_commit", "kv.txn"},
    {"kv.submit", "kv.submit"},
    {"kv.future_wait", "kv.submit"},
};
static_assert(std::size(SpanInfos) == static_cast<std::size_t>(SpanName::Count));

const SpanInfo &info(SpanName N) { return SpanInfos[static_cast<unsigned>(N)]; }

/// One recorded span. `Id` is the span's index in its thread's buffer
/// plus one; `Parent` is 0 for an op root.
struct Span {
  std::uint64_t OpId;
  std::uint64_t Begin, End;
  std::uint32_t Id, Parent;
  SpanName Name;
};

/// Per-thread span store, reserved before the traced window from the rate
/// the untraced window measured. It grows past the reservation rather
/// than drop spans, so span metrics always cover the whole window.
class SpanBuffer {
public:
  void reserve(std::size_t N) { Spans.reserve(N); }

  std::uint32_t open(SpanName N, std::uint64_t OpId, std::uint32_t Parent) {
    const auto Id = static_cast<std::uint32_t>(Spans.size() + 1);
    Spans.push_back(Span{OpId, nowNs(), 0, Id, Parent, N});
    return Id;
  }

  void close(std::uint32_t Id) { Spans[Id - 1].End = nowNs(); }

  const std::vector<Span> &spans() const { return Spans; }

private:
  std::vector<Span> Spans;
};

/// Spans of one client op: the root covers the whole op, `call` wraps one
/// call into a layer. Inert unless the op was sampled.
class Tracer {
public:
  Tracer(SpanBuffer &B, bool On, std::uint64_t OpId, SpanName Root)
      : B(B), On(On), OpId(OpId) {
    if (On)
      RootId = B.open(Root, OpId, 0);
  }
  ~Tracer() {
    if (On)
      B.close(RootId);
  }
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  template <typename F> decltype(auto) call(SpanName N, F &&Fn) {
    if (!On)
      return Fn();
    const std::uint32_t Id = B.open(N, OpId, RootId);
    decltype(auto) R = Fn();
    B.close(Id);
    return R;
  }

private:
  SpanBuffer &B;
  bool On;
  std::uint64_t OpId;
  std::uint32_t RootId = 0;
};

//===----------------------------------------------------------------------===//
// Clients
//===----------------------------------------------------------------------===//

enum class Phase : unsigned { Idle, Warmup, Measure, Traced, Stop };
constexpr unsigned NumTallies = 3;
unsigned tallyIndex(Phase P) { return static_cast<unsigned>(P) - 1; }

enum LatClass : unsigned { LatRead, LatWrite, LatSnapshot, LatTxn, NumLat };

/// What one client did in one phase.
struct Tally {
  std::uint64_t Ops = 0; ///< completed ops (async: at completion)
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::uint64_t Gets = 0, GetHits = 0;
  std::uint64_t Writes = 0; ///< key writes on every path
  std::uint64_t DsOps = 0, Inserted = 0, Removed = 0;
  std::uint64_t SnapshotOpens = 0;
  std::uint64_t TxnAttempts = 0, TxnCommits = 0;
  Reservoir Lat[NumLat]; ///< measured window only

  void add(const Tally &O) {
    Ops += O.Ops;
    Attempted += O.Attempted;
    Failed += O.Failed;
    Gets += O.Gets;
    GetHits += O.GetHits;
    Writes += O.Writes;
    DsOps += O.DsOps;
    Inserted += O.Inserted;
    Removed += O.Removed;
    SnapshotOpens += O.SnapshotOpens;
    TxnAttempts += O.TxnAttempts;
    TxnCommits += O.TxnCommits;
  }
};

/// The containers one workload runs on.
struct Target {
  std::unique_ptr<HashMap> Map;
  std::unique_ptr<Store> Db;
  std::unique_ptr<Submitter> Sub;

  void reset() {
    Sub.reset();
    Db.reset();
    Map.reset();
  }

  domain_stats domainStats() {
    return Map ? Map->domain().stats() : Db->domain().stats();
  }

  store_stats storeStats() {
    if (Db)
      return Db->stats();
    store_stats S{};
    static_cast<domain_stats &>(S) = Map->domain().stats();
    return S;
  }
};

/// Builds and prefills the workload's containers; returns the number of
/// prefill inserts that failed (a key reported as already present).
std::uint64_t build(Target &T, const Spec &W,
                    const std::vector<std::uint64_t> &Keys) {
  std::uint64_t Bad = 0;
  if (W.HashMap) {
    T.Map = std::make_unique<HashMap>(lfsmr::config{});
    for (std::uint64_t K : Keys)
      Bad += !T.Map->insert(0, K, K * 2);
    return Bad;
  }
  lfsmr::kv::options O;
  O.Shards = KvShards;
  T.Db = std::make_unique<Store>(O);
  for (std::uint64_t K : Keys)
    Bad += !T.Db->put(0, K, K * 2);
  if (W.has(Op::AsyncPut) || W.has(Op::AsyncErase))
    T.Sub = std::make_unique<Submitter>(*T.Db);
  return Bad;
}

/// One pinned closed-loop client. Every writer stores `key * 2`, so any
/// read returning something else is a torn read or a read of reused
/// memory.
class Client {
public:
  Client(unsigned Id, int Cpu, const Spec &W, const std::vector<Entry> &Ring,
         Target &T, std::atomic<Phase> &Ph)
      : Id(Id), Cpu(Cpu), Tid(Id), Ring(Ring), T(T), Ph(Ph) {
    const bool Used[NumLat] = {W.has(Op::Get), true, W.has(Op::Snapshot),
                               W.has(Op::Txn)};
    for (unsigned C = 0; C < NumLat; ++C)
      if (Used[C])
        Tallies[tallyIndex(Phase::Measure)].Lat[C] =
            Reservoir(LatencySamples, subSeed(Id, 0x200 + C));
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  void run(std::atomic<unsigned> &Ready) {
    Pinned = pinTo(Cpu);
    Ready.fetch_add(1, std::memory_order_release);
    Phase P;
    while ((P = Ph.load(std::memory_order_acquire)) == Phase::Idle)
      cpuRelax();
    while (P != Phase::Stop) {
      step(Tallies[tallyIndex(P)], P == Phase::Traced);
      Steps.store(Seq, std::memory_order_relaxed);
      // Acquire: the coordinator reserves the span buffer before it
      // switches to the traced phase.
      P = Ph.load(std::memory_order_acquire);
    }
    while (InFlight) {
      Window[Head].get(Tid);
      Head = (Head + 1) % AsyncWindow;
      --InFlight;
      ++Completed;
    }
  }

  const Tally &tally(Phase P) const { return Tallies[tallyIndex(P)]; }
  /// Ops issued so far; read by the coordinator while the client runs.
  std::uint64_t steps() const { return Steps.load(std::memory_order_relaxed); }
  const SpanBuffer &spans() const { return Spans; }
  /// Only while the client runs an untraced phase.
  void reserveSpans(std::size_t N) { Spans.reserve(N); }
  /// Async ops whose future never completed.
  std::uint64_t uncompleted() const { return Submitted - Completed; }
  bool pinned() const { return Pinned; }
  int cpu() const { return Cpu; }

private:
  void record(Tally &S, LatClass C, std::uint64_t T0) {
    const std::uint64_t D = nowNs() - T0;
    S.Lat[C].add(D > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(D));
  }

  static void check(Tally &S, std::uint64_t Key,
                    const std::optional<std::uint64_t> &V) {
    if (V && *V != Key * 2)
      ++S.Failed;
  }

  void step(Tally &S, bool Traced) {
    const Entry *E = &Ring[Pos];
    const Op K = kindOf(*E);
    const std::uint64_t Key = keyOf(*E);
    Pos = (Pos + width(K)) & (RingSize - 1);
    const std::uint64_t OpId = (std::uint64_t(Id) << 48) | Seq;
    const bool Timed = Seq % LatencyStride == 0;
    Tracer Tr(Spans, Traced && Seq % TraceStride == 0, OpId, rootName(K));
    ++Seq;
    ++S.Attempted;
    const std::uint64_t T0 = Timed ? nowNs() : 0;
    LatClass Class = LatWrite;

    switch (K) {
    case Op::Get: {
      const std::optional<std::uint64_t> V =
          Tr.call(SpanName::KvGet, [&] { return T.Db->get(Tid, Key); });
      Class = LatRead;
      ++S.Gets;
      S.GetHits += V.has_value();
      check(S, Key, V);
      break;
    }
    case Op::Put:
      Tr.call(SpanName::KvPut, [&] { return T.Db->put(Tid, Key, Key * 2); });
      ++S.Writes;
      break;
    case Op::Erase:
      Tr.call(SpanName::KvErase, [&] { return T.Db->erase(Tid, Key); });
      ++S.Writes;
      break;
    case Op::Merge: {
      bool Bad = false;
      const std::uint64_t V = Tr.call(SpanName::KvMerge, [&] {
        return T.Db->merge(Tid, Key, [&](std::optional<std::uint64_t> Cur) {
          Bad |= Cur && *Cur != Key * 2;
          return Key * 2;
        });
      });
      S.Failed += Bad || V != Key * 2;
      ++S.Writes;
      break;
    }
    case Op::Insert:
      if (Tr.call(SpanName::DsInsert,
                  [&] { return T.Map->insert(Tid, Key, Key * 2); }))
        ++S.Inserted;
      ++S.DsOps;
      ++S.Writes;
      break;
    case Op::Remove:
      if (Tr.call(SpanName::DsRemove, [&] { return T.Map->remove(Tid, Key); }))
        ++S.Removed;
      ++S.DsOps;
      ++S.Writes;
      break;
    case Op::AsyncPut:
    case Op::AsyncErase: {
      if (InFlight == AsyncWindow) {
        Tr.call(SpanName::FutureWait, [&] { return Window[Head].get(Tid); });
        Head = (Head + 1) % AsyncWindow;
        --InFlight;
        ++Completed;
        ++S.Ops;
      }
      Window[(Head + InFlight) % AsyncWindow] = Tr.call(SpanName::Submit, [&] {
        return K == Op::AsyncPut ? T.Sub->put(Tid, Key, Key * 2)
                                 : T.Sub->erase(Tid, Key);
      });
      ++InFlight;
      ++Submitted;
      ++S.Writes;
      return; // counted as an op when its future completes
    }
    case Op::Txn: {
      const std::uint64_t Start = nowNs();
      for (bool Committed = false; !Committed;) {
        ++S.TxnAttempts;
        ++S.SnapshotOpens;
        auto Tx =
            Tr.call(SpanName::TxnBegin, [&] { return T.Db->begin_transaction(); });
        for (unsigned I = 0; I < TxnKeys; ++I) {
          const std::uint64_t TK = keyOf(E[I]);
          check(S, TK,
                Tr.call(SpanName::TxnGet, [&] { return Tx.get(Tid, TK); }));
          Tr.call(SpanName::TxnBuffer, [&] {
            Tx.put(TK, TK * 2);
            return 0;
          });
        }
        Committed = Tr.call(SpanName::TxnCommit, [&] { return Tx.commit(Tid); });
      }
      ++S.TxnCommits;
      S.Writes += TxnKeys;
      record(S, LatTxn, Start);
      break;
    }
    case Op::Snapshot: {
      const std::uint64_t Start = nowNs();
      ++S.SnapshotOpens;
      lfsmr::kv::snapshot Snap =
          Tr.call(SpanName::SnapshotOpen, [&] { return T.Db->open_snapshot(); });
      std::optional<std::uint64_t> First, Last;
      for (unsigned I = 0; I < BurstReads; ++I) {
        const std::uint64_t SK = keyOf(E[I]);
        Last = Tr.call(SpanName::SnapshotGet,
                       [&] { return T.Db->get(Tid, SK, Snap); });
        check(S, SK, Last);
        if (I == 0)
          First = Last;
      }
      Tr.call(SpanName::SnapshotClose, [&] {
        Snap.reset();
        return 0;
      });
      S.Failed += First != Last;
      record(S, LatSnapshot, Start);
      break;
    }
    case Op::More:
      ++S.Failed; // a continuation entry is never an op head
      break;
    }
    if (Timed && K != Op::Txn && K != Op::Snapshot)
      record(S, Class, T0);
    ++S.Ops;
  }

  const unsigned Id;
  const int Cpu;
  const lfsmr::thread_id Tid;
  const std::vector<Entry> &Ring;
  Target &T;
  std::atomic<Phase> &Ph;
  bool Pinned = false;
  alignas(64) std::atomic<std::uint64_t> Steps{0};
  std::size_t Pos = 0;
  std::uint64_t Seq = 0;
  Tally Tallies[NumTallies];
  SpanBuffer Spans;
  Future Window[AsyncWindow];
  unsigned Head = 0, InFlight = 0;
  std::uint64_t Submitted = 0, Completed = 0;
};

//===----------------------------------------------------------------------===//
// Coordinator
//===----------------------------------------------------------------------===//

/// One measured window as the coordinator saw it.
struct Window {
  double Seconds = 0;
  store_stats Begin{}, End{};
  /// The domain's unreclaimed count, once per `SamplePeriod`.
  std::vector<std::int64_t> Unreclaimed;
  /// Ops the clients issued in the window (async ops at submission).
  std::uint64_t Steps = 0;
};

/// Switches the clients into \p P, samples the domain's unreclaimed count
/// every `SamplePeriod` for \p Secs, then switches them into \p Next.
/// `domain().stats()` is read, not `store::stats()`: the latter also
/// summarizes four histograms per call.
Window measure(Target &T, const std::vector<std::unique_ptr<Client>> &Cs,
               std::atomic<Phase> &Ph, Phase P, Phase Next, double Secs) {
  auto Steps = [&] {
    std::uint64_t N = 0;
    for (const auto &C : Cs)
      N += C->steps();
    return N;
  };
  Window W;
  const auto Period = std::chrono::duration_cast<Clock::duration>(SamplePeriod);
  const auto Length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(Secs));
  W.Unreclaimed.reserve(static_cast<std::size_t>(Length / Period) + 1);
  W.Begin = T.storeStats();
  const std::uint64_t StepsBefore = Steps();
  const Clock::time_point Start = Clock::now();
  Ph.store(P, std::memory_order_release);
  const Clock::time_point End = Start + Length;
  for (Clock::time_point Tick = Start + Period; Tick <= End; Tick += Period) {
    std::this_thread::sleep_until(Tick);
    W.Unreclaimed.push_back(T.domainStats().unreclaimed);
  }
  std::this_thread::sleep_until(End);
  const Clock::time_point Stop = Clock::now();
  Ph.store(Next, std::memory_order_release);
  W.Seconds = std::chrono::duration<double>(Stop - Start).count();
  W.Steps = Steps() - StepsBefore;
  W.End = T.storeStats();
  return W;
}

//===----------------------------------------------------------------------===//
// Metrics and report
//===----------------------------------------------------------------------===//

/// An end-to-end metric: what a user of the library would see.
struct EndToEndDef {
  const char *Name;
  const char *Unit;
  const char *Better;
  double Bound; ///< share of the baseline median it may worsen by
};

/// No bound but that of `setup_s` exceeds 10%; README.md gives the
/// run-to-run spreads they were checked against. Set-up time moves with
/// the host more than anything else measured, so it gets the largest
/// bound the benchmark contract allows.
constexpr EndToEndDef EndToEndDefs[] = {
    {"setup_s", "s", "lower", 0.25},
    {"throughput_mops", "Mops/s", "higher", 0.08},
    {"read_p50_ns", "ns", "lower", 0.08},
    {"read_p99_ns", "ns", "lower", 0.10},
    {"write_p50_ns", "ns", "lower", 0.08},
    {"write_p99_ns", "ns", "lower", 0.10},
    {"snapshot_p50_ns", "ns", "lower", 0.08},
    {"snapshot_p99_ns", "ns", "lower", 0.10},
    {"txn_p50_ns", "ns", "lower", 0.08},
    {"txn_p99_ns", "ns", "lower", 0.10},
    {"unreclaimed_avg", "objects", "lower", 0.10},
    {"unreclaimed_p50", "objects", "lower", 0.10},
    {"rss_peak_mib", "MiB", "lower", 0.05},
    {"error_rate", "ratio", "lower", 0.0},
};

const EndToEndDef &endToEndDef(const std::string &Name) {
  for (const EndToEndDef &D : EndToEndDefs)
    if (Name == D.Name)
      return D;
  std::fprintf(stderr, "lfsmr-e2e: unknown end-to-end metric %s\n",
               Name.c_str());
  std::abort();
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Source; ///< "e2e", or "counter"/"span" for a layer metric
  std::uint64_t Samples;
};

struct WorkloadReport {
  std::string Name;
  int Exit = 0;
  std::uint64_t Attempted = 0, Failed = 0;
  std::vector<Metric> EndToEnd, Layers;
  std::string Details; ///< JSON members describing the run
};

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Adds `<Prefix>p50` and `<Prefix>p99` of \p Samples where the tail is
/// deep enough (see `quantile`).
template <typename Add>
void addPercentiles(std::vector<std::uint32_t> Samples, const std::string &P50,
                    const std::string &P99, Add &&Emit) {
  std::sort(Samples.begin(), Samples.end());
  if (const std::optional<double> V = quantile(Samples, 0.50))
    Emit(P50, *V, Samples.size());
  if (const std::optional<double> V = quantile(Samples, 0.99))
    Emit(P99, *V, Samples.size());
}

/// Per-layer metrics derived from the traced window's spans.
struct SpanSummary {
  std::vector<std::uint32_t> Durations[static_cast<unsigned>(SpanName::Count)];
  std::uint64_t SampledOps = 0, RootNs = 0, SelfNs = 0, Spans = 0;
  std::map<std::string, std::uint64_t> LayerNs;
};

SpanSummary summarizeSpans(const std::vector<std::unique_ptr<Client>> &Cs) {
  SpanSummary Sum;
  for (const auto &C : Cs) {
    const std::vector<Span> &S = C->spans().spans();
    Sum.Spans += S.size();
    for (std::size_t I = 0; I < S.size();) {
      const Span &Root = S[I];
      const Interval RootIv{Root.Begin, std::max(Root.Begin, Root.End)};
      std::vector<Interval> Kids;
      std::size_t J = I + 1;
      for (; J < S.size() && S[J].Parent == Root.Id; ++J) {
        const Interval Kid{S[J].Begin, std::max(S[J].Begin, S[J].End)};
        const std::uint64_t D = Kid.End - Kid.Begin;
        Kids.push_back(Kid);
        Sum.Durations[static_cast<unsigned>(S[J].Name)].push_back(
            static_cast<std::uint32_t>(std::min<std::uint64_t>(D, UINT32_MAX)));
        Sum.LayerNs[info(S[J].Name).Layer] += D;
      }
      if (Root.Parent == 0 && Root.End != 0) {
        ++Sum.SampledOps;
        Sum.RootNs += RootIv.End - RootIv.Begin;
        Sum.SelfNs += selfTime(RootIv, std::move(Kids));
      }
      I = J;
    }
  }
  return Sum;
}

/// Writes the traced window's spans as a Chrome trace-event file.
bool writeTrace(const std::string &Path,
                const std::vector<std::unique_ptr<Client>> &Cs) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", F);
  const char *Sep = "\n";
  for (std::size_t C = 0; C < Cs.size(); ++C)
    for (const Span &S : Cs[C]->spans().spans()) {
      if (S.End == 0)
        continue;
      const std::uint64_t Base = std::uint64_t(C) << 32;
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op_id\":%" PRIu64
                   ",\"span_id\":%" PRIu64 ",\"parent\":%" PRIu64 "}}",
                   Sep, info(S.Name).Name, info(S.Name).Layer, C,
                   static_cast<double>(S.Begin) / 1e3,
                   static_cast<double>(S.End - S.Begin) / 1e3, S.OpId,
                   Base | S.Id, S.Parent ? Base | S.Parent : 0);
      Sep = ",\n";
    }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

/// Command-line options.
struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Secs = 10;
  std::string Trace; ///< empty: no traced window
  std::string Out;
};

std::string fmt(const char *Format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char *Format, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Format);
  std::vsnprintf(Buf, sizeof Buf, Format, Args);
  va_end(Args);
  return Buf;
}

/// Runs one workload in this process: inputs, set-up, warm-up, the
/// measured window(s), output checks, and the metrics.
WorkloadReport runWorkload(const Spec &W, const Options &O,
                           const std::vector<int> &Cpus) {
  WorkloadReport R;
  R.Name = std::string(W.Name);
  const bool Traced = !O.Trace.empty();
  const bool CoordinatorPinned = pinTo(Cpus[0]);

  // Inputs first: the library only ever sees these keys.
  const KeyGen Keys(W, O.Seed);
  const std::vector<std::uint64_t> Prefill = prefillKeys(W, O.Seed);
  std::vector<std::vector<Entry>> Streams;
  for (unsigned C = 0; C < Clients; ++C)
    Streams.push_back(makeStream(W, Keys, O.Seed, C));

  Target T;
  std::vector<double> SetupSecs;
  std::uint64_t Failed = 0;
  // One slice of timed set-ups, rotated in whole rounds over the run's
  // CPUs; the last container built stays in T.
  auto TimeSetups = [&] {
    const Clock::time_point Begin = Clock::now();
    const auto Budget = std::chrono::duration<double>(SetupSliceSeconds);
    for (unsigned I = 0;
         I < MaxSetupsPerSlice &&
         (I < MinSetupsPerSlice || I % RunCpus != 0 || Clock::now() - Begin < Budget);
         ++I) {
      pinTo(Cpus[I % RunCpus]);
      T.reset();
      const Clock::time_point Start = Clock::now();
      Failed += build(T, W, Prefill);
      SetupSecs.push_back(
          std::chrono::duration<double>(Clock::now() - Start).count());
    }
    pinTo(Cpus[0]);
  };
  TimeSetups();

  std::atomic<Phase> Ph{Phase::Idle};
  std::atomic<unsigned> Ready{0};
  std::vector<std::unique_ptr<Client>> Cs;
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C) {
    Cs.push_back(std::make_unique<Client>(C, Cpus[C + 1], W, Streams[C], T, Ph));
    Threads.emplace_back([Cl = Cs.back().get(), &Ready] { Cl->run(Ready); });
  }
  while (Ready.load(std::memory_order_acquire) != Clients)
    cpuRelax();

  std::optional<Store::guard_type> Stall;
  if (W.Stall)
    Stall.emplace(T.Db->domain().enter(StallTid));
  const double Warmup = std::min(WarmupSeconds, O.Secs);
  Ph.store(Phase::Warmup, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(Warmup));
  const Window Untraced = measure(T, Cs, Ph, Phase::Measure,
                                  Traced ? Phase::Warmup : Phase::Stop, O.Secs);
  // Peak RSS of the untraced run, before span buffers are touched.
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  Window TracedWin;
  std::size_t SpansReserved = 0;
  if (Traced) {
    // Room for twice the ops the untraced window ran, at the largest op's
    // span count; the clients run untraced (warm-up) meanwhile.
    SpansReserved = 2 * MaxSpansPerOp *
                    (Untraced.Steps / Clients / TraceStride + 1);
    for (const auto &C : Cs)
      C->reserveSpans(SpansReserved);
    TracedWin = measure(T, Cs, Ph, Phase::Traced, Phase::Stop, O.Secs);
  }
  for (std::thread &Th : Threads)
    Th.join();
  Stall.reset();

  // Output checks beyond the per-op ones the clients made.
  Tally All, M, Tr;
  for (const auto &C : Cs) {
    for (Phase P : {Phase::Warmup, Phase::Measure, Phase::Traced})
      All.add(C->tally(P));
    M.add(C->tally(Phase::Measure));
    Tr.add(C->tally(Phase::Traced));
    Failed += C->uncompleted();
  }
  Failed += All.Failed;
  std::uint64_t Checked = 0;
  if (W.HashMap) {
    // Quiescent: present keys = prefill + inserts - removes, and every
    // present value is key * 2.
    std::uint64_t Present = 0;
    for (std::uint64_t K = 0; K < W.KeySpace; ++K)
      if (const std::optional<std::uint64_t> V = T.Map->get(0, K)) {
        ++Present;
        Failed += *V != K * 2;
      }
    Checked = W.KeySpace;
    Failed += Present != W.Prefill + All.Inserted - All.Removed;
  }
  // The second slice of set-ups, seconds after the first.
  TimeSetups();
  T.reset();

  R.Attempted = All.Attempted + Checked;
  R.Failed = Failed;
  R.Exit = Failed ? ExitFailed : 0;

  // End-to-end metrics: untraced window only.
  auto E2E = [&](const std::string &Name, double Value, std::uint64_t N) {
    R.EndToEnd.push_back(
        Metric{Name, Value, endToEndDef(Name).Unit, "e2e", N});
  };
  auto Latency = [&](LatClass L, const std::string &Prefix) {
    std::vector<std::uint32_t> V;
    for (const auto &C : Cs) {
      const std::vector<std::uint32_t> K = C->tally(Phase::Measure).Lat[L].kept();
      V.insert(V.end(), K.begin(), K.end());
    }
    addPercentiles(std::move(V), Prefix + "_p50_ns", Prefix + "_p99_ns", E2E);
  };
  E2E("setup_s", median(SetupSecs), SetupSecs.size());
  const double Mops = throughputMops(M.Ops, Untraced.Seconds);
  E2E("throughput_mops", Mops, M.Ops);
  if (W.has(Op::Get))
    Latency(LatRead, "read");
  Latency(LatWrite, "write");
  if (W.has(Op::Snapshot))
    Latency(LatSnapshot, "snapshot");
  if (W.has(Op::Txn))
    Latency(LatTxn, "txn");
  std::vector<std::int64_t> Unreclaimed = Untraced.Unreclaimed;
  std::sort(Unreclaimed.begin(), Unreclaimed.end());
  E2E("unreclaimed_avg",
      ratio(std::accumulate(Unreclaimed.begin(), Unreclaimed.end(), 0.0),
            double(Unreclaimed.size())),
      Unreclaimed.size());
  // The mean also counts short spikes of unreclaimed memory; the median
  // is the level the domain holds most of the time.
  if (const std::optional<double> P50 = quantile(Unreclaimed, 0.50))
    E2E("unreclaimed_p50", *P50, Unreclaimed.size());
  E2E("rss_peak_mib", static_cast<double>(Usage.ru_maxrss) / 1024.0, 1);
  E2E("error_rate", ratio(double(Failed), double(R.Attempted)), R.Attempted);

  // Counter metrics: deltas over the untraced window.
  auto Layer = [&](const std::string &Name, double Value, const char *Unit,
                   const char *Source, std::uint64_t N) {
    R.Layers.push_back(Metric{Name, Value, Unit, Source, N});
  };
  const store_stats &B = Untraced.Begin, &E = Untraced.End;
  const double Ops = static_cast<double>(M.Ops);
  Layer("smr.retired_per_op", ratio(double(E.retired - B.retired), Ops), "1/op",
        "counter", M.Ops);
  Layer("smr.freed_per_op", ratio(double(E.freed - B.freed), Ops), "1/op",
        "counter", M.Ops);
  Layer("smr.alloc_per_op", ratio(double(E.allocated - B.allocated), Ops),
        "1/op", "counter", M.Ops);
  Layer("smr.era_per_kop", ratio(1000.0 * double(E.era - B.era), Ops), "1/kop",
        "counter", M.Ops);
  Layer("smr.unreclaimed_peak",
        Unreclaimed.empty() ? 0.0 : double(Unreclaimed.back()), "objects",
        "counter", Unreclaimed.size());
  Layer("smr.unreclaimed_end", double(E.unreclaimed), "objects", "counter", 1);
  if (W.HashMap)
    Layer("ds.success_ratio", ratio(double(M.Inserted + M.Removed), double(M.DsOps)),
          "ratio", "counter", M.DsOps);
  if (W.has(Op::Get)) {
    Layer("kv.get_hit_ratio", ratio(double(M.GetHits), double(M.Gets)), "ratio",
          "counter", M.Gets);
    Layer("kv.index_resizes", double(E.index_resizes - B.index_resizes),
          "count", "counter", 1);
  }
  if (!W.HashMap) {
    Layer("kv.versions_per_write",
          ratio(double(E.allocated - B.allocated), double(M.Writes)), "1/write",
          "counter", M.Writes);
    Layer("kv.trim_walk_len.mean", E.trim_walk_len.mean, "nodes", "counter",
          E.trim_walk_len.count);
    Layer("kv.trim_walk_len.p99", E.trim_walk_len.p99, "nodes", "counter",
          E.trim_walk_len.count);
  }
  if (W.has(Op::Snapshot)) {
    Layer("kv.snapshot_slow_ratio",
          ratio(double(E.slow_acquires - B.slow_acquires), double(M.SnapshotOpens)),
          "ratio", "counter", M.SnapshotOpens);
    Layer("kv.snapshot_reject_ratio",
          ratio(double(E.fast_rejects - B.fast_rejects), double(M.SnapshotOpens)),
          "ratio", "counter", M.SnapshotOpens);
  }
  if (W.has(Op::Txn)) {
    Layer("kv.txn_abort_ratio",
          ratio(double(M.TxnAttempts - M.TxnCommits), double(M.TxnAttempts)),
          "ratio", "counter", M.TxnAttempts);
    Layer("kv.txn_attempts_per_commit",
          ratio(double(M.TxnAttempts), double(M.TxnCommits)), "1/commit",
          "counter", M.TxnCommits);
  }
  if (W.has(Op::AsyncPut)) {
    const double Submits = double(E.async_submits - B.async_submits);
    Layer("kv.submit_batch_len.mean", E.submit_batch_len.mean, "ops", "counter",
          E.submit_batch_len.count);
    Layer("kv.combiner_takeovers_per_kop",
          ratio(1000.0 * double(E.combiner_takeovers - B.combiner_takeovers),
                Submits),
          "1/kop", "counter", E.async_submits - B.async_submits);
    Layer("kv.sync_fallback_ratio",
          ratio(double(E.sync_fallbacks - B.sync_fallbacks), Submits), "ratio",
          "counter", E.async_submits - B.async_submits);
  }

  // Span metrics: traced window only.
  std::string TraceDetails;
  if (Traced) {
    const SpanSummary Sum = summarizeSpans(Cs);
    auto SpanMetric = [&](const std::string &Name, double Value,
                          std::uint64_t N) {
      Layer(Name, Value, "ns", "span", N);
    };
    for (unsigned N = static_cast<unsigned>(SpanName::DsInsert);
         N < static_cast<unsigned>(SpanName::Count); ++N) {
      const std::string Base = info(static_cast<SpanName>(N)).Name;
      if (!Sum.Durations[N].empty())
        addPercentiles(Sum.Durations[N], Base + "_ns.p50", Base + "_ns.p99",
                       SpanMetric);
    }
    for (const auto &[Name, Ns] : Sum.LayerNs)
      Layer(Name + ".time_share", ratio(double(Ns), double(Sum.RootNs)), "ratio",
            "span", Sum.SampledOps);
    Layer("client.self_share", ratio(double(Sum.SelfNs), double(Sum.RootNs)),
          "ratio", "span", Sum.SampledOps);
    Layer("client.ns_per_op", ratio(double(Sum.SelfNs), double(Sum.SampledOps)),
          "ns", "span", Sum.SampledOps);
    Layer("layer.ns_per_op",
          ratio(double(Sum.RootNs - Sum.SelfNs), double(Sum.SampledOps)), "ns",
          "span", Sum.SampledOps);
    const double WithSpans = throughputMops(Tr.Ops, TracedWin.Seconds);
    Layer("trace.overhead_pct", 100.0 * ratio(Mops - WithSpans, Mops), "%",
          "span", Tr.Ops);
    const bool Written = writeTrace(O.Trace, Cs);
    if (!Written) {
      std::fprintf(stderr, "lfsmr-e2e: cannot write trace file %s\n",
                   O.Trace.c_str());
      R.Exit = ExitFailed;
    }
    TraceDetails = fmt(",\"trace\":{\"file\":\"%s\",\"written\":%s,\"spans\":%" PRIu64
                       ",\"spans_reserved_per_client\":%zu,\"sampled_ops\":%" PRIu64
                       ",\"window_s\":%.6f,\"ops\":%" PRIu64 "}",
                       O.Trace.c_str(), Written ? "true" : "false", Sum.Spans,
                       SpansReserved, Sum.SampledOps, TracedWin.Seconds, Tr.Ops);
  }

  std::string Pinned;
  for (const auto &C : Cs)
    Pinned += fmt("%s%d", Pinned.empty() ? "" : ",", C->pinned() ? C->cpu() : -1);
  R.Details = fmt("\"window_s\":%.6f,\"warmup_s\":%.3f,\"pinned\":{"
                  "\"coordinator\":%d,\"clients\":[%s]}",
                  Untraced.Seconds, Warmup, CoordinatorPinned ? Cpus[0] : -1,
                  Pinned.c_str()) +
              TraceDetails;
  return R;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string metricJson(const Metric &M, bool EndToEnd) {
  std::string S = fmt("\"%s\":{\"value\":%.17g,\"unit\":\"%s\"", M.Name.c_str(),
                      M.Value, M.Unit.c_str());
  if (EndToEnd) {
    const EndToEndDef &D = endToEndDef(M.Name);
    S += fmt(",\"better\":\"%s\",\"bound\":%g", D.Better, D.Bound);
  } else {
    S += fmt(",\"source\":\"%s\"", M.Source.c_str());
  }
  return S + fmt(",\"samples\":%" PRIu64 "}", M.Samples);
}

std::string reportJson(const WorkloadReport &R) {
  std::string S =
      fmt("{\"workload\":\"%s\",\"exit\":%d,\"attempted\":%" PRIu64
          ",\"failed\":%" PRIu64 ",",
          R.Name.c_str(), R.Exit, R.Attempted, R.Failed);
  S += R.Details + ",\"end_to_end\":{";
  for (std::size_t I = 0; I < R.EndToEnd.size(); ++I)
    S.append(I ? "," : "").append(metricJson(R.EndToEnd[I], true));
  S += "},\"layers\":{";
  for (std::size_t I = 0; I < R.Layers.size(); ++I)
    S.append(I ? "," : "").append(metricJson(R.Layers[I], false));
  return S + "}}";
}

std::string tableRows(const WorkloadReport &R) {
  std::string S;
  auto Row = [&](const Metric &M, const std::string &Bound) {
    S += fmt("%-14s %-34s %16.6g %-8s %-8s %10" PRIu64 " %s\n", R.Name.c_str(),
             M.Name.c_str(), M.Value, M.Unit.c_str(), M.Source.c_str(),
             M.Samples, Bound.c_str());
  };
  for (const Metric &M : R.EndToEnd)
    Row(M, fmt("%g", endToEndDef(M.Name).Bound));
  for (const Metric &M : R.Layers)
    Row(M, "-");
  return S;
}

std::string metaJson(const Options &O, const std::vector<int> &Cpus) {
  std::string Affinity;
  for (int C : Cpus)
    Affinity += fmt("%s%d", Affinity.empty() ? "" : ",", C);
  std::string S = fmt(
      "{\"tool\":\"lfsmr-e2e\",\"git_sha\":\"%s\",\"compiler\":\"%s\","
      "\"flags\":\"%s\",\"scheme\":\"hyaline_s\",\"nproc\":%ld,"
      "\"hardware_concurrency\":%u,\"affinity\":[%s],",
      E2E_GIT_SHA, E2E_COMPILER, E2E_FLAGS, sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(), Affinity.c_str());
  S += fmt("\"seed\":%" PRIu64 ",\"telemetry\":\"%s\",\"clients\":%u,"
           "\"window_s\":%g,\"traced_window_s\":%g,\"warmup_s\":%g,"
           "\"setup_slices\":2,\"setups_per_slice\":[%u,%u],"
           "\"setup_slice_s\":%g,"
           "\"latency_stride\":%" PRIu64 ",\"trace_stride\":%" PRIu64
           ",\"sample_period_ms\":%lld,",
           O.Seed, LFSMR_TELEMETRY_ENABLED ? "ON" : "OFF", Clients, O.Secs,
           O.Trace.empty() ? 0.0 : O.Secs, std::min(WarmupSeconds, O.Secs),
           MinSetupsPerSlice, MaxSetupsPerSlice, SetupSliceSeconds, LatencyStride,
           TraceStride,
           static_cast<long long>(SamplePeriod.count()));
  S += "\"note\":\"End-to-end metrics come only from untraced windows. "
       "Span metrics come from the traced window, counter metrics from the "
       "untraced one.";
  if (!LFSMR_TELEMETRY_ENABLED)
    S += " Telemetry is OFF: store counters and histograms read 0.";
  return S + "\"}";
}

void usage(std::FILE *F) {
  std::fputs("usage: lfsmr-e2e <workload|all> [--seed N] [--secs S] "
             "[--trace FILE] [--out FILE]\nworkloads:",
             F);
  for (const Spec &W : specs())
    std::fprintf(F, " %.*s", static_cast<int>(W.Name.size()), W.Name.data());
  std::fputs(" all\n", F);
}

/// Parses argv; nullopt after printing why.
std::optional<Options> parse(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    const bool HasValue = I + 1 < Argc;
    char *End = nullptr;
    if (A == "--seed" && HasValue) {
      O.Seed = std::strtoull(Argv[++I], &End, 0);
    } else if (A == "--secs" && HasValue) {
      O.Secs = std::strtod(Argv[++I], &End);
      if (!(O.Secs > 0 && O.Secs <= 600))
        End = Argv[I];
    } else if (A == "--trace" && HasValue) {
      O.Trace = Argv[++I];
    } else if (A == "--out" && HasValue) {
      O.Out = Argv[++I];
    } else if (A.rfind("--", 0) != 0 && O.Workload.empty()) {
      O.Workload = A;
    } else {
      std::fprintf(stderr, "lfsmr-e2e: unexpected argument '%s'\n", A.c_str());
      return std::nullopt;
    }
    if (End && *End) {
      std::fprintf(stderr, "lfsmr-e2e: bad value for %s\n", A.c_str());
      return std::nullopt;
    }
  }
  if (O.Workload != "all" && !findSpec(O.Workload)) {
    std::fprintf(stderr, "lfsmr-e2e: unknown workload '%s'\n",
                 O.Workload.c_str());
    return std::nullopt;
  }
  return O;
}

/// `all` writes one trace per workload: `t.json` becomes `t.<name>.json`.
std::string tracePathFor(const std::string &Path, std::string_view Name) {
  if (Path.empty())
    return Path;
  const std::size_t Dot = Path.rfind(".json");
  const std::string Stem =
      Dot != std::string::npos && Dot + 5 == Path.size() ? Path.substr(0, Dot)
                                                         : Path;
  return Stem + "." + std::string(Name) + ".json";
}

struct ChildResult {
  int Exit;
  std::string Json, Rows;
};

/// Runs \p W in a fresh child process, so allocator state and peak RSS
/// are the workload's own.
ChildResult runInChild(const Spec &W, const Options &O,
                       const std::vector<int> &Cpus) {
  const std::string Name(W.Name);
  int Fd[2];
  if (pipe(Fd) != 0)
    return {ExitFailed, "", ""};
  std::fflush(nullptr);
  const pid_t Pid = fork();
  if (Pid < 0) {
    close(Fd[0]);
    close(Fd[1]);
    return {ExitFailed, "", ""};
  }
  if (Pid == 0) {
    close(Fd[0]);
    Options Child = O;
    Child.Trace = tracePathFor(O.Trace, W.Name);
    const WorkloadReport R = runWorkload(W, Child, Cpus);
    const std::string Out = reportJson(R) + '\x1e' + tableRows(R);
    bool Ok = true;
    for (std::size_t Done = 0; Ok && Done < Out.size();) {
      const ssize_t N = write(Fd[1], Out.data() + Done, Out.size() - Done);
      Ok = N > 0;
      Done += Ok ? static_cast<std::size_t>(N) : 0;
    }
    close(Fd[1]);
    std::fflush(nullptr);
    _exit(Ok ? R.Exit : ExitFailed);
  }
  close(Fd[1]);
  std::string Payload;
  char Buf[65536];
  for (ssize_t N; (N = read(Fd[0], Buf, sizeof Buf)) > 0;)
    Payload.append(Buf, static_cast<std::size_t>(N));
  close(Fd[0]);
  int Status = 0;
  waitpid(Pid, &Status, 0);
  const int Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : ExitFailed;
  const std::size_t Sep = Payload.find('\x1e');
  if (Sep == std::string::npos)
    return {Exit ? Exit : ExitFailed,
            fmt("{\"workload\":\"%s\",\"exit\":%d,\"error\":\"no report\"}",
                Name.c_str(), Exit),
            fmt("%-14s (no report, exit %d)\n", Name.c_str(), Exit)};
  return {Exit, Payload.substr(0, Sep), Payload.substr(Sep + 1)};
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 2 && (std::strcmp(Argv[1], "--help") == 0 ||
                    std::strcmp(Argv[1], "-h") == 0)) {
    usage(stdout);
    return 0;
  }
  const std::optional<Options> O = parse(Argc, Argv);
  if (!O) {
    usage(stderr);
    return ExitRefused;
  }
  const std::vector<int> Cpus = affinityCpus();
  if (Cpus.size() < RunCpus) {
    std::fprintf(stderr,
                 "lfsmr-e2e: needs %u CPUs in the affinity mask (3 clients + "
                 "1 coordinator, never oversubscribed); found %zu\n",
                 RunCpus, Cpus.size());
    return ExitRefused;
  }

  std::vector<ChildResult> Results;
  if (O->Workload == "all") {
    for (const Spec &W : specs()) {
      std::fprintf(stderr, "lfsmr-e2e: running %.*s\n",
                   static_cast<int>(W.Name.size()), W.Name.data());
      Results.push_back(runInChild(W, *O, Cpus));
    }
  } else {
    const WorkloadReport R = runWorkload(*findSpec(O->Workload), *O, Cpus);
    Results.push_back({R.Exit, reportJson(R), tableRows(R)});
  }

  int Exit = 0;
  std::string Json = "{\"schema\":\"lfsmr-e2e/1\",\"meta\":" + metaJson(*O, Cpus) +
                     ",\"workloads\":[";
  std::printf("%-14s %-34s %16s %-8s %-8s %10s %s\n", "workload", "metric",
              "value", "unit", "kind", "samples", "bound");
  for (std::size_t I = 0; I < Results.size(); ++I) {
    std::fputs(Results[I].Rows.c_str(), stdout);
    Json.append(I ? "," : "").append(Results[I].Json);
    Exit = std::max(Exit, Results[I].Exit);
  }
  Json += "]}\n";
  std::fputs(Json.c_str(), stdout);
  if (!O->Out.empty()) {
    std::FILE *F = std::fopen(O->Out.c_str(), "w");
    if (!F || std::fputs(Json.c_str(), F) < 0 || std::fclose(F) != 0) {
      std::fprintf(stderr, "lfsmr-e2e: cannot write %s\n", O->Out.c_str());
      return ExitFailed;
    }
  }
  return Exit;
}
