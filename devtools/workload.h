//===- devtools/workload.h - Serving-realism workload generators *- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reusable generators for serving-realism workloads: the pieces the
/// `kv-serve` bench suite and the robustness tests compose into
/// production-shaped traffic instead of uniform micro mixes.
///
///  - ZipfianGenerator: deterministic skewed key ranks (rank 0 hottest),
///    the YCSB/Gray popularity model. Seeding is external — draws consume
///    a caller-owned Xoshiro256, so per-thread streams stay independent
///    and replayable.
///  - ValueSizeDist: fixed / uniform / bimodal payload-size pickers for
///    string-valued stores.
///  - runSessions / runSessioned: thread lifecycle scripting. Each
///    logical worker slot runs its sessions on a *fresh OS thread*, so
///    thread_local state (snapshot slot hints, scheme caches) is rebuilt
///    mid-run — the join/leave pattern that exercises slot reuse.
///  - StalledSnapshotHolder: an injectable actor that opens a snapshot
///    *and* squats inside the reclamation scheme on its own thread — the
///    paper's stalled-reader adversary (Section 2) aimed at the kv
///    serving surface.
///  - CompletionWindow: closed-loop async client pacing — a bounded
///    window of in-flight futures (submit N before waiting), the client
///    shape that lets the async batched write path form batches.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_DEVTOOLS_WORKLOAD_H
#define LFSMR_DEVTOOLS_WORKLOAD_H

#include "devtools/random.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace lfsmr::workload {

/// Zipfian rank generator over [0, items): rank 0 is the most frequent,
/// and expected frequency decreases monotonically with rank — the
/// property the statistical tests pin down. This is the Gray et al.
/// rejection-free construction ("Quickly Generating Billion-Record
/// Synthetic Databases", SIGMOD 1994) as popularized by YCSB: one O(n)
/// harmonic precompute at construction, O(1) per draw.
///
/// Determinism: the generator itself is immutable after construction;
/// all randomness comes from the Xoshiro256 the caller passes to next(),
/// so two generators with equal (items, theta) fed equal-seeded streams
/// produce identical rank sequences.
class ZipfianGenerator {
public:
  /// \p Items > 0 keys; \p Theta in (0, 1) — larger is more skewed
  /// (YCSB's default hot-spot skew is 0.99).
  explicit ZipfianGenerator(uint64_t Items, double Theta = 0.99)
      : N(Items), ThetaV(Theta) {
    assert(Items > 0 && "zipfian needs a non-empty key space");
    assert(Theta > 0.0 && Theta < 1.0 && "theta must be in (0, 1)");
    double Zeta = 0.0, Zeta2 = 0.0;
    for (uint64_t I = 1; I <= N; ++I) {
      Zeta += 1.0 / std::pow(static_cast<double>(I), Theta);
      if (I == 2)
        Zeta2 = Zeta;
    }
    Zetan = Zeta;
    Alpha = 1.0 / (1.0 - Theta);
    // N == 1 degenerates to "always rank 0"; next() never reaches Eta
    // there, but keep it finite rather than 0/0.
    Eta = N > 1 ? (1.0 - std::pow(2.0 / static_cast<double>(N), 1.0 - Theta)) /
                      (1.0 - Zeta2 / Zetan)
                : 0.0;
    HalfPowTheta = 1.0 + std::pow(0.5, Theta);
  }

  uint64_t items() const { return N; }
  double theta() const { return ThetaV; }

  /// Draws one rank in [0, items()). Rank 0 has the highest expected
  /// frequency; frequency decays as rank^-theta.
  uint64_t next(Xoshiro256 &Rng) const {
    // 53-bit mantissa uniform in [0, 1).
    const double U =
        static_cast<double>(Rng.next() >> 11) * 0x1.0p-53;
    const double Uz = U * Zetan;
    if (Uz < 1.0)
      return 0;
    if (Uz < HalfPowTheta)
      return 1;
    const uint64_t Rank = static_cast<uint64_t>(
        static_cast<double>(N) * std::pow(Eta * U - Eta + 1.0, Alpha));
    return Rank >= N ? N - 1 : Rank; // clamp FP rounding at the tail
  }

private:
  uint64_t N;
  double ThetaV;
  double Zetan;
  double Alpha;
  double Eta;
  double HalfPowTheta;
};

/// Payload-size picker for string-valued workloads. Three shapes cover
/// the serving cases that matter: fixed (baseline), uniform (smooth
/// spread), and bimodal (mostly-small with a heavy tail — the classic
/// cache-object profile).
class ValueSizeDist {
public:
  static ValueSizeDist fixed(std::size_t Bytes) {
    return ValueSizeDist(Kind::Fixed, Bytes, Bytes, 0);
  }
  /// Uniform in [Lo, Hi] inclusive.
  static ValueSizeDist uniform(std::size_t Lo, std::size_t Hi) {
    assert(Lo <= Hi && "uniform bounds inverted");
    return ValueSizeDist(Kind::Uniform, Lo, Hi, 0);
  }
  /// \p Small with probability (100 - LargePct)%, \p Large otherwise.
  static ValueSizeDist bimodal(std::size_t Small, std::size_t Large,
                               unsigned LargePct) {
    assert(LargePct <= 100 && "percentage out of range");
    return ValueSizeDist(Kind::Bimodal, Small, Large, LargePct);
  }

  std::size_t sample(Xoshiro256 &Rng) const {
    switch (K) {
    case Kind::Fixed:
      return Lo;
    case Kind::Uniform:
      return Lo + static_cast<std::size_t>(
                      Rng.nextBounded(static_cast<uint64_t>(Hi - Lo) + 1));
    case Kind::Bimodal:
      return Rng.nextPercent(Pct) ? Hi : Lo;
    }
    return Lo;
  }

  std::size_t minBytes() const { return Lo; }
  std::size_t maxBytes() const { return Hi; }

private:
  enum class Kind { Fixed, Uniform, Bimodal };
  ValueSizeDist(Kind K, std::size_t Lo, std::size_t Hi, unsigned Pct)
      : K(K), Lo(Lo), Hi(Hi), Pct(Pct) {}
  Kind K;
  std::size_t Lo;
  std::size_t Hi;
  unsigned Pct;
};

/// Thread lifecycle scripting: runs \p Workers logical worker slots, each
/// executing exactly \p SessionsPerWorker sessions back-to-back, every
/// session on a freshly spawned OS thread (joined before the next one
/// starts). Worker slots run concurrently with each other; a slot's
/// sessions are strictly sequential, so at most \p Workers bodies run at
/// once even though Workers * SessionsPerWorker distinct threads exist
/// over the run. \p Fn is invoked as Fn(WorkerSlot, SessionIndex) and
/// returns that session's op count; the total over all sessions is
/// returned.
///
/// The point of the fresh thread per session: thread_local state (the
/// snapshot registry's slot hint, scheme-side caches) is torn down and
/// rebuilt mid-run, modeling clients that join and leave a live server.
template <typename Body>
uint64_t runSessions(unsigned Workers, unsigned SessionsPerWorker, Body &&Fn) {
  std::vector<uint64_t> Ops(Workers, 0);
  std::vector<std::thread> Slots;
  Slots.reserve(Workers);
  for (unsigned W = 0; W < Workers; ++W)
    Slots.emplace_back([&, W] {
      for (unsigned S = 0; S < SessionsPerWorker; ++S) {
        uint64_t SessionOps = 0;
        std::thread Session([&] { SessionOps = Fn(W, S); });
        Session.join();
        Ops[W] += SessionOps;
      }
    });
  uint64_t Total = 0;
  for (unsigned W = 0; W < Workers; ++W) {
    Slots[W].join();
    Total += Ops[W];
  }
  return Total;
}

/// Open-ended variant for timed runs: each worker slot keeps starting
/// fresh sessions until \p Stop is observed set. \p Fn must itself
/// return promptly once Stop is set (sessions typically run a bounded
/// op quota per spawn and poll Stop inside).
template <typename Body>
uint64_t runSessioned(unsigned Workers, const std::atomic<bool> &Stop,
                      Body &&Fn) {
  std::vector<uint64_t> Ops(Workers, 0);
  std::vector<std::thread> Slots;
  Slots.reserve(Workers);
  for (unsigned W = 0; W < Workers; ++W)
    Slots.emplace_back([&, W] {
      for (unsigned S = 0; !Stop.load(std::memory_order_relaxed); ++S) {
        uint64_t SessionOps = 0;
        std::thread Session([&] { SessionOps = Fn(W, S); });
        Session.join();
        Ops[W] += SessionOps;
      }
    });
  uint64_t Total = 0;
  for (unsigned W = 0; W < Workers; ++W) {
    Slots[W].join();
    Total += Ops[W];
  }
  return Total;
}

/// Closed-loop async client pacing: keeps up to \p Window completion
/// futures in flight, waiting for the *oldest* once the window is full —
/// the standard closed-loop serving shape (each session has bounded
/// outstanding work, but more than one op, so combiners see batches
/// instead of single submissions). Usage:
///
/// \code
///   workload::CompletionWindow<kv::Future<Scheme>> Win(Tid, 16);
///   while (running)
///     Win.push(Sub.put(Tid, key(), val()));   // waits oldest when full
///   Win.drain();                              // wait out the tail
/// \endcode
///
/// \p Future must expose `get(Tid)` (consume + wait) and be movable —
/// `kv::future` is the intended instantiation, but anything with that
/// shape works. Completion results are discarded (a closed-loop client
/// measures pacing, not outcomes); call `get` yourself where results
/// matter. Not thread-safe: one window per client thread.
template <typename Future> class CompletionWindow {
public:
  /// \p Tid is the scheme thread id waits run under (futures help
  /// combine); \p Window > 0 is the max in-flight count.
  CompletionWindow(unsigned Tid, std::size_t Window) : Tid(Tid), Cap(Window) {
    assert(Window > 0 && "a closed loop needs a non-empty window");
    InFlight.reserve(Window);
  }

  ~CompletionWindow() { drain(); }

  /// Current in-flight count (always <= window).
  std::size_t size() const { return InFlight.size(); }

  /// Adds one future to the window; if the window is full, first waits
  /// for the oldest in-flight op (FIFO — the completion order batches
  /// naturally produce).
  void push(Future F) {
    if (InFlight.size() == Cap) {
      InFlight[Oldest].get(Tid);
      InFlight[Oldest] = std::move(F);
      Oldest = (Oldest + 1) % Cap;
      return;
    }
    InFlight.push_back(std::move(F));
  }

  /// Waits for every in-flight op, oldest first, emptying the window.
  void drain() {
    for (std::size_t I = 0; I < InFlight.size(); ++I)
      InFlight[(Oldest + I) % InFlight.size()].get(Tid);
    InFlight.clear();
    Oldest = 0;
  }

private:
  unsigned Tid;
  std::size_t Cap;
  std::size_t Oldest = 0; ///< ring start once the window has wrapped
  std::vector<Future> InFlight;
};

/// The injectable stalled-reader adversary for kv stores: on its own
/// thread, enters the reclamation scheme (a guard that never leaves) and
/// opens a snapshot, then parks — a reader frozen mid-snapshot-read. The
/// two holds have different consequences, so they release in two phases:
///
///  - the *snapshot* pins every version chain at its stamp: writers keep
///    appending but trim nothing past the floor, so chains grow as live
///    (not retired) memory. That is MVCC semantics, identical across
///    schemes.
///  - the *guard* is what separates the lineup: once the snapshot drops
///    (releaseSnapshot()), trims retire the piled-up suffixes and keep
///    retiring at write rate — robust schemes reclaim past the squatting
///    guard, non-robust schemes pin everything retired since it entered
///    (paper Section 2).
///
/// release() ends both holds; calling it without releaseSnapshot() first
/// drops the snapshot and the guard together.
///
/// \p Store must expose `domain()` (enter/leave) and `open_snapshot()`;
/// \p Tid is the scheme thread id the holder occupies — reserve it, the
/// serving workers must use different ids.
template <typename Store> class StalledSnapshotHolder {
public:
  StalledSnapshotHolder(Store &Db, unsigned Tid) {
    Actor = std::thread([this, &Db, Tid] {
      auto Guard = Db.domain().enter(Tid);
      {
        auto Snap = Db.open_snapshot();
        Version.store(Snap.version(), std::memory_order_relaxed);
        Held.store(true, std::memory_order_release);
        while (!SnapRelease.load(std::memory_order_acquire) &&
               !Released.load(std::memory_order_acquire))
          std::this_thread::sleep_for(std::chrono::microseconds(100));
      } // the snapshot closes here; the guard stays stalled
      SnapDropped.store(true, std::memory_order_release);
      while (!Released.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      // the RAII guard resumes and leaves on thread exit
    });
  }

  StalledSnapshotHolder(const StalledSnapshotHolder &) = delete;
  StalledSnapshotHolder &operator=(const StalledSnapshotHolder &) = delete;

  ~StalledSnapshotHolder() { release(); }

  /// Blocks until the actor holds both the guard and the snapshot; the
  /// measured churn must not start before this returns.
  void waitUntilHeld() const {
    while (!Held.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  /// The stamp the stalled snapshot pinned (valid once held).
  uint64_t snapshotVersion() const {
    return Version.load(std::memory_order_relaxed);
  }

  /// Phase one: the actor closes its snapshot (unpinning the trim floor)
  /// but keeps squatting inside the scheme guard. Blocks until the
  /// snapshot is actually closed. Idempotent.
  void releaseSnapshot() {
    SnapRelease.store(true, std::memory_order_release);
    while (!SnapDropped.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  /// Phase two (or both at once): unblocks the actor entirely and joins
  /// it. Idempotent.
  void release() {
    Released.store(true, std::memory_order_release);
    if (Actor.joinable())
      Actor.join();
  }

private:
  std::thread Actor;
  std::atomic<bool> Held{false};
  std::atomic<bool> SnapRelease{false};
  std::atomic<bool> SnapDropped{false};
  std::atomic<bool> Released{false};
  std::atomic<uint64_t> Version{0};
};

} // namespace lfsmr::workload

#endif // LFSMR_DEVTOOLS_WORKLOAD_H
