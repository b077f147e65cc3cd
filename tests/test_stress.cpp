//===- tests/test_stress.cpp - Heavy mixed stress -------------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Heavier, oversubscribed stress runs: more threads than cores, mixed
/// operations, dynamic thread arrival/departure (the paper's transparency
/// scenario), and full-reclamation accounting at the end.
///
//===----------------------------------------------------------------------===//

#include "ds/hm_list.h"
#include "ds/michael_hashmap.h"
#include "ds/nm_tree.h"
#include "ds_common.h"
#include "lfsmr/kv.h"
#include "smr/reclaimer_traits.h"

#include <optional>

using namespace lfsmr;
using namespace lfsmr::ds;
using namespace lfsmr::testing;

namespace {

template <typename S> class Stress : public ::testing::Test {};
TYPED_TEST_SUITE(Stress, AllSchemes, SchemeNames);

TYPED_TEST(Stress, OversubscribedHashMapChurn) {
  // 2x hardware threads hammering a small table.
  const unsigned Threads =
      std::max(8u, 2 * std::thread::hardware_concurrency());
  MichaelHashMap<TypeParam> M(dsTestConfig(Threads), 1024);
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      Xoshiro256 Rng(streamSeed(T));
      for (int I = 0; I < 4000; ++I) {
        const uint64_t K = Rng.nextBounded(4096);
        switch (Rng.nextBounded(3)) {
        case 0:
          M.insert(T, K, K);
          break;
        case 1:
          M.remove(T, K);
          break;
        default:
          M.get(T, K);
        }
      }
    });
  for (auto &T : Ts)
    T.join();
  const auto &MC = M.smr().memCounter();
  EXPECT_GE(MC.allocated(), MC.retired());
  EXPECT_GE(MC.retired(), MC.freed());
}

TYPED_TEST(Stress, DynamicThreadsJoinAndLeave) {
  // The paper's transparency scenario: waves of short-lived threads join
  // the workload, do some work, and vanish without any unregistration or
  // cleanup step. Ids are recycled across waves.
  const unsigned Width = 8;
  HMList<TypeParam> L(dsTestConfig(Width));
  for (int Wave = 0; Wave < 6; ++Wave) {
    std::vector<std::thread> Ts;
    for (unsigned T = 0; T < Width; ++T)
      Ts.emplace_back([&, T, Wave] {
        Xoshiro256 Rng(streamSeed(Wave * 100 + T));
        for (int I = 0; I < 500; ++I) {
          const uint64_t K = Rng.nextBounded(256);
          if (Rng.nextPercent(50))
            L.insert(T, K, K);
          else
            L.remove(T, K);
        }
      });
    for (auto &T : Ts)
      T.join();
  }
  // Remove whatever remains; accounting must close.
  for (uint64_t K = 0; K < 256; ++K)
    L.remove(0, K);
  const auto &MC = L.smr().memCounter();
  EXPECT_EQ(MC.allocated(), MC.retired());
}

TYPED_TEST(Stress, NMTreeOversubscribedMix) {
  // Per-pointer protection (HP/HE) is unsound on the NM tree's detached
  // chains; see the caveat in nm_tree.h and test_nmtree.cpp.
  if constexpr (std::is_same_v<TypeParam, smr::HP> ||
                std::is_same_v<TypeParam, smr::HE>)
    GTEST_SKIP() << "per-pointer schemes excluded on the NM tree";
  const unsigned Threads =
      std::max(8u, 2 * std::thread::hardware_concurrency());
  NMTree<TypeParam> T(dsTestConfig(Threads));
  std::vector<std::thread> Ts;
  for (unsigned W = 0; W < Threads; ++W)
    Ts.emplace_back([&, W] {
      Xoshiro256 Rng(streamSeed(W + 31));
      for (int I = 0; I < 3000; ++I) {
        const uint64_t K = Rng.nextBounded(2048);
        switch (Rng.nextBounded(3)) {
        case 0:
          T.insert(W, K, K);
          break;
        case 1:
          T.remove(W, K);
          break;
        default:
          T.get(W, K);
        }
      }
    });
  for (auto &W : Ts)
    W.join();
  const auto &MC = T.smr().memCounter();
  EXPECT_GE(MC.allocated(), MC.retired());
}

TYPED_TEST(Stress, KvSnapshotChurnSoak) {
  // Oversubscribed soak of the versioned store: every thread mixes
  // writes, erases, latest reads, and periodic snapshot bursts whose
  // reads must be repeatable and key-stamped. This is the version-churn
  // shape that punishes reclamation at write rate (VBR-style stress).
  const unsigned Threads =
      std::max(8u, 2 * std::thread::hardware_concurrency());
  kv::Options O;
  O.Reclaim = dsTestConfig(Threads);
  O.Shards = 8;
  O.BucketsPerShard = 128;
  O.MinSnapshotSlots = 2;
  kv::Store<TypeParam> Db(O);
  constexpr uint64_t KeyRange = 512;
  for (uint64_t K = 1; K <= KeyRange; ++K)
    Db.put(0, K, K * 1000);

  std::atomic<int> Bad{0};
  std::vector<std::thread> Ts;
  for (unsigned W = 0; W < Threads; ++W)
    Ts.emplace_back([&, W] {
      Xoshiro256 Rng(streamSeed(W + 77));
      for (int I = 0; I < 3000; ++I) {
        const uint64_t K = 1 + Rng.nextBounded(KeyRange);
        switch (Rng.nextBounded(8)) {
        case 0:
          Db.erase(W, K);
          break;
        case 1: {
          // Snapshot burst: repeatable, key-stamped reads.
          kv::snapshot Snap = Db.open_snapshot();
          for (int J = 0; J < 16; ++J) {
            const uint64_t SK = 1 + Rng.nextBounded(KeyRange);
            const std::optional<uint64_t> A = Db.get(W, SK, Snap);
            if (A != Db.get(W, SK, Snap))
              ++Bad;
            if (A && *A / 1000 != SK)
              ++Bad;
          }
          break;
        }
        case 2: {
          const std::optional<uint64_t> V = Db.get(W, K);
          if (V && *V / 1000 != K)
            ++Bad;
          break;
        }
        default:
          Db.put(W, K, K * 1000 + W);
        }
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Bad.load(), 0) << "a snapshot read tore or drifted";
  EXPECT_EQ(Db.live_snapshots(), 0u);

  // Drain and close the accounting.
  for (uint64_t K = 1; K <= KeyRange; ++K)
    Db.erase(0, K);
  Db.compact(0);
  const memory_stats MS = Db.stats();
  // Bucket sentinels live in the directory, so every node was retired.
  EXPECT_EQ(MS.allocated, MS.retired);
  EXPECT_GE(MS.retired, MS.freed);
}

/// The sampled-peak bound LongRunReclamationKeepsUp asserts for a robust
/// scheme: a fixed 20000, which Hyaline-S tightens to the bound derived
/// from its config. With k slots (the count the run ended with: the
/// directory only grows), batches of b = max(MinBatch, k + 1) nodes,
/// threshold A = AckThreshold, and n threads:
///  - each thread holds fewer than b retired nodes in its unpublished
///    batch: n * b;
///  - a slot pins only the batches some occupant still owes a traversal,
///    which its Ack counts exactly, plus its head batch. enter admits no
///    thread into a slot whose Ack has reached A, so a preempted
///    occupant's running slot-mates let in at most A + 1 batches;
///  - its slot-mates gone, the preempted occupant's access era is
///    frozen, and a batch still enters its slot only if one of its nodes
///    was born by then, i.e. was live at the freeze: at most one batch
///    per key, KeyRange batches over all slots.
/// Derived bound = n * b + b * (k * (A + 1) + KeyRange).
template <typename S>
int64_t pinnedBound(const S &Scheme, const smr::Config &C,
                    int64_t KeyRange) {
  constexpr int64_t Fixed = 20000;
  if constexpr (std::is_same_v<S, core::HyalineS>) {
    const int64_t K = static_cast<int64_t>(Scheme.slots());
    const int64_t B = std::max<int64_t>(C.MinBatch, K + 1);
    return std::min(Fixed, C.MaxThreads * B +
                               B * (K * (C.AckThreshold + 1) + KeyRange));
  }
  return Fixed;
}

TYPED_TEST(Stress, LongRunReclamationKeepsUp) {
  // Unreclaimed memory must stay bounded through sustained churn when no
  // thread stalls (every scheme, robust or not, must provide this).
  constexpr int64_t KeyRange = 1024;
  smr::Config C = dsTestConfig(8);
  // The library's AckThreshold (8192) sizes Hyaline-S for steady state;
  // under it the derived bound is ~270k, far past this test's churn, and
  // a preempted thread's slot-mates kept its slot admitting batches
  // well past 20000 pinned nodes. 128 derives 12384 at the configured 4
  // slots and 18576 if the directory grows to 8. Only Hyaline-S reads
  // the knob.
  C.AckThreshold = 128;
  MichaelHashMap<TypeParam> M(C, 512);
  std::vector<std::thread> Ts;
  std::atomic<int64_t> MaxSeen{0};
  std::atomic<bool> Stop{false};
  for (unsigned W = 0; W < 8; ++W)
    Ts.emplace_back([&, W] {
      Xoshiro256 Rng(streamSeed(W));
      for (int I = 0; I < 20000; ++I) {
        const uint64_t K = Rng.nextBounded(KeyRange);
        if (Rng.nextPercent(50))
          M.insert(W, K, K);
        else
          M.remove(W, K);
      }
    });
  std::thread Sampler([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      const int64_t U = M.smr().memCounter().unreclaimed();
      int64_t Cur = MaxSeen.load();
      while (U > Cur && !MaxSeen.compare_exchange_weak(Cur, U)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (auto &W : Ts)
    W.join();
  Stop.store(true);
  Sampler.join();
  // Robust schemes bound garbage even when a thread is preempted mid-
  // operation, so the sampled high-water mark must stay far below the
  // churn volume. Non-robust schemes legitimately spike on an
  // oversubscribed host (a descheduled guard pins everything retired
  // meanwhile — the paper's Figure 12 scenario), so for them assert the
  // quiescent property instead: once every thread has left, everything
  // except the per-thread buffers (local batches, unswept retired lists)
  // has drained.
  if constexpr (smr::ReclaimerTraits<TypeParam>::Row.NeedsDeref) {
    EXPECT_LT(MaxSeen.load(), pinnedBound(M.smr(), C, KeyRange));
  } else {
    // Bound the leftovers relative to the churn: per-thread buffers plus
    // whatever the final epoch pinned is a small fraction of the retires,
    // while a scheme that stopped reclaiming keeps essentially all of
    // them.
    const auto &MC = M.smr().memCounter();
    EXPECT_LT(MC.unreclaimed(), std::max<int64_t>(MC.retired() / 4, 2000))
        << "reclamation never caught up after quiescence";
  }
}

} // namespace
