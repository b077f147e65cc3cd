//===- tests/test_robustness.cpp - Stalled-thread memory bounds -----------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's robustness property (Section 2): a scheme is robust if
/// memory usage stays bounded when a thread stalls inside an operation.
/// These tests stall a reader mid-operation while a writer churns:
///  - robust schemes (HP, HE, IBR, Hyaline-S, Hyaline-1S) must keep the
///    unreclaimed count bounded (Theorem 5);
///  - non-robust schemes (Epoch, Hyaline, Hyaline-1) must exhibit the
///    unbounded growth the paper warns about — asserted positively, since
///    it is a documented property, not a bug;
///  - once the stalled thread resumes, everything must reclaim.
///
//===----------------------------------------------------------------------===//

#include "devtools/random.h"
#include "devtools/workload.h"
#include "lfsmr/kv.h"
#include "scheme_fixtures.h"

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

using namespace lfsmr;
using namespace lfsmr::testing;

namespace {

// The stall scenarios are deterministic, but logging the suite seed at
// binary start keeps the reproduction recipe uniform across all stress and
// robustness binaries (LFSMR_TEST_SEED, see devtools/random.h).
[[maybe_unused]] const uint64_t LoggedSeed = testSeed();

constexpr int ChurnOps = 50000;

/// Runs the stall scenario: a reader enters, dereferences one node, and
/// stalls; a writer churns ChurnOps alloc/retire cycles through shared
/// cells. Returns the unreclaimed count after the churn (stalled guard
/// still active); on return everything has been released and freed.
template <typename S>
int64_t stallScenario(const smr::Config &Cfg, std::atomic<int64_t> &Freed,
                      int64_t *TotalAllocated = nullptr) {
  S Scheme(Cfg, countingDeleter<S>, &Freed);
  std::atomic<TestNode<S> *> Cell{nullptr};

  // Seed the cell so the stalled reader has something to dereference.
  auto WriterBoot = Scheme.enter(1);
  auto *Seed = new TestNode<S>();
  Seed->Payload = 0;
  Scheme.initNode(WriterBoot, &Seed->Hdr);
  Cell.store(Seed);
  Scheme.leave(WriterBoot);

  auto Stalled = Scheme.enter(0);
  (void)Scheme.deref(Stalled, Cell, 0); // hold a protected pointer

  // Writer churn: publish a node, retire the displaced one.
  for (int I = 0; I < ChurnOps; ++I) {
    auto G = Scheme.enter(1);
    auto *N = new TestNode<S>();
    N->Payload = I;
    Scheme.initNode(G, &N->Hdr);
    auto *Old = Cell.exchange(N);
    Scheme.retire(G, &Old->Hdr);
    Scheme.leave(G);
  }

  const int64_t Unreclaimed = Scheme.memCounter().unreclaimed();
  if (TotalAllocated)
    *TotalAllocated = Scheme.memCounter().allocated();

  // Resume: the stalled thread leaves; drain the cell.
  Scheme.leave(Stalled);
  auto G = Scheme.enter(1);
  Scheme.retire(G, &Cell.exchange(nullptr)->Hdr);
  Scheme.leave(G);
  return Unreclaimed;
}

smr::Config robustnessConfig() {
  smr::Config C;
  C.MaxThreads = 4;
  C.Slots = 2;
  C.MinBatch = 8;
  C.EpochFreq = 16;
  C.EmptyFreq = 32;
  C.EraFreq = 16;
  C.AckThreshold = 512;
  return C;
}

template <typename S> class Robust : public ::testing::Test {};
TYPED_TEST_SUITE(Robust, RobustSchemes, SchemeNames);

TYPED_TEST(Robust, BoundedUnderStalledReader) {
  std::atomic<int64_t> Freed{0};
  const int64_t Unreclaimed =
      stallScenario<TypeParam>(robustnessConfig(), Freed);
  // Bound: far below the churn volume. The exact constant depends on the
  // scheme (Theorem 5 gives deltaEra * Freq * n * (k+1) for Hyaline-S);
  // 10% of the churn is orders of magnitude above any of them.
  EXPECT_LT(Unreclaimed, ChurnOps / 10)
      << "robust scheme must bound memory under a stalled thread";
}

TYPED_TEST(Robust, FullReclamationAfterResume) {
  std::atomic<int64_t> Freed{0};
  int64_t Allocated = 0;
  { stallScenario<TypeParam>(robustnessConfig(), Freed, &Allocated); }
  // stallScenario destroyed the scheme on return: drain complete.
  EXPECT_EQ(Freed.load(), Allocated);
}

/// Version churn on the KV store with a guard stalled mid-operation:
/// every put retires the displaced version (write-side trim), so the
/// store pushes garbage at write rate while one thread squats inside the
/// reclamation scheme. Returns the unreclaimed count under the stall.
template <typename S> int64_t kvStallScenario(int64_t *AllocatedOut) {
  kv::Options O;
  O.Reclaim = robustnessConfig();
  O.Shards = 1;
  O.BucketsPerShard = 16;
  int64_t Unreclaimed = 0;
  {
    kv::Store<S> Db(O);
    Db.put(1, 1, 0);
    {
      auto Stalled = Db.domain().enter(0); // stalls inside the scheme
      for (int I = 0; I < ChurnOps; ++I)
        Db.put(1, 1, static_cast<uint64_t>(I));
      Unreclaimed = Db.stats().unreclaimed;
    } // the stalled guard resumes and leaves
    if (AllocatedOut)
      *AllocatedOut = Db.stats().allocated;
  }
  return Unreclaimed;
}

TYPED_TEST(Robust, KvVersionChurnBoundedUnderStalledGuard) {
  const int64_t Unreclaimed = kvStallScenario<TypeParam>(nullptr);
  EXPECT_LT(Unreclaimed, ChurnOps / 10)
      << "robust scheme must bound kv version garbage under a stall";
}

/// Theorem 5 on the store, with the library's default reclaim config.
/// The stalled guard never dereferences, so its slot's access era stays
/// older than every batch and retire skips the slot: the stall pins
/// nothing. Between rounds, with the writers quiescent, what stays
/// unreclaimed is each writer's batch still being filled, fewer than
/// max(MinBatch, k+1) nodes apiece, however long the churn runs. (While
/// the writers run, `stats()` is approximate and published batches wait
/// for concurrent writers to leave, so the bound is checked between
/// rounds.) The churn runs past AckThreshold x MinBatch retirements: if
/// batches that cover nothing charged Ack, the busy writer slots would
/// look stalled by then, the directory would grow, and the writers would
/// crowd into the stalled guard's slot and raise its access era, after
/// which every batch inserted there stays pinned.
TEST(HyalineSKvStall, NeverDereferencingGuardPinsOnlyWriterBatches) {
  constexpr unsigned Writers = 3;
  constexpr int Rounds = 16;
  constexpr uint64_t Keys = 64;
  kv::Options O;
  // The default config except the slot count, which defaults to the
  // host's CPU count: one slot per thread gives the stalled guard's tid
  // a slot of its own on every host.
  O.Reclaim.Slots = Writers + 1;
  O.Shards = 1;
  O.BucketsPerShard = 16;
  const int64_t Batch =
      std::max<int64_t>(O.Reclaim.MinBatch, O.Reclaim.Slots + 1);
  const int64_t Bound = Writers * Batch; // 3 x 64 = 192
  const int64_t Retirements =
      2 * O.Reclaim.AckThreshold * int64_t{O.Reclaim.MinBatch};
  const int PutsPerRound =
      static_cast<int>(Retirements / (int64_t{Writers} * Rounds)) + 1;

  kv::Store<core::HyalineS> Db(O);
  for (uint64_t Key = 0; Key < Keys; ++Key)
    Db.put(0, Key, Key);
  const std::size_t Slots = Db.smr().slots();
  ASSERT_EQ(Slots, std::size_t{Writers + 1});

  auto Stalled = Db.domain().enter(Writers); // the reserved tid
  for (int R = 0; R < Rounds; ++R) {
    std::vector<std::thread> Ts;
    for (unsigned W = 0; W < Writers; ++W)
      Ts.emplace_back([&, W] {
        Xoshiro256 Rng(streamSeed(R * Writers + W));
        for (int I = 0; I < PutsPerRound; ++I)
          Db.put(W, Rng.next() % Keys, static_cast<uint64_t>(I));
      });
    for (auto &T : Ts)
      T.join();
    ASSERT_LT(Db.stats().unreclaimed, Bound) << "round " << R;
    ASSERT_EQ(Db.smr().slots(), Slots) << "round " << R;
  }
  EXPECT_GT(Db.stats().retired, Retirements)
      << "the churn must outlast the point where drift saturated a slot";
}

constexpr uint64_t ServeKeys = 256;
// Sized down from ChurnOps: EBR's sweep-on-every-retire walks its whole
// (never-shrinking) retired list once per retire under a stall, and the
// zipf-interleaved allocation order makes every walked node a cache
// miss — O(churn^2) with a big constant. 16k ops keep the non-robust
// cases a few seconds while the assertions keep 1.5-2x margins.
constexpr int ServePinnedOps = 4096;
constexpr int ServeChurnOps = 16000;

struct ServeStallResult {
  int64_t PinnedUnreclaimed;   ///< snapshot + guard both held
  int64_t StalledUnreclaimed;  ///< snapshot dropped, guard still stalled
  std::size_t LiveWhilePinned; ///< registry's live count during phase 1
};

/// The kv-serve stall scenario: a workload::StalledSnapshotHolder parks
/// on thread id 0 while a writer serves zipfian puts over a prefilled key
/// space, in the holder's two phases.
///
/// Phase 1 (snapshot + guard held): the snapshot pins the trim floor at
/// its stamp, so writers append versions *above* the floor and trimChain
/// retires nothing — version memory grows as live chain suffixes, for
/// every scheme alike. `unreclaimed` (retired minus freed) therefore
/// stays near zero here; asserting that documents the distinction
/// between MVCC pinning and reclamation-scheme robustness.
///
/// Phase 2 (snapshot dropped, guard stalled): the floor unpins, the next
/// put per key retires its piled-up suffix, and every further put retires
/// the version it displaces — retirement flows at write rate past a
/// squatting guard. This is where the paper's robustness line is drawn:
/// robust schemes keep `unreclaimed` bounded, non-robust schemes pin
/// everything retired since the guard entered.
template <typename S> ServeStallResult kvServeStallScenario() {
  kv::Options O;
  O.Reclaim = robustnessConfig();
  O.Shards = 1;
  O.BucketsPerShard = 16;
  ServeStallResult R{};
  kv::Store<S> Db(O);
  for (uint64_t K = 0; K < ServeKeys; ++K)
    Db.put(1, K, K);

  workload::StalledSnapshotHolder<kv::Store<S>> Holder(Db, 0);
  Holder.waitUntilHeld();
  Xoshiro256 Rng(streamSeed(1));
  const workload::ZipfianGenerator Z(ServeKeys);

  for (int I = 0; I < ServePinnedOps; ++I)
    Db.put(1, Z.next(Rng), static_cast<uint64_t>(I));
  R.PinnedUnreclaimed = Db.stats().unreclaimed;
  R.LiveWhilePinned = Db.live_snapshots();

  Holder.releaseSnapshot();
  for (int I = 0; I < ServeChurnOps; ++I)
    Db.put(1, Z.next(Rng), static_cast<uint64_t>(I));
  R.StalledUnreclaimed = Db.stats().unreclaimed;

  Holder.release();
  return R;
}

TYPED_TEST(Robust, KvServeBoundedUnderStalledSnapshotHolder) {
  const ServeStallResult R = kvServeStallScenario<TypeParam>();
  EXPECT_EQ(R.LiveWhilePinned, 1u);
  // While the snapshot pins the floor nothing is retired, so there is
  // nothing for the scheme to be robust about yet.
  EXPECT_LT(R.PinnedUnreclaimed, ServePinnedOps / 8);
  // Once the snapshot drops, retirement resumes at write rate; a robust
  // scheme reclaims past the still-stalled guard. The residue is a
  // volume-independent constant (Theorem 5): a few hundred nodes at most
  // on this config, and 0 for Hyaline-S, whose retire skips the holder's
  // slot because the holder never dereferences. Half the churn sits far
  // above every scheme's constant and far below what a non-robust
  // scheme pins.
  EXPECT_LT(R.StalledUnreclaimed, ServeChurnOps / 2)
      << "robust scheme must bound serve-path garbage under a stalled "
         "snapshot holder";
}

template <typename S> class NonRobust : public ::testing::Test {};
TYPED_TEST_SUITE(NonRobust, NonRobustSchemes, SchemeNames);

TYPED_TEST(NonRobust, UnboundedGrowthUnderStalledReader) {
  // Documents the paper's Table 1: these schemes are NOT robust. The
  // stalled reader pins (nearly) all memory retired after it entered.
  std::atomic<int64_t> Freed{0};
  const int64_t Unreclaimed =
      stallScenario<TypeParam>(robustnessConfig(), Freed);
  EXPECT_GT(Unreclaimed, ChurnOps / 2)
      << "non-robust scheme expected to accumulate garbage under stall";
}

TYPED_TEST(NonRobust, FullReclamationAfterResume) {
  std::atomic<int64_t> Freed{0};
  int64_t Allocated = 0;
  { stallScenario<TypeParam>(robustnessConfig(), Freed, &Allocated); }
  EXPECT_EQ(Freed.load(), Allocated);
}

TYPED_TEST(NonRobust, KvVersionChurnGrowsUnderStalledGuard) {
  // Documents Table 1 at the store level: a stalled guard pins the
  // version garbage a non-robust scheme's writers keep retiring.
  const int64_t Unreclaimed = kvStallScenario<TypeParam>(nullptr);
  EXPECT_GT(Unreclaimed, ChurnOps / 2)
      << "non-robust scheme expected to accumulate kv version garbage";
}

TYPED_TEST(NonRobust, KvServeGrowsUnderStalledSnapshotHolder) {
  const ServeStallResult R = kvServeStallScenario<TypeParam>();
  EXPECT_EQ(R.LiveWhilePinned, 1u);
  // Phase 1 is scheme-independent: the pinned snapshot suppresses
  // retirement itself, so even a non-robust scheme shows (near) zero
  // unreclaimed — the growth is live chain memory, not garbage.
  EXPECT_LT(R.PinnedUnreclaimed, ServePinnedOps / 8);
  // Phase 2 documents the paper's warning: with retirement flowing
  // again, the guard that entered before the first retire pins it all
  // (in practice every one of the PinnedOps + ChurnOps retires).
  EXPECT_GT(R.StalledUnreclaimed, (ServePinnedOps + ServeChurnOps) / 2)
      << "non-robust scheme expected to accumulate serve-path garbage "
         "under a stalled snapshot holder";
}

} // namespace
