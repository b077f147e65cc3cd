//===- tests/test_kv.cpp - Versioned KV store tests -----------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Coverage for `lfsmr::kv`: the snapshot registry's clock/slot protocol
/// (including share-count saturation), options normalization, sequential
/// store semantics (snapshot isolation of reads, version-trim and
/// key-removal correctness, accounting), cooperative per-shard bucket
/// growth, snapshot-consistent scans, and CI-sized concurrent checks
/// (snapshot repeatability under churn, resize churn, disjoint-writer
/// accounting). The store suite is typed over scheme × payload configs:
/// all nine reclaiming schemes on the store's one node layout, each
/// with `uint64_t` and `std::string` keys/values, plus struct-payload
/// and prefix-scan coverage on representative schemes. Heavier soak
/// lives in test_stress.cpp; the stalled-guard memory bound in
/// test_robustness.cpp.
///
//===----------------------------------------------------------------------===//

#include "devtools/random.h"
#include "devtools/workload.h"
#include "lfsmr/kv.h"
#include "scheme_fixtures.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace lfsmr;
using namespace lfsmr::testing;

namespace {

[[maybe_unused]] const uint64_t LoggedSeed = testSeed();

/// Small batches and frequent sweeps so reclamation runs inside tests.
kv::Options kvTestOptions(unsigned MaxThreads = 8) {
  kv::Options O;
  O.Reclaim.MaxThreads = MaxThreads;
  O.Reclaim.Slots = 4;
  O.Reclaim.MinBatch = 8;
  O.Reclaim.EpochFreq = 4;
  O.Reclaim.EmptyFreq = 16;
  O.Reclaim.EraFreq = 4;
  O.Shards = 4;
  O.BucketsPerShard = 64;
  O.MinSnapshotSlots = 2;
  return O;
}

/// Tiny initial tables + an aggressive load factor, so bucket growth
/// triggers inside CI-sized tests.
kv::Options kvResizeOptions(unsigned MaxThreads = 8) {
  kv::Options O = kvTestOptions(MaxThreads);
  O.Shards = 2;
  O.BucketsPerShard = 2;
  O.MaxLoadFactor = 2;
  return O;
}

/// Deterministic payloads per key/value type: `make(x)` builds the
/// payload carrying the number `x`, `stamp(p)` recovers it. String
/// payloads vary in length so the variable-size (trailing-suffix)
/// record path is exercised.
template <typename T> struct Payload;

template <> struct Payload<uint64_t> {
  static uint64_t make(uint64_t X) { return X; }
  static uint64_t stamp(uint64_t P) { return P; }
};

template <> struct Payload<std::string> {
  static std::string make(uint64_t X) {
    return "p:" + std::to_string(X) + "/" + std::string(X % 23, '#');
  }
  static uint64_t stamp(const std::string &P) {
    return std::strtoull(P.c_str() + 2, nullptr, 10);
  }
};

//===----------------------------------------------------------------------===//
// SnapshotRegistry (scheme-independent)
//===----------------------------------------------------------------------===//

TEST(SnapshotRegistry, ClockTicksMonotonically) {
  kv::SnapshotRegistry R(2);
  const uint64_t C0 = R.clock();
  EXPECT_EQ(R.tick(), C0 + 1);
  EXPECT_EQ(R.tick(), C0 + 2);
  EXPECT_EQ(R.clock(), C0 + 2);
}

TEST(SnapshotRegistry, ResolveSettlesOnceAndHelpsIdempotently) {
  kv::SnapshotRegistry R(2);
  std::atomic<uint64_t> Stamp{kv::SnapshotRegistry::Pending};
  const uint64_t V = R.resolve(Stamp);
  EXPECT_NE(V, kv::SnapshotRegistry::Pending);
  EXPECT_EQ(R.resolve(Stamp), V) << "second resolve must not re-stamp";
  EXPECT_EQ(Stamp.load(), V);
}

TEST(SnapshotRegistry, AcquireValidatesAtTheCurrentClock) {
  kv::SnapshotRegistry R(2);
  const auto T = R.acquire();
  EXPECT_EQ(T.Stamp, R.clock());
  EXPECT_EQ(R.minLive(), T.Stamp);
  R.release(T);
  EXPECT_EQ(R.minLive(), kv::SnapshotRegistry::Pending);
}

TEST(SnapshotRegistry, SameClockValueSharesOneSlot) {
  kv::SnapshotRegistry R(2);
  const auto A = R.acquire();
  const auto B = R.acquire(); // no tick in between: same stamp
  EXPECT_EQ(A.Stamp, B.Stamp);
  EXPECT_EQ(A.Slot, B.Slot) << "equal stamps must share a refcounted slot";
  EXPECT_EQ(R.liveSnapshots(), 2u);
  R.release(A);
  EXPECT_EQ(R.minLive(), B.Stamp) << "one reference must keep the slot live";
  R.release(B);
  EXPECT_EQ(R.minLive(), kv::SnapshotRegistry::Pending);
}

TEST(SnapshotRegistry, SlotDirectoryGrowsWhenAllSlotsBusy) {
  kv::SnapshotRegistry R(2);
  std::vector<kv::SnapshotRegistry::Ticket> Ts;
  for (int I = 0; I < 64; ++I) {
    Ts.push_back(R.acquire());
    R.tick(); // force a distinct stamp per snapshot: no slot sharing
  }
  EXPECT_GE(R.slotCapacity(), 64u);
  EXPECT_EQ(R.liveSnapshots(), 64u);
  // The oldest ticket's stamp bounds the trim floor.
  uint64_t Min = kv::SnapshotRegistry::Pending;
  for (const auto &T : Ts)
    Min = std::min(Min, T.Stamp);
  EXPECT_EQ(R.minLive(), Min);
  for (const auto &T : Ts)
    R.release(T);
  EXPECT_EQ(R.minLive(), kv::SnapshotRegistry::Pending);
  EXPECT_EQ(R.liveSnapshots(), 0u);
}

TEST(SnapshotRegistry, ShareCountSaturationOverflowsIntoFreshSlot) {
  // The packed slot word holds a 15-bit share count but only half of it
  // is joinable — the rest is headroom for the fast path's blind
  // increments: claim #16384 on one clock value must refuse to join the
  // saturated word and open a fresh slot instead — never wrap the count
  // into the validated bit or lose a reference.
  constexpr uint64_t Max = kv::SnapshotRegistry::MaxSharersPerSlot;
  ASSERT_EQ(Max, 16383u);
  kv::SnapshotRegistry R(2);
  const auto First = R.acquire();
  std::vector<kv::SnapshotRegistry::Ticket> Sharers;
  Sharers.reserve(Max - 1);
  for (uint64_t I = 1; I < Max; ++I) {
    const auto T = R.acquire(); // clock never moves: all share one stamp
    ASSERT_EQ(T.Stamp, First.Stamp);
    ASSERT_EQ(T.Slot, First.Slot) << "below saturation, claims must share";
    Sharers.push_back(T);
  }
  EXPECT_EQ(R.liveSnapshots(), Max);

  const auto Overflow = R.acquire();
  EXPECT_EQ(Overflow.Stamp, First.Stamp)
      << "the overflow claim still validates at the same clock value";
  EXPECT_NE(Overflow.Slot, First.Slot)
      << "a saturated slot must not be joined";
  const auto Overflow2 = R.acquire();
  EXPECT_EQ(Overflow2.Slot, Overflow.Slot)
      << "subsequent claims share the fresh slot";
  EXPECT_EQ(R.liveSnapshots(), Max + 2);
  EXPECT_EQ(R.minLive(), First.Stamp);

  R.release(Overflow);
  R.release(Overflow2);
  for (const auto &T : Sharers)
    R.release(T);
  EXPECT_EQ(R.minLive(), First.Stamp)
      << "the original claim still pins the floor";
  R.release(First);
  EXPECT_EQ(R.minLive(), kv::SnapshotRegistry::Pending);
  EXPECT_EQ(R.liveSnapshots(), 0u);
}

//===----------------------------------------------------------------------===//
// Options normalization
//===----------------------------------------------------------------------===//

TEST(KvOptions, PowerOfTwoFieldsRoundUpSymmetrically) {
  kv::Options O;
  O.Shards = 6;            // not a power of two: must round UP, not truncate
  O.BucketsPerShard = 100; // likewise
  O.MinSnapshotSlots = 3;  // likewise
  O.Reclaim.NumHazards = 2;
  kv::Store<core::HyalineS> Db(O);
  EXPECT_EQ(Db.options().Shards, 8u);
  EXPECT_EQ(Db.options().BucketsPerShard, 128u);
  EXPECT_EQ(Db.options().MinSnapshotSlots, 4u);
  EXPECT_GE(Db.options().Reclaim.NumHazards, 8u);
  // The normalized values are the applied values.
  EXPECT_EQ(Db.shards(), 8u);
  for (std::size_t S = 0; S < Db.shards(); ++S)
    EXPECT_EQ(Db.buckets(S), 128u);
  EXPECT_EQ(Db.registry().slotCapacity(), 4u);
}

TEST(KvOptions, ZeroValuesClampToOne) {
  kv::Options O;
  O.Shards = 0;
  O.BucketsPerShard = 0;
  O.MinSnapshotSlots = 0;
  kv::Store<core::HyalineS> Db(O);
  EXPECT_EQ(Db.options().Shards, 1u);
  EXPECT_EQ(Db.options().BucketsPerShard, 1u);
  EXPECT_EQ(Db.options().MinSnapshotSlots, 1u);
  EXPECT_TRUE(Db.put(0, 1, 2));
  EXPECT_EQ(*Db.get(0, 1), 2u);
}

//===----------------------------------------------------------------------===//
// Store semantics, typed over scheme × payload configurations
//===----------------------------------------------------------------------===//

/// One typed-store configuration: reclamation scheme + key/value types.
template <typename S, typename KT, typename VT> struct KvCfg {
  using Scheme = S;
  using Key = KT;
  using Value = VT;
};

using KvConfigs = KvMatrix<KvCfg>;

template <typename C> class KvStore : public ::testing::Test {
protected:
  using Scheme = typename C::Scheme;
  using Key = typename C::Key;
  using Value = typename C::Value;
  using Store = kv::Store<Scheme, Key, Value>;

  static Key key(uint64_t X) { return Payload<Key>::make(X); }
  static Value val(uint64_t X) { return Payload<Value>::make(X); }
  static uint64_t stampOf(const Value &V) { return Payload<Value>::stamp(V); }
};

TYPED_TEST_SUITE(KvStore, KvConfigs, KvCfgNames);

TYPED_TEST(KvStore, SequentialSemantics) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  EXPECT_FALSE(Db.get(0, K(10)).has_value());
  EXPECT_TRUE(Db.put(0, K(10), V(100))) << "put on absent key reports insert";
  EXPECT_FALSE(Db.put(0, K(10), V(101)))
      << "put on present key reports replace";
  ASSERT_TRUE(Db.get(0, K(10)).has_value());
  EXPECT_EQ(*Db.get(0, K(10)), V(101));
  EXPECT_FALSE(Db.erase(0, K(11))) << "erase of an absent key fails";
  EXPECT_TRUE(Db.erase(0, K(10)));
  EXPECT_FALSE(Db.erase(0, K(10))) << "double erase fails";
  EXPECT_FALSE(Db.get(0, K(10)).has_value());
  EXPECT_TRUE(Db.put(0, K(10), V(102))) << "put over a tombstone is insert";
  EXPECT_EQ(*Db.get(0, K(10)), V(102));
}

TYPED_TEST(KvStore, DomainIsIntrusiveUnderEveryScheme) {
  // Every node is the scheme header followed by its record, so the
  // store's domain runs in intrusive mode and refuses transparent calls.
  typename TestFixture::Store Db(kvTestOptions());
  EXPECT_FALSE(Db.domain().transparent());
  auto G = Db.domain().enter(0);
  EXPECT_THROW((void)G.template create<uint64_t>(1), std::logic_error);
  EXPECT_EQ(Db.stats().allocated, Db.dummy_nodes())
      << "the refused create counted nothing";
}

TYPED_TEST(KvStore, SnapshotIsolationAcrossWrites) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  Db.put(0, K(1), V(10));
  Db.put(0, K(2), V(20));
  kv::snapshot S1 = Db.open_snapshot();
  Db.put(0, K(1), V(11));
  Db.erase(0, K(2));
  Db.put(0, K(3), V(30));
  kv::snapshot S2 = Db.open_snapshot();
  Db.put(0, K(1), V(12));

  // Latest view.
  EXPECT_EQ(*Db.get(0, K(1)), V(12));
  EXPECT_FALSE(Db.get(0, K(2)).has_value());
  EXPECT_EQ(*Db.get(0, K(3)), V(30));

  // S1: before any of the second wave.
  EXPECT_EQ(*Db.get(0, K(1), S1), V(10));
  EXPECT_EQ(*Db.get(0, K(2), S1), V(20)) << "erase must stay invisible to S1";
  EXPECT_FALSE(Db.get(0, K(3), S1).has_value()) << "key born after S1";

  // S2: between the waves.
  EXPECT_EQ(*Db.get(0, K(1), S2), V(11));
  EXPECT_FALSE(Db.get(0, K(2), S2).has_value()) << "S2 sees the tombstone";
  EXPECT_EQ(*Db.get(0, K(3), S2), V(30));

  // Repeatability within a snapshot.
  EXPECT_EQ(Db.get(0, K(1), S1), Db.get(0, K(1), S1));
  EXPECT_GT(S2.version(), S1.version());
}

TYPED_TEST(KvStore, SnapshotOpenCloseCyclesStayOnTheFastPath) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  Db.put(0, K(1), V(10));

  // Warm the per-thread slot hint (the first acquire has none and the
  // clock may have left older slots behind), then cycle: with the clock
  // quiescent, every open must join via the one-RMW fast path — the
  // slow-path and reject counters stay flat.
  { kv::snapshot Warm = Db.open_snapshot(); }
  const auto Before = Db.registry().acquireStats();
  for (int I = 0; I < 64; ++I) {
    kv::snapshot S = Db.open_snapshot();
    EXPECT_EQ(*Db.get(0, K(1), S), V(10));
  }
  const auto After = Db.registry().acquireStats();
  EXPECT_EQ(After.SlowAcquires, Before.SlowAcquires)
      << "open/close cycles at a quiescent clock must not hit the slow path";
  EXPECT_EQ(After.FastRejects, Before.FastRejects);

  // Writes move the clock: the next open re-validates (slow path) and
  // still reads consistently; subsequent cycles are fast again.
  Db.put(0, K(1), V(11));
  { kv::snapshot S = Db.open_snapshot(); }
  const auto Rearmed = Db.registry().acquireStats();
  for (int I = 0; I < 16; ++I) {
    kv::snapshot S = Db.open_snapshot();
    EXPECT_EQ(*Db.get(0, K(1), S), V(11));
  }
  EXPECT_EQ(Db.registry().acquireStats().SlowAcquires, Rearmed.SlowAcquires);
  EXPECT_EQ(Db.live_snapshots(), 0u);
}

TYPED_TEST(KvStore, VersionChainsTrimToOneWithoutSnapshots) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  Db.put(0, K(7), V(0));
  // Baseline after the first put: the key node, its first version, and
  // any bucket dummies the insert materialized are all allocated now.
  const memory_stats Before = Db.stats();
  for (uint64_t I = 1; I < 100; ++I)
    Db.put(0, K(7), V(I));
  EXPECT_EQ(Db.version_count(0, K(7)), 1u)
      << "with no live snapshot every write must trim to the head";
  EXPECT_EQ(*Db.get(0, K(7)), V(99));
  const memory_stats After = Db.stats();
  // 99 further versions allocated; each displaced one got retired.
  EXPECT_EQ(After.allocated - Before.allocated, 99);
  EXPECT_EQ(After.retired - Before.retired, 99);
}

TYPED_TEST(KvStore, LiveSnapshotPinsVersionsUntilRelease) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  Db.put(0, K(5), V(1));
  kv::snapshot Snap = Db.open_snapshot();
  for (uint64_t I = 2; I <= 10; ++I)
    Db.put(0, K(5), V(I));
  // The snapshot pins its visible version (value 1); everything newer is
  // retained as well (suffix-only trimming), so the chain holds all ten.
  EXPECT_GE(Db.version_count(0, K(5)), 2u);
  EXPECT_EQ(*Db.get(0, K(5), Snap), V(1));
  EXPECT_EQ(*Db.get(0, K(5)), V(10));
  Snap.reset();
  Db.put(0, K(5), V(11));
  EXPECT_EQ(Db.version_count(0, K(5)), 1u)
      << "releasing the snapshot re-enables trimming to the head";
}

TYPED_TEST(KvStore, EraseRemovesKeyNodeAndBalancesAccounting) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  for (uint64_t I = 0; I < 300; ++I)
    ASSERT_TRUE(Db.put(0, K(I), V(I * 2)));
  for (uint64_t I = 0; I < 300; ++I) {
    ASSERT_TRUE(Db.get(0, K(I)).has_value());
    EXPECT_EQ(*Db.get(0, K(I)), V(I * 2));
  }
  for (uint64_t I = 0; I < 300; ++I)
    ASSERT_TRUE(Db.erase(0, K(I)));
  for (uint64_t I = 0; I < 300; ++I)
    EXPECT_FALSE(Db.get(0, K(I)).has_value());
  Db.compact(0);
  const memory_stats MS = Db.stats();
  EXPECT_EQ(MS.allocated - MS.retired, Db.dummy_nodes())
      << "an emptied store must have retired every node it allocated "
         "(tombstones, trimmed versions, unlinked key nodes) except the "
         "immortal bucket dummies";
}

TYPED_TEST(KvStore, CompactTrimsAfterSnapshotRelease) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  for (uint64_t I = 0; I < 20; ++I)
    Db.put(0, K(I), V(1));
  kv::snapshot Snap = Db.open_snapshot();
  for (uint64_t I = 0; I < 20; ++I) {
    Db.put(0, K(I), V(2));
    Db.erase(0, K(I));
  }
  // Pinned: erased keys stay reachable through the snapshot.
  for (uint64_t I = 0; I < 20; ++I)
    EXPECT_EQ(*Db.get(0, K(I), Snap), V(1));
  Snap.reset();
  // No writer touches the keys again; compact alone must trim and unlink.
  Db.compact(0);
  const memory_stats MS = Db.stats();
  EXPECT_EQ(MS.allocated - MS.retired, Db.dummy_nodes());
}

TYPED_TEST(KvStore, ScanSeesExactlyTheSnapshotCut) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  for (uint64_t I = 1; I <= 50; ++I)
    Db.put(0, K(I), V(I * 10));
  Db.erase(0, K(3));
  kv::snapshot Snap = Db.open_snapshot();
  // Mutations after the snapshot must be invisible to the scan.
  Db.erase(0, K(1));
  Db.put(0, K(2), V(999));
  Db.put(0, K(60), V(600));

  std::vector<std::pair<uint64_t, uint64_t>> Seen;
  Db.for_each(0, Snap, [&](typename TestFixture::Key Key,
                           typename TestFixture::Value Val) {
    Seen.emplace_back(Payload<typename TestFixture::Key>::stamp(Key),
                      TestFixture::stampOf(Val));
  });
  std::sort(Seen.begin(), Seen.end());

  ASSERT_EQ(Seen.size(), 49u) << "keys 1..50 minus the erased key 3";
  std::size_t I = 0;
  for (uint64_t X = 1; X <= 50; ++X) {
    if (X == 3)
      continue;
    EXPECT_EQ(Seen[I].first, X);
    EXPECT_EQ(Seen[I].second, X * 10) << "scan must see the snapshot value";
    ++I;
  }
}

TYPED_TEST(KvStore, BucketsGrowCooperativelyUnderLoad) {
  typename TestFixture::Store Db(kvResizeOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  ASSERT_EQ(Db.buckets(0), 2u);
  constexpr uint64_t N = 600;
  for (uint64_t I = 0; I < N; ++I)
    ASSERT_TRUE(Db.put(0, K(I), V(I)));
  // The load factor (2) must have forced several doublings per shard.
  std::int64_t Keys = 0;
  for (std::size_t S = 0; S < Db.shards(); ++S) {
    EXPECT_GT(Db.buckets(S), 2u) << "shard " << S << " never grew";
    Keys += Db.shard_keys(S);
  }
  EXPECT_EQ(Keys, static_cast<std::int64_t>(N));
  // Every key stays reachable through the grown directory.
  for (uint64_t I = 0; I < N; ++I) {
    ASSERT_TRUE(Db.get(0, K(I)).has_value()) << "lost key " << I;
    EXPECT_EQ(*Db.get(0, K(I)), V(I));
  }
}

TYPED_TEST(KvStore, ScanStaysConsistentAcrossResize) {
  typename TestFixture::Store Db(kvResizeOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  for (uint64_t I = 0; I < 100; ++I)
    Db.put(0, K(I), V(I));
  kv::snapshot Snap = Db.open_snapshot();
  const std::size_t BucketsAtSnap = Db.buckets(0);
  // Force heavy growth and churn after the snapshot: new keys, and new
  // versions over every old key.
  for (uint64_t I = 100; I < 1500; ++I)
    Db.put(0, K(I), V(I));
  for (uint64_t I = 0; I < 100; ++I)
    Db.put(0, K(I), V(I + 7777));
  EXPECT_GT(Db.buckets(0), BucketsAtSnap) << "growth never triggered";

  std::vector<uint64_t> Seen;
  std::atomic<int> BadValue{0};
  Db.scan(0, Snap, [&](typename TestFixture::Store::key_view KeyV,
                       typename TestFixture::Store::value_view ValV) {
    const uint64_t X = Payload<typename TestFixture::Key>::stamp(
        typename TestFixture::Key(KeyV));
    Seen.push_back(X);
    if (TestFixture::stampOf(typename TestFixture::Value(ValV)) != X)
      ++BadValue; // post-snapshot overwrites must stay invisible
  });
  std::sort(Seen.begin(), Seen.end());
  ASSERT_EQ(Seen.size(), 100u)
      << "the snapshot cut is exactly the 100 pre-snapshot keys";
  for (uint64_t I = 0; I < 100; ++I)
    EXPECT_EQ(Seen[I], I);
  EXPECT_EQ(BadValue.load(), 0);
  Snap.reset();
}

TYPED_TEST(KvStore, ManySnapshotsForceSlotGrowthAndStayCoherent) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  std::vector<kv::snapshot> Snaps;
  for (uint64_t I = 0; I < 20; ++I) {
    Db.put(0, K(42), V(I));
    Snaps.push_back(Db.open_snapshot());
  }
  EXPECT_EQ(Db.live_snapshots(), 20u);
  for (uint64_t I = 0; I < 20; ++I)
    EXPECT_EQ(*Db.get(0, K(42), Snaps[I]), V(I))
        << "each snapshot must keep its own version of the key";
  Snaps.clear();
  EXPECT_EQ(Db.live_snapshots(), 0u);
  Db.put(0, K(42), V(99));
  EXPECT_EQ(Db.version_count(0, K(42)), 1u);
}

//===----------------------------------------------------------------------===//
// Concurrency (CI-sized; heavier soak in test_stress.cpp)
//===----------------------------------------------------------------------===//

TYPED_TEST(KvStore, ConcurrentSnapshotReadsAreRepeatable) {
  constexpr unsigned Writers = 4, Readers = 3;
  typename TestFixture::Store Db(kvTestOptions(Writers + Readers));
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  constexpr uint64_t KeyRange = 64;
  for (uint64_t X = 1; X <= KeyRange; ++X)
    Db.put(0, K(X), V(X * 1000));

  std::atomic<bool> Stop{false};
  std::atomic<int> Bad{0};
  std::vector<std::thread> Ts;
  for (unsigned W = 0; W < Writers; ++W)
    Ts.emplace_back([&, W] {
      Xoshiro256 Rng(streamSeed(100 + W));
      for (int I = 0; I < 6000; ++I) {
        const uint64_t X = 1 + Rng.nextBounded(KeyRange);
        if (Rng.nextPercent(25))
          Db.erase(W, K(X));
        else
          Db.put(W, K(X), V(X * 1000 + Rng.nextBounded(1000)));
      }
    });
  for (unsigned R = 0; R < Readers; ++R)
    Ts.emplace_back([&, R] {
      const unsigned Tid = Writers + R;
      Xoshiro256 Rng(streamSeed(200 + R));
      while (!Stop.load(std::memory_order_relaxed)) {
        kv::snapshot Snap = Db.open_snapshot();
        for (int J = 0; J < 32; ++J) {
          const uint64_t X = 1 + Rng.nextBounded(KeyRange);
          const auto A = Db.get(Tid, K(X), Snap);
          const auto B = Db.get(Tid, K(X), Snap);
          if (A != B)
            ++Bad; // snapshot read must be repeatable
          if (A && TestFixture::stampOf(*A) / 1000 != X)
            ++Bad; // value integrity: stamped with its key
          const auto L = Db.get(Tid, K(X));
          if (L && TestFixture::stampOf(*L) / 1000 != X)
            ++Bad;
        }
      }
    });
  for (unsigned W = 0; W < Writers; ++W)
    Ts[W].join();
  Stop.store(true);
  for (unsigned R = 0; R < Readers; ++R)
    Ts[Writers + R].join();
  EXPECT_EQ(Bad.load(), 0);
  const memory_stats MS = Db.stats();
  EXPECT_GE(MS.allocated, MS.retired);
  EXPECT_GE(MS.retired, MS.freed);
}

TYPED_TEST(KvStore, ConcurrentDisjointWritersBalance) {
  constexpr unsigned Threads = 6;
  constexpr uint64_t PerThread = 400;
  typename TestFixture::Store Db(kvTestOptions(Threads));
  std::atomic<int> Failures{0};
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      const auto K = [](uint64_t X) { return TestFixture::key(X); };
      const auto V = [](uint64_t X) { return TestFixture::val(X); };
      const uint64_t Base = uint64_t{T} * PerThread * 2 + 1;
      for (uint64_t I = 0; I < PerThread; ++I)
        if (!Db.put(T, K(Base + I), V(I)))
          ++Failures;
      for (uint64_t I = 0; I < PerThread; ++I) {
        const auto Got = Db.get(T, K(Base + I));
        if (!Got || *Got != V(I))
          ++Failures;
      }
      for (uint64_t I = 0; I < PerThread; ++I)
        if (!Db.erase(T, K(Base + I)))
          ++Failures;
      for (uint64_t I = 0; I < PerThread; ++I)
        if (Db.get(T, K(Base + I)))
          ++Failures;
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  Db.compact(0);
  const memory_stats MS = Db.stats();
  EXPECT_EQ(MS.allocated - MS.retired, Db.dummy_nodes());
}

TYPED_TEST(KvStore, ConcurrentSnapshotOpenersShareAndGrowSlots) {
  constexpr unsigned Threads = 8;
  typename TestFixture::Store Db(kvTestOptions(Threads));
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  Db.put(0, K(1), V(1));
  std::vector<std::thread> Ts;
  std::atomic<int> Bad{0};
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      for (int I = 0; I < 500; ++I) {
        kv::snapshot Snap = Db.open_snapshot();
        if (Snap.version() == 0)
          ++Bad;
        const auto Got = Db.get(T, K(1), Snap);
        if (Got != Db.get(T, K(1), Snap))
          ++Bad;
        if ((I & 15) == 0)
          Db.put(T, K(1), V(I)); // advance the clock so stamps differ
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Bad.load(), 0);
  EXPECT_EQ(Db.live_snapshots(), 0u);
}

TYPED_TEST(KvStore, ThreadChurnReusesSnapshotSlots) {
  // Serving churn: worker slots join and leave mid-run (a fresh OS
  // thread per session via workload::runSessions), each session opening
  // and closing snapshots. Fresh threads start with no slot hint, so
  // every session re-walks acquire's slow path at least once; the slot
  // directory must absorb Workers * Sessions thread lifetimes by
  // *reusing* released slots — its capacity may grow to cover the
  // concurrent load of one wave, but must not keep growing across
  // sessions (that would mean dead threads leak slots).
  constexpr unsigned Workers = 4, Sessions = 6;
  typename TestFixture::Store Db(kvTestOptions(Workers));
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  for (uint64_t X = 0; X < 64; ++X)
    Db.put(0, K(X), V(X));

  std::atomic<int> Bad{0};
  const auto SessionBody = [&](unsigned W, unsigned) {
    for (int I = 0; I < 64; ++I) {
      kv::snapshot Snap = Db.open_snapshot();
      if (!Db.get(W, K(static_cast<uint64_t>(I) & 63), Snap))
        ++Bad;
      if ((I & 15) == 0)
        Db.put(W, K(static_cast<uint64_t>(I) & 63), V(I)); // move the clock
    }
    return uint64_t{64};
  };

  const uint64_t Total = workload::runSessions(Workers, Sessions, SessionBody);

  EXPECT_EQ(Total, uint64_t{64} * Workers * Sessions);
  EXPECT_EQ(Bad.load(), 0);
  EXPECT_EQ(Db.live_snapshots(), 0u)
      << "every session's snapshots must be released";
  // At most Workers snapshots are live at once, so the directory needs a
  // handful of slots regardless of how many threads have come and gone.
  // 4x the concurrency leaves room for any growth-doubling interleaving;
  // a slot-per-lifetime leak would blow far past it (24 lifetimes here).
  EXPECT_LE(Db.registry().slotCapacity(), std::size_t{4} * Workers)
      << "slot directory must reuse slots across thread churn, not grow "
         "with the number of thread lifetimes";
}

TYPED_TEST(KvStore, ResizeChurnStress) {
  // The acceptance workload for cooperative growth: writers pour keys
  // into tiny tables (forcing repeated doublings and cooperative bucket
  // materialization) while erasing a slice and while readers run
  // snapshot gets and repeated whole-store scans. Everything must stay
  // exact: per-key integrity, repeatable scans, final occupancy.
  constexpr unsigned Writers = 4, Readers = 2;
  constexpr uint64_t PerWriter = 800;
  typename TestFixture::Store Db(kvResizeOptions(Writers + Readers));
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  std::atomic<bool> Stop{false};
  std::atomic<int> Bad{0};
  std::vector<std::thread> Ts;
  for (unsigned W = 0; W < Writers; ++W)
    Ts.emplace_back([&, W] {
      const uint64_t Base = uint64_t{W} * PerWriter;
      for (uint64_t I = 0; I < PerWriter; ++I) {
        if (!Db.put(W, K(Base + I), V(Base + I)))
          ++Bad;
        if ((I & 7) == 0) // churn: every 8th key dies again
          if (!Db.erase(W, K(Base + I)))
            ++Bad;
      }
    });
  for (unsigned R = 0; R < Readers; ++R)
    Ts.emplace_back([&, R] {
      const unsigned Tid = Writers + R;
      Xoshiro256 Rng(streamSeed(300 + R));
      while (!Stop.load(std::memory_order_relaxed)) {
        kv::snapshot Snap = Db.open_snapshot();
        std::size_t N1 = 0, N2 = 0;
        Db.scan(Tid, Snap,
                [&](typename TestFixture::Store::key_view KeyV,
                    typename TestFixture::Store::value_view ValV) {
                  ++N1;
                  if (Payload<typename TestFixture::Key>::stamp(
                          typename TestFixture::Key(KeyV)) !=
                      TestFixture::stampOf(
                          typename TestFixture::Value(ValV)))
                    ++Bad; // key/value pairing must never tear
                });
        Db.scan(Tid, Snap,
                [&](typename TestFixture::Store::key_view,
                    typename TestFixture::Store::value_view) { ++N2; });
        if (N1 != N2)
          ++Bad; // a snapshot scan must be repeatable — across resizes
        const uint64_t Probe = Rng.nextBounded(Writers * PerWriter);
        const auto A = Db.get(Tid, K(Probe), Snap);
        if (A != Db.get(Tid, K(Probe), Snap))
          ++Bad;
      }
    });
  for (unsigned W = 0; W < Writers; ++W)
    Ts[W].join();
  Stop.store(true);
  for (unsigned R = 0; R < Readers; ++R)
    Ts[Writers + R].join();
  EXPECT_EQ(Bad.load(), 0);

  // Tables must have grown well past the 2-bucket seed.
  for (std::size_t S = 0; S < Db.shards(); ++S)
    EXPECT_GT(Db.buckets(S), 2u);
  // Exact final occupancy: every key either survived or was erased by
  // its own writer (disjoint ranges: no cross-writer interference).
  for (uint64_t X = 0; X < Writers * PerWriter; ++X) {
    const bool Erased = (X % PerWriter) % 8 == 0;
    const auto Got = Db.get(0, K(X));
    if (Erased)
      EXPECT_FALSE(Got.has_value()) << "key " << X;
    else {
      ASSERT_TRUE(Got.has_value()) << "key " << X;
      EXPECT_EQ(TestFixture::stampOf(*Got), X);
    }
  }
  Db.compact(0);
  const memory_stats MS = Db.stats();
  EXPECT_GE(MS.allocated, MS.retired);
  EXPECT_GE(MS.retired, MS.freed);
}

//===----------------------------------------------------------------------===//
// Codec corners: struct payloads, prefix scans
//===----------------------------------------------------------------------===//

/// A padding-free trivially-copyable payload (codec primary template).
struct Coord {
  int32_t X;
  int32_t Y;
  uint64_t T;

  friend bool operator==(const Coord &A, const Coord &B) {
    return A.X == B.X && A.Y == B.Y && A.T == B.T;
  }
};
static_assert(std::is_trivially_copyable_v<Coord>);

template <typename S> void structPayloadRoundTrip() {
  kv::Store<S, Coord, Coord> Db(kvTestOptions());
  const auto C = [](uint64_t I) {
    return Coord{static_cast<int32_t>(I), -static_cast<int32_t>(I), I * I};
  };
  for (uint64_t I = 1; I <= 200; ++I)
    ASSERT_TRUE(Db.put(0, C(I), C(I + 1)));
  for (uint64_t I = 1; I <= 200; ++I) {
    const auto Got = Db.get(0, C(I));
    ASSERT_TRUE(Got.has_value());
    EXPECT_EQ(*Got, C(I + 1));
  }
  kv::snapshot Snap = Db.open_snapshot();
  std::size_t N = 0;
  Db.scan(0, Snap, [&](const Coord &Key, const Coord &Val) {
    if (Val.T == (Key.T + 2 * static_cast<uint64_t>(Key.X) + 1))
      ; // (i+1)^2 == i^2 + 2i + 1: pairing intact
    else
      ADD_FAILURE() << "mispaired struct payload";
    ++N;
  });
  EXPECT_EQ(N, 200u);
  Snap.reset();
}

TEST(KvCodec, StructKeysAndValuesHyalineS) {
  structPayloadRoundTrip<core::HyalineS>();
}

TEST(KvCodec, StructKeysAndValuesHP) { structPayloadRoundTrip<smr::HP>(); }

template <typename S> void prefixScanFilters() {
  kv::Store<S, std::string, std::string> Db(kvTestOptions());
  for (int U = 0; U < 8; ++U)
    for (int F = 0; F < 16; ++F)
      Db.put(0, "user/" + std::to_string(U) + "/f" + std::to_string(F),
             "v" + std::to_string(U * 100 + F));
  Db.put(0, "admin/root", "x");
  kv::snapshot Snap = Db.open_snapshot();
  Db.put(0, "user/3/f999", "late"); // invisible: born after the snapshot

  std::size_t N = 0;
  Db.scan_prefix(0, Snap, "user/3/",
                 [&](std::string_view Key, std::string_view) {
                   EXPECT_TRUE(Key.rfind("user/3/", 0) == 0) << Key;
                   ++N;
                 });
  EXPECT_EQ(N, 16u) << "prefix cut = the 16 pre-snapshot user/3 keys";

  std::size_t All = 0;
  Db.scan_prefix(0, Snap, "", [&](std::string_view, std::string_view) {
    ++All;
  });
  EXPECT_EQ(All, 8 * 16 + 1u) << "empty prefix admits everything";

  std::size_t None = 0;
  Db.scan_prefix(0, Snap, "zzz/", [&](std::string_view, std::string_view) {
    ++None;
  });
  EXPECT_EQ(None, 0u);
  Snap.reset();
}

TEST(KvScan, PrefixFilterHyalineS) { prefixScanFilters<core::HyalineS>(); }

TEST(KvScan, PrefixFilterHP) { prefixScanFilters<smr::HP>(); }

} // namespace
