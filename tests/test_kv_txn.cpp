//===- tests/test_kv_txn.cpp - Multi-key transaction tests ----------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Coverage for `lfsmr::kv::txn` and the single-key transactional fast
/// paths: the commit-record state machine at the registry level,
/// read-your-writes and last-write-wins buffering, atomic visibility
/// (every write of a commit appears at one stamp — no snapshot or scan
/// ever observes a partial batch), first-writer-wins conflict aborts,
/// kill-based writer liveness (a solo write never waits on an in-flight
/// commit), trim safety with a stalled snapshot holding a pre-commit
/// stamp, `compare_and_set`/`merge`, the abort sweep's unpublish of
/// published tombstones, and CI-sized concurrent checks (bank-transfer
/// atomicity, transactional erases against solo writers). Typed over
/// all nine schemes with `uint64_t` and `std::string` payloads, like
/// test_kv.cpp; labeled `unit` so the asan/tsan presets run everything
/// here.
///
//===----------------------------------------------------------------------===//

#include "devtools/random.h"
#include "lfsmr/kv.h"
#include "scheme_fixtures.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace lfsmr;
using namespace lfsmr::testing;

namespace {

[[maybe_unused]] const uint64_t LoggedSeed = testSeed();

//===----------------------------------------------------------------------===//
// Commit-record state machine (scheme-independent registry surface)
//===----------------------------------------------------------------------===//

TEST(CommitRecord, SentinelsAreDistinctAndUnsettled) {
  using R = kv::SnapshotRegistry;
  EXPECT_NE(R::Unpublished, R::Pending);
  EXPECT_NE(R::Aborted, R::Pending);
  EXPECT_NE(R::Aborted, R::Unpublished);
  EXPECT_FALSE(R::settled(R::Pending));
  EXPECT_FALSE(R::settled(R::Unpublished));
  EXPECT_FALSE(R::settled(R::Aborted));
  EXPECT_TRUE(R::settled(0));
  EXPECT_TRUE(R::settled(R::StampMask));
}

TEST(CommitRecord, ResolveCommitNeverHelpsUnpublished) {
  kv::SnapshotRegistry R(2);
  std::atomic<uint64_t> W{kv::SnapshotRegistry::Unpublished};
  const uint64_t C0 = R.clock();
  EXPECT_EQ(R.resolveCommit(W), kv::SnapshotRegistry::Unpublished);
  EXPECT_EQ(R.clock(), C0) << "an unpublished record must not be ticked";
  EXPECT_EQ(W.load(), kv::SnapshotRegistry::Unpublished);
}

TEST(CommitRecord, ResolveCommitSettlesPendingWithOneTick) {
  kv::SnapshotRegistry R(2);
  std::atomic<uint64_t> W{kv::SnapshotRegistry::Pending};
  const uint64_t C0 = R.clock();
  const uint64_t T = R.resolveCommit(W);
  EXPECT_EQ(T, C0 + 1);
  EXPECT_EQ(W.load(), T);
  EXPECT_EQ(R.resolveCommit(W), T) << "helping again must be idempotent";
  EXPECT_EQ(R.clock(), C0 + 1) << "exactly one tick for the whole batch";
}

TEST(CommitRecord, ResolveCommitLeavesAbortedTerminal) {
  kv::SnapshotRegistry R(2);
  std::atomic<uint64_t> W{kv::SnapshotRegistry::Aborted};
  const uint64_t C0 = R.clock();
  EXPECT_EQ(R.resolveCommit(W), kv::SnapshotRegistry::Aborted);
  EXPECT_EQ(R.clock(), C0);
}

//===----------------------------------------------------------------------===//
// Transaction semantics, typed over scheme × payload configurations
//===----------------------------------------------------------------------===//

using TxnConfigs = KvMatrix<TxnCfg>;

template <typename C> class KvTxn : public ::testing::Test {
protected:
  using Scheme = typename C::Scheme;
  using Key = typename C::Key;
  using Value = typename C::Value;
  using Store = kv::Store<Scheme, Key, Value>;

  static Key key(uint64_t X) { return Payload<Key>::make(X); }
  static Value val(uint64_t X) { return Payload<Value>::make(X); }
  static uint64_t stampOf(const Value &V) { return Payload<Value>::stamp(V); }
};

TYPED_TEST_SUITE(KvTxn, TxnConfigs, KvCfgNames);

TYPED_TEST(KvTxn, ReadYourWritesAndLastWriteWins) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  Db.put(0, K(1), V(10));
  Db.put(0, K(2), V(20));

  auto T = Db.begin_transaction();
  EXPECT_TRUE(T.active());
  EXPECT_TRUE(T.empty());
  EXPECT_EQ(*T.get(0, K(1)), V(10)) << "untouched key reads the snapshot";

  T.put(K(1), V(11));
  EXPECT_EQ(*T.get(0, K(1)), V(11)) << "buffered put is read back";
  T.put(K(1), V(12));
  EXPECT_EQ(*T.get(0, K(1)), V(12)) << "last write wins in the buffer";
  EXPECT_EQ(T.size(), 1u) << "rewrites dedup";

  T.erase(K(2));
  EXPECT_FALSE(T.get(0, K(2)).has_value()) << "buffered erase reads absent";
  EXPECT_EQ(*Db.get(0, K(2)), V(20)) << "nothing visible before commit";

  // Writes after the snapshot are invisible to the txn's reads.
  Db.put(0, K(3), V(30));
  EXPECT_FALSE(T.get(0, K(3)).has_value());

  ASSERT_TRUE(T.commit(0));
  EXPECT_FALSE(T.active());
  EXPECT_GT(T.commit_version(), T.read_version());
  EXPECT_EQ(*Db.get(0, K(1)), V(12));
  EXPECT_FALSE(Db.get(0, K(2)).has_value());
}

TYPED_TEST(KvTxn, CommitPublishesAtomicallyAtOneStamp) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  for (uint64_t X = 1; X <= 4; ++X)
    Db.put(0, K(X), V(X));

  kv::snapshot Before = Db.open_snapshot();
  auto T = Db.begin_transaction();
  for (uint64_t X = 1; X <= 4; ++X)
    T.put(K(X), V(X + 100));
  ASSERT_TRUE(T.commit(0));
  const uint64_t C = T.commit_version();
  kv::snapshot After = Db.open_snapshot();
  ASSERT_GE(After.version(), C);

  for (uint64_t X = 1; X <= 4; ++X) {
    EXPECT_EQ(*Db.get(0, K(X), Before), V(X))
        << "a pre-commit snapshot sees none of the batch";
    EXPECT_EQ(*Db.get(0, K(X), After), V(X + 100))
        << "a post-commit snapshot sees all of the batch";
    EXPECT_EQ(*Db.get(0, K(X)), V(X + 100));
  }
}

TYPED_TEST(KvTxn, ConflictIsFirstWriterWins) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  Db.put(0, K(1), V(1));
  Db.put(0, K(2), V(2));

  auto T = Db.begin_transaction();
  T.put(K(1), V(101));
  T.put(K(2), V(102));
  T.put(K(3), V(103)); // fresh key, must vanish on abort
  Db.put(0, K(2), V(22)); // the conflicting first writer

  EXPECT_FALSE(T.commit(0)) << "head advanced past the read stamp";
  EXPECT_FALSE(T.active());
  EXPECT_EQ(T.commit_version(), 0u);
  EXPECT_EQ(*Db.get(0, K(1)), V(1)) << "no write of the batch applied";
  EXPECT_EQ(*Db.get(0, K(2)), V(22));
  EXPECT_FALSE(Db.get(0, K(3)).has_value())
      << "a killed fresh-key insert leaves nothing behind";
  EXPECT_EQ(Db.version_count(0, K(3)), 0u);

  // The store stays fully writable after an abort.
  EXPECT_TRUE(Db.put(0, K(3), V(33)));
  EXPECT_EQ(*Db.get(0, K(3)), V(33));
}

TYPED_TEST(KvTxn, SingleKeyCommitUsesSoloFastPathSemantics) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  Db.put(0, K(1), V(1));

  auto T1 = Db.begin_transaction();
  T1.put(K(1), V(11));
  ASSERT_TRUE(T1.commit(0));
  EXPECT_GT(T1.commit_version(), 0u);
  EXPECT_EQ(*Db.get(0, K(1)), V(11));

  auto T2 = Db.begin_transaction();
  T2.put(K(1), V(12));
  Db.put(0, K(1), V(13));
  EXPECT_FALSE(T2.commit(0)) << "solo fast path still conflict-checks";
  EXPECT_EQ(*Db.get(0, K(1)), V(13));

  auto T3 = Db.begin_transaction();
  T3.erase(K(999));
  EXPECT_TRUE(T3.commit(0)) << "a no-op erase commits trivially";
}

TYPED_TEST(KvTxn, EmptyCommitAndAbort) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };

  auto T1 = Db.begin_transaction();
  const uint64_t R = T1.read_version();
  EXPECT_TRUE(T1.commit(0)) << "empty write set commits trivially";
  EXPECT_EQ(T1.commit_version(), R);
  EXPECT_FALSE(T1.commit(0)) << "a finished transaction cannot re-commit";

  Db.put(0, K(1), V(1));
  auto T2 = Db.begin_transaction();
  T2.put(K(1), V(2));
  T2.put(K(5), V(5));
  T2.abort();
  EXPECT_FALSE(T2.active());
  EXPECT_EQ(*Db.get(0, K(1)), V(1)) << "abort discards the buffer";
  EXPECT_FALSE(Db.get(0, K(5)).has_value());
}

TYPED_TEST(KvTxn, EraseAndInsertCommitTogether) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  Db.put(0, K(1), V(1));

  kv::snapshot Before = Db.open_snapshot();
  auto T = Db.begin_transaction();
  T.erase(K(1));
  T.put(K(2), V(2));
  ASSERT_TRUE(T.commit(0));

  EXPECT_FALSE(Db.get(0, K(1)).has_value());
  EXPECT_EQ(*Db.get(0, K(2)), V(2));
  EXPECT_EQ(*Db.get(0, K(1), Before), V(1))
      << "the tombstone is invisible to the pre-commit snapshot";
  EXPECT_FALSE(Db.get(0, K(2), Before).has_value());
}

TYPED_TEST(KvTxn, SoloWritersKillInFlightCommitsNotViceVersa) {
  // A store-level liveness property: a plain put never waits on an
  // in-flight (unpublished) commit — it kills it. Sequentially we can
  // only see the effect: the put always lands, and the overlapping
  // commit reports failure without corrupting the chain.
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  Db.put(0, K(1), V(1));
  for (int Round = 0; Round < 16; ++Round) {
    auto T = Db.begin_transaction();
    T.put(K(1), V(100 + Round));
    T.put(K(2), V(200 + Round));
    Db.put(0, K(1), V(10 + Round)); // advances the head past ReadStamp
    EXPECT_FALSE(T.commit(0));
    EXPECT_EQ(TestFixture::stampOf(*Db.get(0, K(1))),
              static_cast<uint64_t>(10 + Round));
    EXPECT_FALSE(Db.get(0, K(2)).has_value());
  }
}

TYPED_TEST(KvTxn, AbortedEraseIsUnpublished) {
  // A conflicted commit unpublishes every version it already published,
  // tombstones included: the abort sweep recognises its versions by the
  // commit record in their `Commit` word, which a tombstone carries
  // tagged. Key C's group conflicts (a solo put lands on it after the
  // read stamp), and looping C over every key puts that group at every
  // position of the commit order, so some erase group is always
  // published before the commit aborts.
  constexpr uint64_t Keys = 8;
  using Value = typename TestFixture::Value;
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  for (uint64_t X = 1; X <= Keys; ++X)
    Db.put(0, K(X), V(X));
  for (uint64_t C = 1; C <= Keys; ++C) {
    auto T = Db.begin_transaction();
    for (uint64_t X = 1; X <= Keys; ++X)
      if (X != C)
        T.erase(K(X));
    T.put(K(C), V(100 + C));
    Db.put(0, K(C), V(C)); // conflicts: the head moves past the read stamp
    EXPECT_FALSE(T.commit(0)) << "C=" << C;
    Db.compact(0);
    for (uint64_t X = 1; X <= Keys; ++X) {
      EXPECT_EQ(Db.get(0, K(X)), std::optional<Value>(V(X)))
          << "C=" << C << " key " << X;
      EXPECT_EQ(Db.version_count(0, K(X)), 1u) << "C=" << C << " key " << X;
    }
  }
}

TYPED_TEST(KvTxn, CompareAndSet) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  EXPECT_FALSE(Db.compare_and_set(0, K(1), V(1), V(2)))
      << "absent key never matches";
  Db.put(0, K(1), V(1));
  EXPECT_FALSE(Db.compare_and_set(0, K(1), V(7), V(2)))
      << "wrong expected value fails";
  EXPECT_EQ(*Db.get(0, K(1)), V(1));
  EXPECT_TRUE(Db.compare_and_set(0, K(1), V(1), V(2)));
  EXPECT_EQ(*Db.get(0, K(1)), V(2));
  Db.erase(0, K(1));
  EXPECT_FALSE(Db.compare_and_set(0, K(1), V(2), V(3)))
      << "tombstoned key never matches";
}

TYPED_TEST(KvTxn, MergeUpsertsAtomically) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  using Value = typename TestFixture::Value;
  const auto Bump = [&](std::optional<Value> Cur) {
    return V(Cur ? TestFixture::stampOf(*Cur) + 1 : 1);
  };
  EXPECT_EQ(Db.merge(0, K(1), Bump), V(1)) << "absent key: Fn(nullopt)";
  EXPECT_EQ(Db.merge(0, K(1), Bump), V(2));
  EXPECT_EQ(Db.merge(0, K(1), Bump), V(3));
  EXPECT_EQ(*Db.get(0, K(1)), V(3));
  Db.erase(0, K(1));
  EXPECT_EQ(Db.merge(0, K(1), Bump), V(1)) << "tombstone reads as absent";
}

TYPED_TEST(KvTxn, TrimSafetyWithStalledPreCommitSnapshot) {
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  for (uint64_t X = 1; X <= 8; ++X)
    Db.put(0, K(X), V(X));

  // The stalled snapshot holds a stamp from before the commit.
  kv::snapshot Stalled = Db.open_snapshot();

  auto T = Db.begin_transaction();
  for (uint64_t X = 1; X <= 8; ++X)
    T.put(K(X), V(X + 500));
  ASSERT_TRUE(T.commit(0));

  // Churn + explicit compaction: nothing the stalled snapshot can see
  // may be trimmed out from under it.
  for (int Round = 0; Round < 4; ++Round) {
    for (uint64_t X = 1; X <= 8; ++X)
      Db.put(0, K(X), V(X + 1000 + static_cast<uint64_t>(Round)));
    Db.compact(0);
  }
  for (uint64_t X = 1; X <= 8; ++X)
    EXPECT_EQ(*Db.get(0, K(X), Stalled), V(X))
        << "the pre-commit snapshot still reads the pre-commit value";

  Stalled.reset();
  Db.compact(0);
  for (uint64_t X = 1; X <= 8; ++X)
    EXPECT_EQ(Db.version_count(0, K(X)), 1u)
        << "after release, chains trim to the newest version";
}

TYPED_TEST(KvTxn, CommitTrimsPastItsOwnSnapshot) {
  // The transaction's own snapshot must not hold back the trim its
  // commit owes the chains: with no other snapshot live, every committed
  // key ends at one version, like a plain put.
  typename TestFixture::Store Db(kvTestOptions());
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  for (uint64_t X = 1; X <= 5; ++X)
    Db.put(0, K(X), V(X));
  ASSERT_EQ(Db.live_snapshots(), 0u);

  auto T1 = Db.begin_transaction();
  T1.put(K(1), V(11));
  ASSERT_TRUE(T1.commit(0));
  EXPECT_EQ(Db.version_count(0, K(1)), 1u) << "single-key commit";

  auto T4 = Db.begin_transaction();
  for (uint64_t X = 2; X <= 5; ++X)
    T4.put(K(X), V(X + 100));
  ASSERT_TRUE(T4.commit(0));
  for (uint64_t X = 2; X <= 5; ++X)
    EXPECT_EQ(Db.version_count(0, K(X)), 1u) << "4-key commit, key " << X;
  EXPECT_EQ(Db.live_snapshots(), 0u);
}

//===----------------------------------------------------------------------===//
// Concurrency (CI-sized; the all-or-nothing scan assertion of the
// acceptance criteria — runs under the asan and tsan presets)
//===----------------------------------------------------------------------===//

TYPED_TEST(KvTxn, ConcurrentTransfersKeepScanSumInvariant) {
  // Bank-transfer atomicity: every committed transaction moves an
  // amount between two accounts, so the total is invariant. Any scan or
  // per-key snapshot read that observed a partial commit would break
  // the sum.
  constexpr unsigned Movers = 4, Scanners = 2;
  constexpr uint64_t Accounts = 16, Initial = 1000;
  typename TestFixture::Store Db(kvTestOptions(Movers + Scanners));
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  for (uint64_t X = 0; X < Accounts; ++X)
    Db.put(0, K(X), V(Initial));

  std::atomic<bool> Stop{false};
  std::atomic<int> Bad{0};
  std::atomic<uint64_t> Commits{0}, Aborts{0};
  std::vector<std::thread> Ts;
  for (unsigned W = 0; W < Movers; ++W)
    Ts.emplace_back([&, W] {
      Xoshiro256 Rng(streamSeed(300 + W));
      for (int I = 0; I < 1500; ++I) {
        const uint64_t A = Rng.nextBounded(Accounts);
        uint64_t B = Rng.nextBounded(Accounts);
        if (B == A)
          B = (B + 1) % Accounts;
        auto T = Db.begin_transaction();
        const auto From = T.get(W, K(A));
        const auto To = T.get(W, K(B));
        if (!From || !To) {
          ++Bad; // accounts are never erased
          break;
        }
        const uint64_t FromV = TestFixture::stampOf(*From);
        const uint64_t Amount = FromV ? 1 + Rng.nextBounded(FromV) : 0;
        T.put(K(A), V(FromV - Amount));
        T.put(K(B), V(TestFixture::stampOf(*To) + Amount));
        if (T.commit(W))
          Commits.fetch_add(1, std::memory_order_relaxed);
        else
          Aborts.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (unsigned R = 0; R < Scanners; ++R)
    Ts.emplace_back([&, R] {
      const unsigned Tid = Movers + R;
      while (!Stop.load(std::memory_order_relaxed)) {
        kv::snapshot Snap = Db.open_snapshot();
        uint64_t Sum = 0, Seen = 0;
        Db.scan(Tid, Snap, [&](auto /*KeyV*/, auto ValV) {
          Sum += Payload<typename TestFixture::Value>::stamp(
              typename TestFixture::Value(ValV));
          ++Seen;
        });
        if (Seen != Accounts || Sum != Accounts * Initial)
          ++Bad; // a partial commit leaked into the cut
        // Per-key snapshot reads must agree with the same cut.
        uint64_t Sum2 = 0;
        for (uint64_t X = 0; X < Accounts; ++X) {
          const auto Got = Db.get(Tid, K(X), Snap);
          if (!Got) {
            ++Bad;
            break;
          }
          Sum2 += TestFixture::stampOf(*Got);
        }
        if (Sum2 != Accounts * Initial)
          ++Bad;
      }
    });
  for (unsigned W = 0; W < Movers; ++W)
    Ts[W].join();
  Stop.store(true);
  for (unsigned R = 0; R < Scanners; ++R)
    Ts[Movers + R].join();

  EXPECT_EQ(Bad.load(), 0);
  EXPECT_GT(Commits.load(), 0u) << "some transfers must have committed";
  uint64_t Final = 0;
  for (uint64_t X = 0; X < Accounts; ++X)
    Final += TestFixture::stampOf(*Db.get(0, K(X)));
  EXPECT_EQ(Final, Accounts * Initial);
  const memory_stats MS = Db.stats();
  EXPECT_GE(MS.allocated, MS.retired);
  EXPECT_GE(MS.retired, MS.freed);
}

TYPED_TEST(KvTxn, ConcurrentTxnsVsSoloWritersStayConsistent) {
  // Transactions racing plain puts/erases and CAS on a hot key range:
  // exercises the kill path (solo writers abort unpublished commits),
  // aborted-head unpublish, and reader restarts. Integrity: every value
  // read carries its own key's tag.
  constexpr unsigned Txns = 3, Solos = 3, Readers = 2;
  constexpr uint64_t KeyRange = 24;
  typename TestFixture::Store Db(kvTestOptions(Txns + Solos + Readers));
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  for (uint64_t X = 0; X < KeyRange; ++X)
    Db.put(0, K(X), V(X * 1000));

  std::atomic<bool> Stop{false};
  std::atomic<int> Bad{0};
  std::vector<std::thread> Ts;
  for (unsigned W = 0; W < Txns; ++W)
    Ts.emplace_back([&, W] {
      Xoshiro256 Rng(streamSeed(400 + W));
      for (int I = 0; I < 1200; ++I) {
        auto T = Db.begin_transaction();
        const uint64_t Base = Rng.nextBounded(KeyRange);
        for (uint64_t J = 0; J < 3; ++J) {
          const uint64_t X = (Base + J) % KeyRange;
          T.put(K(X), V(X * 1000 + Rng.nextBounded(1000)));
        }
        (void)T.commit(W); // aborts are expected under contention
      }
    });
  for (unsigned W = 0; W < Solos; ++W)
    Ts.emplace_back([&, W] {
      const unsigned Tid = Txns + W;
      Xoshiro256 Rng(streamSeed(500 + W));
      for (int I = 0; I < 2400; ++I) {
        const uint64_t X = Rng.nextBounded(KeyRange);
        const uint64_t Roll = Rng.nextBounded(100);
        if (Roll < 15) {
          Db.erase(Tid, K(X));
        } else if (Roll < 30) {
          const auto Cur = Db.get(Tid, K(X));
          if (Cur)
            (void)Db.compare_and_set(Tid, K(X), *Cur,
                                     V(X * 1000 + Rng.nextBounded(1000)));
        } else {
          Db.put(Tid, K(X), V(X * 1000 + Rng.nextBounded(1000)));
        }
      }
    });
  for (unsigned R = 0; R < Readers; ++R)
    Ts.emplace_back([&, R] {
      const unsigned Tid = Txns + Solos + R;
      Xoshiro256 Rng(streamSeed(600 + R));
      while (!Stop.load(std::memory_order_relaxed)) {
        kv::snapshot Snap = Db.open_snapshot();
        for (int J = 0; J < 24; ++J) {
          const uint64_t X = Rng.nextBounded(KeyRange);
          const auto A = Db.get(Tid, K(X), Snap);
          const auto B = Db.get(Tid, K(X), Snap);
          if (A != B)
            ++Bad; // snapshot reads stay repeatable under txn churn
          if (A && TestFixture::stampOf(*A) / 1000 != X)
            ++Bad;
          const auto L = Db.get(Tid, K(X));
          if (L && TestFixture::stampOf(*L) / 1000 != X)
            ++Bad;
        }
      }
    });
  for (unsigned W = 0; W < Txns + Solos; ++W)
    Ts[W].join();
  Stop.store(true);
  for (unsigned R = 0; R < Readers; ++R)
    Ts[Txns + Solos + R].join();
  EXPECT_EQ(Bad.load(), 0);

  // Drain: after quiescence + compaction the accounting must balance.
  Db.compact(0);
  const memory_stats MS = Db.stats();
  EXPECT_GE(MS.allocated, MS.retired);
  EXPECT_GE(MS.retired, MS.freed);
}

TYPED_TEST(KvTxn, ConcurrentTxnErasesVsSoloWritersStayConsistent) {
  // Transactions erase and re-put keys of a hot range while solo
  // writers put and erase the same range, so writers settling a head
  // kill and resolve transactional tombstones whose `Commit` word
  // carries the tombstone bit, and abort sweeps unpublish them.
  // Integrity: every value read carries its own key's tag, snapshot
  // reads repeat, and at quiescence each chain compacts to at most one
  // version.
  constexpr unsigned Txns = 3, Solos = 2, Readers = 1;
  constexpr uint64_t KeyRange = 16;
  typename TestFixture::Store Db(kvTestOptions(Txns + Solos + Readers));
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  for (uint64_t X = 0; X < KeyRange; ++X)
    Db.put(0, K(X), V(X * 1000));

  std::atomic<bool> Stop{false};
  std::atomic<int> Bad{0};
  std::vector<std::thread> Ts;
  for (unsigned W = 0; W < Txns; ++W)
    Ts.emplace_back([&, W] {
      Xoshiro256 Rng(streamSeed(800 + W));
      for (int I = 0; I < 600; ++I) {
        auto T = Db.begin_transaction();
        const uint64_t Base = Rng.nextBounded(KeyRange);
        for (uint64_t J = 0; J < 4; ++J) {
          const uint64_t X = (Base + J) % KeyRange;
          if (Rng.nextBounded(2))
            T.erase(K(X));
          else
            T.put(K(X), V(X * 1000 + Rng.nextBounded(1000)));
        }
        (void)T.commit(W); // aborts are expected under contention
      }
    });
  for (unsigned W = 0; W < Solos; ++W)
    Ts.emplace_back([&, W] {
      const unsigned Tid = Txns + W;
      Xoshiro256 Rng(streamSeed(900 + W));
      for (int I = 0; I < 1200; ++I) {
        const uint64_t X = Rng.nextBounded(KeyRange);
        if (Rng.nextBounded(100) < 40)
          Db.erase(Tid, K(X));
        else
          Db.put(Tid, K(X), V(X * 1000 + Rng.nextBounded(1000)));
      }
    });
  for (unsigned R = 0; R < Readers; ++R)
    Ts.emplace_back([&, R] {
      const unsigned Tid = Txns + Solos + R;
      Xoshiro256 Rng(streamSeed(1000 + R));
      while (!Stop.load(std::memory_order_relaxed)) {
        kv::snapshot Snap = Db.open_snapshot();
        for (int J = 0; J < 16; ++J) {
          const uint64_t X = Rng.nextBounded(KeyRange);
          const auto A = Db.get(Tid, K(X), Snap);
          if (A != Db.get(Tid, K(X), Snap))
            ++Bad; // snapshot reads stay repeatable under txn erases
          if (A && TestFixture::stampOf(*A) / 1000 != X)
            ++Bad;
          const auto L = Db.get(Tid, K(X));
          if (L && TestFixture::stampOf(*L) / 1000 != X)
            ++Bad;
        }
      }
    });
  for (unsigned W = 0; W < Txns + Solos; ++W)
    Ts[W].join();
  Stop.store(true);
  for (unsigned R = 0; R < Readers; ++R)
    Ts[Txns + Solos + R].join();
  EXPECT_EQ(Bad.load(), 0);

  Db.compact(0);
  for (uint64_t X = 0; X < KeyRange; ++X) {
    const auto L = Db.get(0, K(X));
    if (L) {
      EXPECT_EQ(TestFixture::stampOf(*L) / 1000, X);
    }
    EXPECT_EQ(Db.version_count(0, K(X)), L ? 1u : 0u) << "key " << X;
  }
  const memory_stats MS = Db.stats();
  EXPECT_GE(MS.allocated, MS.retired);
  EXPECT_GE(MS.retired, MS.freed);
}

TYPED_TEST(KvTxn, NoLostUpdatesAcrossWritePaths) {
  // Sync merge(+1), compare_and_set read-increment loops, and 2-key +1
  // transactions race on 4 hot keys. Each successful op adds exactly
  // its increments, so the final sum over the keys counts them all: an
  // update lost on any write path shows up as a shortfall, a duplicated
  // one as an excess.
  constexpr unsigned Mergers = 2, Casers = 2, Txners = 2;
  constexpr uint64_t Keys = 4;
  constexpr int Ops = 300;
  using Value = typename TestFixture::Value;
  typename TestFixture::Store Db(kvTestOptions(Mergers + Casers + Txners));
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto V = [](uint64_t X) { return TestFixture::val(X); };
  const auto Num = [](const Value &P) { return TestFixture::stampOf(P); };
  for (uint64_t X = 0; X < Keys; ++X)
    Db.put(0, K(X), V(0));

  std::atomic<uint64_t> Increments{0};
  std::atomic<int> Bad{0};
  std::vector<std::thread> Ts;
  for (unsigned Tid = 0; Tid < Mergers + Casers + Txners; ++Tid)
    Ts.emplace_back([&, Tid] {
      Xoshiro256 Rng(streamSeed(700 + Tid));
      for (int I = 0; I < Ops; ++I) {
        const uint64_t X = Rng.nextBounded(Keys);
        if (Tid < Mergers) {
          Db.merge(Tid, K(X), [&](std::optional<Value> Cur) {
            return V(Cur ? Num(*Cur) + 1 : 1);
          });
          Increments.fetch_add(1, std::memory_order_relaxed);
        } else if (Tid < Mergers + Casers) {
          for (;;) {
            const std::optional<Value> Cur = Db.get(Tid, K(X));
            if (!Cur) {
              ++Bad; // hot keys are never erased
              return;
            }
            if (Db.compare_and_set(Tid, K(X), *Cur, V(Num(*Cur) + 1)))
              break;
          }
          Increments.fetch_add(1, std::memory_order_relaxed);
        } else {
          const uint64_t Y = (X + 1 + Rng.nextBounded(Keys - 1)) % Keys;
          auto T = Db.begin_transaction();
          const std::optional<Value> A = T.get(Tid, K(X));
          const std::optional<Value> B = T.get(Tid, K(Y));
          if (!A || !B) {
            ++Bad;
            return;
          }
          T.put(K(X), V(Num(*A) + 1));
          T.put(K(Y), V(Num(*B) + 1));
          if (T.commit(Tid))
            Increments.fetch_add(2, std::memory_order_relaxed);
        }
      }
    });
  for (std::thread &T : Ts)
    T.join();

  EXPECT_EQ(Bad.load(), 0);
  uint64_t Sum = 0;
  for (uint64_t X = 0; X < Keys; ++X)
    Sum += Num(*Db.get(0, K(X)));
  EXPECT_EQ(Sum, Increments.load());
  EXPECT_GE(Increments.load(), uint64_t{(Mergers + Casers) * Ops});
}

} // namespace
