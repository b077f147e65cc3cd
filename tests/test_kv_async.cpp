//===- tests/test_kv_async.cpp - Async batched write path tests -----------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Coverage for `lfsmr::kv::submitter` — the per-shard submission rings
/// and flat-combining batch applier: op results mirroring the sync API
/// (put/erase/compare_and_set/merge), completion-exactly-once under
/// concurrent submitters, batch atomicity against concurrent snapshot
/// reads (no reader ever observes a partial batch), ring-full sync
/// fallback, combiner crash-robustness (no combiner thread anywhere —
/// submitters serve themselves), fire-and-forget lifetime (dropped
/// futures neither leak nor lose their op; the destructor drains), the
/// closed-loop `CompletionWindow` pacing helper, and the async
/// telemetry counters. Typed over all nine
/// schemes with `uint64_t` and `std::string` payloads, like
/// test_kv_txn.cpp; labeled `unit` so the asan/tsan presets run
/// everything here.
///
//===----------------------------------------------------------------------===//

#include "devtools/random.h"
#include "devtools/workload.h"
#include "lfsmr/kv.h"
#include "lfsmr/kv_async.h"
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

using AsyncConfigs = KvMatrix<AsyncCfg>;

template <typename C> class KvAsync : public ::testing::Test {
protected:
  using Scheme = typename C::Scheme;
  using Key = typename C::Key;
  using Value = typename C::Value;
  using Store = kv::Store<Scheme, Key, Value>;
  using Submitter = kv::Submitter<Scheme, Key, Value>;
  using Future = kv::Future<Scheme, Key, Value>;

  static Key key(uint64_t X) { return Payload<Key>::make(X); }
  static Value val(uint64_t X) { return Payload<Value>::make(X); }
  static uint64_t stampOf(const Value &V) { return Payload<Value>::stamp(V); }
};

TYPED_TEST_SUITE(KvAsync, AsyncConfigs, KvCfgNames);

//===----------------------------------------------------------------------===//
// Results mirror the sync API
//===----------------------------------------------------------------------===//

TYPED_TEST(KvAsync, ResultsMirrorSyncApi) {
  using V = typename TestFixture::Value;
  typename TestFixture::Store Db(kvTestOptions());
  typename TestFixture::Submitter Sub(Db);
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto Val = [](uint64_t X) { return TestFixture::val(X); };

  EXPECT_TRUE(Sub.put(0, K(1), Val(10)).get(0)) << "put: key was absent";
  EXPECT_FALSE(Sub.put(0, K(1), Val(11)).get(0)) << "put: key was present";
  EXPECT_EQ(*Db.get(0, K(1)), Val(11));

  EXPECT_FALSE(Sub.compare_and_set(0, K(1), Val(10), Val(12)).get(0))
      << "cas: expectation mismatch leaves the value";
  EXPECT_EQ(*Db.get(0, K(1)), Val(11));
  EXPECT_TRUE(Sub.compare_and_set(0, K(1), Val(11), Val(12)).get(0));
  EXPECT_EQ(*Db.get(0, K(1)), Val(12));
  EXPECT_FALSE(Sub.compare_and_set(0, K(2), Val(1), Val(2)).get(0))
      << "cas on an absent key fails";
  EXPECT_FALSE(Db.get(0, K(2)).has_value());

  // Last-wins merge: current absent -> operand; present -> keep current.
  const auto KeepFirst = +[](std::optional<V> &&Cur, const V &Operand) {
    return Cur.has_value() ? *Cur : Operand;
  };
  EXPECT_TRUE(Sub.merge(0, K(3), Val(30), KeepFirst).get(0));
  EXPECT_EQ(*Db.get(0, K(3)), Val(30)) << "merge saw the absent state";
  EXPECT_TRUE(Sub.merge(0, K(3), Val(31), KeepFirst).get(0));
  EXPECT_EQ(*Db.get(0, K(3)), Val(30)) << "merge saw the current value";

  {
    // A failing compare_and_set writes nothing, sync or async: with a
    // snapshot holding the chain, no new version and no clock tick.
    kv::snapshot Snap = Db.open_snapshot();
    const std::size_t Chain = Db.version_count(0, K(1));
    const uint64_t Clock = Db.version();
    EXPECT_FALSE(Db.compare_and_set(0, K(1), Val(10), Val(13)));
    EXPECT_FALSE(Sub.compare_and_set(0, K(1), Val(10), Val(13)).get(0));
    EXPECT_EQ(Db.version_count(0, K(1)), Chain)
        << "a failed cas must not append a copy of the current value";
    EXPECT_EQ(Db.version(), Clock) << "a failed cas must not tick the clock";
    EXPECT_EQ(*Db.get(0, K(1), Snap), Val(12));
  }

  EXPECT_TRUE(Sub.erase(0, K(1)).get(0)) << "erase: key was present";
  EXPECT_FALSE(Sub.erase(0, K(1)).get(0)) << "erase: key was absent";
  EXPECT_FALSE(Db.get(0, K(1)).has_value());
}

TYPED_TEST(KvAsync, SameKeyOpsInOneBatchApplyInSubmissionOrder) {
  typename TestFixture::Store Db(kvTestOptions());
  typename TestFixture::Submitter Sub(Db);
  const auto K = [](uint64_t X) { return TestFixture::key(X); };
  const auto Val = [](uint64_t X) { return TestFixture::val(X); };

  // All on one key, submitted before anything waits: the first wait
  // drains them as one batch, and the fold must honor submission order.
  typename TestFixture::Future F1 = Sub.put(0, K(7), Val(1));
  typename TestFixture::Future F2 = Sub.put(0, K(7), Val(2));
  typename TestFixture::Future F3 = Sub.erase(0, K(7));
  typename TestFixture::Future F4 = Sub.put(0, K(7), Val(3));
  EXPECT_TRUE(F1.get(0)) << "first put found the key absent";
  EXPECT_FALSE(F2.get(0)) << "second put found the first's value";
  EXPECT_TRUE(F3.get(0)) << "erase found a live value";
  EXPECT_TRUE(F4.get(0)) << "put after erase found the key absent";
  EXPECT_EQ(*Db.get(0, K(7)), Val(3)) << "last op in submission order wins";
}

//===----------------------------------------------------------------------===//
// Completion-exactly-once under concurrency
//===----------------------------------------------------------------------===//

TYPED_TEST(KvAsync, CompletionExactlyOnceAcrossConcurrentSubmitters) {
  constexpr unsigned Threads = 4;
  constexpr uint64_t OpsPerThread = 400;
  constexpr uint64_t Keys = 32; // heavy same-key overlap
  typename TestFixture::Store Db(kvTestOptions(Threads));
  typename TestFixture::Submitter Sub(Db);
  std::atomic<uint64_t> Completed{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      std::vector<typename TestFixture::Future> Window;
      Window.reserve(8);
      for (uint64_t I = 0; I < OpsPerThread; ++I) {
        const uint64_t X = T * OpsPerThread + I;
        Window.push_back(
            Sub.put(T, TestFixture::key(X % Keys), TestFixture::val(X)));
        if (Window.size() == 8) {
          for (typename TestFixture::Future &F : Window) {
            F.get(T);
            Completed.fetch_add(1, std::memory_order_relaxed);
          }
          Window.clear();
        }
      }
      for (typename TestFixture::Future &F : Window) {
        F.get(T);
        Completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Completed.load(), Threads * OpsPerThread)
      << "every future completed exactly once";
  for (uint64_t K = 0; K < Keys; ++K) {
    auto Got = Db.get(0, TestFixture::key(K));
    ASSERT_TRUE(Got.has_value());
    EXPECT_EQ(TestFixture::stampOf(*Got) % Keys, K)
        << "final value is one of the values submitted for this key";
  }
#if LFSMR_TELEMETRY_ENABLED
  const telemetry::store_stats St = Db.stats();
  EXPECT_EQ(St.async_submits, Threads * OpsPerThread);
  EXPECT_GE(St.combiner_takeovers + St.sync_fallbacks, 1u);
  EXPECT_GE(St.submit_batch_len.count, 1u);
#endif
}

//===----------------------------------------------------------------------===//
// Batch atomicity against concurrent snapshot readers
//===----------------------------------------------------------------------===//

TYPED_TEST(KvAsync, ReadersNeverObserveAPartialBatch) {
  // One shard so a submitted group lands on one ring; one writer so the
  // whole group is enqueued before anything drains it — each round is
  // applied as a single batch, which must settle at one stamp.
  constexpr uint64_t GroupKeys = 6;
  constexpr uint64_t Rounds = 120;
  constexpr unsigned Readers = 2;
  kv::Options O = kvTestOptions(1 + Readers);
  O.Shards = 1;
  typename TestFixture::Store Db(O);
  for (uint64_t K = 0; K < GroupKeys; ++K)
    Db.put(0, TestFixture::key(K), TestFixture::val(K)); // generation 0
  kv::AsyncOptions AO;
  AO.RingCapacity = 64; // never full: a fallback would split the group
  typename TestFixture::Submitter Sub(Db, AO);

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Torn{0};
  std::vector<std::thread> ReaderThreads;
  for (unsigned R = 0; R < Readers; ++R)
    ReaderThreads.emplace_back([&, R] {
      const unsigned Tid = 1 + R;
      while (!Stop.load(std::memory_order_relaxed)) {
        kv::snapshot S = Db.open_snapshot();
        uint64_t First = ~0ull;
        for (uint64_t K = 0; K < GroupKeys; ++K) {
          auto Got = Db.get(Tid, TestFixture::key(K), S);
          ASSERT_TRUE(Got.has_value());
          const uint64_t Gen = TestFixture::stampOf(*Got) / 1000;
          if (First == ~0ull)
            First = Gen;
          else if (Gen != First)
            Torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });

  for (uint64_t Round = 1; Round <= Rounds; ++Round) {
    std::vector<typename TestFixture::Future> Batch;
    Batch.reserve(GroupKeys);
    for (uint64_t K = 0; K < GroupKeys; ++K)
      Batch.push_back(Sub.put(0, TestFixture::key(K),
                              TestFixture::val(Round * 1000 + K)));
    for (typename TestFixture::Future &F : Batch)
      F.get(0);
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : ReaderThreads)
    T.join();
  EXPECT_EQ(Torn.load(), 0u)
      << "a snapshot observed some but not all writes of a batch";
#if LFSMR_TELEMETRY_ENABLED
  EXPECT_EQ(Db.stats().sync_fallbacks, 0u)
      << "a fallback would have split a group across stamp windows";
#endif
}

//===----------------------------------------------------------------------===//
// Backpressure: ring-full sync fallback
//===----------------------------------------------------------------------===//

TYPED_TEST(KvAsync, RingFullFallsBackToSyncWithoutLosingOps) {
  typename TestFixture::Store Db(kvTestOptions());
  kv::AsyncOptions AO;
  AO.RingCapacity = 2; // the minimum after normalization
  typename TestFixture::Submitter Sub(Db, AO);
  ASSERT_EQ(Sub.options().RingCapacity, 2u);

  // One shard's ring holds 2 ops; drive > 2 at the same key (same
  // shard) without ever waiting. The overflow must apply synchronously
  // and complete immediately.
  constexpr uint64_t Ops = 12;
  std::vector<typename TestFixture::Future> Futures;
  uint64_t ReadyAtSubmit = 0;
  for (uint64_t I = 0; I < Ops; ++I) {
    Futures.push_back(Sub.put(0, TestFixture::key(5), TestFixture::val(I)));
    if (Futures.back().ready())
      ++ReadyAtSubmit;
  }
  EXPECT_GE(ReadyAtSubmit, Ops - AO.RingCapacity)
      << "overflow ops complete synchronously at submit";
  for (typename TestFixture::Future &F : Futures)
    F.get(0);
  ASSERT_TRUE(Db.get(0, TestFixture::key(5)).has_value());
#if LFSMR_TELEMETRY_ENABLED
  const telemetry::store_stats St = Db.stats();
  EXPECT_EQ(St.async_submits, Ops);
  EXPECT_GE(St.sync_fallbacks, Ops - AO.RingCapacity);
#endif
}

//===----------------------------------------------------------------------===//
// Combiner crash-robustness: no combiner anywhere => submitters self-serve
//===----------------------------------------------------------------------===//

TYPED_TEST(KvAsync, OrphanedOpsAreAppliedByTheNextCombiner) {
  typename TestFixture::Store Db(kvTestOptions());
  typename TestFixture::Submitter Sub(Db);
  // A client submits fire-and-forget and walks away (its thread dies
  // without waiting or flushing) — the ops sit orphaned in the ring.
  std::thread Orphan([&] {
    for (uint64_t I = 0; I < 8; ++I)
      Sub.put(1, TestFixture::key(100 + I), TestFixture::val(I));
  });
  Orphan.join();
  // A later, unrelated waiter on the same shards must pick them up.
  for (uint64_t I = 0; I < 8; ++I)
    Sub.put(0, TestFixture::key(100 + I), TestFixture::val(1000 + I)).get(0);
  for (uint64_t I = 0; I < 8; ++I) {
    auto Got = Db.get(0, TestFixture::key(100 + I));
    ASSERT_TRUE(Got.has_value()) << "orphaned op was lost";
    EXPECT_EQ(TestFixture::stampOf(*Got), 1000 + I)
        << "orphaned op applied before the later same-key op";
  }
}

TYPED_TEST(KvAsync, DestructorDrainsFireAndForget) {
  typename TestFixture::Store Db(kvTestOptions());
  {
    typename TestFixture::Submitter Sub(Db);
    for (uint64_t I = 0; I < 32; ++I)
      Sub.put(0, TestFixture::key(I), TestFixture::val(I + 1));
    // No waits, no flush: destruction alone must apply everything (and
    // free every record — asan is the leak check).
  }
  for (uint64_t I = 0; I < 32; ++I) {
    auto Got = Db.get(0, TestFixture::key(I));
    ASSERT_TRUE(Got.has_value());
    EXPECT_EQ(TestFixture::stampOf(*Got), I + 1);
  }
}

TYPED_TEST(KvAsync, ExplicitFlushAppliesEverythingSubmitted) {
  typename TestFixture::Store Db(kvTestOptions());
  typename TestFixture::Submitter Sub(Db);
  std::vector<typename TestFixture::Future> Futures;
  for (uint64_t I = 0; I < 16; ++I)
    Futures.push_back(Sub.put(0, TestFixture::key(I), TestFixture::val(I)));
  Sub.flush(0);
  for (typename TestFixture::Future &F : Futures)
    EXPECT_TRUE(F.ready()) << "flush returned with ops incomplete";
  for (typename TestFixture::Future &F : Futures)
    F.get(0);
}

//===----------------------------------------------------------------------===//
// Future lifetime mechanics
//===----------------------------------------------------------------------===//

TYPED_TEST(KvAsync, FutureMoveAndReleaseSemantics) {
  typename TestFixture::Store Db(kvTestOptions());
  typename TestFixture::Submitter Sub(Db);

  typename TestFixture::Future A =
      Sub.put(0, TestFixture::key(1), TestFixture::val(1));
  typename TestFixture::Future B = std::move(A);
  EXPECT_FALSE(A.valid());
  ASSERT_TRUE(B.valid());
  EXPECT_TRUE(B.get(0));
  EXPECT_FALSE(B.valid()) << "get consumes the future";

  // Detach before completion, then detach after completion: both sides
  // of the single-word free arbitration (asan backs the no-leak claim).
  typename TestFixture::Future C =
      Sub.put(0, TestFixture::key(2), TestFixture::val(2));
  C.release(); // likely still pending: the applier frees
  typename TestFixture::Future D =
      Sub.put(0, TestFixture::key(3), TestFixture::val(3));
  Sub.flush(0); // completes D while attached
  D.release();  // already done: the future frees
  EXPECT_TRUE(Db.get(0, TestFixture::key(2)).has_value());
  EXPECT_TRUE(Db.get(0, TestFixture::key(3)).has_value());
}

//===----------------------------------------------------------------------===//
// Closed-loop pacing helper (workload toolkit)
//===----------------------------------------------------------------------===//

TYPED_TEST(KvAsync, CompletionWindowPacesAClosedLoop) {
  typename TestFixture::Store Db(kvTestOptions());
  typename TestFixture::Submitter Sub(Db);
  workload::CompletionWindow<typename TestFixture::Future> Win(0, 4);
  for (uint64_t I = 0; I < 64; ++I) {
    Win.push(Sub.put(0, TestFixture::key(I % 16), TestFixture::val(I)));
    EXPECT_LE(Win.size(), 4u) << "in-flight window exceeded";
  }
  Win.drain();
  EXPECT_EQ(Win.size(), 0u);
  for (uint64_t K = 0; K < 16; ++K)
    EXPECT_TRUE(Db.get(0, TestFixture::key(K)).has_value());
#if LFSMR_TELEMETRY_ENABLED
  EXPECT_EQ(Db.stats().async_submits, 64u);
#endif
}

} // namespace
