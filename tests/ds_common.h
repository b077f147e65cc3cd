//===- tests/ds_common.h - Shared data-structure test logic ------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scheme-and-structure-generic test routines: sequential semantics,
/// disjoint-key concurrency, a per-key linearization check for contended
/// mixed workloads, and reclamation accounting. Each DS test file
/// instantiates these through typed tests.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_TESTS_DS_COMMON_H
#define LFSMR_TESTS_DS_COMMON_H

#include "devtools/random.h"
#include "scheme_fixtures.h"
#include "smr/smr.h"

#include "gtest/gtest.h"

#include <atomic>
#include <thread>
#include <vector>

namespace lfsmr::testing {

/// Small batches and frequent sweeps so reclamation runs inside tests.
inline smr::Config dsTestConfig(unsigned MaxThreads = 8) {
  smr::Config C;
  C.MaxThreads = MaxThreads;
  C.Slots = 4;
  C.MinBatch = 8;
  C.EpochFreq = 4;
  C.EmptyFreq = 16;
  C.EraFreq = 4;
  return C;
}

/// Basic sequential map semantics.
template <typename DS> void checkSequentialSemantics(DS &D) {
  EXPECT_FALSE(D.get(0, 10).has_value());
  EXPECT_TRUE(D.insert(0, 10, 100));
  EXPECT_FALSE(D.insert(0, 10, 200)) << "duplicate insert must fail";
  ASSERT_TRUE(D.get(0, 10).has_value());
  EXPECT_EQ(*D.get(0, 10), 100u) << "first insert's value must survive";
  EXPECT_FALSE(D.remove(0, 11)) << "removing an absent key must fail";
  EXPECT_TRUE(D.remove(0, 10));
  EXPECT_FALSE(D.remove(0, 10)) << "double remove must fail";
  EXPECT_FALSE(D.get(0, 10).has_value());
}

/// Insert-or-replace semantics: put on an absent key inserts, put on a
/// present key replaces the value and retires the old binding.
template <typename DS> void checkPutSemantics(DS &D) {
  EXPECT_TRUE(D.put(0, 5, 50)) << "put on absent key must insert";
  ASSERT_TRUE(D.get(0, 5).has_value());
  EXPECT_EQ(*D.get(0, 5), 50u);

  const int64_t RetiredBefore = D.smr().memCounter().retired();
  EXPECT_FALSE(D.put(0, 5, 51)) << "put on present key must replace";
  ASSERT_TRUE(D.get(0, 5).has_value());
  EXPECT_EQ(*D.get(0, 5), 51u) << "replacement value must be visible";
  EXPECT_GT(D.smr().memCounter().retired(), RetiredBefore)
      << "replacement must retire the old binding";

  EXPECT_TRUE(D.remove(0, 5));
  EXPECT_FALSE(D.get(0, 5).has_value());
  EXPECT_TRUE(D.put(0, 5, 52)) << "put after remove inserts again";
  EXPECT_EQ(*D.get(0, 5), 52u);
}

/// Concurrent upsert churn: puts and gets only; every get must observe a
/// value stamped with its key (no torn/stale replacements).
template <typename DS>
void checkConcurrentPuts(DS &D, unsigned Threads, unsigned OpsPerThread,
                         uint64_t KeyRange) {
  std::vector<std::thread> Ts;
  std::atomic<int> Bad{0};
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      Xoshiro256 Rng(streamSeed(500 + T));
      for (unsigned I = 0; I < OpsPerThread; ++I) {
        const uint64_t K = 1 + Rng.nextBounded(KeyRange);
        if (Rng.nextPercent(40)) {
          auto V = D.get(T, K);
          if (V && *V / 1000 != K)
            ++Bad;
        } else {
          D.put(T, K, K * 1000 + T);
        }
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Bad.load(), 0) << "a get observed a value for the wrong key";
  // Every key now maps to some thread's stamp.
  for (uint64_t K = 1; K <= KeyRange; ++K) {
    auto V = D.get(0, K);
    if (V) {
      EXPECT_EQ(*V / 1000, K);
    }
  }
}

/// Insert/verify/remove a larger key set, exercising retirement, and
/// check the accounting invariant live == allocated - retired == 0 after
/// everything is removed.
template <typename DS> void checkBulkLifecycle(DS &D, uint64_t N) {
  // Insertion order shuffled so trees exercise balancing.
  std::vector<uint64_t> Keys(N);
  for (uint64_t I = 0; I < N; ++I)
    Keys[I] = I * 3 + 1;
  Xoshiro256 Rng(streamSeed(99));
  for (uint64_t I = N - 1; I > 0; --I)
    std::swap(Keys[I], Keys[Rng.nextBounded(I + 1)]);

  for (uint64_t K : Keys)
    ASSERT_TRUE(D.insert(0, K, K * 2));
  for (uint64_t K : Keys) {
    auto V = D.get(0, K);
    ASSERT_TRUE(V.has_value()) << "key " << K;
    EXPECT_EQ(*V, K * 2);
  }
  EXPECT_FALSE(D.get(0, 0).has_value());
  for (uint64_t K : Keys)
    ASSERT_TRUE(D.remove(0, K)) << "key " << K;
  for (uint64_t K : Keys)
    EXPECT_FALSE(D.get(0, K).has_value());

  const auto &MC = D.smr().memCounter();
  EXPECT_EQ(MC.allocated(), MC.retired())
      << "empty structure must have retired every allocated node";
}

/// Threads operate on disjoint key ranges: every operation's outcome is
/// deterministic despite running concurrently.
template <typename DS>
void checkDisjointKeyThreads(DS &D, unsigned Threads, uint64_t PerThread) {
  std::vector<std::thread> Ts;
  std::atomic<int> Failures{0};
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      const uint64_t Base = uint64_t{T} * PerThread * 2 + 1;
      for (uint64_t I = 0; I < PerThread; ++I)
        if (!D.insert(T, Base + I, I))
          ++Failures;
      for (uint64_t I = 0; I < PerThread; ++I) {
        auto V = D.get(T, Base + I);
        if (!V || *V != I)
          ++Failures;
      }
      for (uint64_t I = 0; I < PerThread; ++I)
        if (!D.remove(T, Base + I))
          ++Failures;
      for (uint64_t I = 0; I < PerThread; ++I)
        if (D.get(T, Base + I))
          ++Failures;
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  const auto &MC = D.smr().memCounter();
  EXPECT_EQ(MC.allocated(), MC.retired());
}

/// Contended mixed workload with a per-key success ledger: for every key,
/// (successful inserts - successful removes) must equal its final
/// presence, because each successful insert flips absent->present and
/// each successful remove flips present->absent.
template <typename DS>
void checkContendedLedger(DS &D, unsigned Threads, unsigned OpsPerThread,
                          uint64_t KeyRange) {
  std::vector<std::atomic<int64_t>> Net(KeyRange);
  for (auto &N : Net)
    N.store(0);
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      Xoshiro256 Rng(streamSeed(1000 + T));
      for (unsigned I = 0; I < OpsPerThread; ++I) {
        const uint64_t K = 1 + Rng.nextBounded(KeyRange);
        if (Rng.nextPercent(50)) {
          if (D.insert(T, K, K))
            Net[K - 1].fetch_add(1, std::memory_order_relaxed);
        } else {
          if (D.remove(T, K))
            Net[K - 1].fetch_sub(1, std::memory_order_relaxed);
        }
      }
    });
  for (auto &T : Ts)
    T.join();

  for (uint64_t K = 1; K <= KeyRange; ++K) {
    const int64_t N = Net[K - 1].load();
    ASSERT_TRUE(N == 0 || N == 1)
        << "key " << K << ": net successful inserts " << N;
    EXPECT_EQ(D.get(0, K).has_value(), N == 1) << "key " << K;
  }
  const auto &MC = D.smr().memCounter();
  EXPECT_GE(MC.allocated(), MC.retired());
  EXPECT_GE(MC.retired(), MC.freed());
}

/// Readers traverse while writers churn a small hot set; validates values
/// are never torn (value must always equal key * 2 when found).
template <typename DS>
void checkReadersVsWriters(DS &D, unsigned Writers, unsigned Readers,
                           unsigned Iters, uint64_t KeyRange) {
  std::atomic<bool> Stop{false};
  std::atomic<int> Corrupt{0};
  std::vector<std::thread> Ts;
  for (unsigned W = 0; W < Writers; ++W)
    Ts.emplace_back([&, W] {
      Xoshiro256 Rng(streamSeed(7000 + W));
      for (unsigned I = 0; I < Iters; ++I) {
        const uint64_t K = 1 + Rng.nextBounded(KeyRange);
        if (Rng.nextPercent(50))
          D.insert(W, K, K * 2);
        else
          D.remove(W, K);
      }
    });
  for (unsigned R = 0; R < Readers; ++R)
    Ts.emplace_back([&, R] {
      Xoshiro256 Rng(streamSeed(9000 + R));
      while (!Stop.load(std::memory_order_relaxed)) {
        const uint64_t K = 1 + Rng.nextBounded(KeyRange);
        auto V = D.get(Writers + R, K);
        if (V && *V != K * 2)
          ++Corrupt;
      }
    });
  for (unsigned W = 0; W < Writers; ++W)
    Ts[W].join();
  Stop.store(true);
  for (unsigned R = 0; R < Readers; ++R)
    Ts[Writers + R].join();
  EXPECT_EQ(Corrupt.load(), 0) << "readers saw a torn or stale value";
}

} // namespace lfsmr::testing

#endif // LFSMR_TESTS_DS_COMMON_H
