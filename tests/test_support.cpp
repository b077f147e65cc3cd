//===- tests/test_support.cpp - Support substrate unit tests --------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "devtools/barrier.h"
#include "devtools/cli.h"
#include "devtools/random.h"
#include "devtools/stats.h"
#include "devtools/workload.h"
#include "kv/shard_index.h"
#include "support/align.h"
#include "support/mem_counter.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

using namespace lfsmr;

//===----------------------------------------------------------------------===
// align.h

TEST(Align, CachePaddedIsolation) {
  CachePadded<int> Arr[2];
  const auto A = reinterpret_cast<uintptr_t>(&Arr[0].Value);
  const auto B = reinterpret_cast<uintptr_t>(&Arr[1].Value);
  EXPECT_GE(B - A, CacheLineSize);
}

/// Every 2^k - 1, 2^k and 2^k + 1 for k in [1, 63], plus 0 and 1.
static std::vector<uint64_t> powerOfTwoNeighbours() {
  std::vector<uint64_t> Ns = {0, 1};
  for (unsigned K = 1; K < 64; ++K)
    for (const uint64_t N : {(uint64_t{1} << K) - 1, uint64_t{1} << K,
                             (uint64_t{1} << K) + 1})
      Ns.push_back(N);
  return Ns;
}

TEST(Align, NextPowerOfTwo) {
  EXPECT_EQ(nextPowerOfTwo(0), 1u);
  EXPECT_EQ(nextPowerOfTwo(1), 1u);
  EXPECT_EQ(nextPowerOfTwo(2), 2u);
  EXPECT_EQ(nextPowerOfTwo(5), 8u);
  EXPECT_EQ(nextPowerOfTwo(1023), 1024u);
  EXPECT_EQ(nextPowerOfTwo(1024), 1024u);
  for (const uint64_t N : powerOfTwoNeighbours()) {
    if (N > uint64_t{1} << 63)
      continue; // the next power of two does not fit 64 bits
    uint64_t P = 1;
    while (P < N)
      P <<= 1;
    EXPECT_EQ(nextPowerOfTwo(N), P) << N;
  }
}

#ifndef LFSMR_TSAN
// Death tests fork; skip them under TSan (fork + the runtime is
// unreliable there). The ASan and release presets keep the coverage.
TEST(Align, NextPowerOfTwoRejectsPastTwoToThe63) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EQ(nextPowerOfTwo(uint64_t{1} << 63), uint64_t{1} << 63);
  EXPECT_DEATH(nextPowerOfTwo((uint64_t{1} << 63) + 1),
               "exceeds the largest power of two");
  EXPECT_DEATH(nextPowerOfTwo(SIZE_MAX), "exceeds the largest power of two");
}
#endif

TEST(Align, FloorLog2) {
  EXPECT_EQ(floorLog2(1), 0u);
  EXPECT_EQ(floorLog2(7), 2u);
  EXPECT_EQ(floorLog2(8), 3u);
  EXPECT_EQ(floorLog2(uint64_t{1} << 40), 40u);
  for (const uint64_t N : powerOfTwoNeighbours()) {
    if (N == 0)
      continue;
    unsigned L = 0;
    for (uint64_t X = N; X >>= 1;)
      ++L;
    EXPECT_EQ(floorLog2(N), L) << N;
  }
  // The split-order parent clears the top set bit, past 32-bit indices
  // too.
  for (const uint64_t B : {(uint64_t{1} << 32) + 5, uint64_t{1} << 33,
                           (uint64_t{1} << 40) + (uint64_t{1} << 39),
                           ~uint64_t{0}}) {
    uint64_t Top = uint64_t{1} << 63;
    while (!(B & Top))
      Top >>= 1;
    EXPECT_EQ(kv::parentBucket(B), B - Top) << B;
  }
}

//===----------------------------------------------------------------------===
// random.h

TEST(Random, Deterministic) {
  Xoshiro256 A(42), B(42);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, SeedsDiffer) {
  Xoshiro256 A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    Same += (A.next() == B.next());
  EXPECT_LT(Same, 3);
}

TEST(Random, BoundedInRange) {
  Xoshiro256 R(7);
  for (int I = 0; I < 10000; ++I)
    EXPECT_LT(R.nextBounded(100), 100u);
}

TEST(Random, BoundedRoughlyUniform) {
  Xoshiro256 R(11);
  int Buckets[10] = {};
  const int N = 100000;
  for (int I = 0; I < N; ++I)
    ++Buckets[R.nextBounded(10)];
  for (int B : Buckets) {
    EXPECT_GT(B, N / 10 - N / 50);
    EXPECT_LT(B, N / 10 + N / 50);
  }
}

TEST(Random, PercentEdges) {
  Xoshiro256 R(3);
  for (int I = 0; I < 100; ++I) {
    EXPECT_FALSE(R.nextPercent(0));
    EXPECT_TRUE(R.nextPercent(100));
  }
}

TEST(Random, SplitMixMixesZeroSeed) {
  SplitMix64 M(0);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 100; ++I)
    Seen.insert(M.next());
  EXPECT_EQ(Seen.size(), 100u);
}

//===----------------------------------------------------------------------===
// barrier.h

TEST(Barrier, SingleParticipant) {
  SpinBarrier B(1);
  B.arriveAndWait(); // must not block
  B.arriveAndWait(); // reusable
}

TEST(Barrier, PhaseLockstep) {
  constexpr int N = 8, Phases = 20;
  SpinBarrier B(N);
  std::atomic<int> Phase{0};
  std::atomic<bool> Mismatch{false};
  std::vector<std::thread> Ts;
  for (int T = 0; T < N; ++T)
    Ts.emplace_back([&, T] {
      for (int P = 0; P < Phases; ++P) {
        B.arriveAndWait();
        if (Phase.load() != P)
          Mismatch = true;
        B.arriveAndWait();
        if (T == 0) // exactly one thread advances the phase
          Phase.fetch_add(1);
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_FALSE(Mismatch.load());
  EXPECT_EQ(Phase.load(), Phases);
}

TEST(Barrier, OversubscribedPhasesConverge) {
  // Far more participants than this machine has cores: the bounded-spin +
  // yield fallback must keep phases converging instead of every waiter
  // burning a scheduling quantum per release (the kv-serve oversub
  // scenario; CI runners routinely have 1-2 cores).
  const int N = static_cast<int>(
      8 * std::max(1u, std::thread::hardware_concurrency()));
  constexpr int Phases = 6;
  SpinBarrier B(static_cast<std::size_t>(N));
  std::atomic<int> Counter{0};
  std::atomic<bool> Bad{false};
  std::vector<std::thread> Ts;
  for (int T = 0; T < N; ++T)
    Ts.emplace_back([&] {
      for (int P = 0; P < Phases; ++P) {
        Counter.fetch_add(1);
        B.arriveAndWait();
        if (Counter.load() < N * (P + 1))
          Bad = true;
        B.arriveAndWait();
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_FALSE(Bad.load());
  EXPECT_EQ(Counter.load(), N * Phases);
}

TEST(Barrier, ManyThreadsManyPhases) {
  constexpr int N = 6, Phases = 50;
  SpinBarrier B(N);
  std::atomic<int> Counter{0};
  std::atomic<bool> Bad{false};
  std::vector<std::thread> Ts;
  for (int T = 0; T < N; ++T)
    Ts.emplace_back([&] {
      for (int P = 0; P < Phases; ++P) {
        Counter.fetch_add(1);
        B.arriveAndWait();
        // After the barrier, all N increments of this phase are visible.
        if (Counter.load() < N * (P + 1))
          Bad = true;
        B.arriveAndWait();
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_FALSE(Bad.load());
  EXPECT_EQ(Counter.load(), N * Phases);
}

//===----------------------------------------------------------------------===
// stats.h

TEST(Stats, Empty) {
  RunStats S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_EQ(S.mean(), 0.0);
  EXPECT_EQ(S.stddev(), 0.0);
}

TEST(Stats, MeanAndStddev) {
  RunStats S;
  for (double V : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.add(V);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_NEAR(S.stddev(), 2.138, 0.001); // sample stddev
  EXPECT_EQ(S.min(), 2.0);
  EXPECT_EQ(S.max(), 9.0);
}

TEST(Stats, SingleSample) {
  RunStats S;
  S.add(3.5);
  EXPECT_EQ(S.count(), 1u);
  EXPECT_EQ(S.mean(), 3.5);
  EXPECT_EQ(S.stddev(), 0.0);
}

//===----------------------------------------------------------------------===
// cli.h

static CommandLine parse(std::initializer_list<const char *> Args) {
  std::vector<const char *> V{"prog"};
  V.insert(V.end(), Args.begin(), Args.end());
  return CommandLine(static_cast<int>(V.size()), V.data());
}

TEST(Cli, FlagForms) {
  auto C = parse({"--threads", "8", "--mode=full", "--verbose"});
  EXPECT_EQ(C.getInt("threads", 0), 8);
  EXPECT_EQ(C.getString("mode", ""), "full");
  EXPECT_TRUE(C.has("verbose"));
  EXPECT_FALSE(C.has("quiet"));
}

TEST(Cli, Defaults) {
  auto C = parse({});
  EXPECT_EQ(C.getInt("threads", 42), 42);
  EXPECT_EQ(C.getString("mode", "quick"), "quick");
  EXPECT_DOUBLE_EQ(C.getDouble("secs", 1.5), 1.5);
}

TEST(Cli, IntList) {
  auto C = parse({"--threads", "1,2,4,8"});
  const std::vector<int64_t> L = C.getIntList("threads", {});
  ASSERT_EQ(L.size(), 4u);
  EXPECT_EQ(L[0], 1);
  EXPECT_EQ(L[3], 8);
}

TEST(Cli, Positional) {
  auto C = parse({"run", "--n", "3", "fast"});
  ASSERT_EQ(C.positional().size(), 2u);
  EXPECT_EQ(C.positional()[0], "run");
  EXPECT_EQ(C.positional()[1], "fast");
}

TEST(Cli, DoubleFlag) {
  auto C = parse({"--secs=2.5"});
  EXPECT_DOUBLE_EQ(C.getDouble("secs", 0), 2.5);
}

//===----------------------------------------------------------------------===
// mem_counter.h

TEST(MemCounter, SingleThreadAccounting) {
  MemCounter M;
  for (int I = 0; I < 10; ++I)
    M.onAlloc();
  for (int I = 0; I < 6; ++I)
    M.onRetire();
  for (int I = 0; I < 4; ++I)
    M.onFree();
  EXPECT_EQ(M.allocated(), 10);
  EXPECT_EQ(M.retired(), 6);
  EXPECT_EQ(M.freed(), 4);
  EXPECT_EQ(M.unreclaimed(), 2);
  EXPECT_EQ(M.outstanding(), 6);
}

TEST(MemCounter, BulkFree) {
  MemCounter M;
  M.onFree(25);
  EXPECT_EQ(M.freed(), 25);
}

TEST(MemCounter, Reset) {
  MemCounter M;
  M.onAlloc();
  M.onRetire();
  M.reset();
  EXPECT_EQ(M.allocated(), 0);
  EXPECT_EQ(M.retired(), 0);
}

TEST(MemCounter, ConcurrentSum) {
  MemCounter M;
  constexpr int N = 8, PerThread = 10000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < N; ++T)
    Ts.emplace_back([&] {
      for (int I = 0; I < PerThread; ++I)
        M.onAlloc();
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(M.allocated(), int64_t{N} * PerThread);
}

//===----------------------------------------------------------------------===
// workload.h

TEST(Workload, ZipfianDeterministicAcrossInstances) {
  // The generator holds no draw state: equal (items, theta) plus
  // equal-seeded streams must replay the exact rank sequence.
  const workload::ZipfianGenerator A(1000, 0.99);
  const workload::ZipfianGenerator B(1000, 0.99);
  Xoshiro256 Ra(0x5eed), Rb(0x5eed);
  for (int I = 0; I < 4096; ++I)
    ASSERT_EQ(A.next(Ra), B.next(Rb)) << "diverged at draw " << I;
}

TEST(Workload, ZipfianSeedChangesSequence) {
  const workload::ZipfianGenerator Z(1000, 0.99);
  Xoshiro256 Ra(1), Rb(2);
  int Differ = 0;
  for (int I = 0; I < 1024; ++I)
    if (Z.next(Ra) != Z.next(Rb))
      ++Differ;
  EXPECT_GT(Differ, 0) << "different seeds must give different streams";
}

TEST(Workload, ZipfianStaysInRange) {
  for (const double Theta : {0.2, 0.5, 0.99}) {
    for (const uint64_t N : {uint64_t{1}, uint64_t{7}, uint64_t{1024}}) {
      const workload::ZipfianGenerator Z(N, Theta);
      EXPECT_EQ(Z.items(), N);
      EXPECT_DOUBLE_EQ(Z.theta(), Theta);
      Xoshiro256 Rng(99);
      for (int I = 0; I < 2048; ++I)
        ASSERT_LT(Z.next(Rng), N);
    }
  }
}

TEST(Workload, ZipfianRankFrequencyMonotone) {
  // Expected frequency decays as rank^-theta: counts at geometrically
  // spaced ranks must decrease strictly (the gaps are large enough that
  // sampling noise cannot flip them at this draw volume), and rank 0
  // must carry a hot-key-sized share.
  constexpr uint64_t N = 1024;
  constexpr int Draws = 200000;
  const workload::ZipfianGenerator Z(N, 0.99);
  Xoshiro256 Rng(testSeed());
  std::vector<int> Count(N, 0);
  for (int I = 0; I < Draws; ++I)
    ++Count[Z.next(Rng)];
  EXPECT_GT(Count[0], Count[3]);
  EXPECT_GT(Count[3], Count[15]);
  EXPECT_GT(Count[15], Count[63]);
  EXPECT_GT(Count[63], Count[255]);
  // Theoretical rank-0 share is 1/zeta(1024, 0.99) ~ 13%; 8% leaves a
  // wide noise margin.
  EXPECT_GT(Count[0], Draws * 8 / 100) << "rank 0 must be hot";
}

TEST(Workload, ValueSizeDistShapes) {
  Xoshiro256 Rng(7);
  const auto Fixed = workload::ValueSizeDist::fixed(64);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Fixed.sample(Rng), 64u);

  const auto Uni = workload::ValueSizeDist::uniform(16, 32);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 5000; ++I) {
    const std::size_t S = Uni.sample(Rng);
    EXPECT_GE(S, 16u);
    EXPECT_LE(S, 32u);
    SawLo |= S == 16;
    SawHi |= S == 32;
  }
  EXPECT_TRUE(SawLo) << "uniform must include the lower bound";
  EXPECT_TRUE(SawHi) << "uniform must include the upper bound";

  const auto Bi = workload::ValueSizeDist::bimodal(16, 512, 10);
  int Large = 0;
  for (int I = 0; I < 5000; ++I) {
    const std::size_t S = Bi.sample(Rng);
    EXPECT_TRUE(S == 16 || S == 512) << "bimodal emits exactly two sizes";
    Large += S == 512;
  }
  EXPECT_GT(Large, 0);
  EXPECT_LT(Large, 5000) << "both modes must appear";
}

TEST(Workload, RunSessionsSpawnsFreshThreadPerSession) {
  constexpr unsigned Workers = 3, Sessions = 5;
  std::mutex Mu;
  std::set<std::pair<unsigned, unsigned>> Seen;
  std::vector<unsigned> CallsOnThread;
  const uint64_t Total =
      workload::runSessions(Workers, Sessions, [&](unsigned W, unsigned S) {
        // A fresh thread starts with fresh thread_local state, so this
        // counter reads 1 on every call. Thread ids are no proof: joined
        // threads' ids are recycled by later spawns.
        thread_local unsigned Calls = 0;
        ++Calls;
        std::lock_guard<std::mutex> Lock(Mu);
        CallsOnThread.push_back(Calls);
        Seen.insert({W, S});
        return uint64_t{1};
      });
  EXPECT_EQ(Total, uint64_t{Workers} * Sessions);
  EXPECT_EQ(Seen.size(), std::size_t{Workers} * Sessions)
      << "every (worker, session) pair runs exactly once";
  EXPECT_EQ(CallsOnThread, std::vector<unsigned>(Workers * Sessions, 1u))
      << "every session must run on a thread of its own";
}

TEST(Workload, RunSessionedStopsAndCounts) {
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Sessions{0};
  std::thread Stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    Stop.store(true);
  });
  const uint64_t Total =
      workload::runSessioned(2, Stop, [&](unsigned, unsigned) {
        Sessions.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return uint64_t{2};
      });
  Stopper.join();
  EXPECT_EQ(Total, 2 * Sessions.load())
      << "total must sum every session's return value";
  EXPECT_GE(Sessions.load(), 2u) << "each worker slot runs at least once";
}
