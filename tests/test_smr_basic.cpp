//===- tests/test_smr_basic.cpp - Scheme API contract tests ---------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Typed tests run against every scheme: the enter/deref/retire/leave
/// contract, reclamation completeness at quiescence, accounting
/// consistency, and a cross-thread "exchange cell" stress that forces
/// threads to retire nodes other threads still read — the scenario SMR
/// exists for.
///
//===----------------------------------------------------------------------===//

#include "devtools/random.h"
#include "scheme_fixtures.h"

#include <thread>
#include <vector>

using namespace lfsmr;
using namespace lfsmr::testing;

namespace {

template <typename S> class SmrContract : public ::testing::Test {
protected:
  /// Small batches/frequent sweeps so reclamation triggers inside tests.
  static smr::Config testConfig(unsigned MaxThreads = 8) {
    smr::Config C;
    C.MaxThreads = MaxThreads;
    C.Slots = 4;
    C.MinBatch = 8;
    C.EpochFreq = 4;
    C.EmptyFreq = 16;
    C.EraFreq = 4;
    return C;
  }

  static TestNode<S> *makeNode(S &Scheme, typename S::Guard &G,
                               uint64_t Payload) {
    auto *N = new TestNode<S>();
    N->Payload = Payload;
    Scheme.initNode(G, &N->Hdr);
    return N;
  }
};

TYPED_TEST_SUITE(SmrContract, AllSchemes, SchemeNames);

TYPED_TEST(SmrContract, EnterLeaveRepeats) {
  std::atomic<int64_t> Freed{0};
  TypeParam Scheme(this->testConfig(), countingDeleter<TypeParam>, &Freed);
  for (int I = 0; I < 100; ++I) {
    auto G = Scheme.enter(I % 4);
    Scheme.leave(G);
  }
  EXPECT_EQ(Freed.load(), 0);
  EXPECT_EQ(Scheme.memCounter().retired(), 0);
}

TYPED_TEST(SmrContract, DerefReturnsCurrentValue) {
  std::atomic<int64_t> Freed{0};
  TypeParam Scheme(this->testConfig(), countingDeleter<TypeParam>, &Freed);
  auto G = Scheme.enter(0);
  auto *N = this->makeNode(Scheme, G, 7);
  std::atomic<TestNode<TypeParam> *> Cell{N};
  EXPECT_EQ(Scheme.deref(G, Cell, 0), N);
  EXPECT_EQ(Scheme.deref(G, Cell, 0)->Payload, 7u);
  Cell.store(nullptr);
  EXPECT_EQ(Scheme.deref(G, Cell, 1), nullptr);
  Scheme.retire(G, &N->Hdr);
  Scheme.leave(G);
}

TYPED_TEST(SmrContract, DerefLinkPreservesTagBits) {
  std::atomic<int64_t> Freed{0};
  TypeParam Scheme(this->testConfig(), countingDeleter<TypeParam>, &Freed);
  auto G = Scheme.enter(0);
  auto *N = this->makeNode(Scheme, G, 9);
  std::atomic<uintptr_t> Link{reinterpret_cast<uintptr_t>(N) | 1};
  EXPECT_EQ(Scheme.derefLink(G, Link, 0), reinterpret_cast<uintptr_t>(N) | 1);
  Scheme.retire(G, &N->Hdr);
  Scheme.leave(G);
}

TYPED_TEST(SmrContract, RetireCountsImmediately) {
  std::atomic<int64_t> Freed{0};
  {
    TypeParam Scheme(this->testConfig(), countingDeleter<TypeParam>, &Freed);
    auto G = Scheme.enter(0);
    for (int I = 0; I < 50; ++I)
      Scheme.retire(G, &this->makeNode(Scheme, G, I)->Hdr);
    EXPECT_EQ(Scheme.memCounter().allocated(), 50);
    EXPECT_EQ(Scheme.memCounter().retired(), 50);
    Scheme.leave(G);
  }
  EXPECT_EQ(Freed.load(), 50) << "destructor must drain every retired node";
}

TYPED_TEST(SmrContract, ReclaimsEverythingAtDestruction) {
  std::atomic<int64_t> Freed{0};
  constexpr int Rounds = 20, PerRound = 100;
  {
    TypeParam Scheme(this->testConfig(), countingDeleter<TypeParam>, &Freed);
    for (int R = 0; R < Rounds; ++R) {
      auto G = Scheme.enter(0);
      for (int I = 0; I < PerRound; ++I)
        Scheme.retire(G, &this->makeNode(Scheme, G, I)->Hdr);
      Scheme.leave(G);
    }
    EXPECT_EQ(Scheme.memCounter().retired(), Rounds * PerRound);
  }
  EXPECT_EQ(Freed.load(), Rounds * PerRound);
}

TYPED_TEST(SmrContract, SingleThreadReclaimsBeforeDestruction) {
  // A lone thread that keeps working must eventually recycle its own
  // garbage: unreclaimed counts must not grow linearly with work.
  std::atomic<int64_t> Freed{0};
  TypeParam Scheme(this->testConfig(), countingDeleter<TypeParam>, &Freed);
  constexpr int Rounds = 200, PerRound = 20;
  for (int R = 0; R < Rounds; ++R) {
    auto G = Scheme.enter(0);
    for (int I = 0; I < PerRound; ++I)
      Scheme.retire(G, &this->makeNode(Scheme, G, I)->Hdr);
    Scheme.leave(G);
  }
  const int64_t Total = Rounds * PerRound;
  EXPECT_GT(Freed.load(), Total / 2)
      << "steady-state reclamation should free most retired nodes";
}

TYPED_TEST(SmrContract, DiscardFreesImmediately) {
  std::atomic<int64_t> Freed{0};
  TypeParam Scheme(this->testConfig(), countingDeleter<TypeParam>, &Freed);
  auto G = Scheme.enter(0);
  auto *N = this->makeNode(Scheme, G, 1);
  Scheme.discard(&N->Hdr);
  EXPECT_EQ(Freed.load(), 1);
  EXPECT_EQ(Scheme.memCounter().freed(), 1);
  Scheme.leave(G);
}

TYPED_TEST(SmrContract, ThreadIdReuse) {
  // Transparency property: a recycled thread id can immediately continue
  // the workload; leave() fully detaches the previous user (paper
  // Section 2, "Transparency").
  std::atomic<int64_t> Freed{0};
  {
    TypeParam Scheme(this->testConfig(4), countingDeleter<TypeParam>, &Freed);
    for (int Gen = 0; Gen < 10; ++Gen) {
      std::thread([&] {
        auto G = Scheme.enter(2); // same id every generation
        for (int I = 0; I < 40; ++I)
          Scheme.retire(G, &this->makeNode(Scheme, G, I)->Hdr);
        Scheme.leave(G);
      }).join();
    }
  }
  EXPECT_EQ(Freed.load(), 400);
}

TYPED_TEST(SmrContract, ConcurrentRetireAllFreed) {
  std::atomic<int64_t> Freed{0};
  constexpr unsigned Threads = 8;
  constexpr int OpsPerThread = 3000;
  int64_t Allocated = 0;
  {
    TypeParam Scheme(this->testConfig(Threads), countingDeleter<TypeParam>,
                     &Freed);
    std::vector<std::thread> Ts;
    for (unsigned T = 0; T < Threads; ++T)
      Ts.emplace_back([&, T] {
        for (int I = 0; I < OpsPerThread; ++I) {
          auto G = Scheme.enter(T);
          Scheme.retire(G, &this->makeNode(Scheme, G, I)->Hdr);
          Scheme.leave(G);
        }
      });
    for (auto &T : Ts)
      T.join();
    Allocated = Scheme.memCounter().allocated();
    EXPECT_EQ(Allocated, int64_t{Threads} * OpsPerThread);
  }
  EXPECT_EQ(Freed.load(), Allocated);
}

TYPED_TEST(SmrContract, ExchangeCellStress) {
  // Writers publish fresh nodes into shared cells and retire what they
  // displace; readers deref cells and touch payloads. Every node must be
  // freed exactly once by the end (checked via deleter count).
  std::atomic<int64_t> Freed{0};
  constexpr unsigned Writers = 4, Readers = 4;
  constexpr int OpsPerWriter = 4000, CellCount = 32;
  int64_t Allocated = 0;
  {
    TypeParam Scheme(this->testConfig(Writers + Readers),
                     countingDeleter<TypeParam>, &Freed);
    std::vector<std::atomic<TestNode<TypeParam> *>> Cells(CellCount);
    for (auto &C : Cells)
      C.store(nullptr);
    std::atomic<bool> Stop{false};

    std::vector<std::thread> Ts;
    for (unsigned W = 0; W < Writers; ++W)
      Ts.emplace_back([&, W] {
        Xoshiro256 Rng(streamSeed(100 + W));
        for (int I = 0; I < OpsPerWriter; ++I) {
          auto G = Scheme.enter(W);
          auto *N = this->makeNode(Scheme, G, (uint64_t{W} << 32) | I);
          auto *Old = Cells[Rng.nextBounded(CellCount)].exchange(N);
          if (Old)
            Scheme.retire(G, &Old->Hdr);
          Scheme.leave(G);
        }
      });
    for (unsigned R = 0; R < Readers; ++R)
      Ts.emplace_back([&, R] {
        Xoshiro256 Rng(streamSeed(200 + R));
        uint64_t Sink = 0;
        while (!Stop.load(std::memory_order_relaxed)) {
          auto G = Scheme.enter(Writers + R);
          for (int I = 0; I < 64; ++I) {
            auto *N = Scheme.deref(G, Cells[Rng.nextBounded(CellCount)],
                                   /*Idx=*/0);
            if (N)
              Sink += N->Payload;
          }
          Scheme.leave(G);
        }
        EXPECT_NE(Sink, uint64_t{0x12345678deadbeef}); // keep Sink alive
      });

    for (unsigned W = 0; W < Writers; ++W)
      Ts[W].join();
    Stop.store(true);
    for (unsigned R = 0; R < Readers; ++R)
      Ts[Writers + R].join();

    // Drain the cells through the same retire path.
    auto G = Scheme.enter(0);
    for (auto &C : Cells)
      if (auto *N = C.exchange(nullptr))
        Scheme.retire(G, &N->Hdr);
    Scheme.leave(G);
    Allocated = Scheme.memCounter().allocated();
  }
  EXPECT_EQ(Freed.load(), Allocated);
  EXPECT_EQ(Allocated, int64_t{Writers} * OpsPerWriter);
}

TYPED_TEST(SmrContract, AccountingInvariant) {
  std::atomic<int64_t> Freed{0};
  TypeParam Scheme(this->testConfig(), countingDeleter<TypeParam>, &Freed);
  auto G = Scheme.enter(0);
  for (int I = 0; I < 200; ++I)
    Scheme.retire(G, &this->makeNode(Scheme, G, I)->Hdr);
  Scheme.leave(G);
  const auto &MC = Scheme.memCounter();
  EXPECT_EQ(MC.freed(), Freed.load())
      << "scheme counter must agree with the deleter";
  EXPECT_EQ(MC.unreclaimed(), MC.retired() - MC.freed());
  EXPECT_GE(MC.retired(), MC.freed());
}

} // namespace

namespace {

/// NoMM never reclaims while running, yet the retired nodes stay owned:
/// its destructor frees every one, whichever thread id retired it.
TEST(NoMMTeardown, FreesEveryRetiredNodeAtDestruction) {
  using S = smr::NoMM;
  std::atomic<int64_t> Freed{0};
  smr::Config C;
  C.MaxThreads = 4;
  {
    S Scheme(C, countingDeleter<S>, &Freed);
    for (unsigned Tid = 0; Tid < C.MaxThreads; ++Tid) {
      auto G = Scheme.enter(Tid);
      for (int I = 0; I < 100; ++I) {
        auto *N = new TestNode<S>();
        Scheme.initNode(G, &N->Hdr);
        Scheme.retire(G, &N->Hdr);
      }
      Scheme.leave(G);
    }
    EXPECT_EQ(Freed.load(), 0) << "NoMM must not free while running";
    EXPECT_EQ(Scheme.memCounter().retired(), 400);
  }
  EXPECT_EQ(Freed.load(), 400);
}

} // namespace
