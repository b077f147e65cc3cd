//===- tests/test_queue.cpp - Michael-Scott queue tests -------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "ds/ms_queue.h"
#include "ds_common.h"
#include "lfsmr/domain.h"

#include <numeric>

using namespace lfsmr;
using namespace lfsmr::ds;
using namespace lfsmr::testing;

namespace {

template <typename S> class QueueTest : public ::testing::Test {};
TYPED_TEST_SUITE(QueueTest, AllSchemes, SchemeNames);

TYPED_TEST(QueueTest, FifoOrder) {
  MSQueue<TypeParam> Q(dsTestConfig());
  EXPECT_TRUE(Q.empty());
  EXPECT_FALSE(Q.dequeue(0).has_value());
  for (uint64_t V = 1; V <= 100; ++V)
    Q.enqueue(0, V);
  EXPECT_FALSE(Q.empty());
  for (uint64_t V = 1; V <= 100; ++V) {
    auto R = Q.dequeue(0);
    ASSERT_TRUE(R.has_value());
    EXPECT_EQ(*R, V);
  }
  EXPECT_TRUE(Q.empty());
  EXPECT_FALSE(Q.dequeue(0).has_value());
}

TYPED_TEST(QueueTest, DequeueRetiresDummies) {
  MSQueue<TypeParam> Q(dsTestConfig());
  for (uint64_t V = 0; V < 50; ++V)
    Q.enqueue(0, V);
  const int64_t Before = Q.smr().memCounter().retired();
  for (uint64_t V = 0; V < 50; ++V)
    Q.dequeue(0);
  EXPECT_EQ(Q.smr().memCounter().retired() - Before, 50)
      << "each dequeue must retire exactly one node";
}

TYPED_TEST(QueueTest, InterleavedEnqueueDequeue) {
  MSQueue<TypeParam> Q(dsTestConfig());
  uint64_t In = 0, Out = 0;
  Xoshiro256 Rng(streamSeed(17));
  for (int I = 0; I < 10000; ++I) {
    if (Rng.nextPercent(60))
      Q.enqueue(0, In++);
    else if (auto V = Q.dequeue(0)) {
      EXPECT_EQ(*V, Out) << "FIFO violated";
      ++Out;
    }
  }
  while (auto V = Q.dequeue(0)) {
    EXPECT_EQ(*V, Out);
    ++Out;
  }
  EXPECT_EQ(In, Out);
}

TYPED_TEST(QueueTest, MpmcEveryValueExactlyOnce) {
  constexpr unsigned Producers = 4, Consumers = 4;
  constexpr uint64_t PerProducer = 20000;
  MSQueue<TypeParam> Q(dsTestConfig(Producers + Consumers));
  std::vector<std::atomic<int>> Seen(Producers * PerProducer);
  for (auto &S : Seen)
    S.store(0);
  std::atomic<uint64_t> Consumed{0};

  std::vector<std::thread> Ts;
  for (unsigned P = 0; P < Producers; ++P)
    Ts.emplace_back([&, P] {
      for (uint64_t I = 0; I < PerProducer; ++I)
        Q.enqueue(P, P * PerProducer + I);
    });
  for (unsigned C = 0; C < Consumers; ++C)
    Ts.emplace_back([&, C] {
      const uint64_t Total = uint64_t{Producers} * PerProducer;
      while (Consumed.load(std::memory_order_relaxed) < Total) {
        if (auto V = Q.dequeue(Producers + C)) {
          Seen[*V].fetch_add(1, std::memory_order_relaxed);
          Consumed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  for (auto &T : Ts)
    T.join();

  for (std::size_t I = 0; I < Seen.size(); ++I)
    ASSERT_EQ(Seen[I].load(), 1) << "value " << I
                                 << " dequeued wrong number of times";
  // Per-producer FIFO cannot be asserted from Seen alone, but counts can:
  EXPECT_EQ(std::accumulate(Seen.begin(), Seen.end(), int64_t{0},
                            [](int64_t A, const std::atomic<int> &S) {
                              return A + S.load();
                            }),
            int64_t{Producers} * PerProducer);
  EXPECT_TRUE(Q.empty());
}

TYPED_TEST(QueueTest, AccountingClosesAfterDrain) {
  int64_t Allocated = 0, Retired = 0;
  {
    MSQueue<TypeParam> Q(dsTestConfig());
    for (uint64_t V = 0; V < 500; ++V)
      Q.enqueue(0, V);
    while (Q.dequeue(0))
      ;
    const auto &MC = Q.smr().memCounter();
    Allocated = MC.allocated();
    Retired = MC.retired();
  }
  // 501 nodes allocated (dummy + 500); the final dummy is freed by the
  // queue destructor, everything else was retired.
  EXPECT_EQ(Allocated, 501);
  EXPECT_EQ(Retired, 500);
}

TYPED_TEST(QueueTest, RegionSmartPointerIdiom) {
  // The paper's Table 1 note: deref can be hidden behind standard C++
  // idioms. A guard's scope is the protected region, and `protect(src)`
  // never names a protection slot: it rotates through the domain's
  // `NumHazards` slots, so more reads than slots stay inside HP's and
  // HE's per-thread row.
  smr::Config C = dsTestConfig();
  C.NumHazards = 2;
  std::atomic<int64_t> Freed{0};
  {
    lfsmr::domain<TypeParam> D(C, countingDeleter<TypeParam>, &Freed);
    auto *N = new TestNode<TypeParam>();
    N->Payload = 7;
    std::atomic<TestNode<TypeParam> *> Cell{nullptr};
    {
      auto G = D.enter(0);
      G.init(&N->Hdr);
      Cell.store(N);
      for (unsigned I = 0; I < 2 * C.NumHazards + 1; ++I) {
        auto P = G.protect(Cell);
        ASSERT_NE(P.get(), nullptr);
        EXPECT_EQ(P->Payload, 7u);
      }
      G.retire(&Cell.exchange(nullptr)->Hdr);
    } // leave() runs here; the deferred free happens by destruction
    EXPECT_EQ(D.stats().retired, 1);
  }
  EXPECT_EQ(Freed.load(), 1);
}

} // namespace
