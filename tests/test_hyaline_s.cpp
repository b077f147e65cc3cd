//===- tests/test_hyaline_s.cpp - Hyaline-S robustness machinery ----------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// White-box tests of the Hyaline-S extensions (paper Section 4.2-4.3):
/// the allocation-era clock, per-slot access eras and the stale-slot skip
/// in retire, Ack-based stall detection in enter, adaptive slot-directory
/// growth, and the slot directory itself.
///
//===----------------------------------------------------------------------===//

#include "core/hyaline.h"
#include "core/slot_directory.h"
#include "scheme_fixtures.h"

#include <algorithm>
#include <thread>
#include <vector>

using namespace lfsmr;
using namespace lfsmr::core;
using namespace lfsmr::testing;

namespace {

//===----------------------------------------------------------------------===
// SlotDirectory (paper Figure 10)

TEST(SlotDirectory, InitialCapacityAndAddressing) {
  SlotDirectory<int> D(4);
  EXPECT_EQ(D.capacity(), 4u);
  EXPECT_EQ(D.kMin(), 4u);
  for (int I = 0; I < 4; ++I)
    D.slot(I) = I * 10;
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(D.slot(I), I * 10);
}

TEST(SlotDirectory, GrowDoublesAndPreservesSlots) {
  SlotDirectory<int> D(4);
  for (int I = 0; I < 4; ++I)
    D.slot(I) = I + 100;
  D.grow(4);
  EXPECT_EQ(D.capacity(), 8u);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(D.slot(I), I + 100) << "existing slots must not move";
  for (int I = 4; I < 8; ++I)
    EXPECT_EQ(D.slot(I), 0) << "new slots must be value-initialized";
  D.grow(8);
  D.grow(16);
  EXPECT_EQ(D.capacity(), 32u);
  EXPECT_EQ(D.slot(0), 100);
  D.slot(31) = 7;
  EXPECT_EQ(D.slot(31), 7);
}

TEST(SlotDirectory, StaleGrowIsNoOp) {
  SlotDirectory<int> D(2);
  D.grow(2);
  EXPECT_EQ(D.capacity(), 4u);
  D.grow(2); // stale expected value
  EXPECT_EQ(D.capacity(), 4u);
}

TEST(SlotDirectory, ConcurrentGrowersConverge) {
  SlotDirectory<int> D(2);
  std::vector<std::thread> Ts;
  for (int T = 0; T < 8; ++T)
    Ts.emplace_back([&] {
      for (int I = 0; I < 4; ++I)
        D.grow(D.capacity());
    });
  for (auto &T : Ts)
    T.join();
  // Capacity grew by some power of two and all slots are addressable.
  const std::size_t K = D.capacity();
  EXPECT_GE(K, 4u);
  EXPECT_EQ(K & (K - 1), 0u);
  for (std::size_t I = 0; I < K; ++I)
    D.slot(I) = static_cast<int>(I);
  for (std::size_t I = 0; I < K; ++I)
    EXPECT_EQ(D.slot(I), static_cast<int>(I));
}

//===----------------------------------------------------------------------===
// Era clock and access eras

smr::Config sConfig(unsigned Slots, unsigned MaxThreads,
                    unsigned EraFreq = 4, int64_t AckThreshold = 8192) {
  smr::Config C;
  C.Slots = Slots;
  C.MaxThreads = MaxThreads;
  C.MinBatch = 2;
  C.EraFreq = EraFreq;
  C.AckThreshold = AckThreshold;
  return C;
}

template <typename S>
TestNode<S> *makeNode(S &Scheme, typename S::Guard &G, uint64_t P) {
  auto *N = new TestNode<S>();
  N->Payload = P;
  Scheme.initNode(G, &N->Hdr);
  return N;
}

TEST(HyalineSEra, ClockTicksEveryEraFreqAllocations) {
  std::atomic<int64_t> Freed{0};
  HyalineS S(sConfig(2, 4, /*EraFreq=*/4), countingDeleter<HyalineS>, &Freed);
  const uint64_t Start = S.currentEra();
  auto G = S.enter(0);
  std::vector<TestNode<HyalineS> *> Nodes;
  for (int I = 0; I < 16; ++I)
    Nodes.push_back(makeNode(S, G, I));
  EXPECT_EQ(S.currentEra(), Start + 4) << "16 allocations at Freq=4";
  for (auto *N : Nodes)
    S.retire(G, &N->Hdr);
  S.leave(G);
}

TEST(HyalineSEra, DerefRaisesSlotAccessEra) {
  std::atomic<int64_t> Freed{0};
  HyalineS S(sConfig(2, 4), countingDeleter<HyalineS>, &Freed);
  auto G = S.enter(0);
  EXPECT_EQ(S.accessEra(G.Slot), 0u) << "enter does not touch the era";
  auto *N = makeNode(S, G, 1);
  std::atomic<TestNode<HyalineS> *> Cell{N};
  S.deref(G, Cell, 0);
  EXPECT_EQ(S.accessEra(G.Slot), S.currentEra())
      << "deref must raise the slot era to the current era";
  S.retire(G, &N->Hdr);
  S.leave(G);
}

TEST(HyalineSEra, StaleSlotSkippedByRetire) {
  // A guard that never dereferences anything cannot pin nodes allocated
  // after its slot era went stale: the batch must reclaim while the
  // "stalled" guard is still inside its operation (Theorem 5's core).
  std::atomic<int64_t> Freed{0};
  HyalineS S(sConfig(2, 4, /*EraFreq=*/1), countingDeleter<HyalineS>, &Freed);

  auto Stalled = S.enter(0); // slot 0; access era stays 0
  auto Writer = S.enter(1);  // slot 1

  // All nodes allocated now have birth era >= 1 > access era of slot 0.
  constexpr int N = 8; // threshold is max(2, k+1) = 3; two batches + rest
  std::vector<TestNode<HyalineS> *> Nodes;
  for (int I = 0; I < N; ++I)
    Nodes.push_back(makeNode(S, Writer, I));
  for (auto *Node : Nodes)
    S.retire(Writer, &Node->Hdr);
  S.leave(Writer);

  EXPECT_GE(Freed.load(), 6)
      << "published batches must skip the stalled slot and reclaim";
  S.leave(Stalled);
}

TEST(HyalineSEra, CurrentEraSlotIsPinnedUntilLeave) {
  // Conversely: a slot whose access era is current must receive batches
  // whose nodes it may reference — they stay pinned until it leaves.
  std::atomic<int64_t> Freed{0};
  // Huge EraFreq: the era clock never advances during the test.
  HyalineS S(sConfig(2, 4, /*EraFreq=*/1000000), countingDeleter<HyalineS>,
             &Freed);

  auto Reader = S.enter(0);
  auto Writer = S.enter(1);
  // Reader dereferences something: its slot era becomes current.
  auto *Probe = makeNode(S, Writer, 0);
  std::atomic<TestNode<HyalineS> *> Cell{Probe};
  S.deref(Reader, Cell, 0);

  std::vector<TestNode<HyalineS> *> Nodes;
  for (int I = 0; I < 3; ++I)
    Nodes.push_back(makeNode(S, Writer, I));
  for (auto *N : Nodes)
    S.retire(Writer, &N->Hdr);
  S.leave(Writer);
  EXPECT_EQ(Freed.load(), 0) << "reader's slot era covers the batch";

  S.retire(Reader, &Probe->Hdr);
  S.leave(Reader);
  EXPECT_GE(Freed.load(), 3);
}

//===----------------------------------------------------------------------===
// Ack-based stall avoidance and adaptive growth

TEST(HyalineSAcks, RetireChargesAndTraverseAcknowledges) {
  std::atomic<int64_t> Freed{0};
  HyalineS S(sConfig(2, 4, /*EraFreq=*/1000000), countingDeleter<HyalineS>,
             &Freed);
  auto Reader = S.enter(0);
  auto Writer = S.enter(1);
  auto *Probe = makeNode(S, Writer, 0);
  std::atomic<TestNode<HyalineS> *> Cell{Probe};
  S.deref(Reader, Cell, 0); // slot 0 era current -> insertions proceed

  ASSERT_EQ(S.ackValue(Reader.Slot), 0);
  // Two published batches into slot 0 (HRef 1: just the reader; the
  // writer sits in slot 1). The first lands in an empty list and covers
  // nothing; the second covers the first and charges Ack with the HRef.
  std::vector<TestNode<HyalineS> *> Nodes;
  for (int I = 0; I < 6; ++I)
    Nodes.push_back(makeNode(S, Writer, I));
  for (auto *N : Nodes)
    S.retire(Writer, &N->Hdr);
  EXPECT_EQ(S.ackValue(Reader.Slot), 1)
      << "only a covering insertion owes a traversal";

  S.leave(Writer);
  S.leave(Reader);
  // The reader's leave traverses the covered batch (1 node visited; the
  // head batch is settled through HRef, not traversal): nothing is owed.
  EXPECT_EQ(S.ackValue(0), 0);
  S.discard(&Probe->Hdr); // unpublished after both guards left
}

TEST(HyalineSAcks, LoneSlotAckStaysExact) {
  // A thread alone in its slot owes no traversal once it has left, so
  // its slot's Ack must read 0 after every leave. Were a batch landing in
  // an empty list charged too, the busy slot would drift past the
  // threshold within AckThreshold ops and enter would flee it as stalled.
  std::atomic<int64_t> Freed{0};
  constexpr int64_t Threshold = 8;
  HyalineS S(sConfig(2, 4, /*EraFreq=*/1000000, Threshold),
             countingDeleter<HyalineS>, &Freed);
  const std::size_t Slots = S.slots();
  const std::size_t Batch = std::max<std::size_t>(2, Slots + 1); // MinBatch 2

  for (int Op = 0; Op < 64 * Threshold; ++Op) {
    auto G = S.enter(0);
    // Dereferencing keeps the slot's access era current, so every batch
    // is inserted into the thread's own slot.
    auto *Probe = makeNode(S, G, 0);
    std::atomic<TestNode<HyalineS> *> Cell{Probe};
    S.deref(G, Cell, 0);
    S.retire(G, &Probe->Hdr);
    // Even ops publish one batch (into the empty list); odd ops publish
    // two, the second covering the first, which leave then traverses.
    const std::size_t N = (1 + Op % 2) * Batch;
    for (std::size_t I = 1; I < N; ++I)
      S.retire(G, &makeNode(S, G, I)->Hdr);
    S.leave(G);

    ASSERT_EQ(G.Slot, 0u) << "op " << Op << ": enter fled the thread's slot";
    ASSERT_EQ(S.ackValue(G.Slot), 0) << "op " << Op << ": Ack drifted";
    ASSERT_EQ(S.slots(), Slots) << "op " << Op << ": the directory grew";
  }
  EXPECT_EQ(Freed.load(), S.memCounter().allocated())
      << "every batch was published and its only reader left";
}

TEST(HyalineSAcks, EnterAvoidsSaturatedSlot) {
  std::atomic<int64_t> Freed{0};
  HyalineS S(sConfig(2, 8, /*EraFreq=*/1000000, /*AckThreshold=*/8),
             countingDeleter<HyalineS>, &Freed);

  auto Stalled = S.enter(0); // slot 0
  auto Writer = S.enter(1);  // slot 1
  auto *Probe = makeNode(S, Writer, 0);
  std::atomic<TestNode<HyalineS> *> Cell{Probe};
  S.deref(Stalled, Cell, 0); // keep slot 0's era current, then stall

  // Writer churns; every batch lands in slot 0 and charges its Ack.
  while (S.ackValue(0) < 8) {
    for (int I = 0; I < 3; ++I)
      S.retire(Writer, &makeNode(S, Writer, I)->Hdr);
  }
  // New arrivals that would map to slot 0 must be diverted.
  auto G = S.enter(2); // tid 2 maps to slot 0 first
  EXPECT_NE(G.Slot, 0u) << "enter must avoid the saturated slot";
  S.leave(G);

  S.retire(Writer, &Probe->Hdr);
  S.leave(Writer);
  S.leave(Stalled);
}

TEST(HyalineSAcks, AdaptiveGrowthWhenAllSlotsSaturated) {
  std::atomic<int64_t> Freed{0};
  HyalineS S(sConfig(1, 8, /*EraFreq=*/1000000, /*AckThreshold=*/8),
             countingDeleter<HyalineS>, &Freed);
  ASSERT_EQ(S.slots(), 1u);

  auto Stalled = S.enter(0);
  auto Writer = S.enter(1); // same single slot
  auto *Probe = makeNode(S, Writer, 0);
  std::atomic<TestNode<HyalineS> *> Cell{Probe};
  S.deref(Stalled, Cell, 0);

  while (S.ackValue(0) < 8) {
    // threshold with k=1 is max(MinBatch=2, k+1=2) = 2
    for (int I = 0; I < 2; ++I)
      S.retire(Writer, &makeNode(S, Writer, I)->Hdr);
  }
  // The only slot is saturated: the next enter must grow the directory.
  auto G = S.enter(2);
  EXPECT_GE(S.slots(), 2u) << "enter must double the slot count";
  EXPECT_NE(G.Slot, 0u);
  S.leave(G);

  S.retire(Writer, &Probe->Hdr);
  S.leave(Writer);
  S.leave(Stalled);
}

TEST(HyalineSAcks, ReclamationAcrossGrowth) {
  // Batches published before and after a growth must all reclaim: the
  // per-batch Adjs (Section 4.3) keeps the arithmetic consistent.
  std::atomic<int64_t> Freed{0};
  int64_t Allocated = 0;
  {
    HyalineS S(sConfig(1, 8, /*EraFreq=*/2, /*AckThreshold=*/4),
               countingDeleter<HyalineS>, &Freed);
    std::vector<std::thread> Ts;
    for (unsigned T = 0; T < 8; ++T)
      Ts.emplace_back([&, T] {
        for (int R = 0; R < 300; ++R) {
          auto G = S.enter(T);
          for (int I = 0; I < 4; ++I)
            S.retire(G, &makeNode(S, G, I)->Hdr);
          S.leave(G);
        }
      });
    for (auto &T : Ts)
      T.join();
    Allocated = S.memCounter().allocated();
  }
  EXPECT_EQ(Freed.load(), Allocated);
}

} // namespace
