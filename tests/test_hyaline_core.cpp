//===- tests/test_hyaline_core.cpp - Hyaline algorithm internals ----------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// White-box tests of the Hyaline machinery: Adjs arithmetic, batch
/// construction, head packing, and deterministic multi-guard reclamation
/// handshakes that pin down exactly when batches become free (Figures 3,
/// 4, 7, 8 of the paper).
///
//===----------------------------------------------------------------------===//

#include "core/hyaline.h"
#include "core/hyaline1.h"
#include "core/hyaline_head.h"
#include "core/hyaline_node.h"
#include "lfsmr/domain.h"
#include "scheme_fixtures.h"

#include <thread>
#include <vector>

using namespace lfsmr;
using namespace lfsmr::core;
using namespace lfsmr::testing;

namespace {

//===----------------------------------------------------------------------===
// Adjs arithmetic (paper Section 3.2)

TEST(Adjs, CancelsAfterKAdditions) {
  for (uint64_t K : {1, 2, 4, 8, 64, 128, 1024}) {
    const uint64_t A = adjsForSlots(K);
    uint64_t Sum = 0;
    for (uint64_t I = 0; I < K; ++I)
      Sum += A;
    EXPECT_EQ(Sum, 0u) << "k=" << K;
  }
}

TEST(Adjs, PartialSumsNeverCancel) {
  for (uint64_t K : {2, 8, 128}) {
    const uint64_t A = adjsForSlots(K);
    uint64_t Sum = 0;
    for (uint64_t I = 1; I < K; ++I) {
      Sum += A;
      EXPECT_NE(Sum, 0u) << "k=" << K << " i=" << I
                         << ": a batch must not free before all slots are "
                            "accounted for";
    }
  }
}

TEST(Adjs, PaperExampleK8) {
  EXPECT_EQ(adjsForSlots(8), uint64_t{1} << 61); // paper: Adjs = 2^61
}

//===----------------------------------------------------------------------===
// PackedHead (Hyaline-1's single-word head)

TEST(PackedHead, RoundTrip) {
  auto *N = new HyalineNode();
  const uint64_t W = PackedHead::pack(true, N);
  EXPECT_TRUE(PackedHead::isActive(W));
  EXPECT_EQ(PackedHead::pointer(W), N);
  const uint64_t W2 = PackedHead::pack(false, N);
  EXPECT_FALSE(PackedHead::isActive(W2));
  EXPECT_EQ(PackedHead::pointer(W2), N);
  delete N;
}

TEST(PackedHead, NullStates) {
  EXPECT_FALSE(PackedHead::isActive(PackedHead::pack(false, nullptr)));
  EXPECT_TRUE(PackedHead::isActive(PackedHead::pack(true, nullptr)));
  EXPECT_EQ(PackedHead::pointer(PackedHead::pack(true, nullptr)), nullptr);
}

//===----------------------------------------------------------------------===
// LocalBatch construction (paper Figure 6)

TEST(LocalBatch, ChainAndSeal) {
  LocalBatch B;
  std::vector<HyalineNode *> Nodes;
  for (int I = 0; I < 5; ++I) {
    auto *N = new HyalineNode();
    Nodes.push_back(N);
    B.append(N, /*Birth=*/uint64_t(10 - I));
  }
  EXPECT_EQ(B.Size, 5u);
  EXPECT_EQ(B.RefNode, Nodes[0]) << "first appended node carries NRef";
  EXPECT_EQ(B.First, Nodes[4]);
  EXPECT_EQ(B.MinBirth, 6u);

  B.seal();
  // The cycle: First -> ... -> RefNode -> First.
  EXPECT_EQ(B.RefNode->BatchNext, B.First);
  std::size_t Len = 0;
  for (HyalineNode *N = B.First; N != B.RefNode; N = N->BatchNext) {
    EXPECT_EQ(N->refNode(), B.RefNode);
    ++Len;
  }
  EXPECT_EQ(Len, 4u);
  for (auto *N : Nodes)
    delete N;
}

TEST(LocalBatch, MinBirthTracksMinimum) {
  LocalBatch B;
  HyalineNode N1, N2, N3;
  B.append(&N1, 5);
  EXPECT_EQ(B.MinBirth, 5u);
  B.append(&N2, 9);
  EXPECT_EQ(B.MinBirth, 5u);
  B.append(&N3, 2);
  EXPECT_EQ(B.MinBirth, 2u);
}

//===----------------------------------------------------------------------===
// Scheme-level deterministic handshakes

smr::Config tinyConfig(unsigned Slots, unsigned MaxThreads) {
  smr::Config C;
  C.Slots = Slots;
  C.MaxThreads = MaxThreads;
  C.MinBatch = 2; // threshold becomes max(2, k+1)
  return C;
}

/// Helper: retire exactly one publishable batch (threshold nodes) through
/// guard \p G.
template <typename S>
void retireBatch(S &Scheme, typename S::Guard &G, std::size_t N) {
  for (std::size_t I = 0; I < N; ++I) {
    auto *Node = new TestNode<S>();
    Node->Payload = I;
    Scheme.initNode(G, &Node->Hdr);
    Scheme.retire(G, &Node->Hdr);
  }
}

/// Enters as \p Tid and dereferences once, as any operation would. For
/// the robust variants this raises the slot's access era to the current
/// era, so batches retired afterwards are inserted into the slot and the
/// free points below are the same for every variant; for the others it is
/// a plain load.
template <typename S> typename S::Guard enterAndRead(S &Scheme, unsigned Tid) {
  static const std::atomic<TestNode<S> *> Root{nullptr};
  auto G = Scheme.enter(Tid);
  Scheme.deref(G, Root, 0);
  return G;
}

//===----------------------------------------------------------------------===
// Multiple-list handshakes (Figure 7): Hyaline, Hyaline-P, Hyaline-S

template <typename S> void slotResolution() {
  std::atomic<int64_t> Freed{0};
  {
    smr::Config C = tinyConfig(5, 4); // 5 rounds up to 8
    S Scheme(C, countingDeleter<S>, &Freed);
    EXPECT_EQ(Scheme.slots(), 8u);
    EXPECT_EQ(Scheme.batchThreshold(), 9u);
  }
  {
    smr::Config C = tinyConfig(1, 4);
    C.MinBatch = 64;
    S Scheme(C, countingDeleter<S>, &Freed);
    EXPECT_EQ(Scheme.slots(), 1u);
    EXPECT_EQ(Scheme.batchThreshold(), 64u);
  }
}

template <typename S> void twoSlotHandshake() {
  // Three guards across two slots; a batch retired while all are active
  // is freed exactly when the last participant leaves (Figure 4's style
  // of step-by-step accounting).
  std::atomic<int64_t> Freed{0};
  S Scheme(tinyConfig(2, 4), countingDeleter<S>, &Freed);
  ASSERT_EQ(Scheme.batchThreshold(), 3u);

  auto G0 = enterAndRead(Scheme, 0); // slot 0
  auto G1 = enterAndRead(Scheme, 1); // slot 1
  auto G2 = enterAndRead(Scheme, 2); // slot 0 again

  retireBatch(Scheme, G0, 3);
  EXPECT_EQ(Freed.load(), 0);

  Scheme.leave(G2);
  EXPECT_EQ(Freed.load(), 0) << "slot 0 still has an active thread";
  Scheme.leave(G0);
  EXPECT_EQ(Freed.load(), 0) << "slot 1 still holds the batch";
  Scheme.leave(G1);
  EXPECT_EQ(Freed.load(), 3) << "last leaver must free the batch";
}

template <typename S> void readerEnteringAfterRetireDoesNotPin() {
  std::atomic<int64_t> Freed{0};
  S Scheme(tinyConfig(2, 4), countingDeleter<S>, &Freed);

  auto G0 = enterAndRead(Scheme, 0);
  retireBatch(Scheme, G0, 3);
  Scheme.leave(G0);
  EXPECT_EQ(Freed.load(), 3)
      << "no other thread was active; leave must reclaim immediately";

  // A reader entering now must see an empty retirement list.
  auto G1 = enterAndRead(Scheme, 1);
  retireBatch(Scheme, G1, 3);
  Scheme.leave(G1);
  EXPECT_EQ(Freed.load(), 6);
}

template <typename S> void stackedBatchesFreedInOrder() {
  std::atomic<int64_t> Freed{0};
  S Scheme(tinyConfig(2, 4), countingDeleter<S>, &Freed);
  auto G0 = enterAndRead(Scheme, 0);
  retireBatch(Scheme, G0, 3); // batch 1
  retireBatch(Scheme, G0, 3); // batch 2 displaces batch 1 in slot 0
  EXPECT_EQ(Freed.load(), 0);
  Scheme.leave(G0);
  EXPECT_EQ(Freed.load(), 6);
}

template <typename S> void trimReclaimsWithoutLeaving() {
  // Appendix B: trim frees batches retired since enter while the guard
  // stays active. The head batch remains pinned (its count lives in
  // HRef) — exactly one batch's worth stays until leave.
  std::atomic<int64_t> Freed{0};
  S Scheme(tinyConfig(2, 4), countingDeleter<S>, &Freed);

  auto Reader = enterAndRead(Scheme, 0); // slot 0
  auto Writer = enterAndRead(Scheme, 1); // slot 1
  retireBatch(Scheme, Writer, 3);        // batch 1
  retireBatch(Scheme, Writer, 3);        // batch 2
  Scheme.leave(Writer);
  EXPECT_EQ(Freed.load(), 0) << "reader pins both batches";

  Scheme.trim(Reader);
  EXPECT_EQ(Freed.load(), 3)
      << "trim must free the displaced batch but keep the head batch";

  Scheme.trim(Reader);
  EXPECT_EQ(Freed.load(), 3) << "repeated trim with no new batches: no-op";

  Scheme.leave(Reader);
  EXPECT_EQ(Freed.load(), 6);
}

template <typename S> class MultiListCore : public ::testing::Test {};
using MultiListSchemes = ::testing::Types<Hyaline, HyalinePacked, HyalineS>;
TYPED_TEST_SUITE(MultiListCore, MultiListSchemes, SchemeNames);

TYPED_TEST(MultiListCore, SlotResolution) { slotResolution<TypeParam>(); }
TYPED_TEST(MultiListCore, TwoSlotHandshake) { twoSlotHandshake<TypeParam>(); }
TYPED_TEST(MultiListCore, ReaderEnteringAfterRetireDoesNotPin) {
  readerEnteringAfterRetireDoesNotPin<TypeParam>();
}
TYPED_TEST(MultiListCore, StackedBatchesFreedInOrder) {
  stackedBatchesFreedInOrder<TypeParam>();
}
TYPED_TEST(MultiListCore, TrimReclaimsWithoutLeaving) {
  trimReclaimsWithoutLeaving<TypeParam>();
}

//===----------------------------------------------------------------------===
// Single-list handshakes (Figure 8): Hyaline-1, Hyaline-1S

template <typename S> void handshakeAndInsertCounting() {
  std::atomic<int64_t> Freed{0};
  smr::Config C = tinyConfig(0, 2); // single list: slots == MaxThreads == 2
  S Scheme(C, countingDeleter<S>, &Freed);
  ASSERT_EQ(Scheme.slots(), 2u);
  ASSERT_EQ(Scheme.batchThreshold(), 3u);

  auto G0 = enterAndRead(Scheme, 0);
  auto G1 = enterAndRead(Scheme, 1);
  retireBatch(Scheme, G0, 3); // inserted into both active slots
  EXPECT_EQ(Freed.load(), 0);
  Scheme.leave(G0);
  EXPECT_EQ(Freed.load(), 0) << "slot 1's owner has not dereferenced yet";
  Scheme.leave(G1);
  EXPECT_EQ(Freed.load(), 3);
}

template <typename S> void retireWithNoActiveSlotsFreesImmediately() {
  std::atomic<int64_t> Freed{0};
  smr::Config C = tinyConfig(0, 2);
  S Scheme(C, countingDeleter<S>, &Freed);
  auto G0 = enterAndRead(Scheme, 0);
  Scheme.leave(G0);
  // Retire through a guard that already left its slot... not allowed by
  // the API; instead: the only active slot is the retirer's own, which is
  // dereferenced on its leave.
  auto G = enterAndRead(Scheme, 0);
  retireBatch(Scheme, G, 3);
  Scheme.leave(G);
  EXPECT_EQ(Freed.load(), 3);
}

template <typename S> void trimAdvancesHandle() {
  std::atomic<int64_t> Freed{0};
  smr::Config C = tinyConfig(0, 2);
  S Scheme(C, countingDeleter<S>, &Freed);

  auto Reader = enterAndRead(Scheme, 0);
  auto Writer = enterAndRead(Scheme, 1);
  retireBatch(Scheme, Writer, 3);
  retireBatch(Scheme, Writer, 3);
  Scheme.leave(Writer);
  EXPECT_EQ(Freed.load(), 0);

  Scheme.trim(Reader);
  EXPECT_EQ(Freed.load(), 3);
  Scheme.leave(Reader);
  EXPECT_EQ(Freed.load(), 6);
}

template <typename S> class SingleListCore : public ::testing::Test {};
using SingleListSchemes = ::testing::Types<Hyaline1, Hyaline1S>;
TYPED_TEST_SUITE(SingleListCore, SingleListSchemes, SchemeNames);

TYPED_TEST(SingleListCore, HandshakeAndInsertCounting) {
  handshakeAndInsertCounting<TypeParam>();
}
TYPED_TEST(SingleListCore, RetireWithNoActiveSlotsFreesImmediately) {
  retireWithNoActiveSlotsFreesImmediately<TypeParam>();
}
TYPED_TEST(SingleListCore, TrimAdvancesHandle) {
  trimAdvancesHandle<TypeParam>();
}

TEST(HyalineCore, ConcurrentTrimmers) {
  // Long-lived readers that only ever trim() must not break reclamation
  // accounting, and everything must free at quiescence (Appendix B's
  // quiescent-state usage).
  std::atomic<int64_t> Freed{0};
  int64_t Allocated = 0;
  {
    smr::Config C = tinyConfig(2, 8);
    Hyaline S(C, countingDeleter<Hyaline>, &Freed);
    std::atomic<bool> Stop{false};
    std::vector<std::thread> Ts;
    // 4 writers churn batches; 4 trimming readers never leave until the
    // end.
    for (unsigned W = 0; W < 4; ++W)
      Ts.emplace_back([&, W] {
        for (int R = 0; R < 500; ++R) {
          auto G = S.enter(W);
          retireBatch(S, G, 3);
          S.leave(G);
        }
      });
    for (unsigned T = 4; T < 8; ++T)
      Ts.emplace_back([&, T] {
        auto G = S.enter(T);
        while (!Stop.load(std::memory_order_relaxed))
          S.trim(G);
        S.leave(G);
      });
    for (unsigned W = 0; W < 4; ++W)
      Ts[W].join();
    Stop.store(true);
    for (unsigned T = 4; T < 8; ++T)
      Ts[T].join();
    Allocated = S.memCounter().allocated();
  }
  EXPECT_EQ(Freed.load(), Allocated);
  EXPECT_EQ(Allocated, 4 * 500 * 3);
}

TEST(HyalineCore, RegionRaiiWrapsEnterLeave) {
  std::atomic<int64_t> Freed{0};
  lfsmr::domain<Hyaline> D(tinyConfig(2, 4), countingDeleter<Hyaline>,
                           &Freed);
  {
    auto G = D.enter(0);
    retireBatch(D.scheme(), G.native(), 3);
  } // the guard leaves here
  EXPECT_EQ(Freed.load(), 3);
}

TEST(HyalineCore, ManyThreadsManySlotsEventualReclamation) {
  std::atomic<int64_t> Freed{0};
  int64_t Allocated = 0;
  {
    smr::Config C = tinyConfig(8, 16);
    C.MinBatch = 16;
    Hyaline S(C, countingDeleter<Hyaline>, &Freed);
    std::vector<std::thread> Ts;
    for (unsigned T = 0; T < 16; ++T)
      Ts.emplace_back([&, T] {
        for (int R = 0; R < 200; ++R) {
          auto G = S.enter(T);
          retireBatch(S, G, 5);
          S.leave(G);
        }
      });
    for (auto &T : Ts)
      T.join();
    Allocated = S.memCounter().allocated();
  }
  EXPECT_EQ(Freed.load(), Allocated);
  EXPECT_EQ(Allocated, 16 * 200 * 5);
}

} // namespace
