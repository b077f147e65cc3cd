//===- core/hyaline.cpp - The shared core and multiple-list Hyaline -------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "core/hyaline.h"
#include "core/hyaline1.h"

#include <cassert>
#include <thread>

using namespace lfsmr;
using namespace lfsmr::core;
using namespace lfsmr::smr;

//===----------------------------------------------------------------------===//
// HyalineBase

template <typename Derived, bool Robust>
HyalineBase<Derived, Robust>::HyalineBase(const Config &C, Deleter Free,
                                          void *FreeCtx)
    : Free(Free), FreeCtx(FreeCtx), MinBatch(C.MinBatch),
      MaxThreads(C.MaxThreads),
      Threads(new CachePadded<PerThread>[C.MaxThreads]), Clock{C.EraFreq} {
  assert(Free && "Hyaline requires a deleter");
}

template <typename Derived, bool Robust>
HyalineBase<Derived, Robust>::~HyalineBase() {
  // Published batches have all been reclaimed at quiescence; only the
  // thread-local accumulators can still hold nodes. Their BatchNext cycle
  // is not closed yet: the chain ends at RefNode.
  for (unsigned I = 0; I < MaxThreads; ++I) {
    LocalBatch &B = Threads[I]->Batch;
    for (HyalineNode *N = B.First; N;) {
      HyalineNode *Next = (N == B.RefNode) ? nullptr : N->BatchNext;
      Free(N, FreeCtx);
      Counter.onFree();
      N = Next;
    }
  }
}

template <typename Derived, bool Robust>
void HyalineBase<Derived, Robust>::initNode(Guard &G, NodeHeader *Node)
  requires Robust
{
  Node->setBirthEra(Clock.birth(Threads[G.Tid]->AllocCounter));
  Counter.onAlloc();
}

template <typename Derived, bool Robust>
void HyalineBase<Derived, Robust>::retire(Guard &G, NodeHeader *Node) {
  assert(G.Tid < MaxThreads && "thread id out of range");
  LocalBatch &B = Threads[G.Tid]->Batch;
  B.append(Node, Robust ? Node->birthEra() : 0);
  Counter.onRetire();
  if (B.Size >= batchThreshold() && self().publishBatch(B))
    B.reset();
}

//===----------------------------------------------------------------------===//
// MultiList

static std::size_t resolveSlots(const Config &C) {
  unsigned Want = C.Slots;
  if (Want == 0)
    Want = std::thread::hardware_concurrency();
  if (Want == 0)
    Want = 1;
  return nextPowerOfTwo(Want);
}

template <typename HeadCodec, bool Robust>
MultiList<HeadCodec, Robust>::MultiList(const Config &C, Deleter Free,
                                        void *FreeCtx)
    : Base(C, Free, FreeCtx), Slots(resolveSlots(C)),
      Adjs(adjsForSlots(Slots.capacity())), AckThreshold(C.AckThreshold) {}

template <typename HeadCodec, bool Robust>
MultiList<HeadCodec, Robust>::~MultiList() {
#ifndef NDEBUG
  for (std::size_t I = 0; I < Slots.capacity(); ++I) {
    const Head H = HeadCodec::load(slot(I).H);
    assert(H.Ref == 0 && H.Ptr == nullptr &&
           "Hyaline destroyed while threads are still inside operations");
  }
#endif
}

template <typename HeadCodec, bool Robust>
auto MultiList<HeadCodec, Robust>::enter(ThreadId Tid) -> Guard {
  assert(Tid < this->MaxThreads && "thread id out of range");
  std::size_t Slot = Tid;
  if constexpr (!Robust) {
    Slot &= Slots.capacity() - 1;
  } else {
    while (true) {
      const std::size_t K = Slots.capacity();
      Slot &= K - 1;
      // Figure 9, lines 25-27: skip slots whose Ack counter says a
      // stalled thread is pinning them.
      bool Found = false;
      for (std::size_t Scanned = 0; Scanned < K; ++Scanned) {
        if (slot(Slot).Ack.load(std::memory_order_relaxed) < AckThreshold) {
          Found = true;
          break;
        }
        Slot = (Slot + 1) & (K - 1);
      }
      if (Found)
        break;
      // Section 4.3: every slot looks stalled — double the slot count.
      Slots.grow(K);
    }
  }
  const Head Old = HeadCodec::enter(slot(Slot).H);
  return Guard{Tid, static_cast<unsigned>(Slot), Old.Ptr};
}

template <typename HeadCodec, bool Robust>
void MultiList<HeadCodec, Robust>::leave(Guard &G) {
  SlotState &S = slot(G.Slot);
  Head Old = HeadCodec::load(S.H);
  HyalineNode *Curr = nullptr;
  HyalineNode *Next = nullptr;
  Head New;
  do {
    assert(Old.Ref >= 1 && "leave without a matching enter");
    Curr = Old.Ptr;
    if (Curr != G.Handle) {
      assert(Curr && "head cannot be null while our handle is newer");
      Next = Curr->next(std::memory_order_acquire);
    }
    // The last thread out empties the list and accounts for the head node
    // below, treating it as a predecessor (Figure 7 lines 13, 16-17).
    New.Ptr = (Old.Ref == 1) ? nullptr : Curr;
    New.Ref = Old.Ref - 1;
  } while (!HeadCodec::compareExchange(S.H, Old, New));
  if (Old.Ref == 1 && Curr)
    this->adjust(Curr, adjsOf(Curr));
  if (Curr != G.Handle)
    acknowledge(S, this->traverse(Next, G.Handle));
  G.Handle = nullptr;
}

template <typename HeadCodec, bool Robust>
void MultiList<HeadCodec, Robust>::trim(Guard &G) {
  // Appendix B, Figure 15: dereference batches retired since enter (or the
  // previous trim) without touching Head. The current head node stays: its
  // references are tracked through HRef until it is displaced.
  SlotState &S = slot(G.Slot);
  HyalineNode *Curr = HeadCodec::load(S.H).Ptr;
  if (Curr == G.Handle)
    return;
  assert(Curr && "head cannot be null while our handle is newer");
  acknowledge(S,
              this->traverse(Curr->next(std::memory_order_acquire), G.Handle));
  G.Handle = Curr;
}

template <typename HeadCodec, bool Robust>
uintptr_t MultiList<HeadCodec, Robust>::protect(
    Guard &G, const std::atomic<uintptr_t> &Src)
  requires Robust
{
  // Threads share the slot, so a newer era is reserved by CAS-max.
  SlotState &S = slot(G.Slot);
  return this->Clock.protect(Src, S.Access.load(std::memory_order_seq_cst),
                             [&S](uint64_t Era) { return touch(S, Era); });
}

template <typename HeadCodec, bool Robust>
uint64_t MultiList<HeadCodec, Robust>::touch(SlotState &S, uint64_t Era)
  requires Robust
{
  // CAS-max (Figure 9, lines 19-24): eras shared by all threads of the
  // slot must only grow.
  uint64_t Access = S.Access.load(std::memory_order_seq_cst);
  while (Access < Era) {
    if (S.Access.compare_exchange_weak(Access, Era, std::memory_order_seq_cst,
                                       std::memory_order_seq_cst))
      return Era;
  }
  return Access;
}

template <typename HeadCodec, bool Robust>
bool MultiList<HeadCodec, Robust>::publishBatch(LocalBatch &B) {
  const std::size_t K = Slots.capacity();
  uint64_t BatchAdjs = Adjs;
  if constexpr (Robust) {
    // Re-read k: it may have grown since the threshold check. A concurrent
    // grow right after this read is harmless — threads entering new slots
    // take their handle from an empty head and need not see this batch
    // (Section 4.3).
    if (B.Size < K + 1)
      return false; // not enough carrier nodes yet; keep accumulating
    BatchAdjs = adjsForSlots(K);
  }

  B.seal();
  if constexpr (Robust)
    B.RefNode->setBatchAdjs(BatchAdjs); // Section 4.3: per-batch Adjs
  B.RefNode->setNRef(0, std::memory_order_relaxed);

  bool DoAdj = false;
  uint64_t Empty = 0;
  HyalineNode *CurrNode = B.First;

  for (std::size_t I = 0; I < K; ++I) {
    SlotState &S = slot(I);
    Head Old = HeadCodec::load(S.H);
    bool Inserted = false;
    do {
      // Slot has no active threads, or (robust) its access era proves none
      // of them ever dereferenced a batch node: account for it directly
      // (Figure 7 lines 30-32, Figure 9 line 14). A torn read cannot fake
      // an empty slot: the Ref half is loaded atomically and zero means
      // the slot really was empty after every node of this batch had been
      // unlinked.
      if (Old.Ref == 0 || this->predates(S, B.MinBirth)) {
        DoAdj = true;
        Empty += BatchAdjs;
        break;
      }
      CurrNode->setNext(Old.Ptr, std::memory_order_relaxed);
      Inserted = HeadCodec::compareExchange(S.H, Old, Head{Old.Ref, CurrNode});
    } while (!Inserted);
    if (!Inserted)
      continue;
    CurrNode = CurrNode->BatchNext;
    assert(CurrNode != B.First && "batch ran out of slot-carrier nodes");
    // Displace the predecessor: transfer the HRef snapshot into its NRef
    // and mark this slot's insertion with Adjs (Figure 7 line 38; see
    // Figure 3 for the counter-propagation picture). An empty list has no
    // predecessor; our node's own insertion is accounted for when it is
    // displaced in turn, or by the last leaver.
    if (Old.Ptr) {
      this->adjust(Old.Ptr, adjsOf(Old.Ptr) + Old.Ref);
      // Figure 9, line 15: charge Ack when a batch covers a node. Exactly
      // the Old.Ref threads charged to Old.Ptr's NRef above traverse it
      // later, once each, so Ack equals the traversals still owed. An
      // insertion into an empty list covers nothing: its node is settled
      // through adjust(Curr, Adjs) in leave and never traversed.
      if constexpr (Robust)
        S.Ack.fetch_add(static_cast<int64_t>(Old.Ref),
                        std::memory_order_relaxed);
    }
  }
  if (DoAdj)
    this->adjust(B.First, Empty);
  return true;
}

// The definitions live only in this file and hyaline1.cpp, so call sites
// see declarations and call these out of line.
template class lfsmr::core::HyalineBase<MultiList<DwHead, false>, false>;
template class lfsmr::core::HyalineBase<MultiList<PackedRefHead, false>, false>;
template class lfsmr::core::HyalineBase<MultiList<DwHead, true>, true>;
template class lfsmr::core::HyalineBase<SingleList<false>, false>;
template class lfsmr::core::HyalineBase<SingleList<true>, true>;
template class lfsmr::core::MultiList<DwHead, false>;
template class lfsmr::core::MultiList<PackedRefHead, false>;
template class lfsmr::core::MultiList<DwHead, true>;
