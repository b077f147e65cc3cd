//===- core/hyaline_s.cpp - Hyaline-S (robust) ----------------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "core/hyaline_s.h"

#include "support/trace.h"
#include <cassert>
#include <thread>

using namespace lfsmr;
using namespace lfsmr::core;
using namespace lfsmr::smr;

static std::size_t resolveKMin(const Config &C) {
  unsigned Want = C.Slots;
  if (Want == 0)
    Want = std::thread::hardware_concurrency();
  if (Want == 0)
    Want = 1;
  return nextPowerOfTwo(Want);
}

HyalineS::HyalineS(const Config &C, Deleter Free, void *FreeCtx)
    : HyalineBase(Free, FreeCtx), MinBatch(C.MinBatch), EraFreq(C.EraFreq),
      AckThreshold(C.AckThreshold), MaxThreads(C.MaxThreads),
      Dir(resolveKMin(C)), Threads(new CachePadded<PerThread>[C.MaxThreads]) {
}

HyalineS::~HyalineS() {
  for (unsigned I = 0; I < MaxThreads; ++I)
    freeLocalBatch(Threads[I]->Batch);
#ifndef NDEBUG
  const std::size_t K = Dir.capacity();
  for (std::size_t I = 0; I < K; ++I) {
    const Head H = Dir.slot(I)->H.load();
    assert(H.Ref == 0 && H.Ptr == nullptr &&
           "Hyaline-S destroyed while threads are still inside operations");
  }
#endif
}

HyalineS::Guard HyalineS::enter(ThreadId Tid) {
  assert(Tid < MaxThreads && "thread id out of range");
  std::size_t Slot = Tid;
  while (true) {
    const std::size_t K = Dir.capacity();
    Slot &= K - 1;
    // Figure 9, lines 25-27: skip slots whose Ack counter says a stalled
    // thread is pinning them.
    bool Found = false;
    for (std::size_t Scanned = 0; Scanned < K; ++Scanned) {
      if (Dir.slot(Slot)->Ack.load(std::memory_order_relaxed) < AckThreshold) {
        Found = true;
        break;
      }
      Slot = (Slot + 1) & (K - 1);
    }
    if (Found)
      break;
    // Section 4.3: every slot looks stalled — double the slot count.
    Dir.grow(K);
  }

  DWAtomicHead &H = Dir.slot(Slot)->H;
  Head Old = H.load();
  while (!H.compareExchange(Old, Head{Old.Ref + 1, Old.Ptr})) {
  }
  return Guard{Tid, Slot, Old.Ptr};
}

void HyalineS::leave(Guard &G) {
  SlotState &S = *Dir.slot(G.Slot);
  Head Old = S.H.load();
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
    New.Ptr = (Old.Ref == 1) ? nullptr : Curr;
    New.Ref = Old.Ref - 1;
  } while (!S.H.compareExchange(Old, New));
  if (Old.Ref == 1 && Curr) {
    // Per-batch Adjs (Section 4.3): read it from the batch's NRef node.
    adjust(Curr, Curr->refNode()->batchAdjs());
  }
  if (Curr != G.Handle) {
    const std::size_t Visited = traverse(Next, G.Handle);
    // Figure 9, lines 28-31: acknowledge the batches we dereferenced.
    S.Ack.fetch_sub(static_cast<int64_t>(Visited), std::memory_order_relaxed);
  }
  G.Handle = nullptr;
}

void HyalineS::trim(Guard &G) {
  SlotState &S = *Dir.slot(G.Slot);
  const Head H = S.H.load();
  HyalineNode *Curr = H.Ptr;
  if (Curr == G.Handle)
    return;
  assert(Curr && "head cannot be null while our handle is newer");
  const std::size_t Visited =
      traverse(Curr->next(std::memory_order_acquire), G.Handle);
  S.Ack.fetch_sub(static_cast<int64_t>(Visited), std::memory_order_relaxed);
  G.Handle = Curr;
}

uintptr_t HyalineS::derefLink(Guard &G, const std::atomic<uintptr_t> &Src,
                              unsigned /*Idx*/) {
  SlotState &S = *Dir.slot(G.Slot);
  uint64_t Access = S.Access.load(std::memory_order_seq_cst);
  while (true) {
    // Figure 9, lines 7-11. The pointer must be re-read after every era
    // update: only a load made while the slot era already matched the
    // global era is protected.
    const uintptr_t Value = Src.load(std::memory_order_acquire);
    const uint64_t Alloc = AllocEra.load(std::memory_order_seq_cst);
    if (Access == Alloc)
      return Value;
    Access = touch(S, Alloc);
  }
}

uint64_t HyalineS::touch(SlotState &S, uint64_t Era) {
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

void HyalineS::initNode(Guard &G, NodeHeader *Node) {
  PerThread &T = *Threads[G.Tid];
  if (++T.AllocCounter % EraFreq == 0) {
    [[maybe_unused]] const auto NewEra =
        AllocEra.fetch_add(1, std::memory_order_acq_rel) + 1;
    LFSMR_TRACE_EVENT(telemetry::TraceEvent::EraAdvance, NewEra);
  }
  Node->setBirthEra(AllocEra.load(std::memory_order_acquire));
  Counter.onAlloc();
}

void HyalineS::retire(Guard &G, NodeHeader *Node) {
  assert(G.Tid < MaxThreads && "thread id out of range");
  LocalBatch &B = Threads[G.Tid]->Batch;
  B.append(Node, Node->birthEra());
  Counter.onRetire();
  const std::size_t Threshold =
      std::max<std::size_t>(MinBatch, Dir.capacity() + 1);
  if (B.Size >= Threshold && publishBatch(B))
    B.reset();
}

bool HyalineS::publishBatch(LocalBatch &B) {
  // Re-read k: it may have grown since the threshold check. A concurrent
  // grow right after this read is harmless — threads entering new slots
  // take their handle from an empty head and need not see this batch
  // (Section 4.3).
  const std::size_t K = Dir.capacity();
  if (B.Size < K + 1)
    return false; // not enough carrier nodes yet; keep accumulating
  const uint64_t Adjs = adjsForSlots(K);

  B.seal();
  B.RefNode->setBatchAdjs(Adjs); // Section 4.3: per-batch Adjs
  B.RefNode->setNRef(0, std::memory_order_relaxed);

  bool DoAdj = false;
  uint64_t Empty = 0;
  HyalineNode *CurrNode = B.First;

  for (std::size_t Slot = 0; Slot < K; ++Slot) {
    SlotState &S = *Dir.slot(Slot);
    Head Old = S.H.load();
    bool Inserted = false;
    do {
      // Figure 9, line 14: skip inactive slots and slots whose access era
      // proves none of their threads ever dereferenced a batch node.
      if (Old.Ref == 0 ||
          S.Access.load(std::memory_order_seq_cst) < B.MinBirth) {
        DoAdj = true;
        Empty += Adjs;
        break;
      }
      CurrNode->setNext(Old.Ptr, std::memory_order_relaxed);
      Inserted = S.H.compareExchange(Old, Head{Old.Ref, CurrNode});
    } while (!Inserted);
    if (!Inserted)
      continue;
    CurrNode = CurrNode->BatchNext;
    assert(CurrNode != B.First && "batch ran out of slot-carrier nodes");
    if (Old.Ptr) {
      adjust(Old.Ptr, Old.Ptr->refNode()->batchAdjs() + Old.Ref);
      // Figure 9, line 15: charge Ack when a batch covers a node. Exactly
      // the Old.Ref threads charged to Old.Ptr's NRef above traverse it
      // later, once each, so Ack equals the traversals still owed. An
      // insertion into an empty list covers nothing: its node is settled
      // through adjust(Curr, Adjs) in leave and never traversed.
      S.Ack.fetch_add(static_cast<int64_t>(Old.Ref),
                      std::memory_order_relaxed);
    }
  }
  if (DoAdj)
    adjust(B.First, Empty);
  return true;
}
