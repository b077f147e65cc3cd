//===- core/hyaline1.cpp - Single-list Hyaline (Hyaline-1, -1S) -----------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "core/hyaline1.h"

#include <cassert>

using namespace lfsmr;
using namespace lfsmr::core;
using namespace lfsmr::smr;

template <bool Robust>
SingleList<Robust>::SingleList(const Config &C, Deleter Free, void *FreeCtx)
    : Base(C, Free, FreeCtx),
      Slots(new CachePadded<SlotState>[C.MaxThreads]) {}

template <bool Robust> SingleList<Robust>::~SingleList() {
#ifndef NDEBUG
  for (std::size_t I = 0; I < slots(); ++I) {
    const uint64_t H = Slots[I]->H.load(std::memory_order_relaxed);
    assert(!PackedHead::isActive(H) && !PackedHead::pointer(H) &&
           "Hyaline-1 destroyed while threads are still inside operations");
  }
#endif
}

template <bool Robust>
auto SingleList<Robust>::enter(ThreadId Tid) -> Guard {
  assert(Tid < slots() && "thread id out of range (1:1 thread:slot)");
  // A plain store suffices: the slot can only be {inactive, null} here
  // (our own previous leave emptied it and retirers skip inactive slots),
  // so no concurrent CAS can succeed between then and now. seq_cst makes
  // the activation visible before any pointer this operation reads, which
  // recent compilers lower to xchg (the cost comparison in Section 3.2).
  Slots[Tid]->H.store(PackedHead::pack(true, nullptr),
                      std::memory_order_seq_cst);
  return Guard{Tid, Tid, nullptr};
}

template <bool Robust> void SingleList<Robust>::leave(Guard &G) {
  const uint64_t Old = Slots[G.Slot]->H.exchange(
      PackedHead::pack(false, nullptr), std::memory_order_acq_rel);
  assert(PackedHead::isActive(Old) && "leave without a matching enter");
  // Unlike Hyaline, the whole detached list is dereferenced including its
  // first node: there is no HRef to carry the head node's count.
  if (HyalineNode *List = PackedHead::pointer(Old))
    this->traverse(List, G.Handle);
  G.Handle = nullptr;
}

template <bool Robust> void SingleList<Robust>::trim(Guard &G) {
  const uint64_t Old = Slots[G.Slot]->H.load(std::memory_order_acquire);
  HyalineNode *Curr = PackedHead::pointer(Old);
  if (!Curr || Curr == G.Handle)
    return;
  // The head node stays in place: the eventual leave's swap dereferences
  // it, so trim must skip it (Figure 15).
  this->traverse(Curr->next(std::memory_order_acquire), G.Handle);
  G.Handle = Curr;
}

template <bool Robust>
uintptr_t SingleList<Robust>::protect(Guard &G,
                                      const std::atomic<uintptr_t> &Src)
  requires Robust
{
  // 1:1 thread-to-slot: a plain store replaces Hyaline-S's CAS-max
  // (Figure 9, line 20 note).
  return this->Clock.protect(Src, Slots[G.Slot]->Access);
}

template <bool Robust> bool SingleList<Robust>::publishBatch(LocalBatch &B) {
  B.seal();
  B.RefNode->setNRef(0, std::memory_order_relaxed);

  // Figure 8: count successful insertions instead of the Adjs arithmetic —
  // each inserted carrier is dereferenced exactly once, by the slot owner.
  uint64_t Inserts = 0;
  HyalineNode *CurrNode = B.First;

  for (std::size_t I = 0; I < slots(); ++I) {
    SlotState &S = *Slots[I];
    uint64_t Old = S.H.load(std::memory_order_acquire);
    bool Inserted = false;
    do {
      // Skip inactive slots (the owner holds no references) and (robust)
      // slots whose access era proves their owner never dereferenced any
      // node of this batch (Figure 9, line 14) — this is what makes
      // stalled owners harmless.
      if (!PackedHead::isActive(Old) || this->predates(S, B.MinBirth))
        break;
      CurrNode->setNext(PackedHead::pointer(Old), std::memory_order_relaxed);
      Inserted = S.H.compare_exchange_weak(
          Old, PackedHead::pack(true, CurrNode), std::memory_order_acq_rel,
          std::memory_order_acquire);
    } while (!Inserted);
    if (!Inserted)
      continue;
    ++Inserts;
    CurrNode = CurrNode->BatchNext;
    assert(CurrNode != B.First && "batch ran out of slot-carrier nodes");
  }
  // Frees immediately when Inserts == 0, or when every owner has already
  // dereferenced its copy (NRef was -Inserts mod 2^64).
  this->adjust(B.First, Inserts);
  return true;
}

template class lfsmr::core::SingleList<false>;
template class lfsmr::core::SingleList<true>;
