//===- core/hyaline_base.h - Shared Hyaline reclamation core -----*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The code every Hyaline variant shares: thread-local batching and the
/// `retire` that publishes a batch once it holds `max(MinBatch, k+1)`
/// nodes, the reference-count adjustment, retirement-list traversal and
/// batch freeing (paper Figure 7, lines 20-22 and 40-48), and, in the
/// robust variants, the allocation-era clock (Figure 9, lines 16-18).
///
/// The variants themselves are two class templates deriving from this
/// one (CRTP, no virtual dispatch): `MultiList` (core/hyaline.h, Figure 7
/// and, when robust, Figures 9-10) and `SingleList` (core/hyaline1.h,
/// Figure 8 and, when robust, Figure 9). They differ in head
/// representation, slot management, and batch publication, but batch and
/// dereference the same way.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_CORE_HYALINE_BASE_H
#define LFSMR_CORE_HYALINE_BASE_H

#include "core/hyaline_node.h"
#include "smr/list_reclaimer.h"
#include "smr/smr.h"
#include "support/align.h"
#include "support/mem_counter.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <type_traits>

namespace lfsmr::core {

/// Common state and batch-dereferencing helpers for the Hyaline family.
/// \tparam Derived the variant (it provides `slots()`, `publishBatch` and,
///         when robust, the era-protected read `protect`).
/// \tparam Robust whether nodes carry birth eras (Hyaline-S, Hyaline-1S).
template <typename Derived, bool Robust> class HyalineBase {
public:
  using NodeHeader = HyalineNode;

  /// Per-operation state: the slot entered (the thread's own slot in the
  /// single-list variants) and the list handle (the paper's per-thread
  /// `Handle`; null in the single-list variants except after trim).
  struct Guard {
    smr::ThreadId Tid;
    unsigned Slot;
    HyalineNode *Handle;
  };

  HyalineBase(const HyalineBase &) = delete;
  HyalineBase &operator=(const HyalineBase &) = delete;

  /// Accounting for this scheme instance.
  const MemCounter &memCounter() const { return Counter; }

  /// Frees a node that was never published into any shared structure
  /// (e.g. a speculative copy discarded after a failed CAS). No other
  /// thread can hold a reference, so no reclamation protocol is needed.
  void discard(HyalineNode *Node) {
    Free(Node, FreeCtx);
    // Counted as an (instant) retire+free so the accounting
    // invariant "live == allocated - retired" holds for tests.
    Counter.onRetire();
    Counter.onFree();
  }

  /// Protected pointer read. The non-robust variants protect whole
  /// operations, not individual pointers, so this is a plain acquire
  /// load; the robust ones raise the slot's access era first (Figure 9,
  /// lines 5-11).
  template <typename T>
  T *deref(Guard &G, const std::atomic<T *> &Src, unsigned /*Idx*/) {
    if constexpr (Robust)
      return reinterpret_cast<T *>(self().protect(
          G, reinterpret_cast<const std::atomic<uintptr_t> &>(Src)));
    else
      return Src.load(std::memory_order_acquire);
  }

  /// \copydoc deref
  uintptr_t derefLink(Guard &G, const std::atomic<uintptr_t> &Src,
                      unsigned /*Idx*/) {
    if constexpr (Robust)
      return self().protect(G, Src);
    else
      return Src.load(std::memory_order_acquire);
  }

  /// Counts the allocation (no birth era in the non-robust variants).
  void initNode(Guard &, NodeHeader *)
    requires(!Robust)
  {
    Counter.onAlloc();
  }

  /// Stamps the node's birth era; ticks the era clock every EraFreq
  /// allocations of the calling thread (Figure 9, lines 16-18).
  void initNode(Guard &G, NodeHeader *Node)
    requires Robust;

  /// Appends \p Node to the calling thread's local batch; once the batch
  /// holds batchThreshold() nodes, publishes it to the active slots
  /// (Figure 7, lines 23-39).
  void retire(Guard &G, NodeHeader *Node);

  /// Effective batch-publication threshold `max(MinBatch, k+1)` for the
  /// current `k`: a batch carries one list link per slot plus the NRef
  /// node.
  std::size_t batchThreshold() const {
    return std::max<std::size_t>(MinBatch, self().slots() + 1);
  }

  /// Current era clock (exposed for tests and stats).
  uint64_t currentEra() const
    requires Robust
  {
    return Clock.load(std::memory_order_acquire);
  }

protected:
  HyalineBase(const smr::Config &C, smr::Deleter Free, void *FreeCtx);

  /// Frees nodes still sitting in thread-local batches. All guards must
  /// have been left: at quiescence every published batch has already been
  /// reclaimed (reference counts reach zero eagerly).
  ~HyalineBase();

  Derived &self() { return static_cast<Derived &>(*this); }
  const Derived &self() const { return static_cast<const Derived &>(*this); }

  /// FAA(NRef, Val); frees the batch when the counter reaches zero
  /// (Figure 7, lines 20-22: the old value equals -Val mod 2^64).
  void adjust(HyalineNode *Node, uint64_t Val) {
    HyalineNode *Ref = Node->refNode();
    const uint64_t Old = Ref->fetchAddNRef(Val, std::memory_order_acq_rel);
    if (Old + Val == 0)
      freeBatch(Ref);
  }

  /// Dereferences nodes from \p From through \p Handle inclusive
  /// (Figure 7, lines 40-48). Returns the number of nodes visited, which
  /// Hyaline-S subtracts from the slot's Ack counter.
  std::size_t traverse(HyalineNode *From, HyalineNode *Handle) {
    std::size_t Visited = 0;
    HyalineNode *Curr = From;
    while (Curr) {
      // Read the link before the decrement: once the counter drops,
      // another thread may free the batch.
      HyalineNode *Next = Curr->next(std::memory_order_acquire);
      HyalineNode *Ref = Curr->refNode();
      ++Visited;
      const uint64_t Old =
          Ref->fetchAddNRef(uint64_t(0) - 1, std::memory_order_acq_rel);
      if (Old == 1)
        freeBatch(Ref);
      if (Curr == Handle)
        break;
      Curr = Next;
    }
    return Visited;
  }

  /// Frees every node of the batch whose NRef node is \p Ref, walking the
  /// cyclic BatchNext chain.
  void freeBatch(HyalineNode *Ref) {
    int64_t Freed = 0;
    HyalineNode *N = Ref->BatchNext; // the first node of the batch
    while (N != Ref) {
      HyalineNode *Next = N->BatchNext;
      Free(N, FreeCtx);
      ++Freed;
      N = Next;
    }
    Free(Ref, FreeCtx);
    Counter.onFree(Freed + 1);
  }

  /// Figure 9, line 14: true when slot \p S's access era proves none of
  /// its threads ever dereferenced a node born at or after \p MinBirth,
  /// so a batch with that minimum birth era skips the slot. Never true in
  /// the non-robust variants.
  template <typename SlotState>
  static bool predates(const SlotState &S, uint64_t MinBirth) {
    if constexpr (Robust)
      return S.Access.load(std::memory_order_seq_cst) < MinBirth;
    else
      return false;
  }

  /// Stands in for the era clock in the non-robust variants.
  struct NoEraClock {
    explicit NoEraClock(unsigned) {}
  };

  struct PerThread {
    LocalBatch Batch;
    uint64_t AllocCounter = 0; ///< allocations left before the era tick
  };

  const smr::Deleter Free;
  void *const FreeCtx;
  MemCounter Counter;
  const std::size_t MinBatch;
  const unsigned MaxThreads;
  std::unique_ptr<CachePadded<PerThread>[]> Threads;
  /// Figure 9's global allocation-era clock (robust variants only).
  [[no_unique_address]] std::conditional_t<Robust, smr::EraClock, NoEraClock>
      Clock;
};

} // namespace lfsmr::core

#endif // LFSMR_CORE_HYALINE_BASE_H
