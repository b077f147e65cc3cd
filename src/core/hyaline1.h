//===- core/hyaline1.h - Single-list Hyaline (Hyaline-1, -1S) ----*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hyaline-1, the single-width-CAS specialization (Section 3.2 and
/// Figure 8): every thread owns a unique slot, so `HRef` degenerates to a
/// single bit merged into the head word. `enter` is a plain store and
/// `leave` a swap — both wait-free. Batch accounting replaces the Adjs
/// trick with a simple count of the slots the batch was inserted into
/// (`Inserts`), because the retirer no longer races with other threads'
/// enters on the same slot.
///
/// Trade-off versus Hyaline (paper Section 4.4): portable to every
/// architecture with single-width CAS, but only *partially* transparent —
/// a slot is needed per concurrent thread, so the slot array scales with
/// MaxThreads rather than with the core count.
///
/// Hyaline-1S (Section 4.2, Figure 9) is the same algorithm with `Robust`
/// set: birth eras for robustness. With a 1:1 thread-to-slot mapping the
/// access era needs no CAS-max (a plain store) and no Ack counters: a
/// stalled thread only pins its own slot, whose retirement list nobody
/// else depends on, and `retire` skips that slot as soon as its access era
/// goes stale. The number of unreclaimable nodes is therefore bounded
/// (Theorem 5) and the scheme is fully robust.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_CORE_HYALINE1_H
#define LFSMR_CORE_HYALINE1_H

#include "core/hyaline_base.h"
#include "core/hyaline_head.h"
#include "core/hyaline_node.h"
#include "smr/smr.h"
#include "support/align.h"

#include <atomic>
#include <memory>
#include <type_traits>

namespace lfsmr::core {

/// The one-slot-per-thread Hyaline scheme (Figure 8), robust when
/// \p Robust (Figure 9).
template <bool Robust>
class SingleList : public HyalineBase<SingleList<Robust>, Robust> {
  using Base = HyalineBase<SingleList, Robust>;
  friend Base;

public:
  using typename Base::Guard;

  /// \p Free is invoked (with \p FreeCtx) for every reclaimed node.
  SingleList(const smr::Config &C, smr::Deleter Free, void *FreeCtx);
  ~SingleList();

  /// Wait-free: marks the thread's own slot active with a plain store
  /// (Figure 8, lines 1-3).
  Guard enter(smr::ThreadId Tid);

  /// Wait-free publication: swaps the slot empty and dereferences the
  /// whole detached list (Figure 8, lines 4-6).
  void leave(Guard &G);

  /// Appendix B: dereferences batches retired so far without detaching
  /// the list head; advances the handle.
  void trim(Guard &G);

  /// Number of slots (== MaxThreads, 1:1 thread-to-slot).
  std::size_t slots() const { return this->MaxThreads; }

private:
  struct PlainSlot {
    std::atomic<uint64_t> H{0}; ///< PackedHead word
  };
  struct RobustSlot {
    std::atomic<uint64_t> H{0};
    std::atomic<uint64_t> Access{0};
  };
  using SlotState = std::conditional_t<Robust, RobustSlot, PlainSlot>;

  /// Publishes a sealed batch to every active slot (Figure 8); always
  /// succeeds.
  bool publishBatch(LocalBatch &B);

  /// Era-protected read; raises the thread's own access era with a plain
  /// store (Figure 9, line 20 note).
  uintptr_t protect(Guard &G, const std::atomic<uintptr_t> &Src)
    requires Robust;

  std::unique_ptr<CachePadded<SlotState>[]> Slots;
};

// Classes rather than aliases, so each scheme keeps its own type name.

/// The one-slot-per-thread Hyaline variant (Figure 8).
class Hyaline1 : public SingleList<false> {
  using SingleList::SingleList;
};

/// The robust one-slot-per-thread Hyaline variant (Figure 9).
class Hyaline1S : public SingleList<true> {
  using SingleList::SingleList;
};

} // namespace lfsmr::core

#endif // LFSMR_CORE_HYALINE1_H
