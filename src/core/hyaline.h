//===- core/hyaline.h - Multiple-list Hyaline (Hyaline, -P, -S) --*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hyaline, the paper's primary scheme (Sections 3.2 and 4.1, Figure 7):
/// scalable multiple-list reference-counted reclamation, and the two
/// variants that keep its multiple lists.
///
/// Key ideas:
///  - Reference counters are used only while handling *retired* nodes;
///    ordinary reads and writes of data-structure nodes touch no counter
///    (unlike classical LFRC).
///  - All active threads participate in tracking retired nodes: enter
///    increments the slot's `HRef`; leave decrements it and walks the
///    sublist of batches retired during the operation, decrementing one
///    shared counter per batch. Whoever brings a counter to zero frees
///    the batch — reclamation is balanced across all threads.
///  - `Adjs = 2^64 / k` ensures a batch is only freeable after its
///    insertion into each of the `k` slots has been accounted for
///    (the adjustments sum to 0 mod 2^64).
///
/// Hyaline is *transparent*: threads need no registration; a thread is
/// "off the hook" the moment it leaves and never revisits retired nodes.
/// It is NOT robust — a stalled thread inside an operation pins every
/// batch retired after it entered.
///
/// Hyaline-S (Sections 4.2-4.3, Figures 9-10) is the same algorithm with
/// `Robust` set, which bounds memory usage under stalled threads at the
/// cost of wrapping pointer reads in `deref`. It adds exactly:
///  - a global allocation-era clock; every node carries a *birth era*
///    (stored in the shared header word until retirement; HyalineBase);
///  - per-slot *access eras* raised by `deref` (CAS-max, since multiple
///    threads share a slot); `retire` skips slots whose access era is
///    older than the batch's minimum birth era — threads there can never
///    have dereferenced any node of the batch;
///  - per-slot *Ack* counters, charged with the slot's HRef when a batch
///    covers a node and decremented by each node a traversal visits, so
///    Ack equals the traversals still owed: 0 at quiescence, growing only
///    while a thread of the slot stalls. A slot whose Ack passes a
///    threshold harbours a stalled thread and is avoided by `enter`.
///    (The paper's Ack is approximate and "may also be positive" at rest;
///    this count is exact, so a busy slot never drifts into looking
///    stalled);
///  - *adaptive resizing* (Figure 10): when every slot is deemed stalled,
///    the slot count doubles via a directory of slot arrays, so the scheme
///    stays fully robust with any number of stalled threads. The per-batch
///    `Adjs` then varies with `k`, so it is stored in the batch's NRef
///    node (in the header word that the NRef node does not otherwise use).
///
/// The `HeadCodec` parameter picks the slot head's encoding and nothing
/// else: `DwHead` (the paper's double-width tuple) or `PackedRefHead`
/// (the one-word Hyaline-P ablation).
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_CORE_HYALINE_H
#define LFSMR_CORE_HYALINE_H

#include "core/dwcas.h"
#include "core/hyaline_base.h"
#include "core/hyaline_head.h"
#include "core/hyaline_node.h"
#include "core/slot_directory.h"
#include "smr/smr.h"
#include "support/align.h"

#include <atomic>
#include <memory>
#include <type_traits>

namespace lfsmr::core {

/// The paper's double-width head `[HRef, HPtr]` (Figure 6), updated with
/// 16-byte CAS (core/dwcas.h).
struct DwHead {
  using Atomic = DWAtomicHead;

  /// Possibly torn; see core/dwcas.h for why every use tolerates that.
  static Head load(const Atomic &A) { return A.load(); }

  static bool compareExchange(Atomic &A, Head &Expected, Head Desired) {
    return A.compareExchange(Expected, Desired);
  }

  /// Figure 7 line 4: FAA on [HRef, HPtr]; x86 has no 128-bit FAA, so a
  /// CAS loop emulates it (the paper's artifact does the same). The
  /// initial load may be torn; a failing CAS returns the exact value.
  static Head enter(Atomic &A) {
    Head Old = A.load();
    while (!A.compareExchange(Old, Head{Old.Ref + 1, Old.Ptr})) {
    }
    return Old;
  }
};

/// Hyaline-P's head: the tuple squeezed into ONE machine word, as the
/// paper sketches for targets with neither double-width CAS nor LL/SC
/// (Section 2: "SPARC uses 54-bit virtual addresses; 48-bit cache-line
/// aligned pointers where lower 6 bits are 0s can be squeezed with 16-bit
/// counters").
///
/// Layout: [ HRef : 16 | HPtr : 48 ]. x86-64 user-space heap pointers fit
/// in 48 bits (a debug assert checks each pointer packed), and 16 bits
/// bound the number of threads concurrently inside one slot at 65535.
///
/// A bonus of the packed layout: `enter` becomes a single FAA on the high
/// bits — wait-free, like the paper's dFAA — instead of a CAS loop.
struct PackedRefHead {
  using Atomic = std::atomic<uint64_t>;

  static constexpr unsigned RefShift = 48;
  static constexpr uint64_t PtrMask = (uint64_t{1} << RefShift) - 1;
  static constexpr uint64_t RefOne = uint64_t{1} << RefShift;

  static uint64_t pack(Head H) {
    const uint64_t Raw = reinterpret_cast<uint64_t>(H.Ptr);
    assert((Raw & ~PtrMask) == 0 && "pointer exceeds 48 bits; packed "
                                    "Hyaline cannot encode it");
    return (H.Ref << RefShift) | Raw;
  }
  static Head unpack(uint64_t Word) {
    return Head{Word >> RefShift,
                reinterpret_cast<HyalineNode *>(Word & PtrMask)};
  }

  static Head load(const Atomic &A) {
    return unpack(A.load(std::memory_order_acquire));
  }

  static bool compareExchange(Atomic &A, Head &Expected, Head Desired) {
    uint64_t Word = pack(Expected);
    if (A.compare_exchange_weak(Word, pack(Desired),
                                std::memory_order_acq_rel,
                                std::memory_order_acquire))
      return true;
    Expected = unpack(Word);
    return false;
  }

  /// Wait-free: the counter lives in the top bits, so arrival is one FAA
  /// (the paper's dFAA, single width).
  static Head enter(Atomic &A) {
    const Head Old = unpack(A.fetch_add(RefOne, std::memory_order_acq_rel));
    assert(Old.Ref < 0xFFFF && "slot reference counter saturated");
    return Old;
  }
};

/// The multiple-list Hyaline scheme (Figure 7), robust with adaptive slot
/// resizing when \p Robust (Figures 9-10).
template <typename HeadCodec, bool Robust>
class MultiList : public HyalineBase<MultiList<HeadCodec, Robust>, Robust> {
  using Base = HyalineBase<MultiList, Robust>;
  friend Base;

public:
  using typename Base::Guard;

  /// \p Free is invoked (with \p FreeCtx) for every reclaimed node.
  MultiList(const smr::Config &C, smr::Deleter Free, void *FreeCtx);
  ~MultiList();

  /// Atomically increments the slot's HRef and snapshots HPtr as the
  /// operation's handle (Figure 7, lines 3-5). Robust: first picks a slot
  /// whose Ack counter is below the stall threshold, growing the slot
  /// directory if none is (Figure 9, lines 25-27 plus Section 4.3).
  Guard enter(smr::ThreadId Tid);

  /// Decrements HRef and dereferences every batch retired during the
  /// operation (Figure 7, lines 6-19; robust: plus the Ack acknowledgement
  /// of Figure 9, lines 28-31).
  void leave(Guard &G);

  /// Equivalent to leave+enter but without altering Head (Appendix B):
  /// dereferences batches retired so far and advances the handle.
  void trim(Guard &G);

  /// Number of slots `k` (a power of two; grows adaptively when robust).
  std::size_t slots() const { return Slots.capacity(); }

  /// Ack value of slot \p I (exposed for tests).
  int64_t ackValue(std::size_t I)
    requires Robust
  {
    return Slots.slot(I)->Ack.load();
  }

  /// Access era of slot \p I (exposed for tests).
  uint64_t accessEra(std::size_t I)
    requires Robust
  {
    return Slots.slot(I)->Access.load();
  }

private:
  struct PlainSlot {
    typename HeadCodec::Atomic H{};
  };
  struct RobustSlot {
    typename HeadCodec::Atomic H{};
    std::atomic<uint64_t> Access{0};
    std::atomic<int64_t> Ack{0};
  };
  using SlotState = std::conditional_t<Robust, RobustSlot, PlainSlot>;
  using PaddedSlot = CachePadded<SlotState>;

  /// Figure 7's fixed array of k slots (the non-robust instances).
  class FixedSlots {
  public:
    explicit FixedSlots(std::size_t K) : K(K), Array(new PaddedSlot[K]) {}
    std::size_t capacity() const { return K; }
    PaddedSlot &slot(std::size_t I) { return Array[I]; }

  private:
    const std::size_t K;
    std::unique_ptr<PaddedSlot[]> Array;
  };

  SlotState &slot(std::size_t I) { return *Slots.slot(I); }

  /// The Adjs that accounts for one slot insertion of \p Node's batch:
  /// per batch when robust (Section 4.3), global otherwise.
  uint64_t adjsOf(HyalineNode *Node) const {
    if constexpr (Robust)
      return Node->refNode()->batchAdjs();
    else
      return Adjs;
  }

  /// Figure 9, lines 28-31: the traversal of \p Visited nodes pays back
  /// what publishBatch charged to the slot's Ack (robust only).
  static void acknowledge(SlotState &S, std::size_t Visited) {
    if constexpr (Robust)
      S.Ack.fetch_sub(static_cast<int64_t>(Visited),
                      std::memory_order_relaxed);
  }

  /// Publishes a sealed batch to every active slot (Figure 7, lines
  /// 23-39). Robust: returns false if the slot count grew past the batch
  /// size (the caller keeps accumulating).
  bool publishBatch(LocalBatch &B);

  /// Era-protected read (Figure 9, lines 5-11).
  uintptr_t protect(Guard &G, const std::atomic<uintptr_t> &Src)
    requires Robust;

  /// CAS-max of the slot's access era (Figure 9, lines 19-24).
  static uint64_t touch(SlotState &S, uint64_t Era)
    requires Robust;

  std::conditional_t<Robust, SlotDirectory<PaddedSlot>, FixedSlots> Slots;
  const uint64_t Adjs;         ///< 2^64 / k for the fixed k (non-robust)
  const int64_t AckThreshold;  ///< stalled-slot threshold (robust)
};

// The three schemes are classes rather than aliases so that each keeps
// its own type name, which test and diagnostic output print.

/// The scalable multiple-list Hyaline scheme (Figure 7).
class Hyaline : public MultiList<DwHead, false> {
  using MultiList::MultiList;
};

/// Hyaline with a single-word [HRef:16 | HPtr:48] head (ablation, not in
/// the paper): measures what double-width CAS buys.
class HyalinePacked : public MultiList<PackedRefHead, false> {
  using MultiList::MultiList;
};

/// The robust multiple-list Hyaline variant with adaptive slot resizing
/// (Figures 9-10).
class HyalineS : public MultiList<DwHead, true> {
  using MultiList::MultiList;
};

} // namespace lfsmr::core

#endif // LFSMR_CORE_HYALINE_H
