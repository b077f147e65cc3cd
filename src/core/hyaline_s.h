//===- core/hyaline_s.h - Hyaline-S (robust) ---------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hyaline-S (Sections 4.2-4.3, Figures 9-10): Hyaline extended to bound
/// memory usage under stalled threads (robustness), at the cost of
/// wrapping pointer reads in `deref`.
///
/// Mechanisms added on top of Hyaline:
///  - a global allocation-era clock; every node carries a *birth era*
///    (stored in the shared header word until retirement);
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
//===----------------------------------------------------------------------===//

#ifndef LFSMR_CORE_HYALINE_S_H
#define LFSMR_CORE_HYALINE_S_H

#include "core/dwcas.h"
#include "core/hyaline_base.h"
#include "core/hyaline_head.h"
#include "core/hyaline_node.h"
#include "core/slot_directory.h"
#include "smr/smr.h"
#include "support/align.h"

#include <atomic>
#include <memory>

namespace lfsmr::core {

/// The robust multiple-list Hyaline variant with adaptive slot resizing.
class HyalineS : public HyalineBase {
public:
  using NodeHeader = HyalineNode;

  struct Guard {
    smr::ThreadId Tid;
    std::size_t Slot;
    HyalineNode *Handle;
  };

  HyalineS(const smr::Config &C, smr::Deleter Free, void *FreeCtx);
  ~HyalineS();

  HyalineS(const HyalineS &) = delete;
  HyalineS &operator=(const HyalineS &) = delete;

  /// Picks a slot whose Ack counter is below the stall threshold (growing
  /// the slot directory if none is), then increments its HRef
  /// (Figure 9, lines 25-27 plus Section 4.3 growth).
  Guard enter(smr::ThreadId Tid);

  /// Hyaline leave plus Ack bookkeeping (Figure 9, lines 28-31).
  void leave(Guard &G);

  /// Appendix B trim with Ack bookkeeping.
  void trim(Guard &G);

  /// Era-protected read (Figure 9, lines 5-11): raises the slot's access
  /// era to the current allocation era before trusting the loaded pointer.
  template <typename T>
  T *deref(Guard &G, const std::atomic<T *> &Src, unsigned /*Idx*/) {
    return reinterpret_cast<T *>(derefLink(
        G, reinterpret_cast<const std::atomic<uintptr_t> &>(Src), 0));
  }

  /// \copydoc deref
  uintptr_t derefLink(Guard &G, const std::atomic<uintptr_t> &Src,
                      unsigned /*Idx*/);

  /// Stamps the node's birth era; ticks the era clock every EraFreq
  /// allocations (Figure 9, lines 16-18).
  void initNode(Guard &G, NodeHeader *Node);

  /// Appends to the thread-local batch; publishes once the batch holds
  /// max(MinBatch, k+1) nodes for the current k.
  void retire(Guard &G, NodeHeader *Node);

  /// Current number of slots (grows adaptively; exposed for tests).
  std::size_t slots() const { return Dir.capacity(); }

  /// Current era clock (exposed for tests).
  uint64_t currentEra() const {
    return AllocEra.load(std::memory_order_acquire);
  }

  /// Ack value of slot \p I (exposed for tests).
  int64_t ackValue(std::size_t I) { return Dir.slot(I)->Ack.load(); }

  /// Access era of slot \p I (exposed for tests).
  uint64_t accessEra(std::size_t I) { return Dir.slot(I)->Access.load(); }

private:
  struct SlotState {
    DWAtomicHead H;
    std::atomic<uint64_t> Access{0};
    std::atomic<int64_t> Ack{0};
  };
  using PaddedSlot = CachePadded<SlotState>;

  struct PerThread {
    LocalBatch Batch;
    uint64_t AllocCounter = 0;
  };

  /// Attempts to publish; returns false if the slot count grew past the
  /// batch size (the caller keeps accumulating).
  bool publishBatch(LocalBatch &B);

  /// CAS-max of the slot's access era (Figure 9, lines 19-24).
  uint64_t touch(SlotState &S, uint64_t Era);

  const std::size_t MinBatch;
  const unsigned EraFreq;
  const int64_t AckThreshold;
  const unsigned MaxThreads;

  alignas(CacheLineSize) std::atomic<uint64_t> AllocEra{1};
  SlotDirectory<PaddedSlot> Dir;
  std::unique_ptr<CachePadded<PerThread>[]> Threads;
};

} // namespace lfsmr::core

#endif // LFSMR_CORE_HYALINE_S_H
