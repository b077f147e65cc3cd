//===- smr/ebr.h - Epoch-based reclamation -----------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Epoch-based reclamation, the "Epoch" baseline of the paper's evaluation:
/// the variant of [Wen et al., PPoPP'18] that increments the epoch counter
/// unconditionally (amortized by `epochf`) and keeps all retired nodes in a
/// single per-thread list (paper Section 6, footnote 5).
///
/// Properties (paper Table 1): fast, NOT robust (a stalled thread pins the
/// minimum reservation forever and memory grows without bound), not
/// transparent (per-thread reservation entries for the thread's lifetime).
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_SMR_EBR_H
#define LFSMR_SMR_EBR_H

#include "smr/list_reclaimer.h"
#include "smr/smr.h"

#include <atomic>
#include <cstdint>

namespace lfsmr::smr {

/// EBR's per-node state: the retired-list link and the epoch at retirement.
struct EpochNode {
  EpochNode *Next;
  uint64_t RetireEpoch;
};

/// Epoch-based reclamation (EBR). Each thread reserves the epoch it
/// entered at (`NoEra` outside operations).
class EBR : public ListReclaimer<EBR, EpochNode, std::atomic<uint64_t>> {
  friend ListReclaimer;

public:
  using NodeHeader = EpochNode;

  /// \p Free is invoked for every reclaimed node with \p FreeCtx.
  EBR(const Config &C, Deleter Free, void *FreeCtx);

  /// Announces the current global epoch as this thread's reservation.
  Guard enter(ThreadId Tid);

  /// Withdraws the reservation.
  void leave(Guard &G);

  /// Unprotected read: EBR guards whole operations, not single pointers.
  template <typename T>
  T *deref(Guard &, const std::atomic<T *> &Src, unsigned /*Idx*/) {
    return Src.load(std::memory_order_acquire);
  }

  /// \copydoc NoMM::derefLink
  uintptr_t derefLink(Guard &, const std::atomic<uintptr_t> &Src,
                      unsigned /*Idx*/) {
    return Src.load(std::memory_order_acquire);
  }

  /// Counts the allocation; EBR stamps nodes only at retire time.
  void initNode(Guard &, NodeHeader *) { Counter.onAlloc(); }

  /// Current global epoch (exposed for tests and stats).
  uint64_t currentEpoch() const {
    return Clock.load(std::memory_order_acquire);
  }

private:
  /// Stamps the current epoch, then advances it every `EpochFreq` retires.
  void stamp(ThreadId Tid, NodeHeader *Node);

  /// Nodes retired before the smallest reservation can no longer be
  /// reached by anyone.
  auto freeable(ThreadId Tid) const;

  EraClock Clock;
};

extern template class ListReclaimer<EBR, EpochNode, std::atomic<uint64_t>>;

} // namespace lfsmr::smr

#endif // LFSMR_SMR_EBR_H
