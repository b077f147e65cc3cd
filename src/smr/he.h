//===- smr/he.h - Hazard eras ------------------------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hazard eras [Ramalhete & Correia, SPAA 2017]: HP's API with epochs.
/// Each node records the global era at allocation (birth era) and at
/// retirement (retire era); each dereference reserves the current era in an
/// indexed per-thread slot. A node may be freed when no reserved era falls
/// inside its [birth, retire] lifetime interval.
///
/// Like HP this build uses the paper's optimized scan (Section 6): one
/// sorted snapshot of all era reservations per sweep.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_SMR_HE_H
#define LFSMR_SMR_HE_H

#include "smr/list_reclaimer.h"
#include "smr/smr.h"

#include <atomic>
#include <cstdint>

namespace lfsmr::smr {

/// Hazard-era reclamation.
class HE : public HazardReclaimer<HE, EraNode, uint64_t, NoEra> {
  friend ListReclaimer;

public:
  using NodeHeader = EraNode;

  HE(const Config &C, Deleter Free, void *FreeCtx)
      : HazardReclaimer(C, Free, FreeCtx), Clock(C.EpochFreq) {}

  /// Era-reserving protected read into reservation slot \p Idx.
  template <typename T>
  T *deref(Guard &G, const std::atomic<T *> &Src, unsigned Idx) {
    return reinterpret_cast<T *>(protect(
        G, reinterpret_cast<const std::atomic<uintptr_t> &>(Src), Idx));
  }

  /// \copydoc HP::derefLink
  uintptr_t derefLink(Guard &G, const std::atomic<uintptr_t> &Src,
                      unsigned Idx) {
    return protect(G, Src, Idx);
  }

  /// Stamps the node's birth era and advances the era clock every
  /// `EpochFreq` allocations.
  void initNode(Guard &G, NodeHeader *Node);

  /// Current era clock (exposed for tests and stats).
  uint64_t currentEra() const {
    return Clock.load(std::memory_order_acquire);
  }

private:
  uintptr_t protect(Guard &G, const std::atomic<uintptr_t> &Src,
                    unsigned Idx);

  void stamp(ThreadId, NodeHeader *Node) {
    Node->RetireEra = Clock.load(std::memory_order_acquire);
  }

  /// A node is unreachable once no reserved era lies within
  /// [BirthEra, RetireEra].
  auto freeable(ThreadId Tid);

  EraClock Clock;
};

extern template class ListReclaimer<HE, EraNode, ReservationRow<uint64_t>>;
extern template class HazardReclaimer<HE, EraNode, uint64_t, NoEra>;

} // namespace lfsmr::smr

#endif // LFSMR_SMR_HE_H
