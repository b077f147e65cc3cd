//===- smr/ibr.h - Interval-based reclamation (2GE) --------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 2GE interval-based reclamation [Wen et al., PPoPP 2018]: each thread
/// maintains a single reservation interval [Lower, Upper]. `enter` pins
/// both ends at the current era; `deref` extends Upper to the current era.
/// A retired node with lifetime [BirthEra, RetireEra] may be freed when its
/// lifetime intersects no thread's reservation interval.
///
/// Compared with HE this drops per-pointer indices, giving an API close to
/// EBR's (the reason the paper adopts the same deref-only API for
/// Hyaline-S).
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_SMR_IBR_H
#define LFSMR_SMR_IBR_H

#include "smr/list_reclaimer.h"
#include "smr/smr.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace lfsmr::smr {

/// IBR's per-thread reservation interval (`NoEra` at both ends outside
/// operations).
struct IntervalReservation {
  struct Interval {
    uint64_t Lower;
    uint64_t Upper;
  };
  std::atomic<uint64_t> Lower{NoEra};
  std::atomic<uint64_t> Upper{NoEra};
  std::vector<Interval> Scratch; ///< the owner's reusable snapshot buffer
};

/// 2GE interval-based reclamation.
class IBR : public ListReclaimer<IBR, EraNode, IntervalReservation> {
  friend ListReclaimer;

public:
  using NodeHeader = EraNode;

  IBR(const Config &C, Deleter Free, void *FreeCtx)
      : ListReclaimer(C, Free, FreeCtx), Clock(C.EpochFreq) {}

  /// Pins the reservation interval at the current era.
  Guard enter(ThreadId Tid);

  /// Withdraws the reservation interval.
  void leave(Guard &G);

  /// Protected read that extends the reservation's upper bound to the
  /// current era; \p Idx is ignored (2GE keeps one interval per thread).
  template <typename T>
  T *deref(Guard &G, const std::atomic<T *> &Src, unsigned /*Idx*/) {
    return reinterpret_cast<T *>(
        protect(G, reinterpret_cast<const std::atomic<uintptr_t> &>(Src)));
  }

  /// \copydoc HP::derefLink
  uintptr_t derefLink(Guard &G, const std::atomic<uintptr_t> &Src,
                      unsigned /*Idx*/) {
    return protect(G, Src);
  }

  /// Stamps the birth era; advances the era clock every `EpochFreq`
  /// allocations.
  void initNode(Guard &G, NodeHeader *Node);

  /// Current era clock (exposed for tests and stats).
  uint64_t currentEra() const {
    return Clock.load(std::memory_order_acquire);
  }

private:
  uintptr_t protect(Guard &G, const std::atomic<uintptr_t> &Src);

  void stamp(ThreadId, NodeHeader *Node) {
    Node->RetireEra = Clock.load(std::memory_order_acquire);
  }

  /// A node is unreachable once its lifetime intersects no reservation.
  auto freeable(ThreadId Tid);

  EraClock Clock;
};

extern template class ListReclaimer<IBR, EraNode, IntervalReservation>;

} // namespace lfsmr::smr

#endif // LFSMR_SMR_IBR_H
