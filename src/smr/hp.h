//===- smr/hp.h - Hazard pointers --------------------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hazard pointers [Michael, TPDS 2004], the paper's memory-efficiency
/// baseline. Every dereference publishes the target address in a
/// per-thread hazard slot and re-validates the source, which makes reads
/// expensive (a sequentially-consistent store per pointer access) but
/// bounds unreclaimed memory even under stalled threads (robust).
///
/// This is the paper's *optimized* HP (Section 6): reclamation scans take
/// a sorted snapshot of all hazard slots once and binary-search it per
/// retired node, instead of rescanning the global array per node.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_SMR_HP_H
#define LFSMR_SMR_HP_H

#include "smr/list_reclaimer.h"
#include "smr/smr.h"

#include <atomic>
#include <cstdint>

namespace lfsmr::smr {

/// HP's per-node state: just the retired-list link (paper Table 1: 1 word).
struct HazardNode {
  HazardNode *Next;
};

/// Hazard-pointer reclamation.
class HP : public HazardReclaimer<HP, HazardNode, uintptr_t, 0> {
  friend ListReclaimer;

public:
  /// HP protects the raw pointer values published by `deref`: sweep
  /// compares retired node addresses against the hazard slots. The
  /// protected address must therefore BE the retired address, which only
  /// intrusive nodes (header first) guarantee — the public API's
  /// transparent mode (hidden header in front of the object) is
  /// structurally unsafe here and is rejected via this flag.
  static constexpr bool ProtectsAddresses = true;

  using NodeHeader = HazardNode;

  HP(const Config &C, Deleter Free, void *FreeCtx)
      : HazardReclaimer(C, Free, FreeCtx) {}

  /// Publish-and-validate protected read into hazard slot \p Idx.
  template <typename T>
  T *deref(Guard &G, const std::atomic<T *> &Src, unsigned Idx) {
    return reinterpret_cast<T *>(protect(
        G, reinterpret_cast<const std::atomic<uintptr_t> &>(Src), Idx));
  }

  /// Tagged-link variant: protects the node address with low tag bits
  /// masked off, returns the raw (tagged) word.
  uintptr_t derefLink(Guard &G, const std::atomic<uintptr_t> &Src,
                      unsigned Idx) {
    return protect(G, Src, Idx);
  }

  /// Counts the allocation; HP stamps nothing at allocation time.
  void initNode(Guard &, NodeHeader *) { Counter.onAlloc(); }

private:
  /// Low bits of link words that carry data-structure marks, never address.
  static constexpr uintptr_t TagMask = 7;

  uintptr_t protect(Guard &G, const std::atomic<uintptr_t> &Src,
                    unsigned Idx);

  /// HP stamps nothing at retirement either.
  void stamp(ThreadId, NodeHeader *) {}

  /// A node is unreachable once no hazard slot holds its address.
  auto freeable(ThreadId Tid);
};

extern template class ListReclaimer<HP, HazardNode, ReservationRow<uintptr_t>>;
extern template class HazardReclaimer<HP, HazardNode, uintptr_t, 0>;

} // namespace lfsmr::smr

#endif // LFSMR_SMR_HP_H
