//===- smr/hp.cpp - Hazard pointers ---------------------------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "smr/hp.h"

#include <algorithm>

using namespace lfsmr;
using namespace lfsmr::smr;

uintptr_t HP::protect(Guard &G, const std::atomic<uintptr_t> &Src,
                      unsigned Idx) {
  std::atomic<uintptr_t> &Hazard = slot(G, Idx);
  uintptr_t Value = Src.load(std::memory_order_acquire);
  while (true) {
    // Publish, then re-validate: if the source still holds Value after the
    // hazard store is globally visible, any retirer that unlinks the node
    // afterwards is guaranteed to observe the hazard in its scan.
    Hazard.store(Value & ~TagMask, std::memory_order_seq_cst);
    const uintptr_t Again = Src.load(std::memory_order_seq_cst);
    if (Again == Value)
      return Value;
    Value = Again;
  }
}

auto HP::freeable(ThreadId Tid) {
  const std::vector<uintptr_t> &Snap = sortedReservations(Tid);
  return [&Snap](const NodeHeader *Node) {
    return !std::binary_search(Snap.begin(), Snap.end(),
                               reinterpret_cast<uintptr_t>(Node));
  };
}

template class lfsmr::smr::ListReclaimer<HP, HazardNode,
                                         ReservationRow<uintptr_t>>;
template class lfsmr::smr::HazardReclaimer<HP, HazardNode, uintptr_t, 0>;
