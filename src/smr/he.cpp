//===- smr/he.cpp - Hazard eras -------------------------------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "smr/he.h"

#include <algorithm>

using namespace lfsmr;
using namespace lfsmr::smr;

uintptr_t HE::protect(Guard &G, const std::atomic<uintptr_t> &Src,
                      unsigned Idx) {
  // If the era did not move since the slot's reservation was published,
  // every node reachable through the value read has BirthEra <= the
  // reservation, so it is covered.
  return Clock.protect(Src, slot(G, Idx));
}

void HE::initNode(Guard &G, NodeHeader *Node) {
  Node->BirthEra = Clock.birth(Threads[G.Tid]->Ticks);
  Node->RetireEra = NoEra;
  Counter.onAlloc();
}

auto HE::freeable(ThreadId Tid) {
  const std::vector<uint64_t> &Snap = sortedReservations(Tid);
  return [&Snap](const NodeHeader *Node) {
    auto It = std::lower_bound(Snap.begin(), Snap.end(), Node->BirthEra);
    return It == Snap.end() || *It > Node->RetireEra;
  };
}

template class lfsmr::smr::ListReclaimer<HE, EraNode,
                                         ReservationRow<uint64_t>>;
template class lfsmr::smr::HazardReclaimer<HE, EraNode, uint64_t, NoEra>;
