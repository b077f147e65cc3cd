//===- smr/ibr.cpp - Interval-based reclamation (2GE) ---------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "smr/ibr.h"

#include <cassert>

using namespace lfsmr;
using namespace lfsmr::smr;

IBR::Guard IBR::enter(ThreadId Tid) {
  assert(Tid < Cfg.MaxThreads && "thread id out of range");
  IntervalReservation &R = Threads[Tid]->Res;
  const uint64_t Era = Clock.load(std::memory_order_acquire);
  R.Lower.store(Era, std::memory_order_relaxed);
  // seq_cst: the reservation must be visible before any pointer read.
  R.Upper.store(Era, std::memory_order_seq_cst);
  return Guard{Tid};
}

void IBR::leave(Guard &G) {
  IntervalReservation &R = Threads[G.Tid]->Res;
  R.Upper.store(NoEra, std::memory_order_release);
  R.Lower.store(NoEra, std::memory_order_release);
}

uintptr_t IBR::protect(Guard &G, const std::atomic<uintptr_t> &Src) {
  return Clock.protect(Src, Threads[G.Tid]->Res.Upper);
}

void IBR::initNode(Guard &G, NodeHeader *Node) {
  Node->BirthEra = Clock.birth(Threads[G.Tid]->Ticks);
  Node->RetireEra = NoEra;
  Counter.onAlloc();
}

auto IBR::freeable(ThreadId Tid) {
  std::vector<IntervalReservation::Interval> &Snap = Threads[Tid]->Res.Scratch;
  Snap.clear();
  for (unsigned I = 0; I < Cfg.MaxThreads; ++I) {
    const IntervalReservation &R = Threads[I]->Res;
    const uint64_t Lo = R.Lower.load(std::memory_order_seq_cst);
    if (Lo == NoEra)
      continue;
    Snap.push_back({Lo, R.Upper.load(std::memory_order_seq_cst)});
  }
  return [&Snap](const NodeHeader *Node) {
    for (const IntervalReservation::Interval &R : Snap)
      if (Node->BirthEra <= R.Upper && Node->RetireEra >= R.Lower)
        return false; // lifetime intersects a reservation
    return true;
  };
}

template class lfsmr::smr::ListReclaimer<IBR, EraNode, IntervalReservation>;
