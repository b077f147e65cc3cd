//===- smr/ebr.cpp - Epoch-based reclamation ------------------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "smr/ebr.h"

#include <algorithm>
#include <cassert>

using namespace lfsmr;
using namespace lfsmr::smr;

EBR::EBR(const Config &C, Deleter Free, void *FreeCtx)
    : ListReclaimer(C, Free, FreeCtx), Clock(C.EpochFreq) {
  for (unsigned I = 0; I < C.MaxThreads; ++I)
    Threads[I]->Res.store(NoEra, std::memory_order_relaxed);
}

EBR::Guard EBR::enter(ThreadId Tid) {
  assert(Tid < Cfg.MaxThreads && "thread id out of range");
  std::atomic<uint64_t> &Res = Threads[Tid]->Res;
  assert(Res.load(std::memory_order_relaxed) == NoEra &&
         "nested enter on the same thread id");
  // seq_cst: the reservation must be visible to concurrent sweeps before
  // this thread reads any data-structure pointer.
  Res.store(Clock.load(std::memory_order_relaxed), std::memory_order_seq_cst);
  return Guard{Tid};
}

void EBR::leave(Guard &G) {
  Threads[G.Tid]->Res.store(NoEra, std::memory_order_release);
}

void EBR::stamp(ThreadId Tid, NodeHeader *Node) {
  Node->RetireEpoch = Clock.load(std::memory_order_acquire);
  // Unconditional (amortized) epoch advance; see ebr.h file comment.
  Clock.tick(Threads[Tid]->Ticks);
}

auto EBR::freeable(ThreadId) const {
  // Snapshot-free by construction (paper Section 2): the global state is
  // consulted exactly once per sweep, not once per retired node.
  uint64_t Min = NoEra;
  for (unsigned I = 0; I < Cfg.MaxThreads; ++I)
    Min = std::min(Min, Threads[I]->Res.load(std::memory_order_acquire));
  return [Min](const NodeHeader *Node) { return Node->RetireEpoch < Min; };
}

template class lfsmr::smr::ListReclaimer<EBR, EpochNode,
                                         std::atomic<uint64_t>>;
