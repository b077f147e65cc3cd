//===- smr/nomm.h - No-reclamation baseline ----------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "No MM": runs the data structure without any memory reclamation: no
/// retired node is freed while the scheme runs. The paper uses this as the
/// general throughput baseline (Section 6): no scheme can recycle memory
/// faster than not recycling it at all, although reclamation schemes can
/// occasionally beat it by reusing warm cache lines. Retired nodes stay
/// reachable from per-thread lists and are freed when the scheme is
/// destroyed, so a finished run leaks nothing.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_SMR_NOMM_H
#define LFSMR_SMR_NOMM_H

#include "smr/smr.h"
#include "support/align.h"
#include "support/mem_counter.h"

#include <atomic>
#include <cassert>
#include <memory>
#include <vector>

namespace lfsmr::smr {

/// The no-reclamation baseline: retire only records the node.
class NoMM {
public:
  /// Header embedded in every node. Empty; kept as a named type so node
  /// layouts are uniform across schemes (zero-size members are padded to
  /// one byte, which the benchmark's header-size table reports honestly).
  struct NodeHeader {};

  /// Per-operation state; nothing to track.
  struct Guard {
    ThreadId Tid;
  };

  NoMM(const Config &C, Deleter Free, void *FreeCtx)
      : Free(Free), FreeCtx(FreeCtx), MaxThreads(C.MaxThreads),
        Threads(new CachePadded<std::vector<NodeHeader *>>[C.MaxThreads]) {}

  /// Frees every node retired over the scheme's lifetime.
  ~NoMM() {
    for (unsigned I = 0; I < MaxThreads; ++I)
      for (NodeHeader *Node : *Threads[I])
        Free(Node, FreeCtx);
  }

  NoMM(const NoMM &) = delete;
  NoMM &operator=(const NoMM &) = delete;

  /// Frees a node that was never published (even the leaky baseline frees
  /// speculative copies; they are not part of the reclamation problem).
  void discard(NodeHeader *Node) {
    Free(Node, FreeCtx);
    // Counted as an (instant) retire+free so the accounting
    // invariant "live == allocated - retired" holds for tests.
    Counter.onRetire();
    Counter.onFree();
  }

  Guard enter(ThreadId Tid) { return Guard{Tid}; }
  void leave(Guard &) {}

  /// Plain acquire load; nothing to protect because nothing is ever freed.
  template <typename T>
  T *deref(Guard &, const std::atomic<T *> &Src, unsigned /*Idx*/) {
    return Src.load(std::memory_order_acquire);
  }

  /// Tagged-pointer variant of deref for mark-bit link words.
  uintptr_t derefLink(Guard &, const std::atomic<uintptr_t> &Src,
                      unsigned /*Idx*/) {
    return Src.load(std::memory_order_acquire);
  }

  /// Counts the allocation; NoMM stamps nothing.
  void initNode(Guard &, NodeHeader *) { Counter.onAlloc(); }

  /// Never frees \p Node while running (counted so Figure 12 can report
  /// it); keeps it on the calling thread's list for the destructor.
  void retire(Guard &G, NodeHeader *Node) {
    assert(G.Tid < MaxThreads && "thread id out of range");
    Threads[G.Tid]->push_back(Node);
    Counter.onRetire();
  }

  /// Allocation/retire/free accounting for this scheme instance.
  const MemCounter &memCounter() const { return Counter; }

private:
  const Deleter Free;
  void *const FreeCtx;
  const unsigned MaxThreads;
  /// Per-thread retired nodes, indexed by `Guard::Tid`.
  std::unique_ptr<CachePadded<std::vector<NodeHeader *>>[]> Threads;
  MemCounter Counter;
};

} // namespace lfsmr::smr

#endif // LFSMR_SMR_NOMM_H
