//===- smr/list_reclaimer.h - Core of the baseline schemes -------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one algorithm behind the paper's Section 6 baselines (EBR, HP, HE,
/// IBR): every thread keeps a list of retired nodes and, once it holds
/// `emptyf` of them, peruses it against one snapshot of every thread's
/// reservations (paper Section 2, "Reclamation Cost"), freeing the nodes
/// no reservation can reach. The schemes differ only in what they stamp
/// on a node and in the "unreachable" predicate, so each one derives from
/// `ListReclaimer` (CRTP, no virtual dispatch) and supplies
///
///  - `stamp(Tid, Node)`, called first by `retire`;
///  - `freeable(Tid)`, which takes the sweep's snapshot and returns the
///    predicate the sweep applies to each retired node.
///
/// HP and HE also share their indexed reservations, `HazardReclaimer`.
/// `EraClock` is the global era clock of every era scheme: EBR's epoch,
/// HE's and IBR's era, and Hyaline-S's and Hyaline-1S's allocation era.
///
/// The Hyaline schemes keep no retired list: their reclamation is
/// asynchronous and each node is traversed exactly once (Section 3).
///
/// Each scheme's header declares `extern template` for the cores it
/// derives from, and its source file instantiates them: `retire` (and
/// HP's and HE's `enter` and `leave`) compile once, in that file, and
/// callers reach them through out-of-line calls.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_SMR_LIST_RECLAIMER_H
#define LFSMR_SMR_LIST_RECLAIMER_H

#include "smr/smr.h"
#include "support/align.h"
#include "support/mem_counter.h"
#include "support/trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace lfsmr::smr {

/// Reservation value meaning "no era reserved" (EBR, HE, IBR).
inline constexpr uint64_t NoEra = UINT64_MAX;

/// A global era clock. It starts at 1, so a zero-initialized reservation
/// can never protect and `schemeEra` reads 0 only for schemes without one.
class EraClock {
public:
  /// Advances every \p Freq events of one thread (`epochf`, `Freq`).
  explicit EraClock(unsigned Freq) : Freq(Freq) {}

  uint64_t load(std::memory_order Order) const { return Era.load(Order); }

  /// Counts one event of the calling thread in its counter \p Count
  /// (an allocation; a retire for EBR) and advances the era on every
  /// `Freq`-th (paper Figure 9, lines 16-17). \p Count counts down the
  /// events left before the next advance; a zero-initialized counter
  /// arms at `Freq` on its first event, so the cadence is exact from the
  /// start and no event pays a division.
  void tick(uint64_t &Count) {
    if (Count == 0)
      Count = Freq;
    if (--Count == 0) {
      [[maybe_unused]] const auto NewEra =
          Era.fetch_add(1, std::memory_order_acq_rel) + 1;
      LFSMR_TRACE_EVENT(telemetry::TraceEvent::EraAdvance, NewEra);
    }
  }

  /// A new node's birth era: ticks \p Count, then reads the era (Figure 9,
  /// line 18).
  uint64_t birth(uint64_t &Count) {
    tick(Count);
    return Era.load(std::memory_order_acquire);
  }

  /// Era-protected read (Figure 9, lines 5-11): returns \p Src's value
  /// once it was loaded while the era equalled the reservation
  /// \p Reserved. Otherwise \p Reserve(Era) publishes the newer era and
  /// returns the era now reserved, and the pointer is read again.
  template <typename ReserveFn>
  uintptr_t protect(const std::atomic<uintptr_t> &Src, uint64_t Reserved,
                    ReserveFn Reserve) const {
    while (true) {
      const uintptr_t Value = Src.load(std::memory_order_acquire);
      const uint64_t Now = Era.load(std::memory_order_seq_cst);
      if (Now == Reserved)
        return Value;
      Reserved = Reserve(Now);
    }
  }

  /// `protect` for a reservation only the caller writes (HE, IBR,
  /// Hyaline-1S): a plain seq_cst store, ordered before the re-read,
  /// publishes the newer era.
  uintptr_t protect(const std::atomic<uintptr_t> &Src,
                    std::atomic<uint64_t> &Slot) const {
    return protect(Src, Slot.load(std::memory_order_relaxed),
                   [&Slot](uint64_t Now) {
                     Slot.store(Now, std::memory_order_seq_cst);
                     return Now;
                   });
  }

private:
  const unsigned Freq;
  alignas(CacheLineSize) std::atomic<uint64_t> Era{1};
};

/// HE's and IBR's per-node state: the retired-list link and the node's
/// lifetime in eras (paper Table 1: 3 words on 64-bit).
struct EraNode {
  EraNode *Next;
  uint64_t BirthEra;
  uint64_t RetireEra;
};

/// The per-thread retired list and its sweep.
/// \tparam Derived the scheme (provides `stamp` and `freeable`).
/// \tparam Header the scheme's node header, with a `Header *Next` link.
/// \tparam Reservation the per-thread state other threads' sweeps read.
template <typename Derived, typename Header, typename Reservation>
class ListReclaimer {
public:
  /// Per-operation state: the id the thread entered as.
  struct Guard {
    ThreadId Tid;
  };

  ListReclaimer(const ListReclaimer &) = delete;
  ListReclaimer &operator=(const ListReclaimer &) = delete;

  /// Stamps \p Node and appends it to the calling thread's retired list;
  /// once the list holds `EmptyFreq` nodes, frees every node the scheme
  /// proves unreachable.
  void retire(Guard &G, Header *Node);

  /// Frees a node that was never published into any shared structure
  /// (e.g. a speculative copy discarded after a failed CAS).
  void discard(Header *Node) {
    Free(Node, FreeCtx);
    // Counted as an (instant) retire+free so the accounting
    // invariant "live == allocated - retired" holds for tests.
    Counter.onRetire();
    Counter.onFree();
  }

  /// Accounting for this scheme instance.
  const MemCounter &memCounter() const { return Counter; }

protected:
  /// \p Free is invoked for every reclaimed node with \p FreeCtx.
  ListReclaimer(const Config &C, Deleter Free, void *FreeCtx);

  /// Frees every node still held in retired lists. All threads must have
  /// left before destruction.
  ~ListReclaimer();

  struct PerThread {
    Reservation Res;
    Header *Retired = nullptr; ///< LIFO, linked through Header::Next
    std::size_t RetiredCount = 0;
    uint64_t Ticks = 0; ///< this thread's events left before the era tick
  };

  Derived &self() { return static_cast<Derived &>(*this); }

  /// Frees every node of \p T's retired list that the scheme's `freeable`
  /// predicate clears.
  void sweep(PerThread &T, ThreadId Tid);

  const Config Cfg;
  const Deleter Free;
  void *const FreeCtx;
  MemCounter Counter;
  std::unique_ptr<CachePadded<PerThread>[]> Threads;
};

template <typename D, typename H, typename R>
ListReclaimer<D, H, R>::ListReclaimer(const Config &C, Deleter Free,
                                      void *FreeCtx)
    : Cfg(C), Free(Free), FreeCtx(FreeCtx),
      Threads(new CachePadded<PerThread>[C.MaxThreads]) {
  assert(Free && "a reclamation scheme requires a deleter");
}

template <typename D, typename H, typename R>
ListReclaimer<D, H, R>::~ListReclaimer() {
  // Quiescent teardown: every remaining retired node is safe to free.
  for (unsigned I = 0; I < Cfg.MaxThreads; ++I)
    for (H *Node = Threads[I]->Retired; Node;) {
      H *Next = Node->Next;
      Free(Node, FreeCtx);
      Counter.onFree();
      Node = Next;
    }
}

template <typename D, typename H, typename R>
void ListReclaimer<D, H, R>::retire(Guard &G, H *Node) {
  PerThread &T = *Threads[G.Tid];
  self().stamp(G.Tid, Node);
  Node->Next = T.Retired;
  T.Retired = Node;
  Counter.onRetire();
  if (++T.RetiredCount >= Cfg.EmptyFreq)
    sweep(T, G.Tid);
}

template <typename D, typename H, typename R>
void ListReclaimer<D, H, R>::sweep(PerThread &T, ThreadId Tid) {
  // One snapshot per sweep, then one predicate test per retired node.
  const auto Freeable = self().freeable(Tid);
  for (H **Link = &T.Retired; H *Curr = *Link;) {
    if (!Freeable(Curr)) {
      Link = &Curr->Next;
      continue;
    }
    *Link = Curr->Next;
    Free(Curr, FreeCtx);
    Counter.onFree();
    --T.RetiredCount;
  }
}

/// HP's and HE's per-thread reservations: `hazardSlots(Config)` indexed
/// slots, each holding a protected value (an address for HP, an era for
/// HE) or the scheme's empty value.
template <typename T> struct ReservationRow {
  std::unique_ptr<std::atomic<T>[]> Slots;
  std::vector<T> Scratch; ///< the owner's reusable snapshot buffer
};

/// The core of the index-based schemes (HP, HE): each thread's row is
/// filled with \p Empty at construction, reserved slot by slot through
/// `slot`, emptied by `leave`, and read by sweeps as one sorted snapshot.
/// \tparam Empty the value of a slot that protects nothing.
template <typename Derived, typename Header, typename T, T Empty>
class HazardReclaimer
    : public ListReclaimer<Derived, Header, ReservationRow<T>> {
  using Base = ListReclaimer<Derived, Header, ReservationRow<T>>;

public:
  /// Per-operation state: also the slots used, so `leave` empties only
  /// those.
  struct Guard : Base::Guard {
    unsigned UsedHazards;
  };

  Guard enter(ThreadId Tid);

  /// Empties every reservation slot the operation used.
  void leave(Guard &G);

protected:
  HazardReclaimer(const Config &C, Deleter Free, void *FreeCtx);

  /// Slot \p Idx of \p G's row, recorded as used.
  std::atomic<T> &slot(Guard &G, unsigned Idx) {
    assert(Idx < hazardSlots(this->Cfg) && "reservation index out of range");
    if (Idx + 1 > G.UsedHazards)
      G.UsedHazards = Idx + 1;
    return this->Threads[G.Tid]->Res.Slots[Idx];
  }

  /// Every thread's non-empty slots, sorted into \p Tid's scratch buffer:
  /// the paper's optimized scan (Section 6), binary-searched per node.
  const std::vector<T> &sortedReservations(ThreadId Tid) {
    std::vector<T> &Snap = this->Threads[Tid]->Res.Scratch;
    Snap.clear();
    for (unsigned I = 0; I < this->Cfg.MaxThreads; ++I)
      for (unsigned J = 0; J < hazardSlots(this->Cfg); ++J) {
        const T V = this->Threads[I]->Res.Slots[J].load(
            std::memory_order_seq_cst);
        if (V != Empty)
          Snap.push_back(V);
      }
    std::sort(Snap.begin(), Snap.end());
    return Snap;
  }
};

template <typename D, typename H, typename T, T Empty>
HazardReclaimer<D, H, T, Empty>::HazardReclaimer(const Config &C,
                                                 Deleter Free, void *FreeCtx)
    : Base(C, Free, FreeCtx) {
  for (unsigned I = 0; I < C.MaxThreads; ++I) {
    auto &Slots = this->Threads[I]->Res.Slots;
    Slots.reset(new std::atomic<T>[hazardSlots(C)]);
    for (unsigned J = 0; J < hazardSlots(C); ++J)
      Slots[J].store(Empty, std::memory_order_relaxed);
  }
}

template <typename D, typename H, typename T, T Empty>
auto HazardReclaimer<D, H, T, Empty>::enter(ThreadId Tid) -> Guard {
  assert(Tid < this->Cfg.MaxThreads && "thread id out of range");
  return Guard{{Tid}, 0};
}

template <typename D, typename H, typename T, T Empty>
void HazardReclaimer<D, H, T, Empty>::leave(Guard &G) {
  auto &Slots = this->Threads[G.Tid]->Res.Slots;
  for (unsigned I = 0; I < G.UsedHazards; ++I)
    Slots[I].store(Empty, std::memory_order_release);
  G.UsedHazards = 0;
}

} // namespace lfsmr::smr

#endif // LFSMR_SMR_LIST_RECLAIMER_H
