//===- ds/list_ops.h - Harris-Michael list operations ------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sorted lock-free linked list of Harris [DISC'01] in Michael's
/// hazard-pointer-compatible formulation [TPDS'04]: deleted nodes are
/// retired as soon as they are physically unlinked, which is the "modified"
/// semantics required by the robust schemes (paper Section 2, "Semantics").
///
/// The operations are written against a single chain head so both the
/// standalone list (paper Figures 11a/d) and the hash map's buckets
/// (Figures 11b/e) share them. Their traversal, `michaelFind`, is
/// parameterised by a node layout, and the kv shard index and kv scans
/// (`kv/shard_index.h`) run the same one.
///
/// Mark convention: bit 0 of a node's `Next` word is set when the node is
/// logically deleted. Hazard-slot usage: indices 0..2, rotated as the
/// traversal advances so `prev`, `curr`, and `next` stay protected.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_DS_LIST_OPS_H
#define LFSMR_DS_LIST_OPS_H

#include "lfsmr/guard.h"

#include <atomic>
#include <cstdint>
#include <optional>

namespace lfsmr::ds {

/// Key/value types used by every benchmark data structure (the paper draws
/// 64-bit integer keys uniformly from [0, 100000)).
using Key = uint64_t;
using Value = uint64_t;

/// Where a Michael walk stopped: the link that pointed at `CurrRaw`, the
/// first node the layout did not order before its probe (0 at the tail),
/// that node's unmarked successor, and whether it matches the probe.
struct ListPosition {
  std::atomic<uintptr_t> *PrevLink;
  uintptr_t CurrRaw;
  uintptr_t NextRaw;
  bool Found;
};

/// Michael's find step, the one traversal of every sorted lock-free list
/// in the library (`ListOps`, the kv shard index and kv scans): walks
/// from \p Head to the first node \p L does not order before its probe,
/// physically unlinking every marked node it meets. It never steps out of
/// a marked node: each step re-checks that `PrevLink` still points at the
/// current node, unmarked, after protecting its successor, and re-finds
/// on a mismatch, so every node it dereferences was reachable when
/// protected — the property hazard pointers need (Brown, arXiv
/// 1712.01044). Slots 0–2 rotate: `CurrIdx` protects the current node,
/// `NextIdx` its successor, and `SpareIdx` the predecessor that owns
/// `PrevLink`.
///
/// \p L is the node layout:
/// \code
///   std::atomic<uintptr_t> &next(uintptr_t Raw); // link word, bit 0 = mark
///   bool before(uintptr_t Raw);  // Raw orders before the probe: walk on
///   bool matches(uintptr_t Raw); // the node the walk stops at is the probe's
///   void unlinked(Guard &, uintptr_t Raw); // the unlink-CAS winner's duty
///   std::atomic<uintptr_t> *restart(std::atomic<uintptr_t> *Head);
/// \endcode
/// `restart` returns the head to re-find from after a failed re-check or
/// unlink CAS; `PrevLink`'s owner is still protected when it runs. The
/// order is two predicates, not one three-way `int`: with the `int`, GCC
/// made the walk's exit the fall-through and every hop a taken branch,
/// which slowed a long single-thread walk. `matches` is asked only of
/// the node the walk stops at. \p L
/// is taken by value: no call the walk makes can alias it, so its probe
/// is not re-read through a pointer after each out-of-line `protect_link`.
template <typename Guard, typename Layout>
ListPosition michaelFind(Guard &G, std::atomic<uintptr_t> *Head, Layout L) {
  constexpr uintptr_t Mark = 1;
Retry:
  std::atomic<uintptr_t> *PrevLink = Head;
  unsigned CurrIdx = 0, NextIdx = 1;
  uintptr_t CurrRaw = G.protect_link(*PrevLink, CurrIdx);
  while (true) {
    if (CurrRaw <= Mark)
      return ListPosition{PrevLink, 0, 0, false};
    const uintptr_t Curr = CurrRaw & ~Mark;
    std::atomic<uintptr_t> &Next = L.next(Curr);
    const uintptr_t NextRaw = G.protect_link(Next, NextIdx);
    // Validate: PrevLink must still point at Curr, unmarked. This also
    // detects a marked (deleted) predecessor, whose Next word would now
    // carry the mark bit.
    if (PrevLink->load(std::memory_order_acquire) != Curr) {
      Head = L.restart(Head);
      goto Retry;
    }
    if (NextRaw & Mark) {
      // Curr is logically deleted: unlink it; the CAS winner owns it.
      uintptr_t Expected = Curr;
      if (!PrevLink->compare_exchange_strong(Expected, NextRaw & ~Mark,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        Head = L.restart(Head);
        goto Retry;
      }
      L.unlinked(G, Curr);
      CurrRaw = NextRaw & ~Mark;
      std::swap(CurrIdx, NextIdx); // Next's protection now guards Curr
      continue;
    }
    if (!L.before(Curr))
      return ListPosition{PrevLink, Curr, NextRaw, L.matches(Curr)};
    PrevLink = &Next;
    CurrRaw = NextRaw;
    // Advance one hop: Curr becomes the predecessor (keeps its slot),
    // Next becomes Curr, and the old predecessor's slot (the one of 0-2
    // that is neither) is recycled; no register holds it across calls.
    const unsigned SpareIdx = 3 - CurrIdx - NextIdx;
    CurrIdx = NextIdx;
    NextIdx = SpareIdx;
  }
}

/// Harris-Michael list operations, generic over the SMR scheme. All
/// scheme interaction goes through the public `lfsmr::guard` facade; the
/// scheme type only shapes the node header.
template <typename S> struct ListOps {
  using Guard = lfsmr::guard<S>;

  /// List node; the SMR header must be the first member so the scheme's
  /// deleter can recover the node from the header address.
  struct Node {
    typename S::NodeHeader Hdr;
    Key K;
    Value V;
    std::atomic<uintptr_t> Next;

    Node(Key K, Value V) : Hdr(), K(K), V(V), Next(0) {}
  };

  static_assert(offsetof(Node, Hdr) == 0,
                "SMR header must sit at the start of the node");

  /// The scheme deleter for list nodes.
  static void deleteNode(void *Hdr, void * /*Ctx*/) {
    delete static_cast<Node *>(Hdr);
  }

  static constexpr uintptr_t Mark = 1;

  static Node *toNode(uintptr_t Raw) {
    return reinterpret_cast<Node *>(Raw & ~Mark);
  }
  static uintptr_t toRaw(Node *N) { return reinterpret_cast<uintptr_t>(N); }

  /// The step's view of a `Node` chain, probing for key `K`: a marked
  /// node's unlink winner retires it.
  struct Steps {
    Key K;

    std::atomic<uintptr_t> &next(uintptr_t Raw) const {
      return toNode(Raw)->Next;
    }
    bool before(uintptr_t Raw) const { return toNode(Raw)->K < K; }
    bool matches(uintptr_t Raw) const { return toNode(Raw)->K == K; }
    void unlinked(Guard &G, uintptr_t Raw) const {
      G.retire(&toNode(Raw)->Hdr);
    }
    std::atomic<uintptr_t> *restart(std::atomic<uintptr_t> *Head) const {
      return Head;
    }
  };

  /// Michael's find: locates the insertion point for \p K, physically
  /// unlinking (and retiring) any marked nodes encountered.
  static ListPosition find(Guard &G, std::atomic<uintptr_t> &Head, Key K) {
    return michaelFind(G, &Head, Steps{K});
  }

  /// Inserts (K, V); fails if the key is present.
  static bool insert(Guard &G, std::atomic<uintptr_t> &Head, Key K,
                     Value V) {
    Node *Fresh = nullptr;
    while (true) {
      const ListPosition Pos = find(G, Head, K);
      if (Pos.Found) {
        if (Fresh)
          G.discard(&Fresh->Hdr);
        return false;
      }
      if (!Fresh) {
        Fresh = new Node(K, V);
        G.init(&Fresh->Hdr);
      }
      Fresh->Next.store(Pos.CurrRaw, std::memory_order_relaxed);
      uintptr_t Expected = Pos.CurrRaw;
      if (Pos.PrevLink->compare_exchange_strong(Expected, toRaw(Fresh),
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire))
        return true;
    }
  }

  /// Removes K; fails if absent. The winner of the marking CAS retires the
  /// node (after it is physically unlinked here or by a helping find).
  static bool remove(Guard &G, std::atomic<uintptr_t> &Head, Key K) {
    while (true) {
      const ListPosition Pos = find(G, Head, K);
      if (!Pos.Found)
        return false;
      Node *Victim = toNode(Pos.CurrRaw);
      // Logically delete: set the mark bit on the victim's Next.
      uintptr_t Succ = Pos.NextRaw;
      if (!Victim->Next.compare_exchange_strong(Succ, Succ | Mark,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire))
        continue; // next changed or someone else marked: re-find
      // Try to unlink. On failure, a (possibly our own) helping find()
      // performs the unlink and retires the victim; exactly one retire
      // happens either way because only one unlink CAS can succeed.
      uintptr_t Expected = toRaw(Victim);
      if (Pos.PrevLink->compare_exchange_strong(Expected, Succ,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
        G.retire(&Victim->Hdr);
      } else {
        find(G, Head, K); // help physical removal
      }
      return true;
    }
  }

  /// Looks up K.
  static std::optional<Value> get(Guard &G, std::atomic<uintptr_t> &Head,
                                  Key K) {
    const ListPosition Pos = find(G, Head, K);
    if (!Pos.Found)
      return std::nullopt;
    return toNode(Pos.CurrRaw)->V;
  }

  /// Insert-or-replace (the benchmark's "put", paper Section 6's
  /// read-dominated mix): an existing binding is replaced by marking the
  /// old node (exactly like remove) and swinging the predecessor to a
  /// fresh node in one step, retiring the old one. Returns true if K was
  /// newly inserted, false if an existing binding was replaced.
  static bool put(Guard &G, std::atomic<uintptr_t> &Head, Key K, Value V) {
    Node *Fresh = new Node(K, V);
    G.init(&Fresh->Hdr);
    while (true) {
      const ListPosition Pos = find(G, Head, K);
      if (!Pos.Found) {
        Fresh->Next.store(Pos.CurrRaw, std::memory_order_relaxed);
        uintptr_t Expected = Pos.CurrRaw;
        if (Pos.PrevLink->compare_exchange_strong(Expected, toRaw(Fresh),
                                                  std::memory_order_acq_rel,
                                                  std::memory_order_acquire))
          return true;
        continue;
      }
      Node *Victim = toNode(Pos.CurrRaw);
      uintptr_t Succ = Pos.NextRaw;
      // Logically delete the old binding; the replacement linearizes here.
      if (!Victim->Next.compare_exchange_strong(Succ, Succ | Mark,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire))
        continue;
      Fresh->Next.store(Succ, std::memory_order_relaxed);
      uintptr_t Expected = toRaw(Victim);
      if (Pos.PrevLink->compare_exchange_strong(Expected, toRaw(Fresh),
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
        G.retire(&Victim->Hdr);
        return false;
      }
      // A helper unlinks (and retires) the marked victim; retry as an
      // insert of the still-unpublished fresh node.
      find(G, Head, K);
    }
  }
};

} // namespace lfsmr::ds

#endif // LFSMR_DS_LIST_OPS_H
