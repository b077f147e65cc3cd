//===- ds/hm_list.h - Sorted lock-free linked list ---------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sorted Harris-Michael linked list used in the paper's evaluation
/// (Figures 11a/11d, 12a/12d): a single long chain, so operations are
/// dominated by the traversal — the paper's example of an *unbalanced*
/// reclamation workload where most threads read and only a few retire.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_DS_HM_LIST_H
#define LFSMR_DS_HM_LIST_H

#include "ds/michael_hashmap.h"

#include <atomic>
#include <vector>

namespace lfsmr::ds {

/// Sorted lock-free set/map with integer keys, generic over the SMR
/// scheme \p S: a `MichaelHashMap` with one bucket, plus the sorted
/// prefill only a single chain can take.
template <typename S> class HMList : public MichaelHashMap<S> {
  using Base = MichaelHashMap<S>;

public:
  explicit HMList(const smr::Config &C) : Base(C, 1) {}

  /// Builds the chain directly from \p SortedKeys (strictly increasing,
  /// value = key + 1). Setup-only fast path: prefilling a 50,000-element
  /// list through the public insert would cost O(n^2) traversal steps.
  /// Must run before any concurrent access.
  void prefillSorted(const std::vector<Key> &SortedKeys) {
    using Node = typename Base::Node;
    auto G = this->Dom.enter(0);
    std::atomic<uintptr_t> &Head = this->Table[0];
    uintptr_t Chain = Head.load(std::memory_order_relaxed);
    for (auto It = SortedKeys.rbegin(); It != SortedKeys.rend(); ++It) {
      Node *N = new Node(*It, *It + 1);
      G.init(&N->Hdr);
      N->Next.store(Chain, std::memory_order_relaxed);
      Chain = Base::Ops::toRaw(N);
    }
    Head.store(Chain, std::memory_order_release);
  }
};

} // namespace lfsmr::ds

#endif // LFSMR_DS_HM_LIST_H
