//===- ds/michael_hashmap.h - Lock-free hash map ------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Michael's lock-free hash map [TPDS'04]: a fixed array of buckets, each
/// a Harris-Michael chain (`HMList` is the one-bucket map). Operations
/// are very short, which makes this the paper's reclamation stress test
/// (Figures 11b/11e, 12b/12e): enter/leave and retire dominate.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_DS_MICHAEL_HASHMAP_H
#define LFSMR_DS_MICHAEL_HASHMAP_H

#include "ds/list_ops.h"
#include "lfsmr/domain.h"
#include "support/align.h"

#include <atomic>
#include <memory>
#include <optional>

namespace lfsmr::ds {

/// Lock-free chained hash map with integer keys, generic over the SMR
/// scheme \p S.
template <typename S> class MichaelHashMap {
public:
  using Ops = ListOps<S>;
  using Node = typename Ops::Node;

  /// \p BucketCount is rounded up to a power of two. The default gives
  /// load factor < 1 for the paper's 50,000-element prefill.
  explicit MichaelHashMap(const smr::Config &C,
                          std::size_t BucketCount = 1 << 17)
      : Dom(C, &Ops::deleteNode, nullptr),
        Buckets(nextPowerOfTwo(BucketCount)),
        Table(new std::atomic<uintptr_t>[Buckets]) {
    for (std::size_t I = 0; I < Buckets; ++I)
      Table[I].store(0, std::memory_order_relaxed);
  }

  /// Drains all chains; concurrent access must have ceased.
  ~MichaelHashMap() {
    for (std::size_t I = 0; I < Buckets; ++I) {
      uintptr_t Raw = Table[I].load(std::memory_order_relaxed);
      while (Node *N = Ops::toNode(Raw)) {
        Raw = N->Next.load(std::memory_order_relaxed);
        delete N;
      }
    }
  }

  MichaelHashMap(const MichaelHashMap &) = delete;
  MichaelHashMap &operator=(const MichaelHashMap &) = delete;

  /// Inserts (K, V); returns false if K is already present.
  bool insert(smr::ThreadId Tid, Key K, Value V) {
    auto G = Dom.enter(Tid);
    return Ops::insert(G, bucket(K), K, V);
  }

  /// Removes K; returns false if absent.
  bool remove(smr::ThreadId Tid, Key K) {
    auto G = Dom.enter(Tid);
    return Ops::remove(G, bucket(K), K);
  }

  /// Returns the value mapped to K, if any.
  std::optional<Value> get(smr::ThreadId Tid, Key K) {
    auto G = Dom.enter(Tid);
    return Ops::get(G, bucket(K), K);
  }

  /// Insert-or-replace; replacing retires the old node. Returns true if
  /// K was newly inserted.
  bool put(smr::ThreadId Tid, Key K, Value V) {
    auto G = Dom.enter(Tid);
    return Ops::put(G, bucket(K), K, V);
  }

  /// The underlying reclamation scheme (for counters and tests).
  S &smr() { return Dom.scheme(); }
  const S &smr() const { return Dom.scheme(); }

  /// The reclamation domain (public-API access to the same scheme).
  lfsmr::domain<S> &domain() { return Dom; }

protected:
  lfsmr::domain<S> Dom;
  const std::size_t Buckets;
  std::unique_ptr<std::atomic<uintptr_t>[]> Table;

private:
  std::atomic<uintptr_t> &bucket(Key K) {
    // Fibonacci hashing spreads the benchmark's dense integer keys.
    const uint64_t H = K * 0x9e3779b97f4a7c15ULL;
    return Table[(H >> 32) & (Buckets - 1)];
  }
};

} // namespace lfsmr::ds

#endif // LFSMR_DS_MICHAEL_HASHMAP_H
