//===- kv/scan.h - Snapshot-consistent store scans ---------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The snapshot scan layer of `lfsmr::kv`: why one walk per shard
/// (`ShardIndex::scan`) visits every key binding visible at one snapshot
/// stamp, plus the key filters (`MatchAll`, `PrefixFilter`) the store's
/// `scan`/`scan_prefix` apply along the way.
///
/// **Why a whole-shard scan is snapshot-consistent — including across
/// resizes.** Each shard is one split-ordered list (`kv/shard_index.h`);
/// a scan walks it once, front to back, under one guard:
///
///  - *Growth moves nothing.* Doubling a shard's bucket directory only
///    ever links bucket sentinels; key nodes never relocate and the
///    list order never changes. A scan that raced any number of resizes
///    still sees each key node at most once and misses none that it must
///    report.
///  - *What the snapshot must see stays reachable.* A key with any
///    version visible at stamp `s` of a live snapshot cannot be
///    unlinked: key removal requires a settled tombstone no live
///    snapshot can miss (`Store::trimChain`), and the snapshot holding
///    `s` is live for the scan's whole duration.
///  - *What the snapshot must not see filters out.* Versions published
///    after the snapshot validated resolve to stamps above `s`
///    (publish-then-stamp), so the per-key `readAt` cut is exact even
///    for keys inserted, mutated, or marked dead mid-scan. Marked nodes
///    (dead tombstones) are skipped outright — they are invisible to
///    every live snapshot by construction.
///  - *The walk never leaves the list.* It is Michael's find step
///    (`ds::michaelFind`), so it helps unlink a marked node instead of
///    stepping through it: a marked node's frozen link may point at
///    nodes already unlinked and, under hazard pointers, freed. When its
///    re-check fails it re-finds the node it last stood on and skips up
///    to and past it (a re-check that fails mid-skip keeps that target),
///    so it never goes back over a node and no key is visited twice.
///
/// The walk never blocks writers and writers never block it; its only
/// cost to the system is the history the snapshot pins by contract.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_KV_SCAN_H
#define LFSMR_KV_SCAN_H

#include <string_view>

namespace lfsmr::kv {

/// Key filter admitting every key (the plain `scan`).
struct MatchAll {
  /// Always true.
  template <typename KeyView> bool operator()(const KeyView &) const {
    return true;
  }
};

/// Key filter admitting byte-string keys that start with `Prefix`
/// (the `scan_prefix` operation; meaningful only for byte-string keys).
struct PrefixFilter {
  /// The required key prefix (borrowed; must outlive the scan call).
  std::string_view Prefix;

  /// True when \p Key starts with the prefix.
  bool operator()(std::string_view Key) const {
    return Key.size() >= Prefix.size() &&
           Key.compare(0, Prefix.size(), Prefix) == 0;
  }
};

} // namespace lfsmr::kv

#endif // LFSMR_KV_SCAN_H
