//===- kv/scan.h - Snapshot-consistent store scans ---------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The snapshot scan layer of `lfsmr::kv`: a single walk protocol that
/// visits every key binding visible at one snapshot stamp, plus the key
/// filters (`MatchAll`, `PrefixFilter`) the store's `scan`/`scan_prefix`
/// apply along the way.
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
///  - *Unlink races are benign.* If the node under the cursor is
///    physically unlinked mid-visit, its forward link is frozen at
///    unlink time and still enters the list, exactly as in Michael's
///    traversal; the protection-slot rotation keeps it dereferenceable.
///
/// The walk never blocks writers and writers never block it; its only
/// cost to the system is the history the snapshot pins by contract.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_KV_SCAN_H
#define LFSMR_KV_SCAN_H

#include "kv/shard_index.h"

#include <cstdint>
#include <string_view>
#include <utility>

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

/// Walks one shard list from its root sentinel, emitting every *live
/// item* node (sentinels and marked nodes are skipped). \p LinkOf maps a raw
/// node word to its `LinkPart` (the store's layout knowledge); \p Emit
/// receives the tag-stripped raw node. Rotates protection slots 0–2, so
/// \p Emit may use slots 3+ for version-chain reads. Runs under the
/// caller's guard, which must stay open for the whole walk.
template <typename Guard, typename LinkOfFn, typename EmitFn>
void scanShardList(Guard &G, std::uintptr_t Root, LinkOfFn &&LinkOf,
                   EmitFn &&Emit) {
  constexpr std::uintptr_t Tag = 1;
  unsigned CurrIdx = 0, NextIdx = 1, SpareIdx = 2;
  std::uintptr_t CurRaw = G.protect_link(LinkOf(Root)->Next, CurrIdx);
  while (CurRaw & ~Tag) {
    LinkPart *L = LinkOf(CurRaw);
    const std::uintptr_t NextRaw = G.protect_link(L->Next, NextIdx);
    if (!(NextRaw & Tag) && (L->SoKey & 1))
      Emit(CurRaw & ~Tag);
    CurRaw = NextRaw & ~Tag;
    const unsigned Old = SpareIdx;
    SpareIdx = CurrIdx;
    CurrIdx = NextIdx;
    NextIdx = Old;
  }
}

} // namespace lfsmr::kv

#endif // LFSMR_KV_SCAN_H
