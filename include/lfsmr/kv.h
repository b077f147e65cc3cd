//===- lfsmr/kv.h - Versioned key-value store --------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `lfsmr::kv` — a sharded, versioned key-value store with snapshot
/// reads and scans, built entirely on the public reclamation API. It is
/// the library's serving-scale workload: every allocation and retirement
/// flows through `lfsmr::domain`/`lfsmr::guard` (intrusive mode: every
/// node carries its scheme header first), and a versioned store retires
/// obsolete versions at write rate — the shape of load that separates
/// robust reclamation schemes from the rest.
///
/// \code
///   #include <lfsmr/kv.h>
///
///   lfsmr::kv::store<lfsmr::schemes::hyaline_s> db;          // u64 -> u64
///
///   db.put(tid, /*key=*/42, /*value=*/1);
///   lfsmr::kv::snapshot snap = db.open_snapshot();
///   db.put(tid, 42, 2);
///
///   db.get(tid, 42);        // => 2 (latest)
///   db.get(tid, 42, snap);  // => 1 (as of the snapshot)
///
///   // Atomic multi-key transactions: buffered writes, read-your-
///   // writes, first-writer-wins conflict detection, one commit stamp
///   // for the whole batch.
///   auto txn = db.begin_transaction();
///   auto from = txn.get(tid, 42);             // snapshot read
///   txn.put(42, *from - 10);
///   txn.put(43, 10);                          // buffered, invisible
///   if (!txn.commit(tid)) { /* conflicting write won: retry */ }
///
///   // Single-key atomics without a transaction:
///   db.compare_and_set(tid, 42, /*expected=*/2, /*desired=*/3);
///   db.merge(tid, 42, [](std::optional<std::uint64_t> cur) {
///     return cur.value_or(0) + 1;
///   });
///
///   // String keys and values are one template argument away:
///   lfsmr::kv::store<lfsmr::schemes::hyaline_s,
///                    std::string, std::string> names;
///   names.put(tid, "user/7/name", "ada");
///   auto cut = names.open_snapshot();
///   names.scan(tid, cut, [](std::string_view k, std::string_view v) {
///     /* consistent cut of the whole store */
///   });
///   names.scan_prefix(tid, cut, "user/7/", [](auto k, auto v) { ... });
/// \endcode
///
/// Semantics:
///
///  - **Typed payloads through codecs.** Keys and values may be
///    `uint64_t` (the default), any trivially-copyable struct, or
///    `std::string` (owned byte-strings). Variable-size payloads live in
///    the version record's own allocation — one node to protect, retire,
///    and free per version (`kv::Codec`).
///  - **Versioned writes.** `put`/`erase` append a stamped version to the
///    key's lock-free chain; `erase` writes a tombstone so older
///    snapshots keep seeing the previous value.
///  - **Snapshot reads & scans.** `open_snapshot()` captures the
///    store-wide version clock; reads through the handle are repeatable
///    and see, per key, the newest version at or below the captured
///    value. `scan`/`scan_prefix` visit every binding in that cut —
///    consistently even across concurrent bucket growth.
///  - **Cooperative per-shard resizing.** Each shard's bucket array is a
///    grow-only directory over a split-ordered key list: the writer that
///    pushes a shard past its load factor doubles the directory, buckets
///    materialize lazily under the guards of the writers that touch
///    them, and readers never block (key nodes never move).
///  - **Write-side trimming.** Versions older than what the oldest live
///    snapshot can see are retired by the writers themselves — no
///    background thread. With no snapshot open every chain trims to one
///    version; a long-lived snapshot pins history *by design* (that is
///    its contract), while reclamation robustness under a stalled
///    *guard* is whatever the chosen scheme guarantees.
///  - **Atomic multi-key transactions.** `begin_transaction()` pins a
///    snapshot and buffers a write set; `commit` publishes every version
///    under one shared commit record and resolves it with a single
///    clock tick, so any snapshot read or scan observes the batch
///    all-or-nothing. Conflicts are first-writer-wins: the commit fails
///    cleanly if a buffered key advanced past the transaction's read
///    stamp. `compare_and_set`/`merge` are the buffer-free single-key
///    fast path (see `kv/txn.h` for the protocol).
///  - **All nine schemes, one node layout.** Every key, version and
///    commit record is the scheme's header followed by its record
///    (bucket sentinels are not nodes: they live inline in the bucket
///    directory, never allocated and never retired), so
///    `store<Scheme, K, V>` runs the same code for every alias in
///    `lfsmr/schemes.h`, HP included. `store::domain()` is
///    therefore an intrusive-mode domain under every scheme:
///    `guard::create` on it throws `std::logic_error`.
///  - **A store-owned node pool.** With fixed-size keys and values
///    every node is a slot of the store's pool (`kv/node_pool.h`): the
///    domain's deleter returns each reclaimed slot to a shared stack
///    that every writer allocates from, whichever thread freed it. The
///    pool's chunks are released when the store is destroyed
///    (`stats().node_bytes` reports them). Byte-string payloads and
///    AddressSanitizer builds take nodes from `::operator new` instead.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_KV_H
#define LFSMR_KV_H

#include "kv/codec.h"
#include "kv/snapshot_registry.h"
#include "kv/store.h"
#include "kv/txn.h"

#include <cstdint>

namespace lfsmr::kv {

/// Sharded, versioned KV store generic over the reclamation scheme and
/// the key/value types (64-bit integers by default; trivially-copyable
/// structs and `std::string` are supported out of the box, other types
/// via a `kv::Codec` specialization). See `kv::Store` for the full
/// operation surface: `put`, `erase`, `get`, `get(at snapshot)`,
/// `open_snapshot`, `scan`, `scan_prefix`, `for_each`, `compact`,
/// `stats`, `options`.
template <typename Scheme, typename K = std::uint64_t,
          typename V = std::uint64_t>
using store = Store<Scheme, K, V>;

/// Move-only RAII snapshot handle returned by `store::open_snapshot`;
/// releases its claim on destruction. `version()` is the clock value it
/// reads at. Destroy (or `reset()`) every handle before the store it
/// came from — releasing writes into store-owned state.
using snapshot = SnapshotHandle;

/// Construction-time knobs: shard count, initial buckets per shard, the
/// resize load factor, initial snapshot-slot count, and the
/// reclamation-domain configuration. Power-of-two fields are rounded up
/// symmetrically; `store::options()` returns the values actually
/// applied.
using options = Options;

/// Optimistic multi-key transaction handle returned by
/// `store::begin_transaction`: buffered `put`/`erase` with
/// read-your-writes `get`, committed atomically under one shared stamp
/// (`commit`) or abandoned (`abort`). Move-only and single-use; like a
/// snapshot, it must not outlive its store. See `kv/txn.h` for the
/// commit protocol and its progress guarantees.
template <typename Scheme, typename K = std::uint64_t,
          typename V = std::uint64_t>
using txn = Txn<Scheme, K, V>;

} // namespace lfsmr::kv

#endif // LFSMR_KV_H
