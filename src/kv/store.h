//===- kv/store.h - Sharded versioned key-value store ------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `lfsmr::kv::Store<Scheme, K, V>`: a lock-free, sharded, *versioned*
/// key-value store built entirely on the public reclamation API
/// (`lfsmr::domain` / `lfsmr::guard`). It is the library's serving-scale
/// consumer: where the `src/ds/` containers each exercise one paper
/// figure, the store exercises the reclamation schemes the way a real
/// workload does — short hash operations, CAS-appended version chains
/// that retire at write rate, snapshot readers that pin history, and
/// bucket arrays that grow under load.
///
/// The store is assembled from three layers, each in its own header:
///
///   kv/codec.h        key/value payload codecs: uint64_t, trivially
///                     copyable structs, owned byte-strings — variable
///                     size payloads ride in the record's own allocation
///   kv/shard_index.h  per-shard split-ordered key index: Michael-list
///                     protocol + cooperative lock-free bucket growth
///   kv/scan.h         snapshot-consistent whole-store scans + filters
///
/// Two optional layers sit on top: `kv/txn.h` (atomic multi-key
/// transactions) and `kv/submit.h` (the async batched write path:
/// per-shard submission rings drained by a flat-combining applier into
/// `applyAsyncBatch` below — one guard, one stamp window per batch).
///
/// Every write runs through two kernels. `publishFold` is the only
/// append: it finds the key, settles its head, optionally checks a
/// transaction's read stamp, runs a *fold* over the settled head, and
/// CAS-appends what the fold asks for — put folds to a constant, erase
/// to a tombstone (nothing over a dead key), `compare_and_set` to a
/// conditional, `merge` to the caller's function, an async group to its
/// requests' folds in order, a transaction entry to a constant. A fold
/// may answer "no write". `commitGroups` is the only commit-record
/// driver: transactions and multi-key async batches publish their
/// groups through `publishFold` under one record and resolve it with
/// one clock tick (a single group takes the solo path, no record).
/// Each chain step below them is spelled once, too: `locate` (key
/// lookup), `stepOlder` (protected descent), `detachSuffix`, `markDead`
/// (dead-mark and unlink) and `pinCommit` (commit-record pin).
///
/// Shape:
///
///   store ── shard[0..S) ── split-ordered list (bucket sentinels live
///                           inline in a grow-only directory)
///                │
///           key node ── version chain (newest first)
///                        [stamp·record | older·tomb | value] → …
///
///  - Each shard keeps one sorted lock-free list of key nodes plus
///    per-bucket sentinels. A sentinel is a `LinkPart` inside its
///    directory slot, not a heap node: it has no scheme header, is never
///    retired, and costs no allocation. The `LinkPart` is the key
///    record's head too; its third word is the key's version-chain head,
///    and a sentinel's bucket state. Growing the bucket array never
///    moves a node (see `kv/shard_index.h` for the protocol and its
///    rationale).
///  - Each key node owns a version chain: every `put`/`erase` CAS-appends
///    a fresh `[stamp | value]` node at the head. Stamps are drawn from
///    the store's `SnapshotRegistry` clock *after* publication
///    (publish-then-stamp); readers that meet a still-pending stamp help
///    assign it, which is what makes snapshot reads repeatable.
///  - A snapshot (`SnapshotHandle`) reads, for every key, the newest
///    version whose stamp is at or below its validated clock value;
///    `scan` visits every binding in that cut (`kv/scan.h`).
///  - Writers trim the version-chain *suffix* past the oldest live
///    snapshot right after appending (no background thread): the chain
///    below the newest version any live snapshot can see is detached
///    and retired (`detachSuffix`). A chain reduced to one settled
///    tombstone unlinks its key node entirely.
///  - Multi-key transactions (`kv/txn.h`) publish every version of a
///    write set under one shared commit record and resolve it with a
///    single clock tick, so snapshot reads observe the batch
///    all-or-nothing. The chain protocol that makes this sound is
///    documented at `stampOf` / `settleHeadForWrite` below; its load-
///    bearing invariants are:
///
///      1. *Never append above an unsettled head.* A writer first
///         settles the head's stamp: solo-pending stamps are helped
///         (`resolve`), an unpublished transaction is *killed* (its
///         commit record CASed to Aborted — keeping solo writes
///         lock-free), and an aborted head is unpublished from the
///         chain before anything goes above it. Corollary: only the
///         head of a chain can ever be unsettled or aborted, so stamps
///         strictly decrease down every chain. Enforced in one place:
///         `publishFold` appends only after `settleHeadForWrite`.
///      2. *A version whose stamp word is unsettled is never retired.*
///         Unsettled means `Pending` (a solo write) or `TxnBit | record`
///         (a transaction's version whose record has not decided). Trim
///         boundaries must be settled, suffix nodes below a boundary are
///         settled by (1), and an aborted head's stamp word is cached to
///         `AbortBit | record` before the unpublish CAS. This is what
///         makes dereferencing the record address a stamp word carries
///         safe (see `pinCommit`). Enforced at each version retire:
///         `trimChain` calls `detachSuffix` only below a confirmed
///         settled boundary, `unpublishAbortedHead` retires only a head
///         cached to an abort, and `retireUnlinked` runs only after
///         `markDead` took a settled tombstone or an aborted sole
///         version.
///      3. *A commit record is retired only after every version it
///         published has left its `TxnBit` word* — settled, or cached to
///         `AbortBit | record` (the committer's settle sweep, or the abort
///         sweep's unpublish). Readers protect the record through a
///         stack-local word and then re-check the version's stamp word
///         (`pinCommit`), so an unchanged `TxnBit` word proves the record
///         is still alive. Enforced in one place: `commitGroups` sweeps
///         every published group (`settleAndTrim` / `abortPublished`)
///         before the record retires.
///
/// One node layout for every scheme: each node is the scheme's header
/// followed by one record (version, key or commit record),
/// its codec payload running on into trailing bytes of the same
/// allocation. Records are trivially destructible by construction, so
/// one raw-storage deleter serves every node shape, and the store's
/// domain runs in intrusive mode under all nine schemes — `guard::create`
/// on `domain()` throws. Both records are three words for `uint64_t`
/// keys and values:
///
///   version  [stamp·record | older·tomb | value]
///   key      [split-order key | next·mark | version head]
///
/// A version's stamp word also carries a transaction's commit record
/// while the record is undecided, and bit 0 of its `Older` link is the
/// tombstone flag. A key whose codec hashes by a bijection (`uint64_t`:
/// `Codec::unhash`) is its full reversed hash, so its record stores no
/// key bytes; scans, `compact` and `probeOf` rebuild it (`keyOf`), and a
/// find matches on the split-order key alone. So with a 24 B header
/// (Hyaline) a `uint64_t` version and key are 48 B each, one pool slot;
/// a transparent block would add 40 B to each node.
///
/// Node memory: when both codecs are fixed size, every node is one slot
/// of the store-owned `NodePool` (`kv/node_pool.h`), sized for the
/// largest of the three node shapes. `makeNode` takes a slot from the
/// allocating thread's cache (`guard::tid()`), and the domain's deleter —
/// registered with the pool as its context — pushes the slot onto the
/// pool's shared return stack, whichever thread reclamation frees it on.
/// So a slot Hyaline frees on any thread is reused by every writer,
/// where glibc would hand it back to the allocating thread's arena only.
/// Byte-string payloads (the node size varies per value) keep
/// `::operator new`. Sanitizer builds run the same pool: under
/// AddressSanitizer it poisons and quarantines every freed slot itself.
/// The pool is declared before the domain, so every free of the domain's
/// teardown lands in a live pool.
///
/// Protection-slot discipline (HP/HE): every index walk (`locate`, the
/// scans) is `ds::michaelFind`, which rotates slots 0–2 for the
/// containers and the index alike; version-chain walks take the
/// head in slot 3 and rotate slots 3–4 through `stepOlder`; slot 5 is
/// `protectSelf`'s (a writer's own fresh version through the publish-
/// then-stamp window) and slot 6 is `pinCommit`'s (a transaction's
/// commit record while a reader resolves its shared stamp).
/// `Options::Reclaim.NumHazards` is raised to at least 8.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_KV_STORE_H
#define LFSMR_KV_STORE_H

#include "kv/codec.h"
#include "kv/node_pool.h"
#include "kv/scan.h"
#include "kv/shard_index.h"
#include "kv/snapshot_registry.h"
#include "lfsmr/domain.h"
#include "lfsmr/telemetry.h"
#include "support/align.h"
#include "support/telemetry.h"
#include "support/trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace lfsmr::kv {

/// Construction-time knobs for `Store`.
struct Options {
  /// Reclamation-domain configuration (`NumHazards` is raised to >= 8;
  /// the store's chain walks hold up to six protections live).
  lfsmr::config Reclaim;

  /// Shard count; rounded up to a power of two (symmetrically with
  /// `BucketsPerShard` — the applied value is visible via
  /// `Store::options()`). Each shard owns an independent split-ordered
  /// list and bucket directory.
  std::size_t Shards = 8;

  /// *Initial* buckets per shard; rounded up to a power of two. Each
  /// shard's bucket directory doubles on demand (see `MaxLoadFactor`),
  /// so this only sets the floor.
  std::size_t BucketsPerShard = 1024;

  /// Cooperative-resize trigger: when a shard holds more than
  /// `MaxLoadFactor * buckets` keys, the writer that crossed the line
  /// doubles the shard's bucket directory (readers never block; new
  /// buckets materialize lazily). 0 disables growth.
  std::size_t MaxLoadFactor = 4;

  /// Initial snapshot-slot count; rounded up to a power of two (both
  /// here and at the registry boundary, so direct `SnapshotRegistry`
  /// users get the same guarantee). The slot directory grows lock-free
  /// when more snapshots are live concurrently. Slot words are
  /// cache-line strided (128 B each), so this is a footprint knob too.
  std::size_t MinSnapshotSlots = 8;
};

template <typename Scheme, typename K, typename V> class Txn;
template <typename Scheme, typename K, typename V> class Submitter;

/// Sharded, versioned KV store with snapshot reads and scans, generic
/// over the reclamation scheme \p Scheme and the key/value types
/// \p K / \p V (`std::uint64_t` by default; any type with a `kv::Codec`
/// — trivially copyable structs and `std::string` out of the box).
/// Immovable; construct before the threads that use it, destroy after
/// they quiesce.
template <typename Scheme, typename K = std::uint64_t,
          typename V = std::uint64_t>
class Store {
public:
  /// Key type.
  using key_type = K;
  /// Value type.
  using value_type = V;
  /// Borrowed key view handed to scan visitors.
  using key_view = typename Codec<K>::view_type;
  /// Borrowed value view handed to scan visitors.
  using value_view = typename Codec<V>::view_type;
  /// The RAII guard all operations run under.
  using guard_type = lfsmr::guard<Scheme>;

  /// Builds the store: the shard index, the snapshot registry, the node
  /// pool (fixed-size payloads only), and one intrusive-mode reclamation
  /// domain (every node carries its scheme header first).
  explicit Store(const Options &O = {})
      : Opt(normalize(O)), Registry(Opt.MinSnapshotSlots),
        ShardBits(floorLog2(Opt.Shards)),
        Pool(Pooled ? std::optional<NodePool>(std::in_place, SlotBytes,
                                              SlotAlign, Opt.Reclaim.MaxThreads)
                    : std::nullopt),
        Dom(Opt.Reclaim, &Store::deleteNode, Pool ? &*Pool : nullptr) {
    Index.reset(
        new Index_t(*this, Opt.Shards, Opt.BucketsPerShard, Opt.MaxLoadFactor));
  }

  /// Drains every key and version node. Concurrent access must
  /// have ceased and every snapshot handle must have been destroyed or
  /// `reset()` — a handle merely left unused still releases into the
  /// store-owned registry when it is eventually destroyed, which would
  /// then be freed memory.
  ~Store() {
    assert(Registry.liveSnapshots() == 0 &&
           "destroy or reset() every kv::snapshot before the store");
    auto G = Dom.enter(0);
    for (std::size_t S = 0; S < Opt.Shards; ++S) {
      std::uintptr_t Raw = Index->root(S);
      while (Raw & ~Tag) {
        LinkPart *L = linkOf(Raw);
        const std::uintptr_t Next = L->Next.load(std::memory_order_relaxed);
        if (!L->sentinel()) {
          KNode *KN = toK(Raw);
          std::uintptr_t VW =
              KN->R.L.VHead.load(std::memory_order_relaxed) & ~Tag;
          while (VNode *VN = toV(VW)) {
            VW = VN->R.Older.load(std::memory_order_relaxed);
            G.discard(&VN->Hdr);
          }
          G.discard(&KN->Hdr);
        }
        Raw = Next & ~Tag;
      }
    }
  }

  Store(const Store &) = delete;
  Store &operator=(const Store &) = delete;

  /// Inserts or replaces the binding for \p Key, appending a new
  /// version. Returns true when \p Key had no live binding (fresh insert
  /// or insert over a tombstone). Trims the version-chain suffix past
  /// the oldest live snapshot before returning.
  bool put(thread_id Tid, const K &Key, const V &Val) {
    auto G = Dom.enter(Tid);
    Assign A{&Val};
    (void)publishFold(G, Key, Codec<K>::hash(Key), A, nullptr, nullptr);
    return !A.WasLive;
  }

  /// Removes the binding for \p Key by appending a tombstone version (so
  /// older snapshots keep seeing the previous value). Returns false when
  /// \p Key had no live binding. Once no snapshot can see anything but
  /// the tombstone, the key node itself is unlinked and retired.
  bool erase(thread_id Tid, const K &Key) {
    auto G = Dom.enter(Tid);
    Assign A{nullptr};
    (void)publishFold(G, Key, Codec<K>::hash(Key), A, nullptr, nullptr);
    return A.WasLive;
  }

  /// Latest-value read: the newest *committed* version of \p Key, or
  /// nullopt when the key is absent or tombstoned. The snapshot read at
  /// the top of the stamp range: every settled stamp is at or below
  /// `StampMask` and the Pending/Unpublished/Aborted sentinels above it,
  /// so versions of an unpublished or aborted transaction stay invisible
  /// (`readAt` descends past pending ones and restarts from the head
  /// when it meets an aborted one).
  std::optional<V> get(thread_id Tid, const K &Key) {
    return getAt(Tid, Key, SnapshotRegistry::StampMask);
  }

  /// Atomically replaces \p Key's value with \p Desired iff its current
  /// visible value equals \p Expected (codec byte/lexicographic
  /// equality). The single-key transactional fast path: no write-set
  /// buffering and no commit record — one conflict-free CAS append on a
  /// settled head. Returns false when the key is absent, tombstoned, or
  /// holds a different value.
  bool compare_and_set(thread_id Tid, const K &Key, const V &Expected,
                       const V &Desired) {
    auto G = Dom.enter(Tid);
    bool Swapped = false;
    (void)publishFold(
        G, Key, Codec<K>::hash(Key),
        [&](const HeadView &Hd) {
          Swapped = Hd.live() && Codec<V>::compare(Hd.N->R.Val, Expected) == 0;
          return Swapped ? Folded{true, &Desired} : Folded{};
        },
        nullptr, nullptr);
    return Swapped;
  }

  /// Atomic read-modify-write of one key without a transaction: \p Fn
  /// receives the current visible value (nullopt when the key is absent
  /// or tombstoned) and returns the value to store. Retries until the
  /// append lands on an unchanged head, so \p Fn may run more than once
  /// and must be pure. Returns the stored value.
  template <typename F> V merge(thread_id Tid, const K &Key, F &&Fn) {
    auto G = Dom.enter(Tid);
    std::optional<V> NewV;
    (void)publishFold(
        G, Key, Codec<K>::hash(Key),
        [&](const HeadView &Hd) {
          NewV.emplace(Fn(Hd.value()));
          return Folded{true, &*NewV};
        },
        nullptr, nullptr);
    return std::move(*NewV);
  }

  /// Opens a multi-key transaction on this store: a snapshot pinned for
  /// repeatable reads plus a buffered write set with read-your-writes,
  /// committed atomically under one shared stamp (`kv/txn.h` has the
  /// protocol). Defined in `kv/txn.h`; include `lfsmr/kv.h` to use it.
  Txn<Scheme, K, V> begin_transaction();

  /// Snapshot read: the newest version of \p Key whose stamp is at or
  /// below \p Snap's validated clock value. Repeatable: two reads of the
  /// same key through the same snapshot return the same result.
  std::optional<V> get(thread_id Tid, const K &Key,
                       const SnapshotHandle &Snap) {
    return getAt(Tid, Key, Snap.version());
  }

  /// Opens a snapshot of the whole store at the current version clock.
  /// While it is live, writers stop trimming versions it can see; the
  /// handle releases on destruction. Any thread may open one (no
  /// thread-id needed — the registry is transparent). In the steady
  /// state (this thread recently opened a snapshot and the clock has
  /// not left the last slot's stamp behind) open and close are one RMW
  /// each (`SnapshotRegistry::acquire`'s fast path). The handle must
  /// not outlive the store: destroy or `reset()` it first (its release
  /// writes into the store-owned registry).
  SnapshotHandle open_snapshot() {
    // Telemetry: one open in `TelemetryStride` is timed (two clock reads
    // ~40ns would otherwise dwarf the one-RMW fast path). Builds with
    // telemetry off compile the sampler to a constant-false tick, so the
    // branch and both clock reads fold away.
    thread_local telemetry::Sampler Smp;
    if (Smp.tick(TelemetryStride)) {
      const std::uint64_t T0 = telemetry::nowNs();
      SnapshotHandle H(Registry);
      SnapOpenNs.record(telemetry::nowNs() - T0);
      return H;
    }
    return SnapshotHandle(Registry);
  }

  /// Scans every binding visible at \p Snap, invoking
  /// `Fn(key_view, value_view)` with *borrowed* views valid only inside
  /// the call. Keys arrive in unspecified order; the callback runs under
  /// an open guard, so it must not block. Consistent across concurrent
  /// writes *and bucket growth*: resizes never move a key node, so the
  /// snapshot cut is exact (see `kv/scan.h` for the argument).
  template <typename F>
  void scan(thread_id Tid, const SnapshotHandle &Snap, F &&Fn) {
    scanFiltered(Tid, Snap.version(), MatchAll{}, std::forward<F>(Fn));
  }

  /// `scan` restricted to byte-string keys starting with \p Prefix.
  /// Only available when \p K is carried by a byte-string codec.
  template <typename F>
  void scan_prefix(thread_id Tid, const SnapshotHandle &Snap,
                   std::string_view Prefix, F &&Fn) {
    static_assert(IsBytesCodec<K>,
                  "scan_prefix requires a byte-string key type");
    scanFiltered(Tid, Snap.version(), PrefixFilter{Prefix},
                 std::forward<F>(Fn));
  }

  /// Scans every binding visible at \p Snap, invoking `Fn(key, value)`
  /// with *owned* copies (decoded through the codecs); the convenience
  /// sibling of `scan` for callers that store the results.
  template <typename F>
  void for_each(thread_id Tid, const SnapshotHandle &Snap, F &&Fn) {
    scan(Tid, Snap, [&](key_view KeyV, value_view ValV) {
      Fn(K(KeyV), V(ValV));
    });
  }

  /// Walks the whole store once, trimming every version chain against
  /// the current oldest live snapshot and unlinking keys reduced to a
  /// settled tombstone. Writers already trim as they go; this exists for
  /// read-mostly phases and for deterministic accounting in tests.
  void compact(thread_id Tid) {
    std::vector<K> Keys;
    // One guard per shard (not one across the sweep): a single pinned
    // era over the whole collection would hold back reclamation of
    // everything retired domain-wide while it runs.
    for (std::size_t S = 0; S < Opt.Shards; ++S) {
      auto G = Dom.enter(Tid);
      Index->scan(G, S, [&](std::uintptr_t R) {
        Keys.push_back(K(keyOf(toK(R))));
      });
    }
    for (const K &Key : Keys) {
      auto G = Dom.enter(Tid);
      const Lookup L = locate(G, Key, Codec<K>::hash(Key), false);
      if (L.KN)
        trimChain(G, L);
    }
  }

  /// Current version clock (the stamp the next snapshot would read at).
  std::uint64_t version() const { return Registry.clock(); }

  /// Number of currently open snapshot handles (exact at quiescence).
  std::size_t live_snapshots() const { return Registry.liveSnapshots(); }

  /// Full store telemetry snapshot: the domain's allocation accounting
  /// and era (`telemetry::domain_stats` base), the snapshot machinery's
  /// counters (version clock, live snapshots, slot capacity, slow
  /// acquires, fast rejects), index resize triggers, transaction
  /// outcomes, and the three latency/size histogram summaries. Converts
  /// implicitly to `memory_stats` for callers of the pre-telemetry
  /// surface; approximate while threads are running, exact at
  /// quiescence. Builds with `LFSMR_TELEMETRY=OFF` report zeros for
  /// every telemetry-only field.
  telemetry::store_stats stats() const {
    telemetry::store_stats St{};
    static_cast<telemetry::domain_stats &>(St) = Dom.stats();
    St.version_clock = Registry.clock();
    St.live_snapshots = Registry.liveSnapshots();
    St.snapshot_slots = Registry.slotCapacity();
    const SnapshotRegistry::AcquireStats A = Registry.acquireStats();
    St.slow_acquires = A.SlowAcquires;
    St.fast_rejects = A.FastRejects;
    St.index_resizes = Index->resizeCount();
    St.node_bytes = Pool ? Pool->bytes() : 0;
    St.txn_commits = TxnCommits.total();
    St.txn_aborts = TxnAborts.total();
    St.async_submits = AsyncSubmits.total();
    St.combiner_takeovers = CombinerTakeovers.total();
    St.sync_fallbacks = SyncFallbacks.total();
    St.snapshot_open_ns = SnapOpenNs.summarize();
    St.trim_walk_len = TrimWalkLen.summarize();
    St.txn_commit_ns = TxnCommitNs.summarize();
    St.submit_batch_len = SubmitBatchLen.summarize();
    return St;
  }

  /// The normalized construction options actually applied: `Shards`,
  /// `BucketsPerShard`, and `MinSnapshotSlots` rounded up to powers of
  /// two, `Reclaim.NumHazards` raised to the store's floor.
  const Options &options() const { return Opt; }

  /// Shard count (normalized; power of two).
  std::size_t shards() const { return Opt.Shards; }

  /// Current bucket count of shard \p S (monotone under load).
  std::size_t buckets(std::size_t S) const { return Index->buckets(S); }

  /// Approximate number of key nodes in shard \p S (exact at
  /// quiescence; logically-dead keys count until physically unlinked).
  std::int64_t shard_keys(std::size_t S) const { return Index->items(S); }

  /// Length of \p Key's version chain (0 when absent). Test /
  /// introspection hook; O(chain), racy under concurrent writes.
  std::size_t version_count(thread_id Tid, const K &Key) {
    auto G = Dom.enter(Tid);
    const Lookup L = locate(G, Key, Codec<K>::hash(Key), false);
    if (!L.KN)
      return 0;
    std::size_t N = 0;
    unsigned Spare = VSlotB;
    for (VNode *VN = toV(G.protect_link(L.KN->R.L.VHead, VSlotA)); VN;) {
      ++N;
      if (!stepOlder(G, VN, VN->R.Stamp.load(std::memory_order_seq_cst),
                     Spare))
        break; // a txn died under the walk; the count is racy anyway
    }
    return N;
  }

  /// The snapshot registry (scheme-independent clock + slots).
  SnapshotRegistry &registry() { return Registry; }

  /// The reclamation domain backing the store. Intrusive mode under every
  /// scheme: `guard::create` on it throws `std::logic_error`.
  lfsmr::domain<Scheme> &domain() { return Dom; }

  /// The shard index: per-shard bucket directories and split-ordered
  /// lists (introspection and tests; racy under concurrent writes).
  ShardIndex<Store> &index() { return *Index; }

  /// The underlying scheme instance (for counters and tests).
  Scheme &smr() { return Dom.scheme(); }
  /// \copydoc smr
  const Scheme &smr() const { return Dom.scheme(); }

private:
  //===------------------------------------------------------------------===//
  // Node layout — the scheme header, then one codec-shaped record
  //===------------------------------------------------------------------===//

  /// Low bit of `VHead` marks a logically removed key; low bit of a
  /// node's `Next` marks it for list unlink (Michael's protocol, owned
  /// by the shard index).
  static constexpr std::uintptr_t Tag = 1;

  /// Low bit of a version's `Older` word marks a tombstone. Version
  /// nodes are aligned past it, so bit 0 of a link is always free;
  /// `toV` and HP's hazard slots (`TagMask`) strip it, so `protect_link`
  /// on the flagged word still pins the older version.
  static constexpr std::uintptr_t TombBit = 1;

  /// A transactional version's stamp word, while its commit record is
  /// undecided, holds `TxnBit | record address`; once the record aborts
  /// it caches `AbortBit | record address`. Both bits lie above every
  /// settled stamp (48 bits) and every user-space address, and below
  /// bit 63, which all three registry sentinels set, so the top three
  /// bits classify a word: 0 settled, `AbortBit`, `TxnBit`, or a
  /// sentinel (only `Pending`, a solo write, occurs in a version).
  static constexpr std::uint64_t TxnBit = std::uint64_t{1} << 62;
  /// \copydoc TxnBit
  static constexpr std::uint64_t AbortBit = std::uint64_t{1} << 61;
  static_assert(SnapshotRegistry::StampMask < AbortBit &&
                    (SnapshotRegistry::Aborted >> 61) == 7,
                "stamp-word classes must not overlap");

  /// True when stamp word \p W names an undecided commit record.
  static bool txnPending(std::uint64_t W) { return W >> 61 == TxnBit >> 61; }
  /// True when stamp word \p W is a cached abort.
  static bool abortMarked(std::uint64_t W) {
    return W >> 61 == AbortBit >> 61;
  }
  /// The commit record a `TxnBit` / `AbortBit` stamp word names.
  static std::uintptr_t recordOf(std::uint64_t W) {
    return static_cast<std::uintptr_t>(W & ~(TxnBit | AbortBit));
  }

  /// Protection slots for version-chain walks (the index walk owns 0–2).
  static constexpr unsigned VSlotA = 3, VSlotB = 4;

  /// Slot holding the writer's own freshly appended version through the
  /// publish-then-stamp window.
  static constexpr unsigned VSlotSelf = 5;

  /// Slot pinning a transaction's commit record while `stampOf` resolves
  /// a version's shared stamp through it.
  static constexpr unsigned VSlotC = 6;

  /// Telemetry latency sampling stride (power of two): one operation in
  /// this many carries the two `steady_clock` reads that feed the
  /// latency histograms. Counters are never sampled — only timing is.
  static constexpr unsigned TelemetryStride = 64;

  /// One version: the stamp word, the link to the next older version
  /// (its bit 0 the tombstone flag), and the codec-shaped payload
  /// (variable-size payloads ride in the record's trailing suffix). The
  /// stamp word is `Pending` for a solo write until `resolve` settles it,
  /// and `TxnBit | record` for a transaction's until the record decides
  /// (`stampOf` caches the outcome). Immutable once stamped, except
  /// `Older`'s link, which trimmers take with `fetch_and(TombBit)`; the
  /// flag is written once before publication and never after.
  struct VersionRec {
    std::atomic<std::uint64_t> Stamp;
    std::atomic<std::uintptr_t> Older;
    typename Codec<V>::storage_type Val; // last: trailing bytes follow

    VersionRec(bool Tomb, std::uintptr_t Old, std::uintptr_t C = 0)
        : Stamp(C ? TxnBit | C : SnapshotRegistry::Pending),
          Older(Old | (Tomb ? TombBit : 0)) {}

    /// Relaxed suffices: the flag's only store precedes the publishing
    /// CAS, and every reader reached the node through an acquire
    /// `protect_link`.
    bool tombstone() const {
      return Older.load(std::memory_order_relaxed) & TombBit;
    }
  };

  /// One transaction commit record: the shared stamp word every version
  /// of the write set points at. Life cycle (see `snapshot_registry.h`):
  /// born Unpublished; the committer CASes it to Pending after the last
  /// publish (opening it for reader helping) or any writer that meets an
  /// Unpublished head CASes it to Aborted (the kill); `resolveCommit`
  /// settles Pending with one tick. Retired by its owner only after the
  /// settle/abort sweep — invariant (3) in the file header.
  struct CommitRec {
    std::atomic<std::uint64_t> Stamp{SnapshotRegistry::Unpublished};
  };

  /// True when a key is rebuilt from its split-order key (its codec's
  /// hash is a bijection, `Codec<K>::unhash`), so key records carry no
  /// key bytes: the full reversed hash is the key.
  static constexpr bool KeyInSoKey = IsBijectiveHashCodec<K>;

  /// The key payload of a key record whose key lives in its split-order
  /// key.
  struct NoKeyBytes {};

  /// One key: the split-order key, the list link and the version-chain
  /// head (`LinkPart`), then the codec-shaped key payload — none when
  /// `KeyInSoKey` — last, for the same trailing-suffix reason.
  struct KeyRec {
    LinkPart L;
    [[no_unique_address]] std::conditional_t<
        KeyInSoKey, NoKeyBytes, typename Codec<K>::storage_type>
        Key; // last: trailing bytes follow

    KeyRec(std::uint64_t So, std::uintptr_t Head) : L(So, Head) {}
  };

  static_assert(offsetof(KeyRec, L) == 0,
                "the link prefix must head the key record");

  /// A node: the scheme header first, then one record. The header sits
  /// at the node's address, which is what every scheme's deleter frees
  /// and what HP's hazard slots hold. The record's codec payload may run
  /// on into trailing bytes of the same allocation.
  template <typename Rec> struct Node {
    typename Scheme::NodeHeader Hdr;
    Rec R;

    template <typename... A>
    explicit Node(A &&...Args) : Hdr{}, R(std::forward<A>(Args)...) {}
  };

  using VNode = Node<VersionRec>;
  using KNode = Node<KeyRec>;
  using CNode = Node<CommitRec>;

  /// True when `Node<Rec>` is its scheme header followed directly by its
  /// record: no hidden prefix, no padding beyond the record's alignment.
  template <typename Rec> static constexpr bool headerThenRecord() {
    constexpr std::size_t A = alignof(Rec);
    constexpr std::size_t At =
        (sizeof(typename Scheme::NodeHeader) + A - 1) / A * A;
    return offsetof(Node<Rec>, Hdr) == 0 && offsetof(Node<Rec>, R) == At &&
           sizeof(Node<Rec>) == At + sizeof(Rec);
  }
  static_assert(headerThenRecord<VersionRec>() && headerThenRecord<KeyRec>() &&
                    headerThenRecord<CommitRec>(),
                "a node is its scheme header followed by its record");
  static_assert(sizeof(typename Scheme::NodeHeader) != 24 ||
                    !std::is_same_v<K, std::uint64_t> ||
                    !std::is_same_v<V, std::uint64_t> ||
                    (sizeof(VNode) == 48 && sizeof(KNode) == 48),
                "24 B header + uint64_t K/V: version 48, key 48");
  static_assert(alignof(VNode) > TombBit,
                "a version's address must leave TombBit free");

  static VNode *toV(std::uintptr_t Raw) {
    return reinterpret_cast<VNode *>(Raw & ~Tag);
  }
  static KNode *toK(std::uintptr_t Raw) {
    return reinterpret_cast<KNode *>(Raw & ~Tag);
  }
  static CNode *toC(std::uintptr_t Raw) {
    return reinterpret_cast<CNode *>(Raw);
  }
  template <typename Rec> static std::uintptr_t raw(Node<Rec> *N) {
    return reinterpret_cast<std::uintptr_t>(N);
  }

  /// Tag-stripped raw node word -> its list link prefix. A bucket
  /// sentinel's raw word is its inline `LinkPart` minus the key node's
  /// link offset (`rawOf`), so one add serves keys and sentinels alike;
  /// nothing dereferences a sentinel's word as a node.
  static LinkPart *linkOf(std::uintptr_t Raw) {
    return reinterpret_cast<LinkPart *>((Raw & ~Tag) + offsetof(KNode, R));
  }

  /// Inverse of `linkOf`: the raw word that addresses \p L in the list.
  static std::uintptr_t rawOf(LinkPart *L) {
    return reinterpret_cast<std::uintptr_t>(L) - offsetof(KNode, R);
  }

  /// First byte after the node — where a codec's trailing payload lives.
  template <typename Rec> static void *trailingOf(Node<Rec> *N) {
    return reinterpret_cast<char *>(N) + sizeof(Node<Rec>);
  }

  /// Alignment of a pool slot: the strictest node shape's.
  static constexpr std::size_t SlotAlign =
      std::max({alignof(VNode), alignof(KNode), alignof(CNode)});
  /// One pool slot: the largest node shape, rounded up to `SlotAlign`.
  static constexpr std::size_t SlotBytes =
      (std::max({sizeof(VNode), sizeof(KNode), sizeof(CNode)}) + SlotAlign -
       1) & ~(SlotAlign - 1);
  /// True when nodes come from the store's `NodePool`: both codecs are
  /// fixed size (one slot size fits every node) and no node is
  /// over-aligned for `::operator new`'s chunks.
  static constexpr bool Pooled = IsFixedSizeCodec<K> && IsFixedSizeCodec<V> &&
                                 SlotAlign <= __STDCPP_DEFAULT_NEW_ALIGNMENT__;

public:
  /// Bytes of one node-pool slot, or 0 when the store takes its nodes
  /// from `::operator new` (`stats().node_bytes` then reads 0 too).
  static constexpr std::size_t node_slot_bytes = Pooled ? SlotBytes : 0;

private:
  /// The deleter for every node shape: it hands the raw storage back to
  /// the pool (\p Ctx) or to `::operator delete` — valid only because
  /// nothing in any node needs a destructor.
  static void deleteNode(void *Hdr, void *Ctx) {
    static_assert(std::is_trivially_destructible_v<VNode> &&
                      std::is_trivially_destructible_v<KNode> &&
                      std::is_trivially_destructible_v<CNode>,
                  "nodes (incl. the scheme header) must be trivially "
                  "destructible for the raw-storage deleter");
    if constexpr (Pooled)
      static_cast<NodePool *>(Ctx)->release(Hdr);
    else
      ::operator delete(Hdr);
  }

  /// Allocates a node with \p Extra trailing payload bytes (always 0 on
  /// the pool path) and registers it with the scheme (birth era,
  /// allocation count).
  template <typename Rec, typename... A>
  Node<Rec> *makeNode(guard_type &G, std::size_t Extra, A &&...Args) {
    void *Mem;
    if constexpr (Pooled) {
      assert(Extra == 0 && "fixed-size codecs carry no trailing bytes");
      Mem = Pool->allocate(G.tid());
    } else {
      Mem = ::operator new(sizeof(Node<Rec>) + Extra);
    }
    auto *N = new (Mem) Node<Rec>(std::forward<A>(Args)...);
    G.init(&N->Hdr);
    return N;
  }

  VNode *makeVersion(guard_type &G, const V *Val, bool Tomb,
                     std::uintptr_t Old, std::uintptr_t Commit = 0) {
    VNode *N = makeNode<VersionRec>(
        G, Val ? Codec<V>::trailingBytes(*Val) : 0, Tomb, Old, Commit);
    if (Val)
      Codec<V>::encode(N->R.Val, trailingOf(N), *Val);
    return N;
  }

  KNode *makeKey(guard_type &G, const K &Key, std::uint64_t So,
                 std::uintptr_t Head) {
    if constexpr (KeyInSoKey) {
      return makeNode<KeyRec>(G, 0, So, Head);
    } else {
      KNode *N = makeNode<KeyRec>(G, Codec<K>::trailingBytes(Key), So, Head);
      Codec<K>::encode(N->R.Key, trailingOf(N), Key);
      return N;
    }
  }

  /// \p KN's key as scans hand it out: a view of the stored bytes, or the
  /// key rebuilt from its split-order key (`KeyInSoKey`).
  static std::conditional_t<KeyInSoKey, K, key_view> keyOf(const KNode *KN) {
    if constexpr (KeyInSoKey)
      return Codec<K>::unhash(soKeyHash(KN->R.L.SoKey));
    else
      return Codec<K>::view(KN->R.Key);
  }

  //===------------------------------------------------------------------===//
  // Shard index policy (consumed by kv::ShardIndex)
  //===------------------------------------------------------------------===//

  /// A key lookup probe: the split-order position plus the user key for
  /// hash-collision tie-breaks (`Key == nullptr` marks a sentinel probe).
  struct Probe {
    std::uint64_t SoKey;
    const K *Key;
  };

  /// The probe locating the bucket sentinel at \p So (no user key).
  static Probe sentinelProbe(std::uint64_t So) { return Probe{So, nullptr}; }

  /// Same-split-order-key order: a bucket's sentinel sorts before the
  /// items whose hash equals its bucket index, and a sentinel probe
  /// matches the (unique) sentinel. Items tie only on equal hashes, so
  /// when the key is its hash (`KeyInSoKey`) a tie is a match; otherwise
  /// the key payloads decide.
  int compareTie(std::uintptr_t Raw, const Probe &P) const {
    const bool Sentinel = linkOf(Raw)->sentinel();
    if (!P.Key)
      return Sentinel ? 0 : 1;
    if (Sentinel)
      return -1;
    if constexpr (KeyInSoKey)
      return 0;
    else
      return Codec<K>::compare(toK(Raw)->R.Key, *P.Key);
  }

  /// Owned storage for the key of a probe that outlives its node.
  using KeyCopy = std::optional<K>;

  /// The probe that finds node \p Raw (protected by the caller) again: a
  /// sentinel's, or an item's with its key copied into \p Copy.
  Probe probeOf(std::uintptr_t Raw, KeyCopy &Copy) const {
    const LinkPart *L = linkOf(Raw);
    if (L->sentinel())
      return sentinelProbe(L->SoKey);
    Copy.emplace(keyOf(toK(Raw)));
    return Probe{L->SoKey, &*Copy};
  }

  /// Retires an unlinked key node and its version chain. Only the single
  /// unlink-CAS winner gets here, so the head version (the settled
  /// tombstone) is retired exactly once; the suffix goes through
  /// `detachSuffix` because a trimmer that was mid-walk when the key died
  /// may still be detaching it concurrently.
  void retireUnlinked(guard_type &G, std::uintptr_t Raw) {
    KNode *KN = toK(Raw);
    if (VNode *HeadV = toV(KN->R.L.VHead.load(std::memory_order_acquire))) {
      detachSuffix(G, HeadV);
      G.retire(&HeadV->Hdr);
    }
    G.retire(&KN->Hdr);
  }

  friend class ShardIndex<Store>;
  using Index_t = ShardIndex<Store>;

  /// A located key: hash, shard and probe (what an unlink needs), index
  /// position, and the key node (null when absent), which slots 0–2 keep
  /// protected until the guard's next index walk.
  struct Lookup {
    std::uint64_t H;
    std::size_t S;
    Probe P;
    typename Index_t::Position Pos;
    KNode *KN;
  };

  /// The key lookup: hash -> probe -> shard -> `Index->find`. A write
  /// passes \p InitBuckets to materialize the bucket it may insert into.
  Lookup locate(guard_type &G, const K &Key, std::uint64_t H,
                bool InitBuckets) {
    const std::size_t S = shardOf(H);
    const Probe P{soKey(H), &Key};
    const typename Index_t::Position Pos = Index->find(G, S, H, P, InitBuckets);
    return Lookup{H, S, P, Pos, Pos.Found ? toK(Pos.CurrRaw) : nullptr};
  }

  //===------------------------------------------------------------------===//
  // Version chains
  //===------------------------------------------------------------------===//

  /// Keeps \p N (the version this writer is about to publish)
  /// dereferenceable through the publish-then-stamp window: once the CAS
  /// makes it reachable, a racing writer can append above it, trim, and
  /// retire it before its creator resolves the stamp — under HP that
  /// means freed. Reading the address through `protect_link` from a
  /// stack-local source installs it in a hazard slot (HP) or extends the
  /// guard's era reservation over its birth era (HE/IBR/Hyaline-S), so
  /// the node outlives the resolve no matter who trims it.
  void protectSelf(guard_type &G, VNode *N) {
    std::atomic<std::uintptr_t> Self{raw(N)};
    (void)G.protect_link(Self, VSlotSelf);
  }

  /// The visibility stamp of \p VN (which the caller holds protected):
  /// a settled clock value, `Aborted` (the version is invisible and
  /// will be unpublished), or `Pending` (an unpublished transaction —
  /// invisible *for now*, treat as +inf and keep walking). Solo pending
  /// stamps are helped (`resolve`); transactional stamps are resolved
  /// through the commit record their stamp word names (`pinCommit`) and
  /// the outcome is *cached* into that word, so later readers stop
  /// touching the record.
  std::uint64_t stampOf(guard_type &G, VNode *VN) {
    for (;;) {
      const std::uint64_t W = VN->R.Stamp.load(std::memory_order_seq_cst);
      if (W == SnapshotRegistry::Pending)
        return Registry.resolve(VN->R.Stamp); // solo write: help-stamp it
      if (!txnPending(W)) // settled or aborted: immutable from here on
        return abortMarked(W) ? SnapshotRegistry::Aborted : W;
      CNode *C = pinCommit(G, VN, W);
      if (!C)
        continue; // decided and cached meanwhile: read the word again
      const std::uint64_t CS = Registry.resolveCommit(C->R.Stamp);
      if (CS == SnapshotRegistry::Unpublished)
        return SnapshotRegistry::Pending; // not yet committed: do not cache
      // Aborted or settled: cache into the version (first CAS wins; every
      // helper caches the same value, so a lost race is benign). An abort
      // keeps the record's address, which `abortPublished` matches.
      std::uint64_t Exp = W;
      VN->R.Stamp.compare_exchange_strong(
          Exp, CS == SnapshotRegistry::Aborted ? AbortBit | recordOf(W) : CS,
          std::memory_order_seq_cst, std::memory_order_seq_cst);
      return CS;
    }
  }

  /// Kills the unpublished transaction owning head version \p VN: CASes
  /// its commit record Unpublished -> Aborted so this writer need not wait
  /// for the transaction to finish publishing (solo writes stay
  /// lock-free; transactions are obstruction-free against each other).
  /// A lost CAS means the committer opened the record (Pending) or
  /// another writer killed it first — either way the next `stampOf`
  /// settles.
  void killUnpublished(guard_type &G, VNode *VN) {
    const std::uint64_t W = VN->R.Stamp.load(std::memory_order_seq_cst);
    if (!txnPending(W))
      return; // decided meanwhile
    if (CNode *C = pinCommit(G, VN, W)) {
      std::uint64_t Exp = SnapshotRegistry::Unpublished;
      C->R.Stamp.compare_exchange_strong(Exp, SnapshotRegistry::Aborted,
                                         std::memory_order_seq_cst,
                                         std::memory_order_seq_cst);
    }
  }

  /// The commit-record pin: protects the record that \p VN's stamp word
  /// \p W (`TxnBit` set) names in `VSlotC` — through a stack-local word,
  /// as `protectSelf` does, because the stamp word's high bit is no tag
  /// a hazard slot strips — and re-checks that the stamp word still
  /// holds \p W. Returns the record, or null when the word moved on (the
  /// record decided and a helper cached the outcome). Lifetime argument:
  /// the owner retires the record only after every version it published
  /// has left its `TxnBit` word (file-header invariant 3), so an
  /// unchanged word *after* the hazard/era protection is installed proves
  /// the retire, if any, comes after the protection is visible.
  CNode *pinCommit(guard_type &G, VNode *VN, std::uint64_t W) {
    std::atomic<std::uintptr_t> Rec{recordOf(W)};
    (void)G.protect_link(Rec, VSlotC);
    return VN->R.Stamp.load(std::memory_order_seq_cst) == W ? toC(recordOf(W))
                                                            : nullptr;
  }

  /// One protected step down a version chain: protects the older link of
  /// \p Cur (stamp \p St, held in the other V slot) in \p Spare and
  /// swaps the slots' roles. False when \p St was not settled and the
  /// version has turned Aborted since: the killed version may be
  /// unpublished and retired, so the link may be stale. On true \p Cur
  /// is the older version (null past the chain's end).
  bool stepOlder(guard_type &G, VNode *&Cur, std::uint64_t St,
                 unsigned &Spare) {
    const std::uintptr_t Nxt = G.protect_link(Cur->R.Older, Spare);
    if (!SnapshotRegistry::settled(St) &&
        abortMarked(Cur->R.Stamp.load(std::memory_order_seq_cst)))
      return false;
    Cur = toV(Nxt);
    Spare = Spare == VSlotA ? VSlotB : VSlotA;
    return true;
  }

  /// Detaches and retires everything older than \p Cur, returning the
  /// count. Each link is *taken* with a `fetch_and` that leaves only the
  /// tombstone flag, so concurrent detachers (trimmers, the unlinker)
  /// retire every node exactly once and every version keeps its flag.
  std::uint64_t detachSuffix(guard_type &G, VNode *Cur) {
    std::uint64_t N = 0;
    std::uintptr_t Taken =
        Cur->R.Older.fetch_and(TombBit, std::memory_order_seq_cst);
    while (VNode *X = toV(Taken)) {
      Taken = X->R.Older.fetch_and(TombBit, std::memory_order_seq_cst);
      G.retire(&X->Hdr);
      ++N;
    }
    return N;
  }

  /// Dead-marks \p L's key (head word \p Hd, untagged, becomes `Hd |
  /// Tag`) and, if this CAS won, unlinks it. \p Hd must be a settled
  /// tombstone no snapshot can miss, or an aborted sole version.
  void markDead(guard_type &G, const Lookup &L, std::uintptr_t Hd) {
    std::uintptr_t Expected = Hd;
    if (L.KN->R.L.VHead.compare_exchange_strong(Expected, Hd | Tag,
                                               std::memory_order_seq_cst,
                                               std::memory_order_seq_cst))
      Index->helpUnlink(G, L.S, raw(L.KN), L.H, L.P);
  }

  /// Unpublishes an aborted head version (stamp already cached to
  /// Aborted by `stampOf`): swings `VHead` past it when older versions
  /// exist, or dead-marks the key when the aborted version is the whole
  /// chain (a killed fresh-key insert leaves nothing visible, which is
  /// exactly the settled-tombstone unlink shape). The single CAS winner
  /// retires; losers raced another unpublisher or a dead-mark and just
  /// retry through their caller. \p Hd is the protected, untagged head
  /// word.
  void unpublishAbortedHead(guard_type &G, const Lookup &L,
                            std::uintptr_t Hd) {
    VNode *HeadV = toV(Hd);
    // Immutable for an aborted head: aborted versions are never a trim
    // boundary (never settled), so nothing takes this link until the
    // unpublish CAS below removes the node from the chain. The head's own
    // tombstone flag stays behind.
    const std::uintptr_t Old =
        HeadV->R.Older.load(std::memory_order_seq_cst) & ~TombBit;
    std::uintptr_t Expected = Hd;
    if (!Old)
      markDead(G, L, Hd);
    else if (L.KN->R.L.VHead.compare_exchange_strong(Expected, Old,
                                                    std::memory_order_seq_cst,
                                                    std::memory_order_seq_cst))
      G.retire(&HeadV->Hdr);
  }

  /// Settles \p L's chain head so an append may go above it (invariant
  /// 1 in the file header): helps solo-pending stamps, kills unpublished
  /// transactions, unpublishes aborted heads. Returns false when the
  /// caller must re-find the key (it died or lost a race); on true,
  /// \p HdOut is the protected (slot A) head word — possibly 0 for an
  /// empty chain — and \p StampOut its settled stamp (0 when empty).
  bool settleHeadForWrite(guard_type &G, const Lookup &L,
                          std::uintptr_t &HdOut, std::uint64_t &StampOut) {
    for (;;) {
      const std::uintptr_t Hd = G.protect_link(L.KN->R.L.VHead, VSlotA);
      if (Hd & Tag) {
        Index->helpUnlink(G, L.S, raw(L.KN), L.H, L.P);
        return false;
      }
      VNode *HeadV = toV(Hd);
      if (!HeadV) {
        HdOut = 0;
        StampOut = 0;
        return true;
      }
      const std::uint64_t St = stampOf(G, HeadV);
      if (St == SnapshotRegistry::Pending) {
        killUnpublished(G, HeadV);
        continue;
      }
      if (St == SnapshotRegistry::Aborted) {
        unpublishAbortedHead(G, L, Hd);
        continue;
      }
      HdOut = Hd;
      StampOut = St;
      return true;
    }
  }

  //===------------------------------------------------------------------===//
  // The write kernel: every store write is a fold over the settled head
  //===------------------------------------------------------------------===//

  /// The settled chain head a fold runs against (`N` null for an absent
  /// key or an empty chain). Liveness is free; the value decodes only on
  /// demand, so folds that ask just "was it live" (put, erase) never
  /// decode.
  struct HeadView {
    VNode *N;
    bool live() const { return N && !N->R.tombstone(); }
    std::optional<V> value() const {
      if (!live())
        return std::nullopt;
      return Codec<V>::decode(N->R.Val);
    }
  };

  /// A fold's answer: append nothing (`Write` false), a tombstone (`Val`
  /// null), or the value at `Val`, which the fold keeps alive until
  /// `publishFold` returns.
  struct Folded {
    bool Write = false;
    const V *Val = nullptr;
  };

  /// The put / erase / txn-entry fold: write the constant \p Val (null =
  /// erase), recording whether the key was live. Erasing a dead key
  /// writes nothing.
  struct Assign {
    const V *Val;
    bool WasLive = false;
    Folded operator()(const HeadView &Hd) {
      WasLive = Hd.live();
      return Folded{Val || WasLive, Val};
    }
  };

  /// The async fold of one same-key request run `[First, Last)`: each
  /// request's `fold(std::optional<V> &)` updates the running state in
  /// submission order, stages its own completion result, and reports
  /// whether it wrote. The run writes nothing when no request wrote (say,
  /// every compare_and_set failed) or when it leaves a dead key dead.
  template <typename Req> struct RequestFold {
    Req *const *First, *const *Last;
    std::optional<V> State{};
    Folded operator()(const HeadView &Hd) {
      State = Hd.value();
      const bool WasLive = State.has_value();
      bool Wrote = false;
      for (Req *const *R = First; R != Last; ++R)
        Wrote |= (*R)->fold(State);
      if (!Wrote || (!WasLive && !State))
        return Folded{};
      return Folded{true, State ? &*State : nullptr};
    }
  };

  /// One key's share of a `commitGroups` commit.
  template <typename Fold> struct Group {
    const K &Key;
    std::uint64_t Hash;
    Fold Fn;
  };

  /// `publishFold`'s outcome.
  struct Publish {
    bool Conflict = false;   ///< the head settled past the read stamp
    bool Appended = false;   ///< a version entered the chain
    std::uint64_t Stamp = 0; ///< a solo append's resolved stamp
  };

  /// The write kernel. Finds \p Key (a fresh key node is inserted when
  /// it is absent), settles its head (invariant 1), checks the conflict
  /// against \p Read, runs \p Fn over the settled head, and CAS-appends
  /// the version the fold asks for. A lost append or insert race
  /// re-finds and re-folds, so \p Fn may run more than once and must be
  /// repeatable.
  ///
  /// \p C null is a solo write: publish-then-stamp resolves the fresh
  /// version's stamp here, and the trim the write owes its chain runs
  /// through the key node already in hand. With \p C set the version
  /// carries the commit record and its stamp stays Pending until
  /// `commitGroups` settles the record.
  ///
  /// \p Read (a transaction's snapshot, or null) makes the write
  /// first-writer-wins: a settled head stamp above `Read->version()` is a
  /// conflict. An *absent* key never conflicts: unlinking a key requires
  /// its tombstone to settle at or below the trim floor, and the live
  /// \p Read pins the floor at or below its version — so any later write
  /// would still be in the chain. A solo write releases \p Read once its
  /// stamp resolves (see `commitGroups`).
  template <typename Fold>
  Publish publishFold(guard_type &G, const K &Key, std::uint64_t H,
                      Fold &&Fn, CNode *C, SnapshotHandle *Read) {
    const std::uint64_t ReadStamp =
        Read ? Read->version() : SnapshotRegistry::Pending;
    for (;;) {
      const Lookup L = locate(G, Key, H, true);
      KNode *KN = L.KN;
      std::uintptr_t Hd = 0;
      if (KN) {
        std::uint64_t HdStamp = 0;
        if (!settleHeadForWrite(G, L, Hd, HdStamp))
          continue; // key died (or is dying): re-find — a put re-inserts
                    // a fresh key node, an erase finds nothing
        if (HdStamp > ReadStamp)
          return Publish{true};
      }
      const Folded F = Fn(HeadView{toV(Hd)});
      if (!F.Write)
        return Publish{};
      VNode *FreshV = makeVersion(G, F.Val, !F.Val, Hd, C ? raw(C) : 0);
      protectSelf(G, FreshV);
      KNode *FreshK = KN ? nullptr : makeKey(G, Key, L.P.SoKey, raw(FreshV));
      std::uintptr_t Expected = Hd;
      const bool Linked =
          KN ? KN->R.L.VHead.compare_exchange_strong(Expected, raw(FreshV),
                                                    std::memory_order_seq_cst,
                                                    std::memory_order_seq_cst)
             : Index->insertAt(G, L.S, L.Pos, raw(FreshK));
      if (!Linked) {
        // Lost the race: the fold may be stale — re-find and re-fold.
        G.discard(&FreshV->Hdr);
        if (FreshK)
          G.discard(&FreshK->Hdr);
        continue;
      }
      if (C)
        return Publish{false, true};
      // Publish-then-stamp: the version entered the structure above; only
      // now does it draw its clock value (helped by any racing reader).
      const std::uint64_t T = Registry.resolve(FreshV->R.Stamp);
      if (Read)
        Read->reset();
      if (KN)
        trimChain(G, L);
      return Publish{false, true, T};
    }
  }

  /// The commit driver shared by transactions and async batches: applies
  /// the groups `At(0) .. At(N - 1)` (each a `Group`) atomically. One
  /// group is a solo `publishFold`, atomic by construction. More share one
  /// commit record: each group publishes under it, then the record is
  /// opened (Unpublished -> Pending) and resolved with ONE clock tick, so
  /// snapshot reads observe the set all-or-nothing — or it is marked
  /// Aborted on a conflict. The open CAS loses only to a racing writer's
  /// kill. The sweep then honours invariant 3 before the record retires:
  /// committed groups settle and trim in one index descent
  /// (`settleAndTrim`), aborted ones are unpublished (`abortPublished`).
  ///
  /// \p Read (a transaction's snapshot; null for async batches) drives
  /// the conflict check and is released as soon as the record resolves:
  /// from then on no published version is unresolved, so nothing needs
  /// its pin, and the sweep's trim is not held back by it. Returns the
  /// stamp at which every group became visible (a solo no-op reports the
  /// read stamp, 0 without one), or nullopt when the commit aborted on a
  /// conflict or a kill — nothing of an aborted commit was ever visible.
  template <typename GroupAt>
  std::optional<std::uint64_t> commitGroups(guard_type &G, std::size_t N,
                                            GroupAt &&At,
                                            SnapshotHandle *Read) {
    if (N == 1) {
      const std::uint64_t ReadStamp = Read ? Read->version() : 0;
      auto Gr = At(0);
      const Publish R = publishFold(G, Gr.Key, Gr.Hash, Gr.Fn, nullptr, Read);
      if (R.Conflict)
        return std::nullopt;
      return R.Appended ? R.Stamp : ReadStamp;
    }
    CNode *C = makeNode<CommitRec>(G, 0);
    assert(raw(C) < AbortBit && "a record address must fit below AbortBit");
    std::vector<bool> Published(N, false);
    bool Doomed = false;
    for (std::size_t I = 0; I < N && !Doomed; ++I) {
      // A racing writer may have killed the record already; stop
      // publishing born-dead versions once that is visible (the open CAS
      // below then fails).
      if (C->R.Stamp.load(std::memory_order_seq_cst) ==
          SnapshotRegistry::Aborted)
        break;
      auto Gr = At(I);
      const Publish R = publishFold(G, Gr.Key, Gr.Hash, Gr.Fn, C, Read);
      Doomed = R.Conflict;
      Published[I] = R.Appended;
    }
    // Unpublished has no exit but this CAS and a kill's Aborted, so a
    // lost CAS means the record is already dead.
    std::uint64_t Exp = SnapshotRegistry::Unpublished;
    const bool Committed =
        C->R.Stamp.compare_exchange_strong(
            Exp, Doomed ? SnapshotRegistry::Aborted : SnapshotRegistry::Pending,
            std::memory_order_seq_cst, std::memory_order_seq_cst) &&
        !Doomed;
    std::uint64_t T = 0;
    if (Committed) {
      T = Registry.resolveCommit(C->R.Stamp); // helpers CAS benignly
      if (Read)
        Read->reset();
    }
    for (std::size_t I = 0; I < N; ++I) {
      if (!Published[I])
        continue;
      auto Gr = At(I);
      if (Committed)
        settleAndTrim(G, Gr.Key, Gr.Hash, T);
      else
        abortPublished(G, Gr.Key, Gr.Hash, C);
    }
    G.retire(&C->Hdr);
    if (!Committed)
      return std::nullopt;
    return T;
  }

  /// Commit-path sweep for one published group: ONE find serves both the
  /// settling walk (`readAt` at the commit stamp \p T — `stampOf`'s cache
  /// CAS *is* the settle) and the suffix trim the write owes the chain.
  /// The find's key protection spans both walks (`readAt` and `trimChain`
  /// cycle only the V slots). A missing key or an already-buried version
  /// means another thread settled it first — burial, trim, and unlink all
  /// require a settled stamp. Never touches the published `VNode*`
  /// directly: the version may have been settled, trimmed, and its
  /// address recycled, so the only safe route back is a protected walk.
  void settleAndTrim(guard_type &G, const K &Key, std::uint64_t H,
                     std::uint64_t T) {
    const Lookup L = locate(G, Key, H, false);
    if (!L.KN)
      return;
    (void)readAt(G, L.KN, T);
    trimChain(G, L);
  }

  /// Abort-path sweep for one published group: while the key's head
  /// still carries our commit record, cache the Aborted stamp into it
  /// and unpublish it. A head whose stamp word names no \p C proves our
  /// version was already unpublished (aborted versions are never buried,
  /// the cached abort keeps the record's address, and that address
  /// cannot be recycled while we still own the record — so the stamp
  /// word is a reliable identity even if the version node's address was
  /// reused).
  void abortPublished(guard_type &G, const K &Key, std::uint64_t H,
                      CNode *C) {
    for (;;) {
      const Lookup L = locate(G, Key, H, false);
      if (!L.KN)
        return; // key unlinked: our version was unpublished first
      const std::uintptr_t Hd = G.protect_link(L.KN->R.L.VHead, VSlotA);
      if (Hd & Tag)
        return; // dead-marked (possibly by our version's unpublisher)
      VNode *HeadV = toV(Hd);
      if (!HeadV)
        return;
      const std::uint64_t W = HeadV->R.Stamp.load(std::memory_order_seq_cst);
      if (W != (TxnBit | raw(C)) && W != (AbortBit | raw(C)))
        return; // our version is no longer the head: already handled
      const std::uint64_t St = stampOf(G, HeadV);
      if (St != SnapshotRegistry::Aborted)
        return; // cannot happen for an aborted record; bail defensively
      unpublishAbortedHead(G, L, Hd);
      // Loop: retry until the head no longer carries our record.
    }
  }

  /// Commits a transaction's deduplicated write set — the `kv/txn.h`
  /// engine. Each `Entry` (`.Key`, `.Val` with nullopt = erase, `.Hash`)
  /// is one `Assign` group of `commitGroups`, conflict-checked against
  /// \p Read and releasing it once resolved. Adds the transaction
  /// telemetry: commit/abort counters on every outcome, sampled commit
  /// latency (one commit in `TelemetryStride`), and an abort trace event
  /// carrying the read stamp.
  template <typename Entry>
  std::optional<std::uint64_t> commitTxn(thread_id Tid, SnapshotHandle &Read,
                                         const std::vector<Entry> &Set) {
    auto G = Dom.enter(Tid);
    [[maybe_unused]] const std::uint64_t ReadStamp = Read.version();
    thread_local telemetry::Sampler Smp;
    const std::uint64_t T0 = Smp.tick(TelemetryStride) ? telemetry::nowNs() : 0;
    const std::optional<std::uint64_t> T = commitGroups(
        G, Set.size(),
        [&](std::size_t I) {
          const Entry &E = Set[I];
          return Group<Assign>{E.Key, E.Hash,
                               Assign{E.Val ? &*E.Val : nullptr}};
        },
        &Read);
    if (T) {
      TxnCommits.add();
      if (T0)
        TxnCommitNs.record(telemetry::nowNs() - T0);
    } else {
      TxnAborts.add();
      LFSMR_TRACE_EVENT(telemetry::TraceEvent::CommitAbort, ReadStamp);
    }
    return T;
  }

  friend class Txn<Scheme, K, V>;

  /// Applies one drained submission batch — the `kv/submit.h` engine.
  /// \p Batch must hold same-key requests adjacent, submission order
  /// preserved within a key (the submitter's stable sort); each same-key
  /// run is one `RequestFold` group. The whole batch runs under ONE guard
  /// and commits through `commitGroups` (one record, one clock tick).
  /// Submitted writes have no read stamp — a compare_and_set checks its
  /// expectation inside the fold, at apply time — so the only abort is a
  /// racing solo writer's kill. Nothing of a killed batch became visible,
  /// so it re-folds and retries with a fresh record: the transactions'
  /// obstruction-free progress class, with the kill guaranteeing the
  /// *other* writer completed. Completion results land in the requests
  /// (via `fold`); the caller publishes them after this returns.
  template <typename Req>
  void applyAsyncBatch(thread_id Tid, Req *const *Batch, std::size_t N) {
    if (!N)
      return;
    auto G = Dom.enter(Tid); // ONE guard for the whole batch
    SubmitBatchLen.record(N);
    std::vector<std::size_t> Starts; // group I is [Starts[I], Starts[I+1])
    Starts.reserve(N + 1);
    for (std::size_t I = 0; I < N; ++I)
      if (I == 0 || !Batch[I - 1]->sameKey(*Batch[I]))
        Starts.push_back(I);
    Starts.push_back(N);
    const auto At = [&](std::size_t I) {
      Req *const *First = Batch + Starts[I];
      return Group<RequestFold<Req>>{(*First)->key(), (*First)->hash(),
                                     {First, Batch + Starts[I + 1]}};
    };
    while (!commitGroups(G, Starts.size() - 1, At, nullptr)) {
    } // killed: re-fold and re-publish
  }

  friend class Submitter<Scheme, K, V>;

  /// Trims \p L's version-chain suffix past the oldest live snapshot:
  /// walks from the head to the *boundary* (the newest version whose
  /// stamp is at or below the trim floor — exactly the version the
  /// oldest snapshot reads) and detaches everything older
  /// (`detachSuffix`). Finally, a chain reduced to a settled tombstone
  /// nobody can see dead-marks the key and unlinks it (`markDead`).
  void trimChain(guard_type &G, const Lookup &L) {
    const std::uintptr_t Hd = G.protect_link(L.KN->R.L.VHead, VSlotA);
    if (Hd & Tag)
      return;
    VNode *Cur = toV(Hd);
    if (!Cur)
      return;
    // Telemetry: chain nodes this trim touched (descent steps + retired
    // suffix nodes), recorded once on every exit path. With telemetry
    // off `record` is a no-op and the local counter folds away.
    struct WalkRecorder {
      telemetry::Histogram &Hist;
      std::uint64_t N = 0;
      ~WalkRecorder() {
        if (N)
          Hist.record(N);
      }
    } Walk{TrimWalkLen};
    unsigned Spare = VSlotB;
    std::uint64_t CurStamp = stampOf(G, Cur);
    if (CurStamp == SnapshotRegistry::Aborted) {
      // A killed transaction's head: unpublish it instead of trimming
      // (compact's hygiene pass; writers do the same before appending).
      // Versions below it stay until the next trim reaches them.
      unpublishAbortedHead(G, L, Hd);
      return;
    }
    std::uint64_t Floor = Registry.minLive();
    for (;;) {
      // An unsettled head (Pending: a solo stamp being helped resolves
      // above, so only an unpublished/in-flight transaction remains) is
      // never a boundary — it is invisible, and the version below it is
      // still what every reader sees. `!settled` also keeps Aborted out
      // of the boundary, though one can only be at the head.
      while (!SnapshotRegistry::settled(CurStamp) || CurStamp > Floor) {
        // Bail when the txn died under us (a later write or compact pass
        // trims this chain) or no version is at or below the floor.
        if (!stepOlder(G, Cur, CurStamp, Spare) || !Cur)
          return;
        ++Walk.N;
        CurStamp = stampOf(G, Cur);
        if (CurStamp == SnapshotRegistry::Aborted)
          return; // aborted nodes live only at the head; a new head
                  // means the chain changed under us — bail
      }
      // Confirm the boundary against a floor scanned *after* its stamp
      // settled. Resolving stamps mid-walk ticks the clock, and a
      // snapshot may validate between the previous scan and that tick at
      // a stamp below the boundary's; a scan ordered after the settle is
      // guaranteed to include any such snapshot (its validation load
      // precedes the boundary's stamping tick in the clock's total
      // order, so its slot publish is visible to this scan). Boundary
      // stamps settled before a scan therefore prove no snapshot below
      // them can exist or appear.
      const std::uint64_t Fresh = Registry.minLive();
      if (CurStamp <= Fresh)
        break; // confirmed: nothing below Cur is visible to anyone
      Floor = Fresh; // an older snapshot surfaced: descend further
    }
    Walk.N += detachSuffix(G, Cur);
    // Key removal: only when the chain head itself is the boundary, it
    // is a tombstone with a settled stamp no live (or future) snapshot
    // can miss, and it now has no older versions.
    if (raw(Cur) == Hd && Cur->R.tombstone())
      markDead(G, L, Hd);
  }

  /// Both `get`s: find \p Key, read its chain at \p At, decode.
  std::optional<V> getAt(thread_id Tid, const K &Key, std::uint64_t At) {
    auto G = Dom.enter(Tid);
    const Lookup L = locate(G, Key, Codec<K>::hash(Key), false);
    if (!L.KN)
      return std::nullopt;
    VNode *VN = readAt(G, L.KN, At);
    if (!VN)
      return std::nullopt;
    return Codec<V>::decode(VN->R.Val);
  }

  /// The snapshot read: newest version of \p KN with stamp <= \p At,
  /// or null when the key has no visible binding (absent, or tombstoned
  /// at the cut). Pending stamps are resolved (helped) before the
  /// comparison — through the shared commit record for transactional
  /// versions — which is what pins every version's visibility the first
  /// time any reader meets it. Unpublished-transaction versions read as
  /// +inf (invisible) and the walk descends past them; meeting an
  /// aborted version restarts the walk from the head, because the
  /// aborted node is about to be (or was) unpublished and links read
  /// through it may be stale. Each restart implies another thread
  /// finished a kill or unpublish, so progress is preserved. The
  /// returned record stays protected (slot A or B) until the next
  /// version-chain operation on this guard.
  VNode *readAt(guard_type &G, KNode *KN, std::uint64_t At) {
    for (;;) {
      const std::uintptr_t Hd = G.protect_link(KN->R.L.VHead, VSlotA);
      if (Hd & Tag)
        return nullptr; // removed: every live snapshot saw the tombstone
      VNode *Cur = toV(Hd);
      unsigned Spare = VSlotB;
      for (;;) {
        if (!Cur)
          return nullptr; // key did not exist yet at the snapshot
        const std::uint64_t St = stampOf(G, Cur);
        if (St == SnapshotRegistry::Aborted)
          break; // restart
        if (St <= At) // settled at or below the cut (Pending is +inf)
          return Cur->R.tombstone() ? nullptr : Cur;
        if (!stepOlder(G, Cur, St, Spare))
          break; // killed under us: restart
      }
    }
  }

  /// Shared body of `scan`/`scan_prefix`: one index scan per shard
  /// (slots 0–2), a snapshot cut per key (slots 3–4), the filter on the
  /// borrowed key view.
  template <typename Filter, typename F>
  void scanFiltered(thread_id Tid, std::uint64_t At, Filter &&Keep,
                    F &&Fn) {
    for (std::size_t S = 0; S < Opt.Shards; ++S) {
      auto G = Dom.enter(Tid);
      Index->scan(G, S, [&](std::uintptr_t R) {
        KNode *KN = toK(R);
        key_view KeyV = keyOf(KN);
        if (!Keep(KeyV))
          return;
        if (VNode *VN = readAt(G, KN, At))
          Fn(KeyV, Codec<V>::view(VN->R.Val));
      });
    }
  }

  //===------------------------------------------------------------------===//
  // Sharding
  //===------------------------------------------------------------------===//

  static Options normalize(Options O) {
    O.Shards = nextPowerOfTwo(O.Shards ? O.Shards : 1);
    O.BucketsPerShard =
        nextPowerOfTwo(O.BucketsPerShard ? O.BucketsPerShard : 1);
    O.MinSnapshotSlots =
        nextPowerOfTwo(O.MinSnapshotSlots ? O.MinSnapshotSlots : 1);
    if (O.Reclaim.NumHazards < 8)
      O.Reclaim.NumHazards = 8;
    return O;
  }

  /// Shard of hash \p H (its top bits; the bucket index uses the low
  /// bits and the split-order key the full reversed hash).
  std::size_t shardOf(std::uint64_t H) const {
    return ShardBits ? static_cast<std::size_t>(H >> (64 - ShardBits)) : 0;
  }

  Options Opt;
  SnapshotRegistry Registry;
  const unsigned ShardBits;
  /// Node memory when `Pooled` (absent otherwise). Declared before `Dom`:
  /// the domain's teardown frees its leftovers into the pool.
  std::optional<NodePool> Pool;
  lfsmr::domain<Scheme> Dom;
  std::unique_ptr<Index_t> Index;

  /// Telemetry (empty with `LFSMR_TELEMETRY=OFF`): sampled open-snapshot
  /// latency, trim walk lengths, sampled txn commit latency, exact txn
  /// outcome counters, and the async submission layer's batch-length
  /// histogram and submit/combine/fallback counters (fed by
  /// `kv::Submitter` through its friendship; see `kv/submit.h`).
  telemetry::Histogram SnapOpenNs;
  telemetry::Histogram TrimWalkLen;
  telemetry::Histogram TxnCommitNs;
  telemetry::Histogram SubmitBatchLen;
  telemetry::Counter TxnCommits;
  telemetry::Counter TxnAborts;
  telemetry::Counter AsyncSubmits;
  telemetry::Counter CombinerTakeovers;
  telemetry::Counter SyncFallbacks;
};

} // namespace lfsmr::kv

#endif // LFSMR_KV_STORE_H
