//===- kv/txn.h - Atomic multi-key transactions ------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `lfsmr::kv::Txn<Scheme, K, V>`: an optimistic multi-key transaction
/// on `kv::Store`. A transaction is a snapshot (pinned at creation for
/// repeatable reads) plus a buffered write set with read-your-writes
/// lookups; `commit` applies the whole set atomically or not at all.
///
/// Commit protocol (the chain-side half lives in `kv/store.h`):
///
///   1. Every buffered version is CAS-appended to its key's chain with
///      its stamp left Pending and its `Commit` word pointing at one
///      shared commit record, born *Unpublished*. Unpublished versions
///      are invisible to every reader — `stampOf` treats them as +inf
///      and walks past — so the store never exposes a partial write
///      set. Each append first settles the key's head and checks
///      first-writer-wins: a settled head stamp above the transaction's
///      read stamp aborts the commit cleanly.
///   2. After the last append, the committer CASes the record
///      Unpublished -> Pending. From that point the batch is
///      *logically committed*; the record is resolved with one clock
///      tick (`resolveCommit`) by the committer or any racing reader —
///      the same helping rule as per-key `resolve` — so every version
///      in the set becomes visible at one stamp, atomically.
///   3. Writers never wait on an unpublished transaction: they *kill*
///      it (CAS the record Unpublished -> Aborted) and unpublish its
///      head version. Solo writes therefore stay lock-free; overlapping
///      transactions are obstruction-free against each other. Once
///      Pending, a record can only settle — kills race only the
///      publish window, never the resolve.
///
/// Lifetime rules: the transaction's snapshot stays live from creation
/// through the publish phase of `commit` — it pins the trim floor at or
/// below the read stamp while versions sit published-but-unresolved,
/// and it is what makes the absent-key conflict check sound. The commit
/// releases it the moment the record resolves (a single-key commit:
/// the moment its stamp resolves), before the settle+trim sweep: no
/// published version is unresolved any more and the conflict check is
/// over, so nothing needs the pin — and keeping it would make the
/// sweep's trim keep every key's pre-commit version. `commit`/`abort`
/// both finish the transaction (release the snapshot if still held,
/// clear the set). A finished transaction cannot be reused; begin a new
/// one to retry. Like snapshots, a transaction must not outlive its
/// store.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_KV_TXN_H
#define LFSMR_KV_TXN_H

#include "kv/store.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace lfsmr::kv {

/// Optimistic multi-key transaction handle (see the file comment for
/// the protocol). Move-only; obtained from `Store::begin_transaction`.
/// One thread drives a given transaction; different transactions on the
/// same store run concurrently.
template <typename Scheme, typename K, typename V> class Txn {
public:
  /// The store this transaction runs against.
  using store_type = Store<Scheme, K, V>;
  /// Key type.
  using key_type = K;
  /// Value type.
  using value_type = V;

  /// Opens a transaction: pins a snapshot at the current clock. Prefer
  /// `Store::begin_transaction`.
  explicit Txn(store_type &S) : Db(&S), Snap(S.registry()) {}

  /// Moved-from transactions are finished (`active() == false`).
  Txn(Txn &&) = default;
  /// \copydoc Txn(Txn &&)
  Txn &operator=(Txn &&) = default;

  Txn(const Txn &) = delete;
  Txn &operator=(const Txn &) = delete;

  /// The stamp this transaction reads at (its snapshot's version).
  std::uint64_t read_version() const { return Snap.version(); }

  /// True until `commit`/`abort` (or a move-from) finishes the
  /// transaction.
  bool active() const { return Snap.valid(); }

  /// Buffers an insert/replace of \p Key. The last write to a key
  /// within the transaction wins; nothing is visible to anyone until
  /// `commit`.
  void put(const K &Key, const V &Val) {
    assert(active() && "writing through a finished transaction");
    upsert(Key, std::optional<V>(Val));
  }

  /// Buffers a removal of \p Key (a no-op at commit when the key is
  /// absent).
  void erase(const K &Key) {
    assert(active() && "writing through a finished transaction");
    upsert(Key, std::nullopt);
  }

  /// Read-your-writes lookup: the buffered write when there is one
  /// (nullopt for a buffered erase), else a repeatable snapshot read at
  /// `read_version()`.
  std::optional<V> get(thread_id Tid, const K &Key) {
    assert(active() && "reading through a finished transaction");
    if (const Entry *E = findEntry(Key, Codec<K>::hash(Key)))
      return E->Val;
    return Db->get(Tid, Key, Snap);
  }

  /// Number of buffered writes (after last-write-wins dedup).
  std::size_t size() const { return Set.size(); }

  /// True when no writes are buffered.
  bool empty() const { return Set.empty(); }

  /// Atomically applies the buffered write set. True on success —
  /// `commit_version()` then returns the stamp at which every write
  /// became visible at once. False when the commit aborted: a buffered
  /// key's chain head advanced past `read_version()`
  /// (first-writer-wins), or a racing writer killed the still-
  /// unpublished record; no write was applied. Either way the
  /// transaction is finished — begin a new one to retry. An empty
  /// write set commits trivially at the read stamp; a single-entry set
  /// takes the solo fast path (no commit record).
  bool commit(thread_id Tid) {
    if (!active())
      return false;
    bool Ok = true;
    if (Set.empty()) {
      CommitV = Snap.version();
    } else {
      // One contended-key visit order across transactions: kills keep
      // everyone live regardless, sorting just cuts mutual aborts.
      std::sort(Set.begin(), Set.end(),
                [](const Entry &A, const Entry &B) { return A.Hash < B.Hash; });
      // The commit releases the snapshot as soon as it resolves.
      const std::optional<std::uint64_t> T = Db->commitTxn(Tid, Snap, Set);
      Ok = T.has_value();
      if (Ok)
        CommitV = *T;
    }
    Snap.reset();
    Set.clear();
    return Ok;
  }

  /// The commit stamp of a successful `commit` (0 before one).
  std::uint64_t commit_version() const { return CommitV; }

  /// Abandons the transaction: drops the buffered writes and releases
  /// the snapshot without writing anything.
  void abort() {
    Snap.reset();
    Set.clear();
  }

private:
  friend store_type;

  /// One buffered write; `Val == nullopt` is an erase. The field shape
  /// (`Key`/`Val`/`Hash`) is the `Store::commitTxn` entry contract.
  struct Entry {
    K Key;
    std::optional<V> Val;
    std::uint64_t Hash;
  };

  Entry *findEntry(const K &Key, std::uint64_t H) {
    for (Entry &E : Set)
      if (E.Hash == H && codecEqual(E.Key, Key))
        return &E;
    return nullptr;
  }

  void upsert(const K &Key, std::optional<V> Val) {
    const std::uint64_t H = Codec<K>::hash(Key);
    if (Entry *E = findEntry(Key, H)) {
      E->Val = std::move(Val);
      return;
    }
    Set.push_back(Entry{Key, std::move(Val), H});
  }

  store_type *Db;
  SnapshotHandle Snap;
  std::vector<Entry> Set;
  std::uint64_t CommitV = 0;
};

template <typename Scheme, typename K, typename V>
Txn<Scheme, K, V> Store<Scheme, K, V>::begin_transaction() {
  return Txn<Scheme, K, V>(*this);
}

} // namespace lfsmr::kv

#endif // LFSMR_KV_TXN_H
