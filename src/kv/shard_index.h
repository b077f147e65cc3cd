//===- kv/shard_index.h - Sharded split-ordered key index --------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shard index layer of `lfsmr::kv`: owns the per-shard bucket
/// arrays and the Michael-list protocol over key nodes, and adds
/// **cooperative lock-free bucket growth** so a shard's bucket count
/// scales with its load — readers never block, and no key node ever
/// moves.
///
/// Design: one *split-ordered list* per shard (Shalev & Shavit), built
/// from the same two ingredients the reclamation core already proves
/// out —
///
///  - Each shard keeps ONE sorted lock-free list of nodes, ordered by
///    the *split-order key* `reverse_bits(hash)` for items and
///    `reverse_bits(bucket)` for per-bucket **sentinels**. An item whose
///    hash equals a bucket index ties with that bucket's sentinel; the
///    third `LinkPart` word tells them apart (an item's version-chain
///    head is a node address, a sentinel's bucket state a small
///    constant), and the sentinel sorts first. With
///    power-of-two bucket counts and low-bit bucket selection, doubling
///    the bucket array splits every chain *in place*: the nodes of new
///    bucket `b + K` form a contiguous suffix of old bucket `b`'s chain,
///    already in order. Growth therefore never relinks an item — it only
///    links a new sentinel at the split point.
///  - The bucket array is a `core::SlotDirectory<Bucket>` (the paper's
///    §4.3 grow-only directory): doubling appends one array, existing
///    buckets never move, readers need no coordination, and nothing is
///    ever copied or retired mid-flight. Because buckets never move and
///    never die, each bucket's sentinel lives *inline* in its directory
///    slot — no allocation, no scheme header, no pointer to chase. It is
///    addressed by the raw word `Policy::rawOf(&Bucket.L)`, which no
///    scheme's `protect` dereferences and no path ever retires.
///
/// Cooperation: growth is *load-factor-triggered* (a writer that pushes
/// a shard past `MaxLoadFactor` items per bucket doubles the directory)
/// and *migration is incremental* — a new bucket is materialized the
/// first time a writer needs it, by linking its sentinel under that
/// writer's guard (recursing to the parent bucket, so the work is
/// O(log growth) amortized and spread over all writers). A bucket moves
/// Unborn → Claimed → Linked: exactly one writer wins the claim CAS, and
/// only it fills in and links the sentinel, then publishes Linked.
/// Readers, and writers that lose the claim, start from the nearest
/// Linked ancestor — a longer walk, never a block and never an
/// allocation. A claimer stalled mid-link therefore only lengthens other
/// threads' walks.
///
/// The index is policy-based: the store supplies the node layout
/// (`LinkPart` prefix accessors), key matching/ordering for
/// hash-collision ties, and the retire hook for unlinked items (which
/// must also retire the item's version chain).
/// Every walk over a shard list — a find, a sentinel link, a scan — is
/// `ds::michaelFind` over one layout (`Steps`): slots 0–2 rotate along
/// the walk, marked nodes are unlinked in passing, and the unlink winner
/// decrements the item count and owns the retire.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_KV_SHARD_INDEX_H
#define LFSMR_KV_SHARD_INDEX_H

#include "core/slot_directory.h"
#include "ds/list_ops.h"
#include "support/align.h"
#include "support/telemetry.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

namespace lfsmr::kv {

/// Reverses the bit order of \p X (the split-order transform).
constexpr std::uint64_t bitReverse64(std::uint64_t X) {
  X = ((X & 0x5555555555555555ULL) << 1) | ((X >> 1) & 0x5555555555555555ULL);
  X = ((X & 0x3333333333333333ULL) << 2) | ((X >> 2) & 0x3333333333333333ULL);
  X = ((X & 0x0f0f0f0f0f0f0f0fULL) << 4) | ((X >> 4) & 0x0f0f0f0f0f0f0f0fULL);
  X = ((X & 0x00ff00ff00ff00ffULL) << 8) | ((X >> 8) & 0x00ff00ff00ff00ffULL);
  X = ((X & 0x0000ffff0000ffffULL) << 16) |
      ((X >> 16) & 0x0000ffff0000ffffULL);
  return (X << 32) | (X >> 32);
}

static_assert(bitReverse64(1) == (std::uint64_t{1} << 63));
static_assert(bitReverse64(bitReverse64(0x123456789abcdef0ULL)) ==
              0x123456789abcdef0ULL);

/// Split-order key of an item with hash \p H, or of bucket \p H's
/// sentinel: the reversed bits. The full hash survives, so a key whose
/// hash is a bijection can be rebuilt from it (`soKeyHash`).
constexpr std::uint64_t soKey(std::uint64_t H) { return bitReverse64(H); }

/// The hash split-order key \p K encodes (the inverse of `soKey`).
constexpr std::uint64_t soKeyHash(std::uint64_t K) { return bitReverse64(K); }

static_assert(soKeyHash(soKey(0x8000'0000'0000'002aULL)) ==
              0x8000'0000'0000'002aULL);

/// Parent of bucket \p B (> 0) in the split hierarchy: \p B with its top
/// set bit cleared. Bucket 0 is the root and always Linked.
constexpr std::size_t parentBucket(std::size_t B) {
  return B & ~(std::size_t{1} << floorLog2(B));
}

static_assert(parentBucket(1) == 0 && parentBucket(5) == 1 &&
              parentBucket(12) == 4);

/// Every node linked into a shard list (items and bucket sentinels
/// alike) starts with these three words: the split-order key, the chain
/// link and the version-chain head. The low bit of `Next` is Michael's
/// logical-deletion mark (items only — sentinels are never marked or
/// removed).
struct LinkPart {
  /// Split-order position (immutable once linked).
  std::uint64_t SoKey;
  /// Successor in the shard list; low bit = removal mark.
  std::atomic<std::uintptr_t> Next{0};
  /// An item's version-chain head: a version's address, marked once the
  /// key is dead, never 0. A bucket sentinel owns no chain and keeps its
  /// `Bucket` state here, a constant below every address, so the word
  /// also tells a sentinel from an item whose split-order key ties with
  /// it (`sentinel`).
  std::atomic<std::uintptr_t> VHead;

  LinkPart(std::uint64_t So, std::uintptr_t Head) : SoKey(So), VHead(Head) {}

  /// True for a bucket sentinel. Relaxed suffices: an item's word holds
  /// addresses from its construction on, and a sentinel's holds states
  /// from its directory slot's.
  bool sentinel() const;
};

/// One bucket of a shard's directory: its inline sentinel, whose third
/// word is the materialization state. Only the thread that wins Unborn →
/// Claimed writes `L`'s key and links it; Linked is release-stored after
/// the link CAS, so an acquire load of Linked makes `L` a valid walk
/// head.
struct Bucket {
  enum : std::uintptr_t { Unborn, Claimed, Linked };

  LinkPart L{0, Unborn};

  /// The materialization state (`L`'s third word).
  std::atomic<std::uintptr_t> &state() { return L.VHead; }
};

inline bool LinkPart::sentinel() const {
  return VHead.load(std::memory_order_relaxed) <= Bucket::Linked;
}

static_assert(sizeof(Bucket) == 24, "a bucket is its inline sentinel");

/// The per-shard split-ordered index over a node layout described by
/// \p Policy. The policy (the store) provides:
///
/// \code
///   using guard_type = ...;               // lfsmr::guard<Scheme>
///   struct Probe { uint64_t SoKey; ... }; // a key lookup probe
///   static Probe sentinelProbe(uint64_t SoKey); // a sentinel's probe
///   LinkPart  *linkOf(uintptr_t Raw);     // tag-stripped node -> prefix
///   uintptr_t  rawOf(LinkPart *);         // inverse of linkOf
///   int  compareTie(uintptr_t Raw, const Probe &); // same-SoKey order:
///                                         // a sentinel before its items
///   void retireUnlinked(guard_type &, uintptr_t); // unlinked marked item
///   using KeyCopy = ...;                  // owns one copied key
///   Probe probeOf(uintptr_t Raw, KeyCopy &); // the probe that finds Raw
/// \endcode
///
/// `retireUnlinked` is called exactly once per item, by the thread whose
/// CAS physically removed it.
template <typename Policy> class ShardIndex {
public:
  using guard_type = typename Policy::guard_type;
  using Probe = typename Policy::Probe;

  /// Mark bit of a link word.
  static constexpr std::uintptr_t Tag = 1;

  /// Protection slots the walk rotates (callers must leave 0–2 to the
  /// index while a Position is live).
  static constexpr unsigned WalkSlots = 3;

  /// A located position in a shard list: the link that pointed at
  /// `CurrRaw`, the first node at or after the probe (0 at the tail),
  /// and whether it matches the probe exactly.
  using Position = ds::ListPosition;

  /// One shard: the grow-only bucket directory (each slot holds its
  /// bucket's inline sentinel; bucket 0 is born Linked) and the item
  /// count driving the load-factor trigger. The struct is line-aligned
  /// so shards never share lines with each other, and `Items` — RMW'd by
  /// every insert and erase — is padded onto its own line so the counter
  /// traffic does not invalidate the directory words every find reads.
  struct alignas(CacheLineSize) Shard {
    core::SlotDirectory<Bucket> Buckets;
    CachePadded<std::atomic<std::int64_t>> Items{std::int64_t{0}};

    explicit Shard(std::size_t MinBuckets) : Buckets(MinBuckets) {
      Buckets.slot(0).state().store(Bucket::Linked, std::memory_order_relaxed);
    }
  };

  /// \p MinBuckets is each shard's initial bucket count (power of two);
  /// \p MaxLoadFactor is the items-per-bucket growth trigger (0 = never
  /// grow).
  ShardIndex(Policy &P, std::size_t NumShards, std::size_t MinBuckets,
             std::size_t MaxLoadFactor)
      : Pol(P), NumShards(NumShards), LoadFactor(MaxLoadFactor) {
    Shards_.reset(static_cast<Shard *>(::operator new(
        NumShards * sizeof(Shard), std::align_val_t(alignof(Shard)))));
    for (std::size_t S = 0; S < NumShards; ++S)
      new (&Shards_[S]) Shard(MinBuckets);
  }

  ~ShardIndex() {
    for (std::size_t S = 0; S < NumShards; ++S)
      Shards_[S].~Shard();
  }

  ShardIndex(const ShardIndex &) = delete;
  ShardIndex &operator=(const ShardIndex &) = delete;

  /// Shard \p S's state (tests read bucket states and force claims).
  Shard &shard(std::size_t S) { return Shards_[S]; }
  /// Number of shards.
  std::size_t shards() const { return NumShards; }

  /// Raw word of shard \p S's root sentinel (head of the whole list).
  std::uintptr_t root(std::size_t S) {
    return Pol.rawOf(&Shards_[S].Buckets.slot(0).L);
  }

  /// Tag-stripped raw node word -> its link prefix (the policy's layout).
  LinkPart *linkOf(std::uintptr_t Raw) const { return Pol.linkOf(Raw); }

  /// Current bucket count of shard \p S (monotone; for stats/tests).
  std::size_t buckets(std::size_t S) const {
    return Shards_[S].Buckets.capacity();
  }

  /// Item count of shard \p S (approximate under concurrency).
  std::int64_t items(std::size_t S) const {
    return Shards_[S].Items.Value.load(std::memory_order_relaxed);
  }

  /// Load-factor growth triggers fired so far, across all shards
  /// (telemetry; 0 when `LFSMR_TELEMETRY=OFF`). Counts trigger *events*,
  /// not capacity doublings — racing growers may fire several triggers
  /// for one doubling, which is itself a signal (resize contention).
  std::uint64_t resizeCount() const { return Resizes.total(); }

  /// Michael's find over shard \p S for \p P, starting from the deepest
  /// materialized bucket for \p Hash. Writers (\p InitBuckets) link
  /// missing sentinels on the way; readers fall back to an ancestor
  /// bucket. Physically unlinks marked items in passing (the CAS winner
  /// retires them through the policy). Rotates protection slots 0–2.
  Position find(guard_type &G, std::size_t S, std::uint64_t Hash,
                const Probe &P, bool InitBuckets) {
    Shard &Sh = Shards_[S];
    const std::size_t B = bucketOf(Sh, Hash);
    std::uintptr_t Head = InitBuckets ? bucketInit(G, Sh, B)
                                      : bucketReady(Sh, B);
    return ds::michaelFind(G, &Pol.linkOf(Head)->Next, Steps{*this, Sh, P});
  }

  /// Visits every live item of shard \p S in list order, once each:
  /// `Visit(Raw)` gets the tag-stripped raw node while it is protected
  /// (slots 0–2 are the walk's, so \p Visit may use slots 3+). The walk
  /// helps unlink marked items like any find; when a re-check fails it
  /// re-finds the node it last stood on and goes on past it, so it never
  /// visits an item twice and never steps out of an unlinked one.
  template <typename Visit>
  void scan(guard_type &G, std::size_t S, Visit &&V) {
    Shard &Sh = Shards_[S];
    ds::michaelFind(G, &Sh.Buckets.slot(0).L.Next,
                    ScanSteps<Visit>{{*this, Sh, Probe{}}, V});
  }

  /// Links \p FreshRaw (an item node whose `LinkPart` is already filled
  /// in except `Next`) at \p Pos. On success bumps the shard's item
  /// count and applies the load-factor growth trigger. On failure the
  /// caller re-finds and retries (the fresh node stays caller-owned).
  bool insertAt(guard_type &G, std::size_t S, const Position &Pos,
                std::uintptr_t FreshRaw) {
    Pol.linkOf(FreshRaw)->Next.store(Pos.CurrRaw, std::memory_order_relaxed);
    std::uintptr_t Expected = Pos.CurrRaw;
    if (!Pos.PrevLink->compare_exchange_strong(Expected, FreshRaw,
                                               std::memory_order_seq_cst,
                                               std::memory_order_acquire))
      return false;
    Shard &Sh = Shards_[S];
    const std::int64_t N =
        Sh.Items.Value.fetch_add(1, std::memory_order_relaxed) + 1;
    maybeGrow(Sh, N);
    (void)G;
    return true;
  }

  /// Marks \p Raw (an item already logically dead at the store level)
  /// for removal and lets a find pass unlink + retire it. Idempotent.
  void helpUnlink(guard_type &G, std::size_t S, std::uintptr_t Raw,
                  std::uint64_t Hash, const Probe &P) {
    std::atomic<std::uintptr_t> &Next = Pol.linkOf(Raw)->Next;
    std::uintptr_t W = Next.load(std::memory_order_acquire);
    while (!(W & Tag) &&
           !Next.compare_exchange_weak(W, W | Tag, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
    }
    find(G, S, Hash, P, /*InitBuckets=*/true); // helping unlink + retire
  }

private:
  /// Doubles \p Sh's bucket directory when \p Items exceeds the load
  /// factor. Lock-free (`SlotDirectory::grow` is CAS-based and racing
  /// growers are benign); the new buckets materialize lazily. The count
  /// can read negative for a moment (a fresh key unlinked before its
  /// inserter's `fetch_add`), and a negative count never grows.
  void maybeGrow(Shard &Sh, std::int64_t Items) {
    if (!LoadFactor || Items <= 0)
      return;
    const std::size_t K = Sh.Buckets.capacity();
    if (static_cast<std::size_t>(Items) > LoadFactor * K) {
      Sh.Buckets.grow(K);
      Resizes.add();
    }
  }

  /// Bucket of \p Hash among \p Sh's current buckets: its low bits.
  static std::size_t bucketOf(Shard &Sh, std::uint64_t Hash) {
    return static_cast<std::size_t>(Hash) & (Sh.Buckets.capacity() - 1);
  }

  /// Reader path: the deepest Linked bucket on \p B's ancestor chain —
  /// never allocates, never blocks.
  std::uintptr_t bucketReady(Shard &Sh, std::size_t B) {
    for (;;) {
      Bucket &Bk = Sh.Buckets.slot(B);
      if (Bk.state().load(std::memory_order_acquire) == Bucket::Linked)
        return Pol.rawOf(&Bk.L);
      assert(B != 0 && "bucket 0 is born Linked");
      B = parentBucket(B);
    }
  }

  /// Writer path: materializes bucket \p B (and, transitively, its
  /// ancestors) by linking its sentinel at the split point of the parent
  /// chain. Only the winner of the Unborn → Claimed CAS links; everyone
  /// else starts from the nearest Linked ancestor, so a stalled claimer
  /// never blocks anyone.
  std::uintptr_t bucketInit(guard_type &G, Shard &Sh, std::size_t B) {
    Bucket &Bk = Sh.Buckets.slot(B);
    std::uintptr_t St = Bk.state().load(std::memory_order_acquire);
    if (St == Bucket::Linked)
      return Pol.rawOf(&Bk.L);
    const std::uintptr_t Parent = bucketInit(G, Sh, parentBucket(B));
    if (St != Bucket::Unborn ||
        !Bk.state().compare_exchange_strong(St, Bucket::Claimed,
                                            std::memory_order_acquire,
                                            std::memory_order_acquire))
      return bucketReady(Sh, B);
    Bk.L.SoKey = soKey(B);
    const Probe P = Policy::sentinelProbe(Bk.L.SoKey);
    const std::uintptr_t Self = Pol.rawOf(&Bk.L);
    for (;;) {
      const Position Pos =
          ds::michaelFind(G, &Pol.linkOf(Parent)->Next, Steps{*this, Sh, P});
      assert(!Pos.Found && "only the claimer links a bucket's sentinel");
      Bk.L.Next.store(Pos.CurrRaw, std::memory_order_relaxed);
      std::uintptr_t Expected = Pos.CurrRaw;
      if (Pos.PrevLink->compare_exchange_strong(Expected, Self,
                                                std::memory_order_seq_cst,
                                                std::memory_order_acquire))
        break;
    }
    Bk.state().store(Bucket::Linked, std::memory_order_release);
    return Self;
  }

  /// `ds::michaelFind`'s view of shard \p Sh's list, probing for \p P:
  /// nodes are `LinkPart` prefixes ordered by split-order key, ties by the
  /// policy's `compareTie` (a sentinel before the items it ties with).
  /// The walk's first `PrevLink` lies in a sentinel, which never dies;
  /// the unlink winner of a marked item decrements the shard's item
  /// count and retires it through the policy.
  struct Steps {
    ShardIndex &Ix;
    Shard &Sh;
    Probe P;

    std::atomic<std::uintptr_t> &next(std::uintptr_t Raw) const {
      return Ix.Pol.linkOf(Raw)->Next;
    }
    int Tie = 0; ///< `before`'s last `compareTie`, for `matches`
    bool before(std::uintptr_t Raw) {
      const std::uint64_t So = Ix.Pol.linkOf(Raw)->SoKey;
      if (So != P.SoKey)
        return So < P.SoKey;
      Tie = Ix.Pol.compareTie(Raw, P);
      return Tie < 0;
    }
    bool matches(std::uintptr_t Raw) const {
      return Ix.Pol.linkOf(Raw)->SoKey == P.SoKey && Tie == 0;
    }
    void unlinked(guard_type &G, std::uintptr_t Raw) const {
      Sh.Items.Value.fetch_sub(1, std::memory_order_relaxed);
      Ix.Pol.retireUnlinked(G, Raw);
    }
    std::atomic<std::uintptr_t> *
    restart(std::atomic<std::uintptr_t> *Head) const {
      return Head;
    }
  };

  /// The scan's view: puts every node before the probe, so the walk runs
  /// to the tail, visiting each live item. `Last`, the node last stepped
  /// past, owns `PrevLink` and stays protected in the spare slot. After a
  /// failed re-check the scan copies Last's probe, re-finds from Last's
  /// bucket and skips every node up to and including it; a re-check that
  /// fails mid-skip keeps that probe and head, so no node is passed twice.
  template <typename Visit> struct ScanSteps : Steps {
    Visit &V;
    std::uintptr_t Last = 0;
    typename Policy::KeyCopy Copy{};
    bool Skipping = false;

    bool before(std::uintptr_t Raw) {
      Last = Raw;
      if (Skipping && (Steps::before(Raw) || Steps::matches(Raw)))
        return true;
      Skipping = false;
      if (!this->Ix.Pol.linkOf(Raw)->sentinel())
        V(Raw);
      return true;
    }
    std::atomic<std::uintptr_t> *restart(std::atomic<std::uintptr_t> *Head) {
      if (!Last || Skipping)
        return Head; // nothing passed yet, or still skipping to P
      this->P = this->Ix.Pol.probeOf(Last, Copy);
      Skipping = true;
      const std::size_t B = bucketOf(this->Sh, soKeyHash(this->P.SoKey));
      return &this->Ix.Pol.linkOf(this->Ix.bucketReady(this->Sh, B))->Next;
    }
  };

  Policy &Pol;
  const std::size_t NumShards;
  const std::size_t LoadFactor;
  telemetry::Counter Resizes;

  struct ShardArrayDeleter {
    void operator()(Shard *P) const {
      ::operator delete(P, std::align_val_t(alignof(Shard)));
    }
  };
  std::unique_ptr<Shard[], ShardArrayDeleter> Shards_;
};

} // namespace lfsmr::kv

#endif // LFSMR_KV_SHARD_INDEX_H
