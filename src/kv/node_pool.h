//===- kv/node_pool.h - Store-owned fixed-size node pool ---------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `lfsmr::kv::NodePool`: the fixed-size slot pool a `kv::Store` takes its
/// key, version and commit nodes from when both payload codecs are fixed
/// size. It is the "pool" layer Brown's record manager puts between the
/// reclaimer and the allocator (arXiv 1712.01044).
///
/// Why the store needs one: Hyaline balances reclamation, so "an
/// arbitrary thread ends up freeing memory" (paper §3) — a node is
/// usually freed by a different thread from the one that allocated it.
/// glibc hands a freed chunk back to the arena that allocated it, where
/// only that arena's threads can reuse it, so a store whose keys were
/// prefilled on one thread and overwritten on others strands the freed
/// prefill in one arena while every writer's arena grows. The pool makes
/// a freed slot reusable by every allocating thread.
///
/// Three parts:
///
///  - **Per-thread caches.** For each thread id below the domain's
///    `MaxThreads`: a private free list plus a bump range in the chunk
///    the thread carved last. Only the allocating thread touches its
///    cache.
///  - **One shared return stack.** Every free, on any thread, pushes the
///    slot with one CAS. An allocator whose free list is empty takes the
///    whole stack with one `exchange`. Push plus take-all has no ABA
///    problem (nothing ever pops a single node off the shared head), so
///    it needs no double-width CAS.
///  - **Chunks.** At least `MinChunkBytes` each, from `::operator new`,
///    linked on a lock-free list and released only when the pool is
///    destroyed. A slot's memory therefore stays mapped for the pool's
///    whole life.
///
/// Allocation order: own free list, then the shared stack, then the bump
/// range, then a fresh chunk — so a chunk is carved only when no freed
/// slot was available to this thread at that moment.
///
/// Every build runs this pool, AddressSanitizer's too, so ASan checks the
/// allocation path that Release builds and benchmarks execute. Under ASan
/// the pool plays the part of ASan's own heap quarantine: chunk space not
/// yet carved is poisoned, `release` poisons the slot and parks it in a
/// FIFO of `QuarantineSlots` slots before it reaches the return stack,
/// and `allocate` unpoisons the slot it hands out. A reader that touches
/// a slot while it sits in the quarantine — a reclamation bug — gets a
/// use-after-poison report. Teardown aborts if a slot was handed out and
/// never released, since LeakSanitizer only sees whole chunks. Outside
/// ASan the quarantine is empty and the poisoning macros expand to
/// nothing.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_KV_NODE_POOL_H
#define LFSMR_KV_NODE_POOL_H

#include "smr/smr.h"
#include "support/align.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

namespace lfsmr::kv {

#if defined(__SANITIZE_ADDRESS__)
#define LFSMR_KV_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LFSMR_KV_ASAN 1
#endif
#endif

/// A lock-free pool of equal-size slots (see the file comment).
/// Immovable. `allocate` is called by the thread owning \p Tid only;
/// `release` may be called by any thread, including one that never
/// allocated.
class NodePool {
public:
  /// Smallest chunk carved from `::operator new`.
  static constexpr std::size_t MinChunkBytes = std::size_t{64} << 10;

  /// Released slots held poisoned before they can be reused: 512 under
  /// AddressSanitizer, 0 otherwise (a released slot is reusable at once).
#ifdef LFSMR_KV_ASAN
  static constexpr std::size_t QuarantineSlots = 512;
#else
  static constexpr std::size_t QuarantineSlots = 0;
#endif

  /// Slots of \p SlotBytes bytes, each aligned to \p Align (a power of
  /// two no larger than `operator new`'s default alignment that divides
  /// \p SlotBytes), for thread ids below \p Threads.
  NodePool(std::size_t SlotBytes, std::size_t Align, unsigned Threads)
      : Slot(SlotBytes), DataOff(std::max(sizeof(Chunk), Align)),
        ChunkSize(std::max(MinChunkBytes, DataOff + SlotBytes)),
        MaxThreads(Threads), Caches(new CachePadded<Cache>[Threads]) {
    assert(isPowerOfTwo(Align) &&
           Align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__ && SlotBytes % Align == 0 &&
           SlotBytes >= sizeof(FreeSlot));
  }

  /// Releases every chunk. Every slot must have been released by then
  /// (checked under AddressSanitizer).
  ~NodePool() {
#ifdef LFSMR_KV_ASAN
    if (const std::ptrdiff_t N = Live.load(std::memory_order_acquire)) {
      std::fprintf(stderr,
                   "lfsmr::kv::NodePool: %td slot(s) of %zu bytes were "
                   "allocated and never released\n",
                   N, Slot);
      std::abort();
    }
#endif
    Chunk *C = Chunks.load(std::memory_order_acquire);
    while (C) {
      Chunk *Next = C->Next;
      ::operator delete(C);
      C = Next;
    }
  }

  NodePool(const NodePool &) = delete;
  NodePool &operator=(const NodePool &) = delete;

  /// One slot for thread \p Tid (uninitialized storage).
  void *allocate(smr::ThreadId Tid) {
    void *P = take(Tid);
    ASAN_UNPOISON_MEMORY_REGION(P, Slot);
#ifdef LFSMR_KV_ASAN
    Live.fetch_add(1, std::memory_order_relaxed);
#endif
    return P;
  }

  /// Returns \p P (a slot of this pool) to the shared stack — under
  /// AddressSanitizer, poisoned and through the quarantine. Any thread.
  void release(void *P) {
#ifdef LFSMR_KV_ASAN
    Live.fetch_sub(1, std::memory_order_relaxed);
    ASAN_POISON_MEMORY_REGION(P, Slot);
    // Out comes the slot released QuarantineSlots releases ago. Its link
    // word becomes pool state again; the rest of it stays poisoned.
    const std::size_t I =
        QNext.fetch_add(1, std::memory_order_relaxed) % QuarantineSlots;
    P = Quarantine[I].exchange(P, std::memory_order_acq_rel);
    if (!P)
      return;
    ASAN_UNPOISON_MEMORY_REGION(P, sizeof(FreeSlot));
#endif
    auto *S = new (P) FreeSlot{Returned->load(std::memory_order_relaxed)};
    while (!Returned->compare_exchange_weak(S->Next, S,
                                            std::memory_order_release,
                                            std::memory_order_relaxed)) {
    }
  }

  /// Chunk bytes the pool holds (live, free, and not yet carved slots).
  /// Bumped once per chunk, never per slot.
  std::size_t bytes() const { return Bytes.load(std::memory_order_relaxed); }

  /// Size of one chunk.
  std::size_t chunkBytes() const { return ChunkSize; }

private:
  /// A free slot's first word links it to the next free slot.
  struct FreeSlot {
    FreeSlot *Next;
  };

  /// A chunk's header: the link of the pool's chunk list.
  struct Chunk {
    Chunk *Next;
  };

  /// One thread's private state.
  struct Cache {
    FreeSlot *Free = nullptr;
    char *Bump = nullptr;
    char *End = nullptr;
  };

  /// A slot for thread \p Tid, in the order the file comment gives.
  void *take(smr::ThreadId Tid) {
    assert(Tid < MaxThreads && "thread id outside the pool's cache array");
    Cache &C = *Caches[Tid];
    if (FreeSlot *S = C.Free) {
      C.Free = S->Next;
      return S;
    }
    // Load first: an empty stack costs no write to the shared line.
    if (Returned->load(std::memory_order_relaxed)) {
      if (FreeSlot *S =
              Returned->exchange(nullptr, std::memory_order_acquire)) {
        C.Free = S->Next;
        return S;
      }
    }
    if (C.Bump == C.End)
      carve(C);
    void *P = C.Bump;
    C.Bump += Slot;
    return P;
  }

  /// Carves a fresh chunk into \p C's bump range.
  void carve(Cache &C) {
    char *Mem = static_cast<char *>(::operator new(ChunkSize));
    auto *Ch = new (Mem) Chunk{Chunks.load(std::memory_order_relaxed)};
    while (!Chunks.compare_exchange_weak(Ch->Next, Ch,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
    }
    Bytes.fetch_add(ChunkSize, std::memory_order_relaxed);
    C.Bump = Mem + DataOff;
    C.End = C.Bump + (ChunkSize - DataOff) / Slot * Slot;
    ASAN_POISON_MEMORY_REGION(C.Bump, C.End - C.Bump);
  }

  const std::size_t Slot;
  const std::size_t DataOff;
  const std::size_t ChunkSize;
  [[maybe_unused]] const unsigned MaxThreads; // checked by `allocate`'s assert
  std::unique_ptr<CachePadded<Cache>[]> Caches;
  CachePadded<std::atomic<FreeSlot *>> Returned{nullptr};
  std::atomic<Chunk *> Chunks{nullptr};
  std::atomic<std::size_t> Bytes{0};
#ifdef LFSMR_KV_ASAN
  std::atomic<std::ptrdiff_t> Live{0}; ///< slots handed out, not released
  std::atomic<std::size_t> QNext{0};   ///< the quarantine's next entry
  std::array<std::atomic<void *>, QuarantineSlots> Quarantine{};
#endif
};

} // namespace lfsmr::kv

#endif // LFSMR_KV_NODE_POOL_H
