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
//===----------------------------------------------------------------------===//

#ifndef LFSMR_KV_NODE_POOL_H
#define LFSMR_KV_NODE_POOL_H

#include "smr/smr.h"
#include "support/align.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
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

/// True in AddressSanitizer builds. The store then takes its nodes from
/// `::operator new` instead of a `NodePool`, so ASan's quarantine still
/// catches a use-after-free of a reclaimed node (a pooled slot is reused
/// at once and never poisoned).
#ifdef LFSMR_KV_ASAN
inline constexpr bool AsanBuild = true;
#else
inline constexpr bool AsanBuild = false;
#endif

/// A lock-free pool of equal-size slots (see the file comment).
/// Immovable. `allocate` is called by the thread owning \p Tid only;
/// `release` may be called by any thread, including one that never
/// allocated.
class NodePool {
public:
  /// Smallest chunk carved from `::operator new`.
  static constexpr std::size_t MinChunkBytes = std::size_t{64} << 10;

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

  /// Releases every chunk. Every slot must have been released or be
  /// unreachable by then.
  ~NodePool() {
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

  /// Returns \p P (a slot of this pool) to the shared stack. Any thread.
  void release(void *P) {
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
  }

  const std::size_t Slot;
  const std::size_t DataOff;
  const std::size_t ChunkSize;
  [[maybe_unused]] const unsigned MaxThreads; // checked by `allocate`'s assert
  std::unique_ptr<CachePadded<Cache>[]> Caches;
  CachePadded<std::atomic<FreeSlot *>> Returned{nullptr};
  std::atomic<Chunk *> Chunks{nullptr};
  std::atomic<std::size_t> Bytes{0};
};

} // namespace lfsmr::kv

#endif // LFSMR_KV_NODE_POOL_H
