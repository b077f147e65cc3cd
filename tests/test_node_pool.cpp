//===- tests/test_node_pool.cpp - kv node pool tests ----------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Coverage for `lfsmr::kv::NodePool`, the fixed-size slot pool the kv
/// store takes its nodes from: a freed slot is the next allocation's,
/// slots one thread allocated and another freed are reused by a third
/// thread id without a new chunk (the reuse glibc's per-thread arenas
/// lack), teardown releases every chunk (LSan checks it under the `asan`
/// preset), a released slot is poisoned under ASan, and a 4-thread
/// cross-thread alloc/free stress (label `stress`; run it under the
/// `tsan` preset for the race check). Under ASan a released slot waits
/// in the pool's quarantine, so the reuse tests push their slots through
/// it first and keep their exact expectations.
///
//===----------------------------------------------------------------------===//

#include "devtools/barrier.h"
#include "devtools/random.h"
#include "kv/node_pool.h"

#include "gtest/gtest.h"

#ifdef LFSMR_KV_ASAN
#include <sanitizer/asan_interface.h>
#endif

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

using namespace lfsmr;

namespace {

constexpr std::size_t Slot = 56;
constexpr std::size_t Align = 8;

/// `QuarantineSlots` slots of \p Tid (none outside ASan). Allocated before
/// the slots under test are released and released right after them, they
/// push those slots through the quarantine onto the return stack.
std::vector<void *> quarantineFill(kv::NodePool &P, smr::ThreadId Tid) {
  std::vector<void *> Fill;
  for (std::size_t I = 0; I < kv::NodePool::QuarantineSlots; ++I)
    Fill.push_back(P.allocate(Tid));
  return Fill;
}

void releaseAll(kv::NodePool &P, const std::vector<void *> &Slots) {
  for (void *S : Slots)
    P.release(S);
}

TEST(NodePool, FreedSlotIsTheNextAllocation) {
  kv::NodePool P(Slot, Align, 2);
  EXPECT_EQ(P.bytes(), 0u) << "a fresh pool holds no chunk";
  void *A = P.allocate(0);
  void *B = P.allocate(0);
  const std::vector<void *> FillA = quarantineFill(P, 0);
  const std::vector<void *> FillB = quarantineFill(P, 0);
  EXPECT_NE(A, B);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(A) % Align, 0u);
  EXPECT_EQ(P.bytes(), P.chunkBytes());
  std::thread([&] { P.release(A); }).join();
  releaseAll(P, FillA);
  EXPECT_EQ(P.allocate(0), A) << "the freed slot comes back before the bump";
  P.release(B);
  releaseAll(P, FillB);
  EXPECT_EQ(P.allocate(1), B) << "any thread id takes the returned slot";
  EXPECT_EQ(P.bytes(), P.chunkBytes());
  P.release(A);
  P.release(B);
}

TEST(NodePool, SlotsFreedElsewhereAreReusedWithoutANewChunk) {
  // Tid 0 allocates, another thread frees, tid 1 allocates the same
  // count: every slot comes from tid 0's chunk, and no chunk is added.
  kv::NodePool P(Slot, Align, 2);
  const std::size_t N = P.chunkBytes() / Slot / 2;
  std::vector<void *> Mine;
  for (std::size_t I = 0; I < N; ++I)
    Mine.push_back(P.allocate(0));
  const std::vector<void *> Fill = quarantineFill(P, 0);
  const std::size_t Held = P.bytes();
  EXPECT_EQ(Held, P.chunkBytes());
  std::thread([&] { releaseAll(P, Mine); }).join();
  releaseAll(P, Fill);
  const std::set<void *> Freed(Mine.begin(), Mine.end());
  std::set<void *> Reused;
  for (std::size_t I = 0; I < N; ++I)
    Reused.insert(P.allocate(1));
  EXPECT_EQ(Reused, Freed) << "tid 1 reused exactly the freed slots";
  EXPECT_EQ(P.bytes(), Held) << "no chunk was carved for tid 1";
  for (void *S : Reused)
    P.release(S);
}

TEST(NodePool, BumpRangeSpansChunksAndTeardownReleasesThem) {
  // Enough slots for three chunks, the last one only partly carved: the
  // destructor must release every chunk (LSan reports any it misses).
  kv::NodePool P(Slot, Align, 1);
  const std::size_t PerChunk = P.chunkBytes() / Slot;
  std::set<void *> Seen;
  for (std::size_t I = 0; I < 2 * PerChunk + 1; ++I)
    Seen.insert(P.allocate(0));
  EXPECT_EQ(Seen.size(), 2 * PerChunk + 1) << "every slot is distinct";
  EXPECT_EQ(P.bytes(), 3 * P.chunkBytes());
  for (void *S : Seen)
    P.release(S);
}

TEST(NodePool, OversizedSlotGetsAChunkOfItsOwn) {
  kv::NodePool P(2 * kv::NodePool::MinChunkBytes, 16, 1);
  EXPECT_GT(P.chunkBytes(), 2 * kv::NodePool::MinChunkBytes);
  void *A = P.allocate(0);
  void *B = P.allocate(0);
  EXPECT_NE(A, B);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(B) % 16, 0u);
  EXPECT_EQ(P.bytes(), 2 * P.chunkBytes());
  P.release(A);
  P.release(B);
}

TEST(NodePool, ReleasedSlotIsPoisonedUnderAsan) {
#ifndef LFSMR_KV_ASAN
  GTEST_SKIP() << "the pool poisons slots in AddressSanitizer builds only";
#else
  kv::NodePool P(Slot, Align, 1);
  auto *A = static_cast<char *>(P.allocate(0));
  EXPECT_EQ(__asan_region_is_poisoned(A, Slot), nullptr);
  EXPECT_TRUE(__asan_address_is_poisoned(A + Slot))
      << "chunk space not yet carved";
  P.release(A);
  EXPECT_TRUE(__asan_address_is_poisoned(A));
  EXPECT_TRUE(__asan_address_is_poisoned(A + Slot - 1));
  auto *B = static_cast<char *>(P.allocate(0));
  EXPECT_NE(B, A) << "the released slot waits in the quarantine";
  EXPECT_EQ(__asan_region_is_poisoned(B, Slot), nullptr);
  P.release(B);
#endif
}

TEST(NodePoolStress, FourThreadsAllocateAndFreeAcrossThreads) {
  // Each thread marks the slots it allocates live, trades them through a
  // shared mailbox array, and frees whatever it takes out. The mark sits
  // in a slot's second word (the pool links free slots through the
  // first), so a slot handed to two owners at once, or freed twice,
  // shows as a mark already in the state being set.
  constexpr unsigned Threads = 4;
  constexpr unsigned Boxes = 64;
  constexpr std::uint64_t Ops = 40000;
  constexpr std::uint64_t LiveMark = 0x6c697665c0ffee01ULL;
  constexpr std::uint64_t FreeMark = 0x66726565c0ffee02ULL;
  kv::NodePool P(Slot, Align, Threads);
  std::atomic<void *> Box[Boxes] = {};
  std::atomic<std::uint64_t> Bad{0};
  const auto Mark = [&](void *S, std::uint64_t To, std::uint64_t NotFrom) {
    std::atomic_ref<std::uint64_t> M(static_cast<std::uint64_t *>(S)[1]);
    if (M.exchange(To, std::memory_order_relaxed) == NotFrom)
      Bad.fetch_add(1, std::memory_order_relaxed);
  };
  const auto Free = [&](void *S) {
    Mark(S, FreeMark, FreeMark);
    P.release(S);
  };
  SpinBarrier Start(Threads);
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      Xoshiro256 Rng(streamSeed(T));
      Start.arriveAndWait();
      for (std::uint64_t I = 0; I < Ops; ++I) {
        void *S = P.allocate(T);
        Mark(S, LiveMark, LiveMark);
        if (Rng.next() % 4 == 0) { // some slots never leave this thread
          Free(S);
          continue;
        }
        if (void *Old = Box[Rng.next() % Boxes].exchange(S))
          Free(Old);
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Bad.load(), 0u) << "a slot was live twice or freed twice";
  for (auto &B : Box)
    if (void *S = B.exchange(nullptr))
      Free(S);
  // At most Boxes + Threads slots are ever live at once (plus, under
  // ASan, the quarantined ones), so reuse keeps the pool to a few chunks
  // per thread however many ops ran.
  EXPECT_LE(P.bytes(), 2 * Threads * P.chunkBytes() +
                           kv::NodePool::QuarantineSlots * Slot)
      << "freed slots were not reused";
}

} // namespace
