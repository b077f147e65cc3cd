//===- tests/test_slot_directory.cpp - Adaptive slot directory ------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct coverage for core/slot_directory.h (Section 4.3, Figure 10):
/// addressing across the geometrically growing arrays (for initial
/// counts from 1 to 1024), stability of slot
/// addresses under growth, idempotent/stale grow calls, thread-id folding
/// above the slot count, and concurrent acquire/release against racing
/// growers.
///
//===----------------------------------------------------------------------===//

#include "core/slot_directory.h"
#include "devtools/random.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

using lfsmr::core::SlotDirectory;

namespace {

TEST(SlotDirectory, InitialCapacityIsKMin) {
  SlotDirectory<uint64_t> D(8);
  EXPECT_EQ(D.kMin(), 8u);
  EXPECT_EQ(D.capacity(), 8u);
}

TEST(SlotDirectory, GrowDoublesAndStaysPowerOfTwo) {
  SlotDirectory<uint64_t> D(2);
  for (std::size_t Expect = 2; Expect <= 256; Expect *= 2) {
    EXPECT_EQ(D.capacity(), Expect);
    EXPECT_EQ(D.capacity() & (D.capacity() - 1), 0u) << "must be a power of two";
    D.grow(D.capacity());
  }
  EXPECT_EQ(D.capacity(), 512u);
}

TEST(SlotDirectory, StaleGrowIsNoOp) {
  SlotDirectory<uint64_t> D(4);
  D.grow(8); // nobody observed capacity 8 yet
  EXPECT_EQ(D.capacity(), 4u);
  D.grow(4);
  EXPECT_EQ(D.capacity(), 8u);
  D.grow(4); // stale ExpectedK after a successful grow
  EXPECT_EQ(D.capacity(), 8u);
}

TEST(SlotDirectory, AddressingCoversEveryArrayBoundary) {
  // KMin = 4: array 0 spans [0,4), array 1 [4,8), array 2 [8,16),
  // array 3 [16,32). Every slot must be distinct storage.
  SlotDirectory<uint64_t> D(4);
  while (D.capacity() < 32)
    D.grow(D.capacity());
  for (std::size_t I = 0; I < 32; ++I)
    D.slot(I) = 1000 + I;
  for (std::size_t I = 0; I < 32; ++I)
    EXPECT_EQ(D.slot(I), 1000 + I) << "slot " << I;
}

TEST(SlotDirectory, ExactArrayBoundaryIndices) {
  // The addressing formula maps slot i to array s = log2(i / KMin) + 1
  // spanning [KMin * 2^(s-1), KMin * 2^s). Hit both edges of every array
  // exactly: the first index (KMin * 2^(s-1)) and the last
  // (KMin * 2^s - 1) must be distinct, writable storage, and the
  // neighbours across a boundary must land in different arrays without
  // aliasing.
  constexpr std::size_t KMin = 8;
  SlotDirectory<uint64_t> D(KMin);
  while (D.capacity() < KMin << 6)
    D.grow(D.capacity());
  const std::size_t K = D.capacity();
  ASSERT_EQ(K, KMin << 6);

  // Stamp both edges of every array, then verify everything at the end:
  // the writes must never alias (note each array's First - 1 is the
  // previous array's Last, so distinct patterns per index are required).
  const auto FirstPattern = [](unsigned S) { return 0xF00D0000ull + S; };
  const auto LastPattern = [](unsigned S) { return 0xBEEF0000ull + S; };
  for (unsigned S = 1; (KMin << S) <= K; ++S) {
    const std::size_t First = KMin << (S - 1); // KMin * 2^(s-1)
    const std::size_t Last = (KMin << S) - 1;  // KMin * 2^s - 1
    EXPECT_NE(&D.slot(First), &D.slot(Last));
    // The index one below the array's first slot belongs to the previous
    // array; it must be distinct storage from the boundary slot.
    EXPECT_NE(&D.slot(First - 1), &D.slot(First));
    D.slot(First) = FirstPattern(S);
    D.slot(Last) = LastPattern(S);
  }
  for (unsigned S = 1; (KMin << S) <= K; ++S) {
    EXPECT_EQ(D.slot(KMin << (S - 1)), FirstPattern(S)) << "array " << S;
    EXPECT_EQ(D.slot((KMin << S) - 1), LastPattern(S)) << "array " << S;
  }
  // Const access resolves to the same storage.
  const SlotDirectory<uint64_t> &CD = D;
  EXPECT_EQ(&CD.slot(KMin), &D.slot(KMin));
}

TEST(SlotDirectory, ShiftAddressingHoldsForEveryKMin) {
  // `slot` and `grow` shift by log2(KMin) instead of dividing by it.
  // From KMin 1 up to 1024 (the kv store's default buckets per shard),
  // every index of six doublings must be distinct storage, and two
  // neighbouring indices must be adjacent slots of one array unless the
  // higher one starts an array (a power of two at or above KMin).
  for (const std::size_t KMin : {std::size_t{1}, std::size_t{2},
                                 std::size_t{16}, std::size_t{1024}}) {
    SlotDirectory<uint64_t> D(KMin);
    while (D.capacity() < KMin << 6)
      D.grow(D.capacity());
    const std::size_t K = D.capacity();
    ASSERT_EQ(K, KMin << 6);
    for (std::size_t I = 0; I < K; ++I)
      D.slot(I) = I + 1;
    for (std::size_t I = 0; I < K; ++I) {
      ASSERT_EQ(D.slot(I), I + 1) << "KMin " << KMin << " slot " << I;
      const bool StartsArray = I >= KMin && (I & (I - 1)) == 0;
      if (I > 0 && !StartsArray) {
        ASSERT_EQ(&D.slot(I), &D.slot(I - 1) + 1)
            << "KMin " << KMin << " slot " << I;
      }
    }
  }
}

TEST(SlotDirectory, ConcurrentGrowWhileReadingBoundarySlots) {
  // Readers hammer the slots right at the array boundaries of every
  // capacity they observe while growers keep doubling: under ASan/TSan
  // this catches any window where a boundary index resolves before its
  // array is published.
  SlotDirectory<std::atomic<uint64_t>> D(4);
  constexpr unsigned Readers = 6;
  constexpr std::size_t MaxK = 4096;
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Growers;
  for (unsigned G = 0; G < 2; ++G)
    Growers.emplace_back([&] {
      while (!Stop.load(std::memory_order_relaxed)) {
        const std::size_t K = D.capacity();
        if (K < MaxK)
          D.grow(K);
        std::this_thread::yield();
      }
    });
  std::vector<std::thread> Ts;
  std::atomic<uint64_t> Sum{0};
  for (unsigned T = 0; T < Readers; ++T)
    Ts.emplace_back([&, T] {
      lfsmr::Xoshiro256 Rng(lfsmr::streamSeed(40 + T));
      uint64_t Local = 0;
      for (int I = 0; I < 4000; ++I) {
        // Capacity only grows, so every boundary of the observed K is
        // valid storage for the rest of the run.
        const std::size_t K = D.capacity();
        const std::size_t Boundary = K / 2;            // first of top array
        const std::size_t LastIdx = K - 1;             // last of top array
        D.slot(Boundary).fetch_add(1, std::memory_order_relaxed);
        Local += D.slot(LastIdx).load(std::memory_order_relaxed);
        D.slot(Rng.nextBounded(K)).fetch_add(1, std::memory_order_relaxed);
      }
      Sum.fetch_add(Local);
    });
  for (auto &T : Ts)
    T.join();
  Stop.store(true);
  for (auto &G : Growers)
    G.join();
  // Every increment must be accounted for somewhere in the directory.
  const std::size_t K = D.capacity();
  uint64_t Total = 0;
  for (std::size_t I = 0; I < K; ++I)
    Total += D.slot(I).load();
  EXPECT_EQ(Total, uint64_t{Readers} * 4000 * 2);
  EXPECT_LE(K, MaxK * 2);
}

TEST(SlotDirectory, NewSlotsAreValueInitialized) {
  SlotDirectory<uint64_t> D(4);
  D.grow(4);
  D.grow(8);
  for (std::size_t I = 0; I < 16; ++I)
    EXPECT_EQ(D.slot(I), 0u) << "slot " << I;
}

TEST(SlotDirectory, SlotAddressesAreStableAcrossGrowth) {
  // Lock-free readers rely on existing slots never moving (the paper's
  // reason for a directory instead of reallocation).
  SlotDirectory<uint64_t> D(4);
  std::vector<uint64_t *> Before;
  for (std::size_t I = 0; I < 4; ++I) {
    D.slot(I) = I + 1;
    Before.push_back(&D.slot(I));
  }
  while (D.capacity() < 1024)
    D.grow(D.capacity());
  for (std::size_t I = 0; I < 4; ++I) {
    EXPECT_EQ(&D.slot(I), Before[I]) << "slot " << I << " moved";
    EXPECT_EQ(D.slot(I), I + 1) << "slot " << I << " lost its value";
  }
}

TEST(SlotDirectory, ThreadIdFoldingAboveSlotCount) {
  // Transparency: the Hyaline schemes fold dense thread ids onto slots
  // with `Tid & (k - 1)`. Ids far above the slot count must land on valid,
  // evenly distributed slots.
  SlotDirectory<std::atomic<uint64_t>> D(8);
  const std::size_t K = D.capacity();
  for (unsigned Tid = 0; Tid < 64; ++Tid) {
    const std::size_t Slot = Tid & (K - 1);
    ASSERT_LT(Slot, K);
    D.slot(Slot).fetch_add(1, std::memory_order_relaxed);
  }
  for (std::size_t I = 0; I < K; ++I)
    EXPECT_EQ(D.slot(I).load(), 64u / K) << "folding must be uniform";
}

TEST(SlotDirectory, ConcurrentAcquireReleaseBalances) {
  // Threads fold their id onto a slot, acquire (increment), spin briefly,
  // and release (decrement), while one thread keeps doubling the
  // directory. Counts must balance and no slot may be lost or duplicated.
  SlotDirectory<std::atomic<int64_t>> D(4);
  constexpr unsigned Threads = 8;
  constexpr int Iters = 2000;
  std::atomic<bool> Stop{false};
  std::thread Grower([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      const std::size_t K = D.capacity();
      if (K < 64)
        D.grow(K);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      lfsmr::Xoshiro256 Rng(lfsmr::streamSeed(T));
      for (int I = 0; I < Iters; ++I) {
        // Capacity only grows, so a slot picked under an observed K stays
        // valid even when a grower races past it.
        const std::size_t K = D.capacity();
        const std::size_t Slot = (T + Rng.nextBounded(K)) & (K - 1);
        auto &Cell = D.slot(Slot);
        Cell.fetch_add(1, std::memory_order_acq_rel);
        std::this_thread::yield();
        Cell.fetch_sub(1, std::memory_order_acq_rel);
      }
    });
  for (auto &T : Ts)
    T.join();
  Stop.store(true);
  Grower.join();
  const std::size_t FinalK = D.capacity();
  EXPECT_GE(FinalK, 4u);
  for (std::size_t I = 0; I < FinalK; ++I)
    EXPECT_EQ(D.slot(I).load(), 0) << "slot " << I << " unbalanced";
}

TEST(SlotDirectory, ConcurrentGrowersReachOneConsistentCapacity) {
  // Racing growers allocate speculatively; the CAS loser must free its
  // buffer (ASan would flag a leak) and capacity must advance exactly one
  // doubling per observed value.
  SlotDirectory<uint64_t> D(4);
  constexpr unsigned Threads = 8;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&] {
      for (int I = 0; I < 6; ++I) {
        // Re-read capacity each round but stop doubling at 4096 so the
        // worst-case racing schedule stays within test-sized allocations.
        const std::size_t K = D.capacity();
        if (K < 4096)
          D.grow(K);
      }
    });
  for (auto &T : Ts)
    T.join();
  const std::size_t K = D.capacity();
  EXPECT_EQ(K & (K - 1), 0u);
  EXPECT_GE(K, 4u * 2); // at least one grow landed
  EXPECT_LE(K, 8192u);
  // Every slot of the final capacity must be addressable storage.
  for (std::size_t I = 0; I < K; ++I)
    D.slot(I) = I;
  for (std::size_t I = 0; I < K; ++I)
    EXPECT_EQ(D.slot(I), I);
}

} // namespace
