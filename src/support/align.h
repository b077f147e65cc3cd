//===- support/align.h - Cache-line alignment utilities --------*- C++ -*-===//
//
// Part of the lfsmr project, a reproduction of "Snapshot-Free, Transparent,
// and Robust Memory Reclamation for Lock-Free Data Structures" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cache-line size constants and a padded wrapper used to give each shared
/// slot (Head tuple, era, ack counter) its own cache line, as assumed by the
/// paper's contention analysis (Section 3.2, "Contention").
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_SUPPORT_ALIGN_H
#define LFSMR_SUPPORT_ALIGN_H

#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>

namespace lfsmr {

/// Size of a destructive-interference-free block. Intel CPUs prefetch pairs
/// of lines, so 128 bytes avoids adjacent-line false sharing.
inline constexpr std::size_t CacheLineSize = 128;

/// Wraps \p T so that distinct array elements never share a cache line.
///
/// Used for per-slot state (Heads, Accesses, Acks) so that CAS on one slot
/// does not invalidate a neighbouring slot's line.
template <typename T> struct alignas(CacheLineSize) CachePadded {
  T Value;

  CachePadded() = default;

  template <typename... Args>
  explicit CachePadded(Args &&...A) : Value(std::forward<Args>(A)...) {}

  T &operator*() { return Value; }
  const T &operator*() const { return Value; }
  T *operator->() { return &Value; }
  const T *operator->() const { return &Value; }
};

static_assert(sizeof(CachePadded<char>) == CacheLineSize,
              "padding must round up to a full cache line");

/// True when \p N is a power of two (zero is not).
constexpr bool isPowerOfTwo(std::size_t N) {
  return N != 0 && (N & (N - 1)) == 0;
}

static_assert(!isPowerOfTwo(0));
static_assert(isPowerOfTwo(1));
static_assert(isPowerOfTwo(64));
static_assert(!isPowerOfTwo(24));

/// The largest power of two a `size_t` holds.
inline constexpr std::size_t MaxPowerOfTwo = ~(~std::size_t{0} >> 1);

/// Reports a count that no power of two fits and aborts. Out of line and
/// cold, so each caller adds only a compare and a call.
[[noreturn, gnu::cold, gnu::noinline]] inline void
abortPastPowerOfTwo(std::size_t N) {
  std::fprintf(stderr,
               "lfsmr: fatal: count %zu exceeds the largest power of two "
               "%zu\n",
               N, MaxPowerOfTwo);
  std::abort();
}

/// Returns \p N rounded up to the next power of two (minimum 1). Past
/// `MaxPowerOfTwo` no result fits (and `std::bit_ceil` is undefined), so
/// such an \p N aborts even under NDEBUG: callers pass caller-supplied
/// counts (shards, buckets, slots, ring capacities), and a wrapped count
/// would silently size one.
constexpr std::size_t nextPowerOfTwo(std::size_t N) {
  if (N > MaxPowerOfTwo)
    abortPastPowerOfTwo(N);
  return std::bit_ceil(N);
}

static_assert(nextPowerOfTwo(0) == 1);
static_assert(nextPowerOfTwo(1) == 1);
static_assert(nextPowerOfTwo(3) == 4);
static_assert(nextPowerOfTwo(24) == 32);
static_assert(nextPowerOfTwo(128) == 128);

/// Returns floor(log2(N)) for N > 0 (one `bsr`/`lzcnt`).
constexpr unsigned floorLog2(std::size_t N) {
  return static_cast<unsigned>(std::bit_width(N)) - 1;
}

static_assert(floorLog2(1) == 0);
static_assert(floorLog2(2) == 1);
static_assert(floorLog2(3) == 1);
static_assert(floorLog2(64) == 6);

} // namespace lfsmr

#endif // LFSMR_SUPPORT_ALIGN_H
