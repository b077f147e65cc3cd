//===- core/slot_directory.h - Adaptive slot directory -----------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "directory of slots" used by Hyaline-S for adaptive resizing
/// (Section 4.3, Figure 10): a small fixed array of pointers to
/// geometrically growing slot arrays. Doubling the slot count appends one
/// array; existing slots never move, so lock-free readers need no
/// coordination. The directory has at most 64 entries on a 64-bit machine
/// because each growth doubles the total count.
///
/// Addressing (paper's formula): slot `i` lives in array
/// `s = log2(floor(i / Kmin)) + 1` with `log2(0) = -1`; array 0 spans
/// `[0, Kmin)` and array `s >= 1` spans `[Kmin * 2^(s-1), Kmin * 2^s)`.
/// `Kmin` is a power of two, so the division is a shift by `log2(Kmin)`.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_CORE_SLOT_DIRECTORY_H
#define LFSMR_CORE_SLOT_DIRECTORY_H

#include "support/align.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

namespace lfsmr::core {

/// Lock-free append-only directory of slot arrays.
/// \tparam T the per-slot state; must be default-constructible.
template <typename T> class SlotDirectory {
public:
  static constexpr unsigned MaxArrays = 64;

  /// \p KMin must be a power of two; it is both the initial capacity and
  /// the granularity of the first doubling. The precondition is enforced
  /// even under NDEBUG: the floorLog2 addressing below silently maps
  /// distinct indices onto the same slot for a non-power-of-two KMin, so
  /// a violation is a hard error, not a recoverable one.
  explicit SlotDirectory(std::size_t KMin)
      : KMin(KMin), KMinLog(floorLog2(KMin)), K(KMin) {
    if (!isPowerOfTwo(KMin)) {
      std::fprintf(stderr,
                   "lfsmr: fatal: SlotDirectory initial slot count %zu is "
                   "not a power of two\n",
                   KMin);
      std::abort();
    }
    for (auto &A : Arrays)
      A.store(nullptr, std::memory_order_relaxed);
    Arrays[0].store(new T[KMin](), std::memory_order_relaxed);
  }

  ~SlotDirectory() {
    for (auto &A : Arrays)
      delete[] A.load(std::memory_order_relaxed);
  }

  SlotDirectory(const SlotDirectory &) = delete;
  SlotDirectory &operator=(const SlotDirectory &) = delete;

  /// Current slot count `k`; always a power of two, only grows.
  std::size_t capacity() const { return K.load(std::memory_order_acquire); }

  /// Initial slot count `Kmin`.
  std::size_t kMin() const { return KMin; }

  /// Returns slot \p I; \p I must be below a capacity() value the caller
  /// has observed.
  T &slot(std::size_t I) {
    if (I < KMin)
      return Arrays[0].load(std::memory_order_acquire)[I];
    const unsigned S = floorLog2(I >> KMinLog) + 1;
    const std::size_t Base = KMin << (S - 1);
    assert(I >= Base && "directory index arithmetic broken");
    return Arrays[S].load(std::memory_order_acquire)[I - Base];
  }

  /// \copydoc slot
  const T &slot(std::size_t I) const {
    return const_cast<SlotDirectory *>(this)->slot(I);
  }

  /// Doubles the slot count if it is still \p ExpectedK (otherwise another
  /// thread already grew it and this call is a no-op). Lock-free: racing
  /// growers allocate speculatively and the CAS loser frees its buffer.
  void grow(std::size_t ExpectedK) {
    if (K.load(std::memory_order_acquire) != ExpectedK)
      return;
    const unsigned S = floorLog2(ExpectedK >> KMinLog) + 1;
    if (S >= MaxArrays)
      return; // 2^64 slots would be required to get here
    if (!Arrays[S].load(std::memory_order_acquire)) {
      // The new array holds ExpectedK slots, doubling the total.
      T *Fresh = new T[ExpectedK]();
      T *Null = nullptr;
      if (!Arrays[S].compare_exchange_strong(Null, Fresh,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire))
        delete[] Fresh;
    }
    K.compare_exchange_strong(ExpectedK, ExpectedK * 2,
                              std::memory_order_acq_rel,
                              std::memory_order_acquire);
  }

private:
  const std::size_t KMin;
  const unsigned KMinLog; ///< log2(KMin): slot addressing shifts by it
  std::atomic<std::size_t> K;
  std::atomic<T *> Arrays[MaxArrays];
};

} // namespace lfsmr::core

#endif // LFSMR_CORE_SLOT_DIRECTORY_H
