//===- core/hyaline_head.h - Retirement-list head tuples ---------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-slot `Head` of a retirement list.
///
/// Hyaline and Hyaline-S use the double-width tuple `[HRef, HPtr]` updated
/// with 16-byte CAS (paper Figure 6). On this x86-64 build the 16-byte
/// `std::atomic` operations are provided by libatomic, which dispatches to
/// `cmpxchg16b` at runtime; the paper's Appendix A describes the equivalent
/// single-width LL/SC construction for PowerPC/MIPS. The Hyaline-P ablation
/// packs the same tuple into one word (`PackedRefHead`, core/hyaline.h).
///
/// Hyaline-1 and Hyaline-1S squeeze `HRef` into one bit of a single word
/// (Section 3.2, "Hyaline-1 for Single-width CAS"): with one thread per
/// slot the reference count is only ever 0 or 1, and node pointers are at
/// least 8-byte aligned so bit 0 is free.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_CORE_HYALINE_HEAD_H
#define LFSMR_CORE_HYALINE_HEAD_H

#include "core/hyaline_node.h"

#include <atomic>
#include <cstdint>

namespace lfsmr::core {

/// Double-width head tuple: the number of active threads in the slot and
/// the most recently inserted retired node.
struct alignas(16) Head {
  uint64_t Ref = 0;
  HyalineNode *Ptr = nullptr;

  friend bool operator==(const Head &A, const Head &B) {
    return A.Ref == B.Ref && A.Ptr == B.Ptr;
  }
};

static_assert(sizeof(Head) == 16, "Head must be exactly two words");

/// Single-word head for Hyaline-1(-S): bit 0 is the active flag, the
/// remaining bits hold the node pointer.
class PackedHead {
public:
  static constexpr uint64_t ActiveBit = 1;

  static uint64_t pack(bool Active, HyalineNode *Ptr) {
    const uint64_t Raw = reinterpret_cast<uint64_t>(Ptr);
    assert((Raw & ActiveBit) == 0 && "node pointers must be 8-byte aligned");
    return Raw | (Active ? ActiveBit : 0);
  }

  static bool isActive(uint64_t Word) { return Word & ActiveBit; }

  static HyalineNode *pointer(uint64_t Word) {
    return reinterpret_cast<HyalineNode *>(Word & ~ActiveBit);
  }
};

} // namespace lfsmr::core

#endif // LFSMR_CORE_HYALINE_HEAD_H
