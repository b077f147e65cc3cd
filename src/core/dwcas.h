//===- core/dwcas.h - Inlined double-width CAS -------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A 16-byte atomic `[HRef, HPtr]` head with an inlined `cmpxchg16b` on
/// x86-64. GCC lowers 16-byte `std::atomic` operations to libatomic
/// *calls*, and its 16-byte atomic loads execute as locked RMWs — far too
/// heavy for enter/leave, the hottest path in Hyaline. The paper's
/// artifact inlines the double-width CAS the same way.
///
/// The fast load is two independent 8-byte loads and may be *torn*
/// (fields from different instants). Hyaline tolerates that by design:
/// every use feeds a CAS whose failure returns the true 16-byte value
/// (cmpxchg16b writes the current contents into RDX:RAX on mismatch), so
/// a torn snapshot costs one extra loop iteration, never correctness.
/// Each 8-byte field is itself read atomically, so the pointer half is
/// always *some* current head pointer — which an active thread in the
/// slot is allowed to dereference (it holds a reference through HRef).
///
/// Every x86-64 build runs this asm path, ThreadSanitizer's too. Inline
/// asm is invisible to TSan, so the head tells it about its edges on the
/// head's own address: `__tsan_release` before each cmpxchg16b and
/// `__tsan_acquire` after it and after each two-word load. TSan then
/// models the CAS as acq_rel and the load as acquire, which is what the
/// hardware gives, and the publish-batch/leave edges Hyaline relies on
/// are checked on the code every other build runs. Outside TSan the two
/// calls compile to nothing.
///
/// Targets other than x86-64 fall back to std::atomic<Head>.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_CORE_DWCAS_H
#define LFSMR_CORE_DWCAS_H

#include "core/hyaline_head.h"

#include <atomic>
#include <cstdint>

#if defined(__SANITIZE_THREAD__)
#define LFSMR_DWCAS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LFSMR_DWCAS_TSAN 1
#endif
#endif
#ifdef LFSMR_DWCAS_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace lfsmr::core {

#ifndef __x86_64__
#define LFSMR_DWCAS_PORTABLE 1
#endif

#ifndef LFSMR_DWCAS_PORTABLE

/// 16-byte atomic head word with inlined cmpxchg16b.
class DWAtomicHead {
public:
  DWAtomicHead() : Lo(0), Hi(0) {}

  /// Possibly-torn two-word snapshot; see the file comment for why this
  /// is safe everywhere Hyaline uses it. Each half is acquire-loaded.
  Head load() const {
    Head H;
    H.Ref = reinterpret_cast<const std::atomic<uint64_t> &>(Lo).load(
        std::memory_order_acquire);
    H.Ptr = reinterpret_cast<HyalineNode *>(
        reinterpret_cast<const std::atomic<uint64_t> &>(Hi).load(
            std::memory_order_acquire));
    tsanAcquire();
    return H;
  }

  /// Sequentially-consistent 16-byte CAS. On failure \p Expected receives
  /// the actual current value (exact, not torn).
  bool compareExchange(Head &Expected, Head Desired) {
    uint64_t ExpLo = Expected.Ref;
    uint64_t ExpHi = reinterpret_cast<uint64_t>(Expected.Ptr);
    bool Ok;
#ifdef LFSMR_DWCAS_TSAN
    __tsan_release(this);
#endif
    asm volatile("lock cmpxchg16b %[mem]"
                 : [mem] "+m"(Lo), "+m"(Hi), "+a"(ExpLo), "+d"(ExpHi),
                   "=@ccz"(Ok)
                 : "b"(Desired.Ref),
                   "c"(reinterpret_cast<uint64_t>(Desired.Ptr))
                 : "memory");
    tsanAcquire();
    if (!Ok) {
      Expected.Ref = ExpLo;
      Expected.Ptr = reinterpret_cast<HyalineNode *>(ExpHi);
    }
    return Ok;
  }

  /// Non-atomic store for initialization/teardown only.
  void storeRelaxed(Head H) {
    Lo = H.Ref;
    Hi = reinterpret_cast<uint64_t>(H.Ptr);
  }

private:
  /// Tells TSan this thread acquired what every earlier CAS on the head
  /// released (see the file comment). Nothing outside TSan.
  void tsanAcquire() const {
#ifdef LFSMR_DWCAS_TSAN
    __tsan_acquire(const_cast<DWAtomicHead *>(this));
#endif
  }

  alignas(16) uint64_t Lo; ///< HRef
  uint64_t Hi;             ///< HPtr
};

#else // LFSMR_DWCAS_PORTABLE

/// Portable fallback on std::atomic (LL/SC or library-provided CAS) for
/// targets other than x86-64.
class DWAtomicHead {
public:
  DWAtomicHead() : A(Head{}) {}

  Head load() const { return A.load(std::memory_order_acquire); }

  bool compareExchange(Head &Expected, Head Desired) {
    return A.compare_exchange_weak(Expected, Desired,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire);
  }

  void storeRelaxed(Head H) { A.store(H, std::memory_order_relaxed); }

private:
  std::atomic<Head> A;
};

#endif // LFSMR_DWCAS_PORTABLE

static_assert(sizeof(DWAtomicHead) >= 16, "two words required");

} // namespace lfsmr::core

#endif // LFSMR_CORE_DWCAS_H
