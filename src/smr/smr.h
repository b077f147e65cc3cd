//===- smr/smr.h - Common SMR vocabulary -------------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared vocabulary for all safe-memory-reclamation (SMR) schemes in this
/// library: configuration, the deleter callback, and the compile-time
/// interface contract every scheme satisfies.
///
/// The programming model follows the paper's API (Section 2, "API Model"):
///
/// \code
///   auto G = Scheme.enter(Tid);            // begin an operation
///   T *P  = Scheme.deref(G, Src, Idx);     // protected pointer read
///   Scheme.retire(G, &Node->Hdr);          // after unlinking Node
///   Scheme.leave(G);                       // end the operation
/// \endcode
///
/// `deref` is required only by the robust schemes (Hyaline-S, Hyaline-1S,
/// HP, HE, IBR); for the others it degenerates to a plain acquire load, so
/// data structures are written once against the strictest contract.
/// `Idx` names a per-operation protection slot and is consumed only by the
/// pointer/era-index schemes (HP, HE); all others ignore it. Every
/// scheme's `Guard` records the id it entered as in a `Tid` member
/// (`lfsmr::guard::tid()` reads it).
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_SMR_SMR_H
#define LFSMR_SMR_SMR_H

#include <cstdint>

namespace lfsmr::smr {

/// Identifies a participating thread. The benchmark assigns dense ids
/// 0..N-1. Every scheme indexes per-thread state with it (Hyaline: the
/// thread's local retire batch) and requires `Tid < Config::MaxThreads`.
/// The multiple-list Hyaline schemes also fold it onto one of their `k`
/// slots; `k` does not depend on the thread count (transparency).
using ThreadId = unsigned;

/// Frees one retired object. \p Node points at the scheme's NodeHeader,
/// which data structures embed as their first member, so the callback can
/// cast it back to the concrete node type. \p Ctx is the value registered
/// with the scheme at construction.
using Deleter = void (*)(void *Node, void *Ctx);

/// Tuning knobs shared by all schemes. Defaults follow the paper's
/// evaluation (Section 6).
struct Config {
  /// Capacity of per-thread state arrays in every scheme (and the slot
  /// count of Hyaline-1(-S)). Threads must use ids below this.
  unsigned MaxThreads = 192;

  /// Number of Hyaline slots `k` (rounded up to a power of two).
  /// 0 selects `nextPowerOfTwo(hardware_concurrency)` (the paper uses the
  /// next power of two of the core count).
  unsigned Slots = 0;

  /// Minimum number of nodes accumulated into a Hyaline batch before it is
  /// retired; the effective threshold is `max(MinBatch, k + 1)` because a
  /// batch must carry one Next link per slot plus the NRef node.
  unsigned MinBatch = 64;

  /// `epochf`: epoch/era advance frequency (every EpochFreq retires for
  /// EBR, every EpochFreq allocations for HE/IBR).
  unsigned EpochFreq = 150;

  /// `emptyf`: reclamation-attempt frequency (a scan is attempted once a
  /// per-thread retired list holds this many nodes).
  unsigned EmptyFreq = 120;

  /// Per-thread protection slots for HP and HE (0 counts as 1; see
  /// `hazardSlots`).
  unsigned NumHazards = 16;

  /// Hyaline-S/1S `Freq`: the global era clock ticks once per this many
  /// node allocations (per thread).
  unsigned EraFreq = 150;

  /// Hyaline-S `Threshold`: a slot whose Ack counter exceeds this is
  /// considered occupied by stalled threads and is avoided by enter.
  int64_t AckThreshold = 8192;
};

/// The protection slots each thread really has: `C.NumHazards`, at least
/// one. HP and HE size their reservation rows with it, and the facade's
/// rotating `protect` cycles over it, so the two always agree.
constexpr unsigned hazardSlots(const Config &C) {
  return C.NumHazards ? C.NumHazards : 1;
}

/// The optional *stats surface* of the scheme contract: a scheme MAY
/// expose a global era/epoch observer named `currentEra()` (IBR, HE,
/// Hyaline-S, Hyaline-1S) or `currentEpoch()` (EBR); `schemeEra` reads
/// whichever one exists uniformly and returns 0 for schemes with no such
/// clock (Hyaline, Hyaline-1, Hyaline-P, HP, nomm). Every clock is an
/// `EraClock` (smr/list_reclaimer.h), which seeds at 1, so 0 is
/// unambiguous. EBR's observer keeps its own name because `currentEra()`
/// means more than stats: the NM tree restarts a walk whenever the era of
/// a scheme that has it advances, so that no walk adopts a node born
/// after the era it reserved ("era-constant traversal", `ds/nm_tree.h`).
/// EBR's epoch reservation covers whole operations and needs no restart.
/// Together with the per-domain `MemCounter` (retired / reclaimed /
/// retired-list length), this is everything a scheme reports into
/// `lfsmr::telemetry::domain_stats`; a new scheme that wants its era
/// visible only needs to name its observer accordingly.
template <typename Scheme> std::uint64_t schemeEra(const Scheme &S) {
  if constexpr (requires { S.currentEra(); })
    return S.currentEra();
  else if constexpr (requires { S.currentEpoch(); })
    return S.currentEpoch();
  else
    return 0;
}

} // namespace lfsmr::smr

#endif // LFSMR_SMR_SMR_H
