//===- lfsmr/config.h - Public configuration vocabulary ----------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Public aliases for the configuration vocabulary shared by every
/// reclamation scheme, plus the `memory_stats` snapshot returned by
/// `lfsmr::domain::stats()` and `lfsmr::any_domain::stats()`.
///
/// The public API follows `std` naming (snake_case); the internal scheme
/// implementations keep the LLVM style they were reproduced in. The
/// aliases below are the bridge between the two.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_CONFIG_H
#define LFSMR_CONFIG_H

#include "smr/smr.h"
#include "support/mem_counter.h"

#include <cstdint>

namespace lfsmr {

/// Tuning knobs shared by all schemes (slot count, batch size, epoch/era
/// frequencies, hazard count...). Defaults follow the paper's evaluation
/// (Section 6). See `smr::Config` for the per-field documentation.
using config = smr::Config;

/// Dense id of a participating thread. Every scheme requires
/// `tid < config::MaxThreads`; the multiple-list Hyaline schemes fold the
/// id onto one of their `k` slots, where `k` does not depend on the number
/// of threads (transparency).
using thread_id = smr::ThreadId;

/// Frees one retired object given its scheme header and the context value
/// registered at domain construction. Used by the intrusive-mode
/// `lfsmr::domain` constructor.
using deleter = smr::Deleter;

/// A point-in-time snapshot of a domain's allocation accounting.
/// Exact at quiescence, approximate while threads are running.
struct memory_stats {
  /// Nodes allocated through the domain (counted at `init`/`create`).
  std::int64_t allocated = 0;
  /// Nodes retired so far.
  std::int64_t retired = 0;
  /// Nodes whose storage has been handed back to the deleter.
  std::int64_t freed = 0;
  /// Retired but not yet reclaimed (the paper's Figure 12 metric).
  std::int64_t unreclaimed = 0;
};

/// Builds a `memory_stats` snapshot from a scheme's internal counter.
inline memory_stats snapshot_stats(const MemCounter &counter) {
  return memory_stats{counter.allocated(), counter.retired(),
                      counter.freed(), counter.unreclaimed()};
}

} // namespace lfsmr

#endif // LFSMR_CONFIG_H
