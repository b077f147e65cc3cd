//===- devtools/barrier.h - Spinning start barrier --------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reusable sense-reversing spin barrier. Benchmark threads park on it so
/// that the measured interval starts with all threads released at once; a
/// blocking std::barrier would perturb the first milliseconds of short runs
/// with wakeup latency.
///
/// Waiters spin a bounded budget, then fall back to std::this_thread::yield.
/// The pure-spin fast path keeps release latency tight when threads have
/// their own cores; the yield fallback keeps oversubscribed runs (threads
/// far above hardware_concurrency — the kv-serve `oversub` panel, CI
/// runners) from burning whole scheduling quanta waiting for a participant
/// that cannot run until the spinner gets off the core.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_DEVTOOLS_BARRIER_H
#define LFSMR_DEVTOOLS_BARRIER_H

#include <atomic>
#include <cassert>
#include <cstddef>
#include <thread>

namespace lfsmr {

/// Sense-reversing barrier for a fixed number of participants.
class SpinBarrier {
public:
  explicit SpinBarrier(std::size_t Participants)
      : Count(Participants), Total(Participants) {
    assert(Participants > 0 && "barrier needs at least one participant");
  }

  SpinBarrier(const SpinBarrier &) = delete;
  SpinBarrier &operator=(const SpinBarrier &) = delete;

  /// Blocks until all participants have arrived: spins SpinBudget probes,
  /// then yields between probes so stragglers can be scheduled even when
  /// participants outnumber cores. Reusable: the same object can serve
  /// multiple phases.
  void arriveAndWait() {
    const bool MySense = !Sense.load(std::memory_order_relaxed);
    if (Count.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Count.store(Total, std::memory_order_relaxed);
      Sense.store(MySense, std::memory_order_release);
      return;
    }
    std::size_t Spins = 0;
    while (Sense.load(std::memory_order_acquire) != MySense) {
      if (++Spins < SpinBudget)
        spinPause();
      else
        std::this_thread::yield();
    }
  }

  /// Emits a CPU pause/yield hint inside spin loops.
  static void spinPause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }

private:
  /// Spin probes before the first yield: long enough that a same-cycle
  /// release never yields, short enough that an oversubscribed straggler
  /// costs microseconds, not a scheduling quantum.
  static constexpr std::size_t SpinBudget = 1 << 12;

  std::atomic<std::size_t> Count;
  const std::size_t Total;
  std::atomic<bool> Sense{false};
};

} // namespace lfsmr

#endif // LFSMR_DEVTOOLS_BARRIER_H
