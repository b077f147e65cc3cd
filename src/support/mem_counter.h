//===- support/mem_counter.h - Allocation accounting ------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Global node allocation/free counters. The tests use them to assert that
/// every SMR scheme eventually frees everything it retires (reclamation
/// completeness), and Figure 12's "retired but not yet reclaimed objects"
/// metric is derived from per-scheme retire/free counters that feed the
/// same interface.
///
/// Counters are sharded across cache lines so that hot-path increments do
/// not serialize the benchmark threads. The same `ShardedCounter` is the
/// telemetry layer's `telemetry::Counter` when telemetry is compiled in;
/// `MemCounter` uses it in every build.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_SUPPORT_MEM_COUNTER_H
#define LFSMR_SUPPORT_MEM_COUNTER_H

#include "support/align.h"
#include "support/trace.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace lfsmr {

/// A sharded event counter: increments go to the calling thread's
/// cache-padded shard with one relaxed RMW; reads sum all shards
/// (approximate under concurrency, exact at quiescence).
class ShardedCounter {
public:
  static constexpr std::size_t NumShards = 64;

  /// Adds \p N to the calling thread's shard.
  void add(std::uint64_t N = 1) {
    Shards[shardIndex()]->fetch_add(N, std::memory_order_relaxed);
  }

  /// Sums all shards. Exact only when no thread is concurrently adding.
  std::uint64_t total() const {
    std::uint64_t Sum = 0;
    for (const auto &S : Shards)
      Sum += S->load(std::memory_order_relaxed);
    return Sum;
  }

  /// Resets all shards to zero. Only call at quiescence.
  void reset() {
    for (auto &S : Shards)
      S->store(0, std::memory_order_relaxed);
  }

private:
  static std::size_t shardIndex();

  CachePadded<std::atomic<std::uint64_t>> Shards[NumShards] = {};
};

/// Accounting for one reclamation domain: how many nodes were allocated,
/// retired, and freed. `retired() - freed()` is the Figure 12 metric.
class MemCounter {
public:
  void onAlloc() { Allocs.add(1); }
  void onRetire() {
    Retires.add(1);
    LFSMR_TRACE_EVENT(telemetry::TraceEvent::Retire, 1);
  }
  void onFree() {
    Frees.add(1);
    LFSMR_TRACE_EVENT(telemetry::TraceEvent::Reclaim, 1);
  }
  void onFree(int64_t N) {
    Frees.add(static_cast<std::uint64_t>(N));
    LFSMR_TRACE_EVENT(telemetry::TraceEvent::Reclaim,
                      static_cast<unsigned long long>(N));
  }

  int64_t allocated() const { return static_cast<int64_t>(Allocs.total()); }
  int64_t retired() const { return static_cast<int64_t>(Retires.total()); }
  int64_t freed() const { return static_cast<int64_t>(Frees.total()); }

  /// Number of retired-but-not-yet-reclaimed objects right now.
  int64_t unreclaimed() const { return retired() - freed(); }

  /// Number of allocated objects never freed (live + unreclaimed).
  int64_t outstanding() const { return allocated() - freed(); }

  void reset() {
    Allocs.reset();
    Retires.reset();
    Frees.reset();
  }

private:
  ShardedCounter Allocs;
  ShardedCounter Retires;
  ShardedCounter Frees;
};

} // namespace lfsmr

#endif // LFSMR_SUPPORT_MEM_COUNTER_H
