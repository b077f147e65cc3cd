//===- support/telemetry.h - Hot-path telemetry primitives ------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hot-path instrumentation primitives behind `lfsmr/telemetry.h`:
///
///  - `Counter`: a striped event counter — one relaxed `fetch_add` on a
///    per-thread cache-padded shard per increment, all shards summed on
///    read (`ShardedCounter`, behind the telemetry gate).
///  - `Histogram`: a log-bucketed concurrent histogram — power-of-two
///    major buckets split into 16 linear sub-buckets (HDR-style, ~6%
///    relative resolution), one relaxed `fetch_add` per record.
///  - `Sampler`: a per-call-site stride gate for sampled timing, so
///    `steady_clock` reads never land on every operation.
///  - `TraceRing`: a fixed-capacity per-thread binary event ring with an
///    ordered drain (newest `capacity()` events survive wraparound).
///
/// The compile gate: `-DLFSMR_TELEMETRY=OFF` defines
/// `LFSMR_TELEMETRY_DISABLED`, under which `Counter`, `Histogram`, and
/// `Sampler` become *empty* no-op types — zero per-op state, zero code —
/// and `Sampler::tick` returns a constant `false` so the timing blocks it
/// guards are dead-stripped. `TraceRing` is a plain data structure (no
/// shared state, nothing on any hot path) and stays compiled in both
/// configurations; only its *emission hooks* (`LFSMR_TRACE_EVENT`, see
/// `support/trace.h`) are compile-time optional.
///
/// Cost rules for instrumentation sites (ARCHITECTURE.md "Telemetry"):
/// a counter bump is the budget for a per-event site; histogram records
/// must be per-batch (trim walks) or stride-sampled (latencies); clock
/// reads only ever happen behind a `Sampler` gate.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_SUPPORT_TELEMETRY_H
#define LFSMR_SUPPORT_TELEMETRY_H

#include "lfsmr/telemetry.h"
#include "support/align.h"
#include "support/mem_counter.h"
#include "support/trace.h"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lfsmr::telemetry {

/// Monotonic timestamp in nanoseconds. Call only behind a `Sampler`
/// gate: a clock read costs tens of nanoseconds — more than the fast
/// paths it would measure.
inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if LFSMR_TELEMETRY_ENABLED

/// A striped event counter (see `ShardedCounter`).
using Counter = ShardedCounter;

/// A concurrent log-bucketed histogram over `uint64_t` samples. Values
/// below 16 get exact buckets; above, each power-of-two decade splits
/// into 16 linear sub-buckets, bounding quantile error at one
/// sixteenth of the value's magnitude. `record` is a single relaxed
/// `fetch_add`; `summarize` walks the (unsynchronized) bucket array, so
/// its result is approximate under concurrency and exact at quiescence.
class Histogram {
public:
  static constexpr unsigned SubBits = 4;
  static constexpr unsigned Subs = 1u << SubBits;
  static constexpr unsigned NumBuckets = (64 - SubBits + 1) * Subs;

  /// Records one sample.
  void record(std::uint64_t V) {
    Cells[bucketOf(V)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Count/mean/quantile summary of everything recorded so far.
  histogram_summary summarize() const;

  /// Zeroes all buckets. Only call at quiescence.
  void reset() {
    for (auto &C : Cells)
      C.store(0, std::memory_order_relaxed);
  }

  /// Bucket index of sample \p V (exposed for the unit tests).
  static unsigned bucketOf(std::uint64_t V) {
    if (V < Subs)
      return static_cast<unsigned>(V);
    const unsigned Lg = floorLog2(V);
    return (Lg - SubBits + 1) * Subs +
           static_cast<unsigned>((V >> (Lg - SubBits)) & (Subs - 1));
  }

  /// Inclusive lower bound of bucket \p I.
  static std::uint64_t bucketLow(unsigned I) {
    if (I < Subs)
      return I;
    const unsigned Lg = I / Subs + SubBits - 1;
    const std::uint64_t Sub = I % Subs;
    return (std::uint64_t{Subs} + Sub) << (Lg - SubBits);
  }

  /// Representative (midpoint) value of bucket \p I, used for means and
  /// reported quantiles.
  static std::uint64_t bucketMid(unsigned I) {
    if (I < Subs)
      return I; // exact buckets
    const unsigned Lg = I / Subs + SubBits - 1;
    return bucketLow(I) + ((std::uint64_t{1} << (Lg - SubBits)) >> 1);
  }

private:
  std::atomic<std::uint64_t> Cells[NumBuckets] = {};
};

/// Per-call-site stride gate for sampled timing: `tick(S)` is true once
/// every \p S calls (S must be a power of two). Keep instances
/// `thread_local` at the call site — the counter is not atomic.
class Sampler {
public:
  /// True on every \p Stride-th call.
  bool tick(unsigned Stride) { return (++N & (Stride - 1)) == 0; }

private:
  unsigned N = 0;
};

#else // !LFSMR_TELEMETRY_ENABLED

/// No-op stand-in: empty, stateless, every call compiles away. See the
/// enabled variant for the real semantics.
class Counter {
public:
  static constexpr std::size_t NumShards = 0;
  void add(std::uint64_t = 1) {}
  std::uint64_t total() const { return 0; }
  void reset() {}
};

/// No-op stand-in: empty, stateless, every call compiles away.
class Histogram {
public:
  void record(std::uint64_t) {}
  histogram_summary summarize() const { return {}; }
  void reset() {}
};

/// No-op stand-in whose `tick` is a constant `false`, so the sampled
/// timing blocks it guards (clock reads included) are dead code.
class Sampler {
public:
  bool tick(unsigned) { return false; }
};

#endif // LFSMR_TELEMETRY_ENABLED

/// One trace-ring record. `Seq` is the emitting thread's monotone event
/// number — after wraparound it tells how much was overwritten.
struct TraceRecord {
  std::uint64_t Seq = 0;
  std::uint64_t Arg = 0;
  TraceEvent Event = TraceEvent::Retire;
};

/// A fixed-capacity single-writer event ring: pushes overwrite the
/// oldest record once full, `drain` visits the surviving records oldest
/// first. One instance per thread (the emission path keeps them
/// `thread_local`); the class itself is not thread-safe.
class TraceRing {
public:
  /// Capacity is rounded up to a power of two (minimum 1).
  explicit TraceRing(std::size_t Capacity = 1024)
      : Buf(nextPowerOfTwo(Capacity ? Capacity : 1)) {}

  /// Appends one event, overwriting the oldest once the ring is full.
  void push(TraceEvent E, std::uint64_t Arg) {
    TraceRecord &R = Buf[Next & (Buf.size() - 1)];
    R.Seq = Next++;
    R.Arg = Arg;
    R.Event = E;
  }

  /// Ring capacity (power of two).
  std::size_t capacity() const { return Buf.size(); }

  /// Number of records currently held (never exceeds capacity()).
  std::size_t size() const {
    return Next < Buf.size() ? static_cast<std::size_t>(Next) : Buf.size();
  }

  /// Total events ever pushed; `pushed() - size()` were overwritten.
  std::uint64_t pushed() const { return Next; }

  /// Visits the held records oldest first: `Fn(const TraceRecord &)`.
  template <typename F> void drain(F &&Fn) const {
    const std::uint64_t N = Next;
    const std::uint64_t Cap = Buf.size();
    const std::uint64_t First = N > Cap ? N - Cap : 0;
    for (std::uint64_t S = First; S < N; ++S)
      Fn(Buf[S & (Cap - 1)]);
  }

  /// Forgets every record (capacity is kept).
  void clear() { Next = 0; }

private:
  std::vector<TraceRecord> Buf;
  std::uint64_t Next = 0;
};

} // namespace lfsmr::telemetry

namespace lfsmr::json {
class Writer;
}

namespace lfsmr::telemetry {
/// Streams \p S into a value position of \p W as the canonical JSON
/// object shared by `to_json` and the `lfsmr-bench` stats blocks.
/// Declared here (not in the public header) so the bench report writer
/// can reuse it without re-exporting the JSON writer.
void writeJson(json::Writer &W, const domain_stats &S);
/// \copydoc writeJson(json::Writer&, const domain_stats&)
void writeJson(json::Writer &W, const store_stats &S);
} // namespace lfsmr::telemetry

#endif // LFSMR_SUPPORT_TELEMETRY_H
