//===- bench/e2e/e2e_stats.h - Reductions for lfsmr-e2e ----------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arithmetic `lfsmr-e2e` reports with: a fixed-memory latency sample,
/// nearest-rank percentiles that refuse a tail too thin to trust, span
/// self time (a parent's duration minus the union of its children), and
/// throughput over a window.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_BENCH_E2E_STATS_H
#define LFSMR_BENCH_E2E_STATS_H

#include "e2e_stream.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace e2e {

/// A percentile is reported only when at least this many samples lie
/// above it.
inline constexpr std::size_t MinTail = 10;

/// Nearest-rank \p Q-quantile (0 < Q < 1) of the ascending \p Sorted, or
/// nullopt when fewer than `MinTail` samples lie above it.
template <typename T>
std::optional<double> quantile(const std::vector<T> &Sorted, double Q) {
  const std::size_t N = Sorted.size();
  const auto Rank = static_cast<std::size_t>(std::ceil(Q * N));
  if (N == 0 || Rank == 0 || N - Rank < MinTail)
    return std::nullopt;
  return static_cast<double>(Sorted[Rank - 1]);
}

/// Uniform sample of a stream of values (Vitter's Algorithm R) in memory
/// allocated and touched up front, so a run's footprint does not grow
/// with its throughput.
class Reservoir {
public:
  explicit Reservoir(std::size_t Capacity = 0, std::uint64_t Seed = 1)
      : Buf(Capacity, 0), R(Seed) {}

  void add(std::uint32_t V) {
    if (Seen < Buf.size()) {
      Buf[Seen] = V;
    } else if (!Buf.empty()) {
      const std::uint64_t J = R.below(Seen + 1);
      if (J < Buf.size())
        Buf[J] = V;
    }
    ++Seen;
  }

  /// Values offered so far.
  std::uint64_t seen() const { return Seen; }

  /// The kept sample, in no particular order.
  std::vector<std::uint32_t> kept() const {
    return {Buf.begin(),
            Buf.begin() + static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(
                              Seen, Buf.size()))};
  }

private:
  std::vector<std::uint32_t> Buf;
  Rng R;
  std::uint64_t Seen = 0;
};

/// Median of \p V (0 when empty).
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// A half-open time interval in nanoseconds.
struct Interval {
  std::uint64_t Begin, End;
};

/// Length of the union of \p Spans (overlaps counted once).
inline std::uint64_t unionLength(std::vector<Interval> Spans) {
  std::sort(Spans.begin(), Spans.end(),
            [](const Interval &A, const Interval &B) { return A.Begin < B.Begin; });
  std::uint64_t Total = 0, Begin = 0, End = 0;
  bool Open = false;
  for (const Interval &S : Spans) {
    if (S.End <= S.Begin)
      continue;
    if (Open && S.Begin <= End) {
      End = std::max(End, S.End);
      continue;
    }
    if (Open)
      Total += End - Begin;
    Begin = S.Begin;
    End = S.End;
    Open = true;
  }
  return Open ? Total + End - Begin : Total;
}

/// Self time of \p Parent: its duration minus the part of it that the
/// union of \p Children covers.
inline std::uint64_t selfTime(Interval Parent, std::vector<Interval> Children) {
  for (Interval &C : Children) {
    C.Begin = std::clamp(C.Begin, Parent.Begin, Parent.End);
    C.End = std::clamp(C.End, Parent.Begin, Parent.End);
  }
  return (Parent.End - Parent.Begin) - unionLength(std::move(Children));
}

/// Completed ops per second over a \p Seconds window, in millions.
inline double throughputMops(std::uint64_t Ops, double Seconds) {
  return static_cast<double>(Ops) / Seconds / 1e6;
}

} // namespace e2e

#endif // LFSMR_BENCH_E2E_STATS_H
