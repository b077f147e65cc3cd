//===- devtools/stats.h - Streaming statistics ------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Welford-style streaming mean/variance accumulator. The paper reports the
/// average of 5 repeated runs per data point; RunStats aggregates repeats
/// and additionally retains the raw samples so the benchmark report can
/// publish the repeat spread (stddev, p50/p99) alongside the mean.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_DEVTOOLS_STATS_H
#define LFSMR_DEVTOOLS_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace lfsmr {

/// Accumulates samples and exposes count/mean/stddev/min/max, the raw
/// sample list, and rank percentiles. Sample counts here are benchmark
/// repeats (a handful per data point), so retaining them is cheap.
class RunStats {
public:
  void add(double Sample) {
    ++N;
    const double Delta = Sample - Mean;
    Mean += Delta / static_cast<double>(N);
    M2 += Delta * (Sample - Mean);
    if (Sample < Minimum)
      Minimum = Sample;
    if (Sample > Maximum)
      Maximum = Sample;
    Raw.push_back(Sample);
  }

  std::size_t count() const { return N; }
  double mean() const { return N ? Mean : 0.0; }
  double min() const { return N ? Minimum : 0.0; }
  double max() const { return N ? Maximum : 0.0; }

  /// Sample standard deviation (N-1 denominator); 0 for fewer than two
  /// samples.
  double stddev() const {
    if (N < 2)
      return 0.0;
    return std::sqrt(M2 / static_cast<double>(N - 1));
  }

  /// The samples in insertion order.
  const std::vector<double> &samples() const { return Raw; }

  /// Rank percentile with linear interpolation between closest ranks;
  /// \p P in [0, 100]. percentile(50) of {1,2,3} is 2; 0 when empty.
  double percentile(double P) const {
    if (Raw.empty())
      return 0.0;
    std::vector<double> Sorted(Raw);
    std::sort(Sorted.begin(), Sorted.end());
    if (P <= 0)
      return Sorted.front();
    if (P >= 100)
      return Sorted.back();
    const double Rank = P / 100.0 * static_cast<double>(Sorted.size() - 1);
    const std::size_t Lo = static_cast<std::size_t>(Rank);
    const double Frac = Rank - static_cast<double>(Lo);
    if (Lo + 1 >= Sorted.size())
      return Sorted.back();
    return Sorted[Lo] + Frac * (Sorted[Lo + 1] - Sorted[Lo]);
  }

private:
  std::size_t N = 0;
  double Mean = 0.0;
  double M2 = 0.0;
  double Minimum = 1e300;
  double Maximum = -1e300;
  std::vector<double> Raw;
};

} // namespace lfsmr

#endif // LFSMR_DEVTOOLS_STATS_H
