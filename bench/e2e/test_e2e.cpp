//===- bench/e2e/test_e2e.cpp - Unit tests for lfsmr-e2e --------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the benchmark's own inputs and arithmetic: seeded streams,
/// zipfian skew, percentiles, latency reservoirs, span self time, and
/// throughput. Exits non-zero when any check fails.
///
//===----------------------------------------------------------------------===//

#include "e2e_stats.h"
#include "e2e_stream.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

namespace {

int Failures = 0;

void expect(bool Ok, const char *What, int Line) {
  if (!Ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", Line, What);
    ++Failures;
  }
}

#define EXPECT(Cond) expect((Cond), #Cond, __LINE__)

using namespace e2e;

void streamsAreSeeded() {
  for (const Spec &W : specs()) {
    const KeyGen Keys(W, 42);
    const std::vector<Entry> A = makeStream(W, Keys, 42, 0);
    const std::vector<Entry> B = makeStream(W, KeyGen(W, 42), 42, 0);
    EXPECT(A.size() == RingSize);
    EXPECT(A == B);
    EXPECT(A != makeStream(W, KeyGen(W, 43), 43, 0));
    EXPECT(A != makeStream(W, Keys, 42, 1));
    EXPECT(prefillKeys(W, 42) == prefillKeys(W, 42));
    EXPECT(prefillKeys(W, 42) != prefillKeys(W, 43));
  }
}

void streamsAreWellFormed() {
  const Spec &W = *findSpec("kv-write-txn");
  const std::vector<Entry> S = makeStream(W, KeyGen(W, 7), 7, 2);
  unsigned Txns = 0, Bursts = 0;
  for (std::size_t I = 0; I < S.size();) {
    const Op K = kindOf(S[I]);
    EXPECT(K != Op::More);
    EXPECT(keyOf(S[I]) < W.KeySpace);
    EXPECT(I + width(K) <= S.size());
    for (unsigned J = 1; J < width(K); ++J)
      EXPECT(kindOf(S[I + J]) == Op::More);
    if (K == Op::Snapshot) {
      EXPECT(keyOf(S[I]) == keyOf(S[I + BurstReads - 1]));
      ++Bursts;
    }
    Txns += K == Op::Txn;
    I += width(K);
  }
  EXPECT(Txns > 0 && Bursts > 0);

  const std::vector<std::uint64_t> P = prefillKeys(W, 7);
  EXPECT(P.size() == W.Prefill);
  std::vector<bool> Seen(W.KeySpace);
  bool Distinct = true;
  for (std::uint64_t K : P) {
    Distinct &= K < W.KeySpace && !Seen[K];
    Seen[K] = true;
  }
  EXPECT(Distinct);
}

void zipfRanksAreMonotone() {
  const Zipf Z(1000, 0.99);
  Rng R(5);
  std::vector<unsigned> Count(1000);
  for (unsigned I = 0; I < 200000; ++I)
    ++Count[Z.next(R)];
  for (unsigned Rank = 0; Rank + 1 < 10; ++Rank)
    EXPECT(Count[Rank] > Count[Rank + 1]);
  // Beyond the head single ranks are noisy; compare mean counts per
  // decade of ranks instead.
  double Prev = 1e18;
  for (unsigned Lo = 1; Lo < 1000; Lo *= 10) {
    double Sum = 0;
    for (unsigned Rank = Lo; Rank < Lo * 10 && Rank < 1000; ++Rank)
      Sum += Count[Rank];
    const double Mean = Sum / (std::min(Lo * 10, 1000u) - Lo);
    EXPECT(Mean < Prev);
    Prev = Mean;
  }
}

void percentiles() {
  std::vector<unsigned> V;
  for (unsigned I = 1; I <= 1000; ++I)
    V.push_back(I);
  EXPECT(quantile(V, 0.50) == 500.0);
  EXPECT(quantile(V, 0.99) == 990.0);
  V.pop_back(); // 999 samples: only 9 lie beyond the p99 rank
  EXPECT(!quantile(V, 0.99).has_value());
  EXPECT(quantile(V, 0.50) == 500.0);
  const std::vector<unsigned> Few = {1, 2, 3, 4, 5};
  EXPECT(!quantile(Few, 0.50).has_value());
  EXPECT(!quantile(std::vector<unsigned>{}, 0.50).has_value());
}

void reservoirKeepsABoundedSample() {
  Reservoir All(100, 3);
  for (std::uint32_t V = 0; V < 50; ++V)
    All.add(V);
  std::vector<std::uint32_t> K = All.kept();
  EXPECT(K.size() == 50 && All.seen() == 50);
  for (std::uint32_t V = 0; V < 50; ++V)
    EXPECT(K[V] == V);

  // 100k values into 1000 slots: the sample stays bounded and its median
  // stays near the stream's.
  Reservoir Some(1000, 3);
  for (std::uint32_t V = 0; V < 100000; ++V)
    Some.add(V);
  K = Some.kept();
  EXPECT(K.size() == 1000 && Some.seen() == 100000);
  std::sort(K.begin(), K.end());
  const double P50 = *quantile(K, 0.50);
  EXPECT(P50 > 40000 && P50 < 60000);
  EXPECT(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5);
}

void selfTimeWithOverlappingChildren() {
  // Parent [0,100); children [10,40) and [30,60) overlap on [30,40), and
  // [90,120) sticks out past the parent's end.
  EXPECT(unionLength({{10, 40}, {30, 60}}) == 50);
  EXPECT(selfTime({0, 100}, {{10, 40}, {30, 60}, {90, 120}}) == 40);
  EXPECT(selfTime({0, 100}, {{30, 60}, {10, 40}}) == 50);
  EXPECT(selfTime({0, 100}, {{20, 30}, {20, 30}}) == 90);
  EXPECT(selfTime({0, 100}, {}) == 100);
  EXPECT(selfTime({0, 100}, {{0, 100}, {50, 70}}) == 0);
}

void throughputIsOpsOverWindow() {
  EXPECT(throughputMops(5000000, 2.0) == 2.5);
  EXPECT(std::fabs(throughputMops(3, 1e-6) - 3.0) < 1e-12);
}

} // namespace

int main() {
  streamsAreSeeded();
  streamsAreWellFormed();
  zipfRanksAreMonotone();
  percentiles();
  reservoirKeepsABoundedSample();
  selfTimeWithOverlappingChildren();
  throughputIsOpsOverWindow();
  if (Failures) {
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
    return 1;
  }
  std::puts("test_e2e: all checks passed");
  return 0;
}
