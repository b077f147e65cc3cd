//===- devtools/random.h - Deterministic fast PRNGs -------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small, fast, deterministic pseudo-random number generators used by the
/// workload generator and the tests. The benchmark methodology of the paper
/// draws uniformly random keys per operation; a per-thread xoshiro256**
/// stream keeps that off the hot path without sharing state.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_DEVTOOLS_RANDOM_H
#define LFSMR_DEVTOOLS_RANDOM_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace lfsmr {

/// SplitMix64: used to seed the main generator from a single 64-bit value.
/// Reference: Steele, Lea, Flood, "Fast Splittable Pseudorandom Number
/// Generators", OOPSLA 2014.
class SplitMix64 {
public:
  explicit constexpr SplitMix64(uint64_t Seed) : State(Seed) {}

  constexpr uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

private:
  uint64_t State;
};

/// xoshiro256**: the general-purpose per-thread generator.
/// Reference: Blackman & Vigna, "Scrambled Linear Pseudorandom Number
/// Generators", 2018.
class Xoshiro256 {
public:
  /// Seeds the four state words via SplitMix64 so any seed (including 0)
  /// produces a valid, well-mixed state.
  explicit constexpr Xoshiro256(uint64_t Seed) : S{0, 0, 0, 0} {
    SplitMix64 Mix(Seed);
    for (auto &W : S)
      W = Mix.next();
  }

  constexpr uint64_t next() {
    const uint64_t Result = rotl(S[1] * 5, 7) * 9;
    const uint64_t T = S[1] << 17;
    S[2] ^= S[0];
    S[3] ^= S[1];
    S[1] ^= S[2];
    S[0] ^= S[3];
    S[2] ^= T;
    S[3] = rotl(S[3], 45);
    return Result;
  }

  /// Returns a uniform value in [0, Bound). Uses the widening-multiply
  /// technique (Lemire 2016); slight bias is irrelevant for workloads.
  constexpr uint64_t nextBounded(uint64_t Bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next()) * Bound) >> 64);
  }

  /// Returns true with probability Percent/100.
  constexpr bool nextPercent(unsigned Percent) {
    return nextBounded(100) < Percent;
  }

private:
  static constexpr uint64_t rotl(uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }

  uint64_t S[4];
};

/// Suite-wide base seed for randomized tests. Reads the `LFSMR_TEST_SEED`
/// environment variable (decimal, or 0x-prefixed hex) on first use and logs
/// the value to stderr, so a failing stress run prints everything needed to
/// reproduce it:
///
///   LFSMR_TEST_SEED=0xdeadbeef ctest -R Stress
///
/// Without the variable the seed is a fixed constant, keeping default runs
/// deterministic.
inline uint64_t testSeed() {
  static const uint64_t Seed = [] {
    uint64_t S = 0x185dbc0244b48a5eULL;
    if (const char *E = std::getenv("LFSMR_TEST_SEED")) {
      char *End = nullptr;
      const uint64_t V = std::strtoull(E, &End, 0);
      if (End != E)
        S = V;
    }
    std::fprintf(stderr,
                 "lfsmr: test seed = %llu (set LFSMR_TEST_SEED to override)\n",
                 static_cast<unsigned long long>(S));
    return S;
  }();
  return Seed;
}

/// Derives an independent per-stream seed (one per worker thread, wave, or
/// helper) from the suite seed, so every random stream in a test binary
/// moves together when LFSMR_TEST_SEED changes.
inline uint64_t streamSeed(uint64_t Stream) {
  SplitMix64 Mix(testSeed() ^ (0x9e3779b97f4a7c15ULL * (Stream + 1)));
  return Mix.next();
}

} // namespace lfsmr

#endif // LFSMR_DEVTOOLS_RANDOM_H
