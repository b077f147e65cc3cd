//===- bench/e2e/e2e_stream.h - Seeded op streams for lfsmr-e2e -*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything `lfsmr-e2e` derives from `--seed`: the four workload
/// definitions, the key generators (uniform, or YCSB-style zipfian over a
/// seeded rank -> key permutation), the prefill key sets, and the
/// per-client op rings. The rings are generated before any container is
/// built, so the library under test only ever sees the generated keys.
///
/// Deliberately self-contained: it shares no code with the library's
/// harness or workload modules, so merging or rewriting those can never
/// shift this benchmark's inputs.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_BENCH_E2E_STREAM_H
#define LFSMR_BENCH_E2E_STREAM_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace e2e {

/// SplitMix64 step: advances \p State and returns the next output.
inline std::uint64_t splitmix64(std::uint64_t &State) {
  std::uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Seed of sub-stream \p Salt of the run seed \p Seed (clients, the key
/// permutation and the prefill sample each draw from their own).
inline std::uint64_t subSeed(std::uint64_t Seed, std::uint64_t Salt) {
  std::uint64_t S = Seed ^ (Salt * 0xd1b54a32d192ed03ULL);
  return splitmix64(S);
}

/// xoshiro256** generator.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) {
    for (std::uint64_t &W : S)
      W = splitmix64(Seed);
  }

  std::uint64_t next() {
    const std::uint64_t R = rotl(S[1] * 5, 7) * 9;
    const std::uint64_t T = S[1] << 17;
    S[2] ^= S[0];
    S[3] ^= S[1];
    S[1] ^= S[2];
    S[0] ^= S[3];
    S[2] ^= T;
    S[3] = rotl(S[3], 45);
    return R;
  }

  /// Uniform in [0, N) by multiply-shift (bias below N / 2^64).
  std::uint64_t below(std::uint64_t N) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * N) >> 64);
  }

  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  static std::uint64_t rotl(std::uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }

  std::uint64_t S[4];
};

/// Zipfian ranks in [0, N) with skew \p Theta (Gray et al., SIGMOD '94,
/// as used by YCSB): rank 0 is the hottest.
class Zipf {
public:
  Zipf(std::uint64_t N, double Theta) : N(N) {
    double ZetaN = 0;
    for (std::uint64_t I = 1; I <= N; ++I)
      ZetaN += 1.0 / std::pow(static_cast<double>(I), Theta);
    const double Zeta2 = 1.0 + 1.0 / std::pow(2.0, Theta);
    Alpha = 1.0 / (1.0 - Theta);
    Eta = (1.0 - std::pow(2.0 / static_cast<double>(N), 1.0 - Theta)) /
          (1.0 - Zeta2 / ZetaN);
    Zeta = ZetaN;
    Half = 1.0 + std::pow(0.5, Theta);
  }

  std::uint64_t next(Rng &R) const {
    const double U = R.unit();
    const double UZ = U * Zeta;
    if (UZ < 1.0)
      return 0;
    if (UZ < Half)
      return 1;
    const auto Rank = static_cast<std::uint64_t>(
        static_cast<double>(N) * std::pow(Eta * U - Eta + 1.0, Alpha));
    return std::min(Rank, N - 1);
  }

private:
  std::uint64_t N;
  double Alpha = 0, Eta = 0, Zeta = 0, Half = 0;
};

/// Client operations. `More` entries carry the extra keys of a
/// multi-key op (a txn or a snapshot burst) right after its head entry.
enum class Op : std::uint8_t {
  Get,
  Put,
  Erase,
  Merge,
  Insert,
  Remove,
  AsyncPut,
  AsyncErase,
  Txn,
  Snapshot,
  More,
};

/// Keys read and rewritten by one transaction.
inline constexpr unsigned TxnKeys = 4;
/// Snapshot reads in one burst; the last re-reads the first key.
inline constexpr unsigned BurstReads = 8;

/// Ring entries an op occupies.
constexpr unsigned width(Op K) {
  return K == Op::Txn ? TxnKeys : K == Op::Snapshot ? BurstReads : 1;
}

/// One ring entry: the op kind in the top byte, the key below it.
using Entry = std::uint64_t;

constexpr Entry encode(Op K, std::uint64_t Key) {
  return static_cast<std::uint64_t>(K) << 56 | Key;
}
constexpr Op kindOf(Entry E) { return static_cast<Op>(E >> 56); }
constexpr std::uint64_t keyOf(Entry E) { return E & ((1ULL << 56) - 1); }

/// Entries per client ring; a client cycles through its ring.
inline constexpr std::size_t RingSize = std::size_t(1) << 20;

/// One op kind and its share of a mix, in percent.
struct MixShare {
  Op Kind;
  unsigned Percent;
};

/// A workload: container, key space, prefill, key skew and op mix.
struct Spec {
  std::string_view Name;
  /// True: `lfsmr::michael_hashmap`; false: `lfsmr::kv::store`.
  bool HashMap;
  std::uint64_t KeySpace;
  std::uint64_t Prefill;
  /// 0 selects uniform keys.
  double ZipfTheta;
  /// The coordinator holds a guard from before warm-up to the end.
  bool Stall;
  /// Shares sum to 100; a txn or a snapshot burst is one op.
  std::vector<MixShare> Mix;

  bool has(Op K) const {
    return std::any_of(Mix.begin(), Mix.end(),
                       [K](const MixShare &M) { return M.Kind == K; });
  }
};

/// The four workloads, in the order `all` runs them.
inline const std::vector<Spec> &specs() {
  static const std::vector<Spec> S = {
      {"hashmap-write", true, 100000, 50000, 0, false,
       {{Op::Insert, 50}, {Op::Remove, 50}}},
      {"kv-read-zipf", false, 1000000, 500000, 0.99, false,
       {{Op::Get, 90}, {Op::Put, 8}, {Op::Erase, 2}}},
      {"kv-write-txn", false, 100000, 50000, 0, false,
       {{Op::Put, 40},
        {Op::Erase, 10},
        {Op::Get, 20},
        {Op::Merge, 10},
        {Op::AsyncPut, 8},
        {Op::AsyncErase, 2},
        {Op::Txn, 5},
        {Op::Snapshot, 5}}},
      {"kv-stall", false, 1000000, 500000, 0.99, true,
       {{Op::Get, 50}, {Op::Put, 40}, {Op::Erase, 10}}},
  };
  return S;
}

/// Returns the workload named \p Name, or nullptr.
inline const Spec *findSpec(std::string_view Name) {
  for (const Spec &S : specs())
    if (S.Name == Name)
      return &S;
  return nullptr;
}

/// Seeded permutation of [0, N).
inline std::vector<std::uint32_t> permutation(std::uint64_t N,
                                              std::uint64_t Seed) {
  std::vector<std::uint32_t> P(N);
  for (std::uint64_t I = 0; I < N; ++I)
    P[I] = static_cast<std::uint32_t>(I);
  Rng R(Seed);
  for (std::uint64_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[R.below(I)]);
  return P;
}

/// Draws keys of one workload. Zipfian ranks go through a seeded
/// permutation, so the hot keys spread over shards and buckets instead of
/// sitting at the bottom of the key space.
class KeyGen {
public:
  KeyGen(const Spec &W, std::uint64_t Seed) : N(W.KeySpace) {
    if (W.ZipfTheta > 0) {
      Z.emplace(N, W.ZipfTheta);
      RankToKey = permutation(N, subSeed(Seed, 1));
    }
  }

  std::uint64_t next(Rng &R) const {
    return Z ? RankToKey[Z->next(R)] : R.below(N);
  }

private:
  std::uint64_t N;
  std::optional<Zipf> Z;
  std::vector<std::uint32_t> RankToKey;
};

/// The distinct keys inserted before the run: a seeded sample of
/// `Prefill` keys from the key space.
inline std::vector<std::uint64_t> prefillKeys(const Spec &W,
                                              std::uint64_t Seed) {
  const std::vector<std::uint32_t> P = permutation(W.KeySpace, subSeed(Seed, 2));
  return std::vector<std::uint64_t>(P.begin(), P.begin() + W.Prefill);
}

/// The op ring of client \p Client. A multi-key op never straddles the
/// ring's end: where it would not fit, single-key ops are drawn instead.
inline std::vector<Entry> makeStream(const Spec &W, const KeyGen &Keys,
                                     std::uint64_t Seed, unsigned Client) {
  Rng R(subSeed(Seed, 0x100 + Client));
  std::vector<Entry> Out;
  Out.reserve(RingSize);
  while (Out.size() < RingSize) {
    std::uint64_t Pick = R.below(100);
    Op K = W.Mix.back().Kind;
    for (const MixShare &M : W.Mix) {
      if (Pick < M.Percent) {
        K = M.Kind;
        break;
      }
      Pick -= M.Percent;
    }
    const unsigned Width = width(K);
    if (Out.size() + Width > RingSize)
      continue;
    const std::uint64_t First = Keys.next(R);
    Out.push_back(encode(K, First));
    for (unsigned I = 1; I < Width; ++I) {
      const bool Reread = K == Op::Snapshot && I + 1 == Width;
      Out.push_back(encode(Op::More, Reread ? First : Keys.next(R)));
    }
  }
  return Out;
}

} // namespace e2e

#endif // LFSMR_BENCH_E2E_STREAM_H
