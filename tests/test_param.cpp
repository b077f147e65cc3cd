//===- tests/test_param.cpp - Parameterized property sweeps ---------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-style parameter sweeps: the reclamation-completeness property
/// ("every allocated node is freed exactly once after quiescence") must
/// hold across slot counts, batch sizes, thread counts, and
/// epoch/era-frequency settings — the knobs the paper's Section 6 tunes.
///
//===----------------------------------------------------------------------===//

#include "core/hyaline.h"
#include "core/hyaline1.h"
#include "ds/michael_hashmap.h"
#include "ds_common.h"
#include "scheme_fixtures.h"

#include <thread>
#include <tuple>
#include <vector>

using namespace lfsmr;
using namespace lfsmr::testing;

namespace {

//===----------------------------------------------------------------------===
// Hyaline: slots x batch x threads

class HyalineSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned,
                                                 unsigned>> {};

/// Cross-thread retire churn through exchange cells, then quiescence.
template <typename S>
void exchangeChurn(const smr::Config &Cfg, unsigned Threads, int Ops) {
  std::atomic<int64_t> Freed{0};
  int64_t Allocated = 0;
  {
    S Scheme(Cfg, countingDeleter<S>, &Freed);
    std::vector<std::atomic<TestNode<S> *>> Cells(16);
    for (auto &C : Cells)
      C.store(nullptr);
    std::vector<std::thread> Ts;
    for (unsigned T = 0; T < Threads; ++T)
      Ts.emplace_back([&, T] {
        Xoshiro256 Rng(streamSeed(T + 1));
        for (int I = 0; I < Ops; ++I) {
          auto G = Scheme.enter(T);
          auto *N = new TestNode<S>();
          N->Payload = I;
          Scheme.initNode(G, &N->Hdr);
          auto *Old = Cells[Rng.nextBounded(16)].exchange(N);
          if (Old)
            Scheme.retire(G, &Old->Hdr);
          // Read a couple of cells through deref as well.
          for (int J = 0; J < 2; ++J)
            (void)Scheme.deref(G, Cells[Rng.nextBounded(16)], J);
          Scheme.leave(G);
        }
      });
    for (auto &T : Ts)
      T.join();
    auto G = Scheme.enter(0);
    for (auto &C : Cells)
      if (auto *N = C.exchange(nullptr))
        Scheme.retire(G, &N->Hdr);
    Scheme.leave(G);
    Allocated = Scheme.memCounter().allocated();
  }
  EXPECT_EQ(Freed.load(), Allocated);
  EXPECT_EQ(Allocated, int64_t{Threads} * Ops);
}

TEST_P(HyalineSweep, AllFreedAtQuiescence) {
  const auto [Slots, MinBatch, Threads] = GetParam();
  smr::Config C;
  C.Slots = Slots;
  C.MinBatch = MinBatch;
  C.MaxThreads = Threads;
  exchangeChurn<core::Hyaline>(C, Threads, 2000);
}

TEST_P(HyalineSweep, HyalineSAllFreedAtQuiescence) {
  const auto [Slots, MinBatch, Threads] = GetParam();
  smr::Config C;
  C.Slots = Slots;
  C.MinBatch = MinBatch;
  C.MaxThreads = Threads;
  C.EraFreq = 8;
  exchangeChurn<core::HyalineS>(C, Threads, 2000);
}

INSTANTIATE_TEST_SUITE_P(
    SlotsBatchThreads, HyalineSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 8u, 64u),
                       ::testing::Values(2u, 16u, 64u),
                       ::testing::Values(1u, 4u, 12u)),
    [](const auto &Info) {
      return "k" + std::to_string(std::get<0>(Info.param)) + "_b" +
             std::to_string(std::get<1>(Info.param)) + "_t" +
             std::to_string(std::get<2>(Info.param));
    });

//===----------------------------------------------------------------------===
// Hyaline-1(-S): batch x threads (slots are fixed to MaxThreads)

class Hyaline1Sweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(Hyaline1Sweep, AllFreedAtQuiescence) {
  const auto [MinBatch, Threads] = GetParam();
  smr::Config C;
  C.MinBatch = MinBatch;
  C.MaxThreads = Threads;
  exchangeChurn<core::Hyaline1>(C, Threads, 2000);
}

TEST_P(Hyaline1Sweep, Hyaline1SAllFreedAtQuiescence) {
  const auto [MinBatch, Threads] = GetParam();
  smr::Config C;
  C.MinBatch = MinBatch;
  C.MaxThreads = Threads;
  C.EraFreq = 8;
  exchangeChurn<core::Hyaline1S>(C, Threads, 2000);
}

INSTANTIATE_TEST_SUITE_P(
    BatchThreads, Hyaline1Sweep,
    ::testing::Combine(::testing::Values(2u, 16u, 64u),
                       ::testing::Values(1u, 4u, 12u)),
    [](const auto &Info) {
      return "b" + std::to_string(std::get<0>(Info.param)) + "_t" +
             std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===
// Baselines: epochf x emptyf

class FreqSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

template <typename S> void freqChurn(unsigned EpochFreq, unsigned EmptyFreq) {
  smr::Config C;
  C.MaxThreads = 6;
  C.EpochFreq = EpochFreq;
  C.EmptyFreq = EmptyFreq;
  exchangeChurn<S>(C, 6, 2000);
}

TEST_P(FreqSweep, EpochAllFreed) {
  const auto [Ef, Mf] = GetParam();
  freqChurn<smr::EBR>(Ef, Mf);
}

TEST_P(FreqSweep, IBRAllFreed) {
  const auto [Ef, Mf] = GetParam();
  freqChurn<smr::IBR>(Ef, Mf);
}

TEST_P(FreqSweep, HEAllFreed) {
  const auto [Ef, Mf] = GetParam();
  freqChurn<smr::HE>(Ef, Mf);
}

TEST_P(FreqSweep, HPAllFreed) {
  const auto [Ef, Mf] = GetParam();
  freqChurn<smr::HP>(Ef, Mf);
}

INSTANTIATE_TEST_SUITE_P(
    Freqs, FreqSweep,
    ::testing::Combine(::testing::Values(1u, 10u, 150u),
                       ::testing::Values(4u, 120u)),
    [](const auto &Info) {
      return "e" + std::to_string(std::get<0>(Info.param)) + "_m" +
             std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===
// Hash map: bucket-count sweep with the contended ledger property

class BucketSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BucketSweep, LedgerHoldsAcrossTableSizes) {
  ds::MichaelHashMap<core::Hyaline> M(dsTestConfig(), GetParam());
  checkContendedLedger(M, 6, 3000, 96);
}

INSTANTIATE_TEST_SUITE_P(Buckets, BucketSweep,
                         ::testing::Values(std::size_t{1}, std::size_t{16},
                                           std::size_t{1024}),
                         [](const auto &Info) {
                           return "b" + std::to_string(Info.param);
                         });

} // namespace
