//===- tests/test_domain.cpp - Public transparent-API contract tests ------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public transparent allocation surface, typed over every scheme
/// that can run it (all but the address-protecting HP): `guard::create`,
/// `retire(ptr)`, `retire(ptr, del)`, `discard(ptr)` and their
/// accounting; the strong exception guarantee of `create`; the
/// `std::logic_error` a transparent call raises on an intrusive domain;
/// HP and HE with `NumHazards = 0`; and the names `lfsmr::any_domain`
/// accepts and rejects.
///
//===----------------------------------------------------------------------===//

#include "scheme_fixtures.h"

#include "lfsmr/any_domain.h"
#include "lfsmr/domain.h"

#include <stdexcept>
#include <string>
#include <vector>

using namespace lfsmr;
using namespace lfsmr::testing;

namespace {

/// Schemes whose domain has a transparent constructor.
template <typename S>
struct TransparentCapable
    : std::bool_constant<!detail::protectsAddresses<S>> {};
using TransparentSchemes =
    GtestTypes<typename Filter<SchemeList, TransparentCapable>::type>;

/// Counts constructions and destructions across one test.
struct Tracked {
  static inline int Ctors = 0, Dtors = 0, Deleted = 0;
  std::uint64_t Payload;
  explicit Tracked(std::uint64_t P) : Payload(P) { ++Ctors; }
  ~Tracked() { ++Dtors; }
  static void reset() { Ctors = Dtors = Deleted = 0; }
  /// A `retire(ptr, del)` deleter: releases resources only.
  static void userDelete(Tracked *) { ++Deleted; }
};

/// A type whose constructor always throws.
struct Throws {
  explicit Throws(int) { throw std::runtime_error("ctor"); }
};

template <typename S> class Transparent : public ::testing::Test {
protected:
  void SetUp() override { Tracked::reset(); }

  /// Small batches/frequent sweeps so reclamation triggers inside tests.
  static config testConfig() {
    config C;
    C.MaxThreads = 8;
    C.Slots = 4;
    C.MinBatch = 8;
    C.EpochFreq = 4;
    C.EmptyFreq = 16;
    C.EraFreq = 4;
    return C;
  }

  static void expectBalanced(const memory_stats &St) {
    EXPECT_EQ(St.unreclaimed, St.retired - St.freed);
    EXPECT_LE(St.freed, St.retired);
    EXPECT_LE(St.retired, St.allocated);
  }
};

TYPED_TEST_SUITE(Transparent, TransparentSchemes, SchemeNames);

TYPED_TEST(Transparent, CreateRetireDiscardAccounting) {
  constexpr int Rounds = 4, PerRound = 16, Created = Rounds * PerRound;
  int Discarded = 0;
  {
    domain<TypeParam> D(this->testConfig());
    ASSERT_TRUE(D.transparent());
    for (int R = 0; R < Rounds; ++R) {
      auto G = D.enter(R % 2);
      for (int I = 0; I < PerRound; ++I) {
        Tracked *T = G.template create<Tracked>(I);
        EXPECT_EQ(T->Payload, std::uint64_t(I));
        if (I % 4 == 0) {
          G.discard(T);
          ++Discarded;
        } else {
          G.retire(T);
        }
      }
    }
    const memory_stats St = D.stats();
    EXPECT_EQ(St.allocated, Created);
    // A discard counts as an instant retire + free.
    EXPECT_EQ(St.retired, Created);
    EXPECT_GE(St.freed, Discarded);
    this->expectBalanced(St);
    EXPECT_EQ(Tracked::Ctors, Created);
    EXPECT_EQ(Tracked::Dtors, St.freed)
        << "each freed block runs its object's destructor exactly once";
  }
  if constexpr (Reclaims<TypeParam>::value) {
    EXPECT_EQ(Tracked::Dtors, Created)
        << "domain teardown destroys every retired object";
  }
}

TYPED_TEST(Transparent, RetireWithDeleterRunsDeleterNotDestructor) {
  {
    domain<TypeParam> D(this->testConfig());
    auto G = D.enter(0);
    Tracked *T = G.template create<Tracked>(1);
    G.retire(T, &Tracked::userDelete);
    EXPECT_EQ(D.stats().retired, 1);
  }
  if constexpr (Reclaims<TypeParam>::value) {
    EXPECT_EQ(Tracked::Deleted, 1) << "the user deleter runs exactly once";
  }
  EXPECT_LE(Tracked::Deleted, 1);
  EXPECT_EQ(Tracked::Dtors, 0) << "the deleter replaces the destructor";
}

TYPED_TEST(Transparent, ThrowingConstructorLeavesCountersBalanced) {
  domain<TypeParam> D(this->testConfig());
  {
    auto G = D.enter(0);
    EXPECT_THROW((void)G.template create<Throws>(1), std::runtime_error);
  }
  const memory_stats St = D.stats();
  EXPECT_EQ(St.allocated, 1);
  EXPECT_EQ(St.retired, 1) << "the released block counts as retire + free";
  EXPECT_EQ(St.freed, 1);
  EXPECT_EQ(St.unreclaimed, 0);
}

TYPED_TEST(Transparent, CreateOnIntrusiveDomainThrows) {
  std::atomic<int64_t> Freed{0};
  domain<TypeParam> D(this->testConfig(), countingDeleter<TypeParam>, &Freed);
  ASSERT_FALSE(D.transparent());
  {
    auto G = D.enter(0);
    EXPECT_THROW((void)G.template create<Tracked>(1), std::logic_error);
  }
  EXPECT_EQ(Tracked::Ctors, 0);
  EXPECT_EQ(D.stats().allocated, 0) << "nothing was allocated or counted";
}

/// HP and HE built with `NumHazards = 0` still give each thread one
/// protection slot: the rotating `protect` stays inside the row, and the
/// node it protects survives another thread's retire and sweep.
template <typename S> void protectThroughTheOneSlot() {
  smr::Config C;
  C.MaxThreads = 2;
  C.NumHazards = 0;
  C.EmptyFreq = 1; // every retire sweeps
  std::atomic<int64_t> Freed{0};
  {
    domain<S> D(C, countingDeleter<S>, &Freed);
    auto *N = new TestNode<S>();
    N->Payload = 7;
    std::atomic<TestNode<S> *> Cell{nullptr};
    {
      auto W = D.enter(1);
      W.init(&N->Hdr);
      Cell.store(N);
    }
    auto Reader = D.enter(0);
    auto P = Reader.protect(Cell);
    ASSERT_EQ(P.get(), N);
    {
      auto W = D.enter(1);
      W.retire(&Cell.exchange(nullptr)->Hdr);
    }
    EXPECT_EQ(Freed.load(), 0) << "the sweep freed a protected node";
    EXPECT_EQ(P->Payload, 7u);
  }
  EXPECT_EQ(Freed.load(), 1);
}

TEST(ZeroHazards, HpProtectsThroughOneSlot) {
  protectThroughTheOneSlot<smr::HP>();
}

TEST(ZeroHazards, HeProtectsThroughOneSlot) {
  protectThroughTheOneSlot<smr::HE>();
}

/// Every scheme name paired with whether it protects raw addresses.
struct NamedScheme {
  std::string Name;
  bool ProtectsAddresses;
};

std::vector<NamedScheme> allSchemeNames() {
  std::vector<NamedScheme> All;
#define LFSMR_TEST_NAME(NAME, TYPE)                                            \
  All.push_back({NAME, detail::protectsAddresses<TYPE>});
  LFSMR_FOREACH_SCHEME(LFSMR_TEST_NAME)
#undef LFSMR_TEST_NAME
  return All;
}

TEST(AnyDomain, BuildsEveryTransparentSchemeAndRejectsHp) {
  std::size_t Built = 0;
  for (const NamedScheme &S : allSchemeNames()) {
    SCOPED_TRACE(S.Name);
    if (S.ProtectsAddresses) {
      EXPECT_EQ(S.Name, "hp");
      EXPECT_THROW(any_domain(S.Name), std::invalid_argument);
      EXPECT_FALSE(any_domain::is_scheme(S.Name));
      continue;
    }
    Tracked::reset();
    {
      any_domain D(S.Name);
      EXPECT_EQ(D.scheme_name(), S.Name);
      EXPECT_TRUE(any_domain::is_scheme(S.Name));
      auto G = D.enter(0);
      Tracked *A = G.create<Tracked>(1);
      Tracked *B = G.create<Tracked>(2);
      EXPECT_THROW((void)G.create<Throws>(3), std::runtime_error);
      G.retire(A);
      G.discard(B);
      const memory_stats St = D.stats();
      EXPECT_EQ(St.allocated, 3);
      EXPECT_EQ(St.retired, 3);
      EXPECT_GE(St.freed, 2);
      EXPECT_EQ(St.unreclaimed, St.retired - St.freed);
    }
    EXPECT_EQ(Tracked::Ctors, 2);
    ++Built;
  }
  EXPECT_EQ(Built, any_domain::scheme_names().size());
  EXPECT_THROW(any_domain("no-such-scheme"), std::invalid_argument);
}

} // namespace
