//===- tests/test_reclaimer_traits.cpp - Table 1 metadata -----------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the Table 1 metadata (smr/reclaimer_traits.h) at compile time and
/// cross-checks it against the scheme list (smr/scheme_list.h) that every
/// name dispatcher expands, so the benchmark's HP/HE-vs-Bonsai exclusion,
/// which reads the traits, stays the paper's.
///
//===----------------------------------------------------------------------===//

#include "ds/hm_list.h"
#include "ds/michael_hashmap.h"
#include "ds/nm_tree.h"
#include "smr/reclaimer_traits.h"
#include "smr/scheme_list.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

using namespace lfsmr;
using smr::ReclaimerTraits;
using smr::SchemeTraits;

namespace {

constexpr bool streq(const char *A, const char *B) {
  for (; *A && *A == *B; ++A, ++B)
    ;
  return *A == *B;
}

// --- Measured header sizes -----------------------------------------------
// HeaderBytes must be the real sizeof(NodeHeader) so the Table 1 benchmark
// reports what this implementation actually costs per node.
template <typename S> constexpr bool headerMeasured() {
  constexpr std::size_t Bytes = ReclaimerTraits<S>::Row.HeaderBytes;
  // NoMM's header is empty (sizeof 1); every real header is word-granular.
  constexpr bool Empty = std::is_empty_v<typename S::NodeHeader>;
  return Bytes == sizeof(typename S::NodeHeader) &&
         (Empty || Bytes % alignof(void *) == 0);
}
static_assert(headerMeasured<smr::NoMM>());
static_assert(headerMeasured<smr::EBR>());
static_assert(headerMeasured<smr::HP>());
static_assert(headerMeasured<smr::HE>());
static_assert(headerMeasured<smr::IBR>());
static_assert(headerMeasured<core::Hyaline>());
static_assert(headerMeasured<core::Hyaline1>());
static_assert(headerMeasured<core::HyalinePacked>());
static_assert(headerMeasured<core::HyalineS>());
static_assert(headerMeasured<core::Hyaline1S>());

// The baselines' headers keep the paper's Table 1 word counts (the
// Hyaline header is pinned at 3 words in core/hyaline_node.h).
static_assert(ReclaimerTraits<smr::HP>::Row.HeaderBytes == 8);
static_assert(ReclaimerTraits<smr::EBR>::Row.HeaderBytes == 16);
static_assert(ReclaimerTraits<smr::HE>::Row.HeaderBytes == 24);
static_assert(ReclaimerTraits<smr::IBR>::Row.HeaderBytes == 24);

// --- Era observers ----------------------------------------------------------
// `currentEra()` is more than a stats hook: the NM tree restarts a walk
// whenever such a scheme's era advances (ds/nm_tree.h). Exactly the era
// schemes expose it; EBR names its clock `currentEpoch()`.
template <typename S>
constexpr bool hasCurrentEra = requires(const S &Sc) { Sc.currentEra(); };
static_assert(!hasCurrentEra<smr::NoMM>);
static_assert(!hasCurrentEra<smr::EBR>);
static_assert(!hasCurrentEra<smr::HP>);
static_assert(hasCurrentEra<smr::HE>);
static_assert(hasCurrentEra<smr::IBR>);
static_assert(!hasCurrentEra<core::Hyaline>);
static_assert(!hasCurrentEra<core::Hyaline1>);
static_assert(!hasCurrentEra<core::HyalinePacked>);
static_assert(hasCurrentEra<core::HyalineS>);
static_assert(hasCurrentEra<core::Hyaline1S>);

// --- API columns (Table 1) -----------------------------------------------
// deref is required by exactly the robust schemes (paper Section 2); the
// HP-style per-pointer indices only by HP and HE.
template <typename S>
constexpr bool apiShape(bool Deref, bool Indices, bool Bonsai) {
  constexpr const SchemeTraits &R = ReclaimerTraits<S>::Row;
  return R.NeedsDeref == Deref && R.NeedsIndices == Indices &&
         R.SupportsBonsai == Bonsai;
}
static_assert(apiShape<smr::NoMM>(false, false, true));
static_assert(apiShape<smr::EBR>(false, false, true));
static_assert(apiShape<smr::HP>(true, true, false));
static_assert(apiShape<smr::HE>(true, true, false));
static_assert(apiShape<smr::IBR>(true, false, true));
static_assert(apiShape<core::Hyaline>(false, false, true));
static_assert(apiShape<core::Hyaline1>(false, false, true));
static_assert(apiShape<core::HyalinePacked>(false, false, true));
static_assert(apiShape<core::HyalineS>(true, false, true));
static_assert(apiShape<core::Hyaline1S>(true, false, true));

// --- Cross-column invariants ---------------------------------------------
template <typename S> constexpr bool rowInvariants() {
  constexpr const SchemeTraits &R = ReclaimerTraits<S>::Row;
  // Per-pointer indices imply the deref discipline, and rule out data
  // structures with unbounded per-operation protections (Bonsai).
  if (R.NeedsIndices && !R.NeedsDeref)
    return false;
  if (R.SupportsBonsai != !R.NeedsIndices)
    return false;
  // Robustness (bounded memory under stall) requires tracking reads, i.e.
  // the deref discipline; plain enter/leave schemes cannot be robust.
  return streq(R.Robust, "Yes") == R.NeedsDeref;
}
static_assert(rowInvariants<smr::NoMM>());
static_assert(rowInvariants<smr::EBR>());
static_assert(rowInvariants<smr::HP>());
static_assert(rowInvariants<smr::HE>());
static_assert(rowInvariants<smr::IBR>());
static_assert(rowInvariants<core::Hyaline>());
static_assert(rowInvariants<core::Hyaline1>());
static_assert(rowInvariants<core::HyalinePacked>());
static_assert(rowInvariants<core::HyalineS>());
static_assert(rowInvariants<core::Hyaline1S>());

// --- Scheme-list cross-check ---------------------------------------------

/// The paper lineup's names, in smr/scheme_list.h order.
const std::vector<std::string> &paperSchemes() {
  static const std::vector<std::string> Names = {
#define LFSMR_SCHEME_NAME(NAME, TYPE) NAME,
      LFSMR_FOREACH_PAPER_SCHEME(LFSMR_SCHEME_NAME)
#undef LFSMR_SCHEME_NAME
  };
  return Names;
}

/// The traits row of the scheme the list pairs with \p Name.
const SchemeTraits &rowFor(const std::string &Name) {
#define LFSMR_ROW_FOR(NAME, TYPE)                                            \
  if (Name == NAME)                                                          \
    return ReclaimerTraits<TYPE>::Row;
  LFSMR_FOREACH_SCHEME(LFSMR_ROW_FOR)
#undef LFSMR_ROW_FOR
  ADD_FAILURE() << "the scheme list has no scheme named " << Name;
  return ReclaimerTraits<smr::NoMM>::Row;
}

/// One insert/get round trip through every structure the figure sweeps
/// run for every scheme (no remove: NoMM would leak the retired node).
template <typename S> void runsNonBonsaiStructures(const char *Name) {
  smr::Config C;
  C.MaxThreads = 1;
  ds::HMList<S> L(C);
  ds::MichaelHashMap<S> M(C);
  ds::NMTree<S> T(C);
  EXPECT_TRUE(L.insert(0, 7, 8) && L.get(0, 7) == 8u)
      << Name << "/list";
  EXPECT_TRUE(M.insert(0, 7, 8) && M.get(0, 7) == 8u)
      << Name << "/hashmap";
  EXPECT_TRUE(T.insert(0, 7, 8) && T.get(0, 7) == 8u)
      << Name << "/nmtree";
}

TEST(ReclaimerTraits, RegistryListsAllNineSchemes) {
  EXPECT_EQ(paperSchemes().size(), 9u);
  for (const std::string &Scheme : paperSchemes())
    EXPECT_EQ(std::count(paperSchemes().begin(), paperSchemes().end(), Scheme),
              1)
        << Scheme;
}

TEST(ReclaimerTraits, BonsaiExclusionMatchesTraits) {
  // Paper Section 6: HP and HE, and only they, cannot run the Bonsai tree.
  for (const std::string &Scheme : paperSchemes())
    EXPECT_EQ(rowFor(Scheme).SupportsBonsai, Scheme != "hp" && Scheme != "he")
        << Scheme;
}

TEST(ReclaimerTraits, NonBonsaiStructuresRunEverywhere) {
#define LFSMR_RUNS(NAME, TYPE) runsNonBonsaiStructures<TYPE>(NAME);
  LFSMR_FOREACH_SCHEME(LFSMR_RUNS)
#undef LFSMR_RUNS
}

TEST(ReclaimerTraits, RobustColumnNamesExactlyTheRobustSchemes) {
  // The paper's robust set: HP, HE, IBR, Hyaline-S, Hyaline-1S.
  for (const std::string &Scheme : paperSchemes()) {
    const bool Robust = Scheme == "hp" || Scheme == "he" || Scheme == "ibr" ||
                        Scheme == "hyalines" || Scheme == "hyaline1s";
    EXPECT_STREQ(rowFor(Scheme).Robust, Robust ? "Yes" : "No") << Scheme;
  }
}

TEST(ReclaimerTraits, HyalineHeadersStayWithinTwoWordsOfBaselines) {
  // Table 1's point: Hyaline headers are comparable to EBR/IBR headers,
  // not proportional to thread count. Guard the relation, not exact sizes.
  EXPECT_LE(ReclaimerTraits<core::Hyaline>::Row.HeaderBytes,
            ReclaimerTraits<smr::EBR>::Row.HeaderBytes + 2 * sizeof(void *));
  EXPECT_LE(ReclaimerTraits<core::HyalinePacked>::Row.HeaderBytes,
            ReclaimerTraits<core::Hyaline>::Row.HeaderBytes);
  EXPECT_LE(ReclaimerTraits<core::HyalineS>::Row.HeaderBytes,
            ReclaimerTraits<core::Hyaline>::Row.HeaderBytes + sizeof(void *));
}

} // namespace
