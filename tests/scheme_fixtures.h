//===- tests/scheme_fixtures.h - Shared typed-test scaffolding ---*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Typed-test scaffolding shared by the test suite: the scheme lists and
/// the scheme x payload kv matrix, all generated from smr/scheme_list.h
/// and filtered on the Table 1 traits; the gtest instance names; the kv
/// suites' store options, payloads and configurations; a counting test
/// node and a deleter that tracks destruction.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_TESTS_SCHEME_FIXTURES_H
#define LFSMR_TESTS_SCHEME_FIXTURES_H

#include "kv/store.h"
#include "smr/reclaimer_traits.h"
#include "smr/scheme_list.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdlib>
#include <string>
#include <type_traits>

namespace {

/// One typed kv store configuration: reclamation scheme + key/value
/// types. gtest prints the TypeParam, namespace included, into every
/// typed-test name, so each kv suite has a configuration template of its
/// own name at global scope in an unnamed namespace; the transaction and
/// async ones add nothing to `KvCfg`.
template <typename S, typename KT, typename VT> struct KvCfg {
  using Scheme = S;
  using Key = KT;
  using Value = VT;
};
template <typename S, typename KT, typename VT>
struct TxnCfg : KvCfg<S, KT, VT> {};
template <typename S, typename KT, typename VT>
struct AsyncCfg : KvCfg<S, KT, VT> {};

} // namespace

namespace lfsmr::testing {

/// A compile-time type list; `GtestTypes` turns one into ::testing::Types.
template <typename... Ts> struct TypeList {};

template <typename... Ls> struct Concat {
  using type = TypeList<>;
};
template <typename... As> struct Concat<TypeList<As...>> {
  using type = TypeList<As...>;
};
template <typename... As, typename... Bs, typename... Rest>
struct Concat<TypeList<As...>, TypeList<Bs...>, Rest...>
    : Concat<TypeList<As..., Bs...>, Rest...> {};

/// The types T of \p L for which Keep<T>::value holds.
template <typename L, template <typename> class Keep> struct Filter;
template <typename... Ts, template <typename> class Keep>
struct Filter<TypeList<Ts...>, Keep>
    : Concat<std::conditional_t<Keep<Ts>::value, TypeList<Ts>,
                                TypeList<>>...> {};

template <typename L> struct GtestTypesOf;
template <typename... Ts> struct GtestTypesOf<TypeList<Ts...>> {
  using type = ::testing::Types<Ts...>;
};
template <typename L> using GtestTypes = typename GtestTypesOf<L>::type;

/// Every runnable scheme, in smr/scheme_list.h order.
#define LFSMR_SCHEME_TYPE(NAME, TYPE) TypeList<TYPE>,
using SchemeList =
    typename Concat<LFSMR_FOREACH_SCHEME(LFSMR_SCHEME_TYPE) TypeList<>>::type;
#undef LFSMR_SCHEME_TYPE

/// NoMM never frees, so reclamation tests leave it out.
template <typename S>
struct Reclaims : std::bool_constant<!std::is_same_v<S, smr::NoMM>> {};
template <typename S>
struct IsRobust
    : std::bool_constant<smr::ReclaimerTraits<S>::Row.Robust[0] == 'Y'> {};
/// Guard/era schemes: their protection covers a whole operation, so
/// they can run structures with unbounded per-operation protections
/// (Bonsai) and traversals through detached chains (the NM tree).
template <typename S>
struct WholeOperation
    : std::bool_constant<Reclaims<S>::value &&
                         smr::ReclaimerTraits<S>::Row.SupportsBonsai> {};

/// Every scheme that reclaims.
using ReclaimingSchemes = typename Filter<SchemeList, Reclaims>::type;
using AllSchemes = GtestTypes<ReclaimingSchemes>;

/// Schemes with robust (bounded under stall) reclamation.
using RobustSchemes = GtestTypes<typename Filter<SchemeList, IsRobust>::type>;

/// Schemes that reclaim, but not past a stalled thread (paper Table 1).
template <typename S>
struct ReclaimsNonRobust
    : std::bool_constant<Reclaims<S>::value && !IsRobust<S>::value> {};
using NonRobustSchemes =
    GtestTypes<typename Filter<SchemeList, ReclaimsNonRobust>::type>;

/// Schemes that can run the Bonsai tree and the concurrent NM tree (all
/// but HP/HE; paper Section 6).
using WholeOperationSchemes =
    GtestTypes<typename Filter<SchemeList, WholeOperation>::type>;

/// Human-readable names in gtest output: the Table 1 name up to its
/// first space, without dashes ("Hyaline-1S" -> "Hyaline1S",
/// "IBR (2GE)" -> "IBR").
class SchemeNames {
public:
  template <typename T> static std::string GetName(int) {
    std::string Name;
    for (const char *C = smr::ReclaimerTraits<T>::Row.Name; *C && *C != ' ';
         ++C)
      if (*C != '-')
        Name.push_back(*C);
    return Name;
  }
};

/// Every reclaiming scheme with the classic 64-bit payloads AND with
/// owned byte-string keys/values (the acceptance bar for the codec
/// layer), as `Cfg<Scheme, Key, Value>` instances — the matrix the kv,
/// txn, and async suites run. Each suite passes its own three-type
/// configuration template, so its typed-test names (which print the
/// TypeParam) stay its own.
template <template <typename, typename, typename> class Cfg, typename L>
struct KvMatrixOf;
template <template <typename, typename, typename> class Cfg, typename... Ss>
struct KvMatrixOf<Cfg, TypeList<Ss...>> {
  using type = ::testing::Types<Cfg<Ss, uint64_t, uint64_t>...,
                                Cfg<Ss, std::string, std::string>...>;
};
template <template <typename, typename, typename> class Cfg>
using KvMatrix = typename KvMatrixOf<Cfg, ReclaimingSchemes>::type;

/// Readable kv instance names ("HyalineS_str", ...).
class KvCfgNames {
public:
  template <typename C> static std::string GetName(int I) {
    const std::string S = SchemeNames::GetName<typename C::Scheme>(I);
    const char *P =
        std::is_same_v<typename C::Key, std::string> ? "_str" : "_u64";
    return S + P;
  }
};

/// Small batches and frequent sweeps so reclamation runs inside the kv
/// tests.
inline kv::Options kvTestOptions(unsigned MaxThreads = 8) {
  kv::Options O;
  O.Reclaim.MaxThreads = MaxThreads;
  O.Reclaim.Slots = 4;
  O.Reclaim.MinBatch = 8;
  O.Reclaim.EpochFreq = 4;
  O.Reclaim.EmptyFreq = 16;
  O.Reclaim.EraFreq = 4;
  O.Shards = 4;
  O.BucketsPerShard = 64;
  O.MinSnapshotSlots = 2;
  return O;
}

/// Deterministic kv payloads per key/value type: `make(x)` builds the
/// payload carrying the number `x`, `stamp(p)` recovers it. String
/// payloads vary in length so the variable-size (trailing-suffix)
/// record path is exercised.
template <typename T> struct Payload;

template <> struct Payload<uint64_t> {
  static uint64_t make(uint64_t X) { return X; }
  static uint64_t stamp(uint64_t P) { return P; }
};

template <> struct Payload<std::string> {
  static std::string make(uint64_t X) {
    return "p:" + std::to_string(X) + "/" + std::string(X % 23, '#');
  }
  static uint64_t stamp(const std::string &P) {
    return std::strtoull(P.c_str() + 2, nullptr, 10);
  }
};

/// A test node with the scheme header first, like real DS nodes.
template <typename S> struct TestNode {
  typename S::NodeHeader Hdr;
  uint64_t Payload;
};

/// Deleter that counts destructions through the shared counter passed as
/// the context pointer.
template <typename S> void countingDeleter(void *Hdr, void *Ctx) {
  static_cast<std::atomic<int64_t> *>(Ctx)->fetch_add(1,
                                                      std::memory_order_relaxed);
  delete static_cast<TestNode<S> *>(Hdr);
}

} // namespace lfsmr::testing

#endif // LFSMR_TESTS_SCHEME_FIXTURES_H
