//===- bench/suites_paper.cpp - Paper-figure suites -----------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The suites that regenerate the paper's evaluation: the figure sweeps
/// (list / hashmap / nmtree / bonsai, Figs. 11-13), the Slots x MinBatch
/// ablation, the SMR primitive costs (enter-leave), the stalled-reader
/// series (stall), and Table 1.
///
//===----------------------------------------------------------------------===//

#include "suites.h"

#include "driver.h"

#include "devtools/random.h"
#include "ds/bonsai_tree.h"
#include "ds/hm_list.h"
#include "ds/michael_hashmap.h"
#include "ds/nm_tree.h"
#include "smr/reclaimer_traits.h"

#include <algorithm>
#include <new>
#include <type_traits>

using namespace lfsmr;
using namespace lfsmr::bench;

//===----------------------------------------------------------------------===//
// Figure sweeps (list / hashmap / nmtree / bonsai) and the ablation
//===----------------------------------------------------------------------===//

namespace {

/// Percentages of each operation in a figure mix; they sum to 100.
/// `put` is insert-or-replace: replacing retires the old binding, which
/// is what makes the read-dominated mix a *reclamation-unbalanced*
/// workload (few writers retire while many readers only observe).
struct WorkloadMix {
  unsigned GetPct;
  unsigned PutPct;
  unsigned InsertPct;
  unsigned RemovePct;
  const char *Name;
};

/// The paper's two mixes (Section 6): 50% insert / 50% delete, stressing
/// reclamation, and 90% get / 10% put, the unbalanced-reclamation case.
constexpr WorkloadMix WriteMix{0, 0, 50, 50, "write"};
constexpr WorkloadMix ReadMix{90, 10, 0, 0, "read"};

/// One figure panel as run for one scheme.
struct FigurePanel {
  const char *Suite;
  const char *Structure;
  std::string Label; ///< e.g. "fig11a+12a", or "s2xb16" for the ablation
  WorkloadMix Mix;
  smr::Config Cfg; ///< MaxThreads is set per point
};

/// The prefill keys: a deterministic shuffled \p O.Prefill-subset of
/// [0, KeyRange), so the structure holds exactly that many distinct keys
/// (the paper's "prefilled with 50,000 elements").
std::vector<uint64_t> prefillKeys(const SweepOptions &O, uint64_t Seed) {
  std::vector<uint64_t> Keys(O.KeyRange);
  for (uint64_t I = 0; I < O.KeyRange; ++I)
    Keys[I] = I;
  Xoshiro256 Rng(Seed);
  for (uint64_t I = O.KeyRange - 1; I > 0; --I)
    std::swap(Keys[I], Keys[Rng.nextBounded(I + 1)]);
  Keys.resize(O.Prefill);
  return Keys;
}

/// Inserts \p Keys on thread id 0 (strictly before the workers start).
/// The list takes them in one sorted pass instead of one search each.
template <typename DS> void prefill(DS &D, std::vector<uint64_t> Keys) {
  if constexpr (requires { D.prefillSorted(Keys); }) {
    std::sort(Keys.begin(), Keys.end());
    D.prefillSorted(Keys);
  } else {
    for (const uint64_t K : Keys)
      D.insert(/*Tid=*/0, K, /*V=*/K + 1);
  }
}

/// One worker of a figure point: uniform keys, the mix's dice per op,
/// the stop flag checked every 64 ops to keep the loop tight.
template <typename DS>
uint64_t mixWorker(DS &D, const WorkloadMix &Mix, unsigned Tid,
                   uint64_t KeyRange, uint64_t Seed,
                   const std::atomic<bool> &Stop) {
  Xoshiro256 Rng(Seed);
  uint64_t Ops = 0;
  while (!Stop.load(std::memory_order_relaxed)) {
    for (unsigned I = 0; I < 64; ++I, ++Ops) {
      const uint64_t K = Rng.nextBounded(KeyRange);
      const uint64_t Dice = Rng.nextBounded(100);
      if (Dice < Mix.GetPct)
        D.get(Tid, K);
      else if (Dice < Mix.GetPct + Mix.PutPct)
        D.put(Tid, K, K + 1);
      else if (Dice < Mix.GetPct + Mix.PutPct + Mix.InsertPct)
        D.insert(Tid, K, K + 1);
      else
        D.remove(Tid, K);
    }
  }
  return Ops;
}

/// False for the structures a scheme cannot run: HP and HE cannot run
/// the Bonsai tree (unbounded per-operation protections; paper Section 6).
template <template <typename> class DS, typename S>
constexpr bool isSupported() {
  if constexpr (std::is_same_v<DS<S>, ds::BonsaiTree<S>>)
    return smr::ReclaimerTraits<S>::Row.SupportsBonsai;
  return true;
}

/// The figure sweep of structure DS: one point per thread count for one
/// (panel, scheme), each repeat a freshly prefilled structure.
template <template <typename> class DS> struct FigureOp {
  template <typename S> struct Op {
    static void run(const std::string &Scheme, const FigurePanel &P,
                    const SweepOptions &O, report::Report &Rep) {
      if constexpr (isSupported<DS, S>()) {
        sweepPoints(
            Rep, point(P.Suite, P.Label, P.Structure, P.Mix.Name, Scheme),
            O.Threads, 1, O.Repeats, [&](unsigned T, unsigned R) {
              // Per-thread state covers worker ids 0..T-1 (the prefill
              // reuses id 0). Keeping MaxThreads tight matters for
              // Hyaline-1(-S), whose slot count and batch size scale
              // with it (paper: k = n for the -1 variants).
              smr::Config C = P.Cfg;
              C.MaxThreads = T;
              DS<S> D(C);
              prefill(D, prefillKeys(O, O.Seed + R));
              const MemCounter &MC = D.smr().memCounter();
              return timedRun(
                  T, O.Secs,
                  [&](unsigned Tid, telemetry::Histogram &,
                      std::atomic<bool> &Stop) {
                    return mixWorker(D, P.Mix, Tid, O.KeyRange,
                                     O.Seed + R + 0x1000 + Tid, Stop);
                  },
                  [&] { return MC.unreclaimed(); });
            });
      }
    }
  };
};

struct Panel {
  const char *Label;
  WorkloadMix Mix;
};

/// Runs a figure suite: every panel x scheme x thread count over DS.
template <template <typename> class DS>
void runFigure(const char *Suite, std::initializer_list<Panel> Panels,
               const CommandLine &Cmd, report::Report &Rep) {
  const SweepOptions O = parseSweep(Cmd);
  for (const Panel &P : Panels)
    for (const std::string &Scheme : O.Schemes)
      dispatchScheme<FigureOp<DS>::template Op>(
          Scheme, FigurePanel{Suite, Suite, P.Label, P.Mix, {}}, O, Rep);
}

} // namespace

void lfsmr::bench::runListSuite(const CommandLine &Cmd, report::Report &Rep) {
  runFigure<ds::HMList>(
      "list", {{"fig11a+12a", WriteMix}, {"fig11d+12d", ReadMix}}, Cmd, Rep);
}

void lfsmr::bench::runHashMapSuite(const CommandLine &Cmd,
                                   report::Report &Rep) {
  runFigure<ds::MichaelHashMap>(
      "hashmap", {{"fig11b+12b", WriteMix}, {"fig11e+12e", ReadMix}}, Cmd,
      Rep);
}

void lfsmr::bench::runNMTreeSuite(const CommandLine &Cmd,
                                  report::Report &Rep) {
  runFigure<ds::NMTree>(
      "nmtree", {{"fig11c+12c", WriteMix}, {"fig11f+12f", ReadMix}}, Cmd, Rep);
}

void lfsmr::bench::runBonsaiSuite(const CommandLine &Cmd,
                                  report::Report &Rep) {
  runFigure<ds::BonsaiTree>(
      "bonsai", {{"fig13a+13c", WriteMix}, {"fig13b", ReadMix}}, Cmd, Rep);
}

/// Sweeps the Hyaline-family `Slots` (per-slot retirement lists, paper
/// §3.2) and `MinBatch` (batch threshold; effective `max(MinBatch, k+1)`)
/// knobs over the Michael hash-map write mix, one data point per
/// (scheme × slots × minbatch × threads). The knobs ride in the panel
/// name as `s<slots>xb<minbatch>`.
void lfsmr::bench::runAblationSuite(const CommandLine &Cmd,
                                    report::Report &Rep) {
  SweepOptions O = parseSweep(Cmd);
  // The knobs only exist in the Hyaline family; default to the paper's
  // multi-list variants rather than every scheme.
  if (!Cmd.has("schemes"))
    O.Schemes = {"hyaline", "hyalines"};
  const bool Full = Cmd.has("full");
  const std::vector<int64_t> Slots = Cmd.getIntList(
      "slots",
      Full ? std::vector<int64_t>{1, 2, 4, 8, 16} : std::vector<int64_t>{2, 8},
      1, MaxUnsigned);
  const std::vector<int64_t> Batches = Cmd.getIntList(
      "minbatch",
      Full ? std::vector<int64_t>{8, 32, 64, 128, 256}
           : std::vector<int64_t>{16, 64},
      1, MaxUnsigned);

  for (const std::string &Scheme : O.Schemes)
    for (const int64_t SlotsK : Slots)
      for (const int64_t MinBatch : Batches) {
        FigurePanel P{"ablation", "hashmap",
                      "s" + std::to_string(SlotsK) + "xb" +
                          std::to_string(MinBatch),
                      WriteMix,
                      {}};
        P.Cfg.Slots = static_cast<unsigned>(SlotsK);
        P.Cfg.MinBatch = static_cast<unsigned>(MinBatch);
        dispatchScheme<FigureOp<ds::MichaelHashMap>::Op>(Scheme, P, O, Rep);
      }
  Rep.note("ablation: Slots/MinBatch are Hyaline-family knobs (paper "
           "Section 3.2); the effective batch threshold is "
           "max(MinBatch, slots + 1). Other schemes ignore them.");
}

//===----------------------------------------------------------------------===//
// enter-leave: SMR primitive microbenchmarks (paper Section 3.2 "Costs")
//===----------------------------------------------------------------------===//

namespace {

/// Raw-storage node usable with any scheme's NodeHeader.
struct RawNode {
  alignas(16) char Header[64];
  uint64_t Payload;
};

template <typename S> void deleteRawNode(void *Hdr, void *) {
  delete reinterpret_cast<RawNode *>(Hdr);
}

template <typename S> typename S::NodeHeader *headerOf(RawNode *N) {
  static_assert(sizeof(typename S::NodeHeader) <= sizeof(N->Header));
  return new (N->Header) typename S::NodeHeader();
}

/// Per-thread backstop cap for alloc_retire (memory stays bounded per
/// scheme: reclaiming schemes drain as the run progresses, and NoMM uses
/// discard() below).
constexpr uint64_t AllocOpsCap = uint64_t{1} << 24;

/// Shared state for one timed primitive run (one scheme instance).
struct MicroCtx {
  std::atomic<RawNode *> Cell{nullptr}; ///< published node for deref
};

/// The three primitive benchmarks for one scheme type.
template <typename S> struct MicroSuiteOp {
  using IterFn = uint64_t (*)(S &, MicroCtx &, unsigned,
                              std::atomic<bool> &);
  using HookFn = void (*)(S &, MicroCtx &);

  static void addPrimitive(const char *Primitive, const std::string &Scheme,
                           const SweepOptions &O, report::Report &Rep,
                           IterFn Iter, HookFn Setup, HookFn Teardown) {
    sweepPoints(
        Rep, point("enter-leave", Primitive, "-", "-", Scheme), O.Threads, 1,
        O.Repeats, [&](unsigned T, unsigned) {
          smr::Config C;
          C.MaxThreads = T;
          S Instance(C, &deleteRawNode<S>, nullptr);
          MicroCtx Ctx;
          if (Setup)
            Setup(Instance, Ctx);
          RunResult Rr = timedRun(
              T, O.Secs,
              [&](unsigned Tid, telemetry::Histogram &,
                  std::atomic<bool> &Stop) {
                return Iter(Instance, Ctx, Tid, Stop);
              },
              [&] { return Instance.memCounter().unreclaimed(); });
          if (Teardown)
            Teardown(Instance, Ctx);
          return Rr;
        });
  }

  static uint64_t enterLeaveIter(S &Scheme, MicroCtx &, unsigned Tid,
                                 std::atomic<bool> &Stop) {
    uint64_t Local = 0;
    while (!Stop.load(std::memory_order_relaxed) && Local < MicroOpsCap) {
      for (unsigned I = 0; I < 64; ++I) {
        auto G = Scheme.enter(Tid);
        Scheme.leave(G);
      }
      Local += 64;
    }
    return Local;
  }

  /// Publishes the shared node the deref workers read. Runs on the main
  /// thread before the workers start (thread id 0 is reused: strictly
  /// sequential with the workers, as in the figure prefill).
  static void derefSetup(S &Scheme, MicroCtx &Ctx) {
    auto G = Scheme.enter(0);
    auto *N = new RawNode();
    Scheme.initNode(G, headerOf<S>(N));
    Ctx.Cell.store(N, std::memory_order_release);
    Scheme.leave(G);
  }

  static void derefTeardown(S &Scheme, MicroCtx &Ctx) {
    auto G = Scheme.enter(0);
    if (auto *N = Ctx.Cell.exchange(nullptr))
      Scheme.retire(G,
                    reinterpret_cast<typename S::NodeHeader *>(N->Header));
    Scheme.leave(G);
  }

  static uint64_t derefIter(S &Scheme, MicroCtx &Ctx, unsigned Tid,
                            std::atomic<bool> &Stop) {
    uint64_t Local = 0;
    while (!Stop.load(std::memory_order_relaxed) && Local < MicroOpsCap) {
      auto G = Scheme.enter(Tid);
      for (unsigned I = 0; I < 64; ++I) {
        auto *P = Scheme.deref(G, Ctx.Cell, 0);
        // Keep the deref observable (the gbench DoNotOptimize idiom).
        asm volatile("" : : "r"(P));
        ++Local;
      }
      Scheme.leave(G);
    }
    return Local;
  }

  static uint64_t allocRetireIter(S &Scheme, MicroCtx &, unsigned Tid,
                                  std::atomic<bool> &Stop) {
    uint64_t Local = 0;
    while (!Stop.load(std::memory_order_relaxed) && Local < AllocOpsCap) {
      auto G = Scheme.enter(Tid);
      auto *N = new RawNode();
      auto *Hdr = headerOf<S>(N);
      Scheme.initNode(G, Hdr);
      if constexpr (std::is_same_v<S, smr::NoMM>) {
        // NoMM's retire leaks by design; at --full rates that is tens of
        // GB in one process. discard() frees with honest retire+free
        // accounting, so nomm measures the alloc+discard round trip.
        Scheme.discard(Hdr);
      } else {
        Scheme.retire(G, Hdr);
      }
      Scheme.leave(G);
      ++Local;
    }
    return Local;
  }

  static void run(const std::string &Scheme, const SweepOptions &O,
                  report::Report &Rep) {
    addPrimitive("enter_leave", Scheme, O, Rep, &enterLeaveIter, nullptr,
                 nullptr);
    addPrimitive("deref_x64", Scheme, O, Rep, &derefIter, &derefSetup,
                 &derefTeardown);
    addPrimitive("alloc_retire", Scheme, O, Rep, &allocRetireIter, nullptr,
                 nullptr);
  }
};

} // namespace

void lfsmr::bench::runEnterLeaveSuite(const CommandLine &Cmd,
                                      report::Report &Rep) {
  SweepOptions O;
  const bool Full = Cmd.has("full");
  const unsigned HW = std::thread::hardware_concurrency();
  O.Threads = threadList(Cmd, Full ? std::vector<int64_t>{1, 2, 4, 8, 16, 32}
                                   : std::vector<int64_t>{
                                         1, static_cast<int64_t>(HW ? HW : 4)});
  O.Secs = Cmd.getDouble("secs", Full ? 2.0 : 0.1);
  O.Repeats = static_cast<unsigned>(
      Cmd.getInt("repeats", Full ? 5 : 1, 1, MaxUnsigned));
  O.Schemes = expandSchemes(Cmd.getStringList("schemes", paperSchemes()));
  checkSchemes(O.Schemes);
  for (const std::string &Scheme : O.Schemes)
    dispatchScheme<MicroSuiteOp>(Scheme, O, Rep);
}

//===----------------------------------------------------------------------===//
// stall: stalled-reader robustness series (paper Sections 2, 4.2)
//===----------------------------------------------------------------------===//

namespace {

struct StallOptions {
  int64_t TotalOps;
  unsigned Writers;
  int64_t SamplePeriod;
  uint64_t Seed;
  std::vector<std::string> Schemes;
};

/// One reader derefs a pointer and stalls; writers churn allocate/retire
/// cycles while the unreclaimed count is sampled. Robust schemes plateau;
/// epoch/hyaline/hyaline1 grow linearly with the churn.
template <typename S> struct StallOp {
  static void run(const std::string &Name, const StallOptions &O,
                  report::Report &Rep) {
    smr::Config C;
    C.MaxThreads = O.Writers + 1;
    S Scheme(C, &deleteRawNode<S>, nullptr);

    std::vector<std::atomic<RawNode *>> Cells(64);
    for (auto &Cell : Cells)
      Cell.store(nullptr);

    // Seed one node for the stalled reader to hold.
    auto Boot = Scheme.enter(1);
    auto *Seed = new RawNode();
    Scheme.initNode(Boot, headerOf<S>(Seed));
    Cells[0].store(Seed);
    Scheme.leave(Boot);

    auto Stalled = Scheme.enter(0);
    (void)Scheme.deref(Stalled, Cells[0], 0);

    std::atomic<int64_t> OpsDone{0};
    std::atomic<bool> Stop{false};
    std::vector<std::thread> Ts;
    for (unsigned W = 0; W < O.Writers; ++W)
      Ts.emplace_back([&, W] {
        uint64_t X = O.Seed + W + 1; // per-writer LCG stream off the seed
        while (!Stop.load(std::memory_order_relaxed)) {
          auto G = Scheme.enter(1 + W);
          auto *N = new RawNode();
          Scheme.initNode(G, headerOf<S>(N));
          X = X * 6364136223846793005ULL + 1;
          auto *Old = Cells[(X >> 33) & 63].exchange(N);
          if (Old)
            Scheme.retire(G, reinterpret_cast<typename S::NodeHeader *>(
                                 Old->Header));
          Scheme.leave(G);
          if (OpsDone.fetch_add(1, std::memory_order_relaxed) >= O.TotalOps)
            break;
        }
      });

    const auto AddSample = [&](int64_t Done, int64_t Unreclaimed) {
      report::DataPoint Pt = point("stall", "series", "-", "-", Name);
      Pt.Threads = O.Writers;
      Pt.TotalOps = static_cast<uint64_t>(Done);
      Pt.AvgUnreclaimed.add(static_cast<double>(Unreclaimed));
      Pt.PeakUnreclaimed.add(static_cast<double>(Unreclaimed));
      Rep.addPoint(Pt);
    };

    int64_t NextSample = 0;
    while (OpsDone.load(std::memory_order_relaxed) < O.TotalOps) {
      const int64_t Done = OpsDone.load(std::memory_order_relaxed);
      if (Done >= NextSample) {
        AddSample(Done, Scheme.memCounter().unreclaimed());
        NextSample += O.SamplePeriod;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Stop.store(true);
    for (auto &T : Ts)
      T.join();
    AddSample(OpsDone.load(), Scheme.memCounter().unreclaimed());

    // Resume and drain so the scheme destructs cleanly.
    Scheme.leave(Stalled);
    auto G = Scheme.enter(0);
    for (auto &Cell : Cells)
      if (auto *N = Cell.exchange(nullptr))
        Scheme.retire(G,
                      reinterpret_cast<typename S::NodeHeader *>(N->Header));
    Scheme.leave(G);
  }
};

} // namespace

void lfsmr::bench::runStallSuite(const CommandLine &Cmd, report::Report &Rep) {
  StallOptions O;
  const bool Full = Cmd.has("full");
  O.TotalOps = Cmd.getInt("ops", Full ? 2000000 : 200000, 1);
  // The reader takes one id past the writers' (MaxThreads = Writers + 1).
  O.Writers =
      static_cast<unsigned>(Cmd.getInt("writers", 4, 1, MaxUnsigned - 1));
  O.SamplePeriod =
      Cmd.getInt("sample", std::max<int64_t>(O.TotalOps / 10, 1), 1);
  O.Seed = static_cast<uint64_t>(Cmd.getInt("seed", 0x5eed));
  // NoMM never reclaims, so a stalled-reader series says nothing new.
  O.Schemes = expandSchemes(Cmd.getStringList(
      "schemes", {"epoch", "hyaline", "hyaline1", "hp", "he", "ibr",
                  "hyalines", "hyaline1s"}));
  checkSchemes(O.Schemes);
  for (const std::string &Scheme : O.Schemes) {
    if (Scheme == "nomm") {
      Rep.note("stall: skipping nomm (never reclaims; series is trivial)");
      continue;
    }
    dispatchScheme<StallOp>(Scheme, O, Rep);
  }
  Rep.note("stall: robust schemes (hp/he/ibr/hyalines/hyaline1s) should "
           "plateau; epoch/hyaline/hyaline1 grow with the churn");
}

//===----------------------------------------------------------------------===//
// table1: qualitative comparison with measured header sizes
//===----------------------------------------------------------------------===//

namespace {

template <typename S>
report::QualRow qualRow(const char *PaperHeader) {
  const smr::SchemeTraits &T = smr::ReclaimerTraits<S>::Row;
  report::QualRow R;
  R.Name = T.Name;
  R.BasedOn = T.BasedOn;
  R.Performance = T.Performance;
  R.Robust = T.Robust;
  R.Transparent = T.Transparent;
  R.HeaderBytes = T.HeaderBytes;
  R.PaperHeader = PaperHeader;
  R.Api = T.Api;
  R.NeedsDeref = T.NeedsDeref;
  R.NeedsIndices = T.NeedsIndices;
  R.SupportsBonsai = T.SupportsBonsai;
  return R;
}

} // namespace

void lfsmr::bench::runTable1Suite(const CommandLine &, report::Report &Rep) {
  Rep.addQualRow(qualRow<smr::HP>("1 word"));
  Rep.addQualRow(qualRow<smr::EBR>("1 word [*]"));
  Rep.addQualRow(qualRow<smr::HE>("3 words"));
  Rep.addQualRow(qualRow<smr::IBR>("3 words"));
  Rep.addQualRow(qualRow<core::Hyaline>("3 words"));
  Rep.addQualRow(qualRow<core::Hyaline1>("3 words"));
  Rep.addQualRow(qualRow<core::HyalineS>("3 words"));
  Rep.addQualRow(qualRow<core::Hyaline1S>("3 words"));
  Rep.addQualRow(qualRow<smr::NoMM>("n/a"));
  Rep.note("[*] the paper's 1-word EBR assumes per-epoch retire lists; "
           "this implementation stamps the retire epoch per node (the "
           "variant the paper benchmarks), costing one extra word");
  Rep.note("deref required: HP, HE, IBR, Hyaline-S, Hyaline-1S; indices "
           "required: HP, HE; Bonsai-capable: all except HP, HE");
}
