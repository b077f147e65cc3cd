//===- find_package_consumer/main.cpp - Installed-package smoke test ------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises every public entry point of an *installed* lfsmr package —
/// typed domains (transparent and intrusive), the runtime-named
/// `any_domain`, and a container — using only `<lfsmr/...>` includes.
/// Exits non-zero on any failed check so the install-verification job
/// actually verifies behaviour, not just linkage.
///
//===----------------------------------------------------------------------===//

#include <lfsmr/kv.h> // also reachable via <lfsmr/lfsmr.h>; explicit here
#include <lfsmr/lfsmr.h>
#include <lfsmr/telemetry.h> // explicit: the install check round-trips it

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  if (!Ok) {
    std::fprintf(stderr, "FAIL: %s\n", What);
    ++Failures;
  }
}

struct Payload {
  uint64_t Value;
};

/// Intrusive mode through a typed domain: the node embeds the scheme
/// header as its first member and the domain gets a deleter — the only
/// mode the address-protecting HP scheme supports (its hazard slots hold
/// the published node address, which must equal the retired address).
void intrusiveDomainRoundTrip() {
  using hp = lfsmr::schemes::hazard_pointers;
  struct Node {
    hp::NodeHeader Hdr; // must be the first member
    uint64_t Value;
  };
  lfsmr::config Cfg;
  Cfg.MaxThreads = 4;
  lfsmr::domain<hp> Dom(
      Cfg, [](void *Hdr, void *) { delete static_cast<Node *>(Hdr); },
      nullptr);
  std::atomic<Node *> Shared{nullptr};

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 2; ++T)
    Threads.emplace_back([&, T] {
      for (uint64_t I = 0; I < 2000; ++I) {
        auto G = Dom.enter(T);
        Node *Fresh = new Node{{}, I};
        G.init(&Fresh->Hdr);
        if (Node *Old = Shared.exchange(Fresh))
          G.retire(&Old->Hdr);
        if (lfsmr::protected_ptr<Node> P = G.protect(Shared, 0))
          check(P->Value <= 2000, "intrusive node value in range");
      }
    });
  for (auto &T : Threads)
    T.join();
  {
    auto G = Dom.enter(0);
    if (Node *Last = Shared.exchange(nullptr))
      G.retire(&Last->Hdr);
  }
  const lfsmr::memory_stats MS = Dom.stats();
  check(MS.allocated == 4000 && MS.retired == 4000,
        "hp intrusive domain accounting");
}

/// Transparent mode through a typed domain: create/protect/retire with no
/// intrusive header in Payload.
template <typename Scheme> void typedDomainRoundTrip(const char *Name) {
  lfsmr::config Cfg;
  Cfg.MaxThreads = 4;
  lfsmr::domain<Scheme> Dom(Cfg);
  std::atomic<Payload *> Shared{nullptr};

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 2; ++T)
    Threads.emplace_back([&, T] {
      for (uint64_t I = 0; I < 2000; ++I) {
        auto G = Dom.enter(T);
        Payload *Fresh = G.template create<Payload>(I);
        if (Payload *Old = Shared.exchange(Fresh))
          G.retire(Old);
        if (lfsmr::protected_ptr<Payload> P = G.protect(Shared))
          check(P->Value <= 2000, "payload value in range");
      }
    });
  for (auto &T : Threads)
    T.join();
  {
    auto G = Dom.enter(0);
    if (Payload *Last = Shared.exchange(nullptr))
      G.retire(Last);
  }
  const lfsmr::memory_stats MS = Dom.stats();
  check(MS.allocated == 4000, Name);
  check(MS.retired == 4000, "typed domain: everything retired");
}

/// Runtime scheme selection through any_domain, including the
/// custom-deleter retire path.
void anyDomainRoundTrip() {
  check(lfsmr::any_domain::is_scheme("hyalines"), "hyalines is a scheme");
  check(!lfsmr::any_domain::is_scheme("nope"), "unknown name rejected");
  check(lfsmr::any_domain::scheme_names().size() >= 9,
        "full transparent lineup constructible");
  check(!lfsmr::any_domain::is_scheme("hp"),
        "hp excluded from the transparent lineup");
  // HP protects published addresses; a transparent any_domain over it
  // would free protected objects, so construction must refuse.
  bool HpRefused = false;
  try {
    lfsmr::any_domain Bad("hp");
  } catch (const std::invalid_argument &) {
    HpRefused = true;
  }
  check(HpRefused, "any_domain(\"hp\") throws invalid_argument");

  static std::atomic<int> CustomDeletes{0};
  for (const std::string &Name : lfsmr::any_domain::scheme_names()) {
    lfsmr::config Cfg;
    Cfg.MaxThreads = 2;
    lfsmr::any_domain Dom(Name, Cfg);
    std::atomic<Payload *> Shared{nullptr};
    {
      auto G = Dom.enter(0);
      Shared.store(G.create<Payload>(41));
      lfsmr::protected_ptr<Payload> P = G.protect(Shared);
      check(P && P->Value == 41, "any_domain protect sees the payload");
      G.retire(Shared.exchange(G.create<Payload>(42)),
               +[](Payload *P2) { // NOLINT: exercised deleter
                 CustomDeletes.fetch_add(P2->Value == 41);
               });
      G.retire(Shared.exchange(nullptr));
    }
    check(Dom.stats().retired == 2, Name.c_str());
  }
  // Destroying each domain reclaims everything still pending, so the
  // custom deleter must have run exactly once per scheme ("nomm" never
  // frees while it runs, but frees its retired nodes at teardown).
  check(CustomDeletes == (int)lfsmr::any_domain::scheme_names().size(),
        "custom deleter ran once per scheme");
}

/// The versioned KV store from the installed package: snapshot
/// isolation, write-side version trim, and the HP intrusive mode — the
/// whole subsystem must work against `<lfsmr/kv.h>` alone.
template <typename Scheme> void kvRoundTrip(const char *Name) {
  lfsmr::kv::options Opt;
  Opt.Reclaim.MaxThreads = 4;
  Opt.Shards = 2;
  Opt.BucketsPerShard = 64;
  lfsmr::kv::store<Scheme> Db(Opt);

  check(Db.put(0, 1, 10), "kv: first put inserts");
  lfsmr::kv::snapshot Snap = Db.open_snapshot();
  check(!Db.put(0, 1, 20), "kv: second put replaces");
  const std::optional<uint64_t> Latest = Db.get(0, 1);
  const std::optional<uint64_t> AtSnap = Db.get(0, 1, Snap);
  check(Latest && *Latest == 20, "kv: latest read sees the newest version");
  check(AtSnap && *AtSnap == 10, "kv: snapshot read sees its version");
  check(Db.erase(0, 1), "kv: erase removes the live binding");
  check(!Db.get(0, 1).has_value(), "kv: erased key reads absent");
  check(Db.get(0, 1, Snap).has_value(), "kv: snapshot outlives the erase");
  Snap.reset();

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 2; ++T)
    Threads.emplace_back([&, T] {
      for (uint64_t I = 0; I < 1500; ++I) {
        const uint64_t K = (T * 1500) + (I % 50);
        Db.put(T, K, K * 2);
        if (lfsmr::kv::snapshot S = Db.open_snapshot(); true) {
          const std::optional<uint64_t> A = Db.get(T, K, S);
          const std::optional<uint64_t> B = Db.get(T, K, S);
          check(A == B, "kv: snapshot reads repeat");
        }
      }
    });
  for (auto &T : Threads)
    T.join();
  for (uint64_t K = 0; K < 3050; ++K)
    Db.erase(0, K);
  Db.compact(0);
  const lfsmr::memory_stats MS = Db.stats();
  check(MS.allocated == MS.retired, Name);
  check(Db.live_snapshots() == 0, "kv: all snapshots released");
}

/// The typed store from the installed package: string keys/values
/// (variable-size codec records), snapshot-consistent prefix scans, and
/// cooperative bucket growth — all against `<lfsmr/kv.h>` alone.
template <typename Scheme> void kvStringRoundTrip(const char *Name) {
  lfsmr::kv::options Opt;
  Opt.Reclaim.MaxThreads = 2;
  Opt.Shards = 2;
  Opt.BucketsPerShard = 2; // tiny: growth must trigger below
  Opt.MaxLoadFactor = 2;
  lfsmr::kv::store<Scheme, std::string, std::string> Db(Opt);

  for (int I = 0; I < 300; ++I)
    Db.put(0, "item/" + std::to_string(I), "v" + std::to_string(I));
  lfsmr::kv::snapshot Snap = Db.open_snapshot();
  Db.put(0, "item/7", "overwritten-after-snapshot");
  Db.put(0, "other/1", "x");

  const std::optional<std::string> At = Db.get(0, std::string("item/7"), Snap);
  check(At && *At == "v7", "kv-str: snapshot read sees its version");
  std::size_t Cut = 0;
  Db.scan_prefix(0, Snap, "item/",
                 [&](std::string_view, std::string_view) { ++Cut; });
  check(Cut == 300, "kv-str: prefix scan sees exactly the snapshot cut");
  Snap.reset();

  bool Grew = false;
  for (std::size_t S = 0; S < Db.shards(); ++S)
    Grew = Grew || Db.buckets(S) > 2;
  check(Grew, Name);
}

/// Atomic multi-key transactions from the installed package: buffered
/// writes with read-your-writes, one-stamp atomic visibility,
/// first-writer-wins aborts, and the single-key CAS/merge fast path —
/// all against `<lfsmr/kv.h>` alone (transparent and intrusive modes).
template <typename Scheme> void kvTxnRoundTrip(const char *Name) {
  lfsmr::kv::options Opt;
  Opt.Reclaim.MaxThreads = 2;
  Opt.Shards = 2;
  Opt.BucketsPerShard = 64;
  lfsmr::kv::store<Scheme> Db(Opt);

  Db.put(0, 1, 100);
  Db.put(0, 2, 200);

  lfsmr::kv::snapshot Before = Db.open_snapshot();
  auto Txn = Db.begin_transaction();
  const std::optional<uint64_t> A = Txn.get(0, 1);
  check(A && *A == 100, "txn: snapshot read through the transaction");
  Txn.put(1, *A - 50);
  Txn.put(2, 250);
  const std::optional<uint64_t> Buffered = Txn.get(0, 1);
  check(Buffered && *Buffered == 50, "txn: read-your-writes");
  check(Db.get(0, 1).value_or(0) == 100, "txn: buffer invisible pre-commit");
  check(Txn.commit(0), "txn: unconflicted commit succeeds");
  check(Db.get(0, 1).value_or(0) == 50 && Db.get(0, 2).value_or(0) == 250,
        "txn: both writes landed");
  check(Db.get(0, 1, Before).value_or(0) == 100 &&
            Db.get(0, 2, Before).value_or(0) == 200,
        "txn: pre-commit snapshot sees neither write");
  Before.reset();

  auto Doomed = Db.begin_transaction();
  Doomed.put(1, 7);
  Doomed.put(3, 8);
  Db.put(0, 1, 60); // the conflicting first writer
  check(!Doomed.commit(0), "txn: conflicting commit aborts");
  check(Db.get(0, 1).value_or(0) == 60 && !Db.get(0, 3).has_value(),
        "txn: aborted commit applied nothing");

  check(Db.compare_and_set(0, 1, 60, 61), "txn: matching cas succeeds");
  check(!Db.compare_and_set(0, 1, 60, 62), "txn: stale cas fails");
  check(Db.merge(0, 9, [](std::optional<uint64_t> Cur) {
          return Cur.value_or(0) + 5;
        }) == 5,
        Name);
}

/// The telemetry surface from the installed package: typed stats
/// snapshots off a live store plus the JSON / Prometheus exposition —
/// `<lfsmr/telemetry.h>` must round-trip through the install prefix
/// whatever LFSMR_TELEMETRY configuration the library was built with
/// (the compile definition travels on the exported target).
void telemetryRoundTrip() {
  lfsmr::kv::options Opt;
  Opt.Reclaim.MaxThreads = 2;
  lfsmr::kv::store<lfsmr::schemes::hyaline_s> Db(Opt);
  for (uint64_t K = 0; K < 512; ++K)
    Db.put(0, K, K);
  for (uint64_t K = 0; K < 512; K += 2)
    Db.put(1, K, K * 2); // overwrites retire the old versions
  {
    lfsmr::kv::snapshot S = Db.open_snapshot();
    check(Db.get(0, 3, S).value_or(0) == 3, "telemetry: snapshot read");
  }

  const lfsmr::telemetry::store_stats St = Db.stats();
  check(St.retired <= St.allocated, "telemetry: retired <= allocated");
  check(St.unreclaimed == St.retired - St.freed,
        "telemetry: unreclaimed == retired - freed");
  check(St.live_snapshots == 0, "telemetry: snapshots all released");

  const std::string J = lfsmr::telemetry::to_json(St);
  check(J.find("\"unreclaimed\"") != std::string::npos,
        "telemetry: JSON exposition carries the accounting");
  const std::string P = lfsmr::telemetry::to_prometheus(St, "consumer");
  check(P.find("consumer_retired_total") != std::string::npos,
        "telemetry: Prometheus exposition carries the accounting");
  check(lfsmr::telemetry::drain_trace_json().front() == '[',
        "telemetry: trace drain is a JSON array in every build config");

  const lfsmr::telemetry::domain_stats DS = Db.domain().stats();
  check(DS.allocated == St.allocated,
        "telemetry: domain subset matches the store snapshot");
}

/// A public container over an installed scheme alias.
void containerRoundTrip() {
  lfsmr::config Cfg;
  Cfg.MaxThreads = 2;
  lfsmr::michael_hashmap<lfsmr::schemes::hyaline_s> Map(Cfg, 1024);
  for (uint64_t K = 0; K < 500; ++K)
    Map.put(0, K, K + 1);
  for (uint64_t K = 0; K < 500; K += 2)
    Map.remove(1, K);
  std::size_t Live = 0;
  for (uint64_t K = 0; K < 500; ++K)
    Live += Map.get(0, K).has_value();
  check(Live == 250, "hashmap holds the odd keys");
  check(Map.domain().stats().retired >= 250, "hashmap retired the evens");
}

} // namespace

int main() {
  std::printf("lfsmr consumer smoke, library version %s\n", lfsmr::version);
  typedDomainRoundTrip<lfsmr::schemes::hyaline>("hyaline typed domain");
  typedDomainRoundTrip<lfsmr::schemes::hyaline_s>("hyaline-s typed domain");
  typedDomainRoundTrip<lfsmr::schemes::epoch>("epoch typed domain");
  typedDomainRoundTrip<lfsmr::schemes::hazard_eras>("he typed domain");
  intrusiveDomainRoundTrip();
  anyDomainRoundTrip();
  containerRoundTrip();
  telemetryRoundTrip();
  kvRoundTrip<lfsmr::schemes::hyaline_s>("kv store accounting (hyaline-s)");
  kvRoundTrip<lfsmr::schemes::hazard_pointers>(
      "kv store accounting (hp, intrusive mode)");
  kvStringRoundTrip<lfsmr::schemes::hyaline_s>(
      "kv string store grew its buckets (hyaline-s)");
  kvStringRoundTrip<lfsmr::schemes::hazard_pointers>(
      "kv string store grew its buckets (hp, intrusive mode)");
  kvTxnRoundTrip<lfsmr::schemes::hyaline_s>(
      "kv txn merge upserts (hyaline-s)");
  kvTxnRoundTrip<lfsmr::schemes::hazard_pointers>(
      "kv txn merge upserts (hp, intrusive mode)");
  if (Failures) {
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("all consumer checks passed\n");
  return 0;
}
