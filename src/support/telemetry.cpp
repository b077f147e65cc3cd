//===- support/telemetry.cpp - Runtime reclamation observability ----------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "support/telemetry.h"

#include "support/json.h"

#include <cstdio>
#include <iterator>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

using namespace lfsmr;
using namespace lfsmr::telemetry;

//===----------------------------------------------------------------------===//
// Histogram (compiled only when telemetry is enabled)
//===----------------------------------------------------------------------===//

#if LFSMR_TELEMETRY_ENABLED

histogram_summary Histogram::summarize() const {
  std::uint64_t Counts[NumBuckets];
  std::uint64_t Total = 0;
  unsigned Top = 0;
  for (unsigned I = 0; I < NumBuckets; ++I) {
    Counts[I] = Cells[I].load(std::memory_order_relaxed);
    Total += Counts[I];
    if (Counts[I])
      Top = I;
  }
  histogram_summary S;
  if (!Total)
    return S;
  S.count = Total;

  double WeightedSum = 0;
  for (unsigned I = 0; I <= Top; ++I)
    if (Counts[I])
      WeightedSum += static_cast<double>(Counts[I]) *
                     static_cast<double>(bucketMid(I));
  S.mean = WeightedSum / static_cast<double>(Total);

  // Quantiles by cumulative walk; each reported value is the containing
  // bucket's midpoint. The exact buckets (< 16) report themselves.
  const auto Quantile = [&](double Q) -> double {
    const std::uint64_t Rank =
        static_cast<std::uint64_t>(Q * static_cast<double>(Total - 1));
    std::uint64_t Seen = 0;
    for (unsigned I = 0; I <= Top; ++I) {
      Seen += Counts[I];
      if (Seen > Rank)
        return static_cast<double>(bucketMid(I));
    }
    return static_cast<double>(bucketMid(Top));
  };
  S.p50 = Quantile(0.50);
  S.p90 = Quantile(0.90);
  S.p99 = Quantile(0.99);
  // Upper bound of the highest occupied bucket: its low edge plus width
  // (summed in double — the topmost bucket's upper edge is 2^64).
  if (Top < Subs) {
    S.max = static_cast<double>(Top);
  } else {
    const unsigned Lg = Top / Subs + SubBits - 1;
    S.max = static_cast<double>(bucketLow(Top)) +
            static_cast<double>(std::uint64_t{1} << (Lg - SubBits));
  }
  return S;
}

#endif // LFSMR_TELEMETRY_ENABLED

//===----------------------------------------------------------------------===//
// Trace rings
//===----------------------------------------------------------------------===//

const char *telemetry::traceEventName(TraceEvent E) {
  switch (E) {
  case TraceEvent::Retire:
    return "retire";
  case TraceEvent::Reclaim:
    return "reclaim";
  case TraceEvent::EraAdvance:
    return "era-advance";
  case TraceEvent::SlowAcquire:
    return "slow-acquire";
  case TraceEvent::CommitAbort:
    return "commit-abort";
  }
  return "?";
}

namespace {

/// The process-wide sink: every thread's ring, registered on first
/// emission and kept alive past thread exit so a post-mortem drain sees
/// the full picture. Only the registry list is locked — pushes go to the
/// thread-local ring unsynchronized, which is why `drain_trace_json`
/// demands quiescence.
struct TraceSink {
  std::mutex M;
  std::vector<std::shared_ptr<TraceRing>> Rings;

  static TraceSink &get() {
    static TraceSink S;
    return S;
  }

  std::shared_ptr<TraceRing> adopt() {
    auto R = std::make_shared<TraceRing>();
    std::lock_guard<std::mutex> L(M);
    Rings.push_back(R);
    return R;
  }
};

TraceRing &threadRing() {
  static thread_local const std::shared_ptr<TraceRing> R =
      TraceSink::get().adopt();
  return *R;
}

} // namespace

void telemetry::traceEmit(TraceEvent E, unsigned long long Arg) {
  threadRing().push(E, Arg);
}

bool telemetry::trace_enabled() {
#if defined(LFSMR_TELEMETRY_TRACE) && LFSMR_TELEMETRY_ENABLED
  return true;
#else
  return false;
#endif
}

std::string telemetry::drain_trace_json() {
  if (!trace_enabled())
    return "[]";
  json::Writer W;
  W.beginArray();
  TraceSink &Sink = TraceSink::get();
  std::lock_guard<std::mutex> L(Sink.M);
  std::size_t Tid = 0;
  for (const auto &R : Sink.Rings) {
    R->drain([&](const TraceRecord &Rec) {
      W.beginObject();
      W.key("thread").value(static_cast<std::uint64_t>(Tid));
      W.key("seq").value(Rec.Seq);
      W.key("event").value(traceEventName(Rec.Event));
      W.key("arg").value(Rec.Arg);
      W.endObject();
    });
    R->clear();
    ++Tid;
  }
  W.endArray();
  return W.take();
}

//===----------------------------------------------------------------------===//
// JSON / Prometheus rendering of the snapshot types
//===----------------------------------------------------------------------===//

namespace {

/// One field of the stats snapshots, in output order: its JSON key, the
/// member, its Prometheus type (a counter's family name adds `_total`)
/// and HELP text. The first `DomainFields` are `domain_stats`'s.
struct Field {
  const char *Key;
  std::variant<std::int64_t store_stats::*, std::uint64_t store_stats::*,
               histogram_summary store_stats::*>
      Member;
  const char *Type;
  const char *Help;
};

const Field Fields[] = {
    {"allocated", &store_stats::allocated, "counter",
     "Nodes allocated through the domain."},
    {"retired", &store_stats::retired, "counter", "Nodes retired so far."},
    {"freed", &store_stats::freed, "counter",
     "Nodes handed back to the deleter."},
    {"unreclaimed", &store_stats::unreclaimed, "gauge",
     "Retired but not yet reclaimed nodes."},
    {"era", &store_stats::era, "gauge",
     "The scheme's global era/epoch clock (0: none)."},
    {"version_clock", &store_stats::version_clock, "gauge",
     "Current version clock."},
    {"live_snapshots", &store_stats::live_snapshots, "gauge",
     "Live snapshot references."},
    {"snapshot_slots", &store_stats::snapshot_slots, "gauge",
     "Snapshot slot capacity."},
    {"slow_acquires", &store_stats::slow_acquires, "counter",
     "Snapshot opens that fell off the one-RMW fast path."},
    {"fast_rejects", &store_stats::fast_rejects, "counter",
     "Fast-path snapshot opens undone after failed verification."},
    {"index_resizes", &store_stats::index_resizes, "counter",
     "Cooperative bucket-directory doubling triggers."},
    {"txn_commits", &store_stats::txn_commits, "counter",
     "Transactional commits that published."},
    {"txn_aborts", &store_stats::txn_aborts, "counter",
     "Transactional commits aborted on conflict or kill."},
    {"async_submits", &store_stats::async_submits, "counter",
     "Write ops submitted through the async batched write path."},
    {"combiner_takeovers", &store_stats::combiner_takeovers, "counter",
     "Flat-combining lock acquisitions that drained a submission ring."},
    {"sync_fallbacks", &store_stats::sync_fallbacks, "counter",
     "Async submits that hit a full ring and applied synchronously."},
    {"node_bytes", &store_stats::node_bytes, "gauge",
     "Bytes of node-pool chunks the store holds."},
    {"snapshot_open_ns", &store_stats::snapshot_open_ns, "summary",
     "Sampled open_snapshot latency (ns)."},
    {"trim_walk_len", &store_stats::trim_walk_len, "summary",
     "Version-chain nodes visited per trim walk."},
    {"txn_commit_ns", &store_stats::txn_commit_ns, "summary",
     "Sampled transactional commit latency (ns)."},
    {"submit_batch_len", &store_stats::submit_batch_len, "summary",
     "Requests applied per async combined batch."},
};
constexpr std::size_t DomainFields = 5;

/// Calls `Fn(field, value)` for the first \p N fields of \p S, the value
/// in its member's own type.
template <typename F>
void forEachField(const store_stats &S, std::size_t N, F &&Fn) {
  for (std::size_t I = 0; I < N; ++I)
    std::visit([&](auto M) { Fn(Fields[I], S.*M); }, Fields[I].Member);
}

template <typename T>
constexpr bool IsSummary = std::is_same_v<T, histogram_summary>;

void writeFields(json::Writer &W, const store_stats &S, std::size_t N) {
  forEachField(S, N, [&](const Field &F, const auto &V) {
    W.key(F.Key);
    if constexpr (IsSummary<std::decay_t<decltype(V)>>) {
      W.beginObject();
      W.key("count").value(V.count);
      W.key("mean").value(V.mean);
      W.key("p50").value(V.p50);
      W.key("p90").value(V.p90);
      W.key("p99").value(V.p99);
      W.key("max").value(V.max);
      W.endObject();
    } else {
      W.value(V);
    }
  });
}

/// Prometheus text format (exposition format 0.0.4): one `# HELP` /
/// `# TYPE`-annotated family per field; a counter's name gets the
/// `_total` suffix by convention, and a histogram summary emits
/// quantile-labelled series plus a `_count`.
std::string promFields(const store_stats &S, std::size_t N,
                       std::string_view Prefix) {
  std::string Out;
  const auto Append = [&](const std::string &Family, const char *Labels,
                          double Value) {
    char Buf[64];
    // %.17g round-trips doubles; counters print as integers below 2^53.
    std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
    Out += Family + Labels + " " + Buf + "\n";
  };
  forEachField(S, N, [&](const Field &F, const auto &V) {
    const bool Counter = std::string_view(F.Type) == "counter";
    const std::string Family =
        std::string(Prefix) + "_" + F.Key + (Counter ? "_total" : "");
    Out += "# HELP " + Family + " " + F.Help + "\n";
    Out += "# TYPE " + Family + " " + F.Type + "\n";
    if constexpr (IsSummary<std::decay_t<decltype(V)>>) {
      Append(Family, "{quantile=\"0.5\"}", V.p50);
      Append(Family, "{quantile=\"0.9\"}", V.p90);
      Append(Family, "{quantile=\"0.99\"}", V.p99);
      Append(Family + "_count", "", static_cast<double>(V.count));
    } else {
      Append(Family, "", static_cast<double>(V));
    }
  });
  return Out;
}

/// A `domain_stats` as a `store_stats` (store fields zero), so the domain
/// renderers walk the same table.
store_stats widen(const domain_stats &D) {
  store_stats S{};
  static_cast<domain_stats &>(S) = D;
  return S;
}

template <typename Stats> std::string jsonDocument(const Stats &S) {
  json::Writer W;
  telemetry::writeJson(W, S);
  std::string Doc = W.take();
  Doc.push_back('\n');
  return Doc;
}

} // namespace

void telemetry::writeJson(json::Writer &W, const domain_stats &S) {
  W.beginObject();
  writeFields(W, widen(S), DomainFields);
  W.endObject();
}

void telemetry::writeJson(json::Writer &W, const store_stats &S) {
  W.beginObject();
  writeFields(W, S, std::size(Fields));
  W.endObject();
}

std::string telemetry::to_json(const domain_stats &S) {
  return jsonDocument(S);
}

std::string telemetry::to_json(const store_stats &S) {
  return jsonDocument(S);
}

std::string telemetry::to_prometheus(const domain_stats &S,
                                     std::string_view Prefix) {
  return promFields(widen(S), DomainFields, Prefix);
}

std::string telemetry::to_prometheus(const store_stats &S,
                                     std::string_view Prefix) {
  return promFields(S, std::size(Fields), Prefix);
}
