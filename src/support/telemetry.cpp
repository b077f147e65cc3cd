//===- support/telemetry.cpp - Runtime reclamation observability ----------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "support/telemetry.h"

#include "support/json.h"

#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

using namespace lfsmr;
using namespace lfsmr::telemetry;

//===----------------------------------------------------------------------===//
// Counter / Histogram (compiled only when telemetry is enabled)
//===----------------------------------------------------------------------===//

#if LFSMR_TELEMETRY_ENABLED

std::size_t Counter::shardIndex() {
  // Hash the thread id once per thread (the ShardedCounter idiom): the
  // shard assignment only needs to spread concurrent writers.
  static thread_local const std::size_t Index =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      Counter::NumShards;
  return Index;
}

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

void writeHistogram(json::Writer &W, const char *Key,
                    const histogram_summary &H) {
  W.key(Key).beginObject();
  W.key("count").value(H.count);
  W.key("mean").value(H.mean);
  W.key("p50").value(H.p50);
  W.key("p90").value(H.p90);
  W.key("p99").value(H.p99);
  W.key("max").value(H.max);
  W.endObject();
}

void writeDomainFields(json::Writer &W, const domain_stats &S) {
  W.key("allocated").value(static_cast<std::int64_t>(S.allocated));
  W.key("retired").value(static_cast<std::int64_t>(S.retired));
  W.key("freed").value(static_cast<std::int64_t>(S.freed));
  W.key("unreclaimed").value(static_cast<std::int64_t>(S.unreclaimed));
  W.key("era").value(S.era);
}

void writeStoreFields(json::Writer &W, const store_stats &S) {
  writeDomainFields(W, S);
  W.key("version_clock").value(S.version_clock);
  W.key("live_snapshots").value(S.live_snapshots);
  W.key("snapshot_slots").value(S.snapshot_slots);
  W.key("slow_acquires").value(S.slow_acquires);
  W.key("fast_rejects").value(S.fast_rejects);
  W.key("index_resizes").value(S.index_resizes);
  W.key("txn_commits").value(S.txn_commits);
  W.key("txn_aborts").value(S.txn_aborts);
  W.key("async_submits").value(S.async_submits);
  W.key("combiner_takeovers").value(S.combiner_takeovers);
  W.key("sync_fallbacks").value(S.sync_fallbacks);
  W.key("node_bytes").value(S.node_bytes);
  writeHistogram(W, "snapshot_open_ns", S.snapshot_open_ns);
  writeHistogram(W, "trim_walk_len", S.trim_walk_len);
  writeHistogram(W, "txn_commit_ns", S.txn_commit_ns);
  writeHistogram(W, "submit_batch_len", S.submit_batch_len);
}

/// Prometheus text-format emitter (exposition format 0.0.4). Counters
/// get a `_total` suffix per convention; histogram summaries emit
/// quantile-labelled gauge series plus a `_count`.
struct PromWriter {
  std::string Out;
  std::string Prefix;

  void family(const char *Name, const char *Help, const char *Type,
              double Value) {
    header(Name, Help, Type);
    append(Name, "", Value);
  }

  void header(const char *Name, const char *Help, const char *Type) {
    Out += "# HELP " + Prefix + "_" + Name + " " + Help + "\n";
    Out += "# TYPE " + Prefix + "_" + Name + " " + Type + "\n";
  }

  void append(const char *Name, const char *Labels, double Value) {
    char Buf[64];
    // %.17g round-trips doubles; counters print as integers below 2^53.
    std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
    Out += Prefix + "_" + Name + Labels + " " + Buf + "\n";
  }

  void summary(const char *Name, const char *Help,
               const histogram_summary &H) {
    header(Name, Help, "summary");
    append(Name, "{quantile=\"0.5\"}", H.p50);
    append(Name, "{quantile=\"0.9\"}", H.p90);
    append(Name, "{quantile=\"0.99\"}", H.p99);
    std::string CountName = std::string(Name) + "_count";
    append(CountName.c_str(), "", static_cast<double>(H.count));
  }
};

void promDomain(PromWriter &P, const domain_stats &S) {
  P.family("allocated_total", "Nodes allocated through the domain.",
           "counter", static_cast<double>(S.allocated));
  P.family("retired_total", "Nodes retired so far.", "counter",
           static_cast<double>(S.retired));
  P.family("freed_total", "Nodes handed back to the deleter.", "counter",
           static_cast<double>(S.freed));
  P.family("unreclaimed", "Retired but not yet reclaimed nodes.", "gauge",
           static_cast<double>(S.unreclaimed));
  P.family("era", "The scheme's global era/epoch clock (0: none).", "gauge",
           static_cast<double>(S.era));
}

void promStore(PromWriter &P, const store_stats &S) {
  promDomain(P, S);
  P.family("version_clock", "Current version clock.", "gauge",
           static_cast<double>(S.version_clock));
  P.family("live_snapshots", "Live snapshot references.", "gauge",
           static_cast<double>(S.live_snapshots));
  P.family("snapshot_slots", "Snapshot slot capacity.", "gauge",
           static_cast<double>(S.snapshot_slots));
  P.family("slow_acquires_total",
           "Snapshot opens that fell off the one-RMW fast path.", "counter",
           static_cast<double>(S.slow_acquires));
  P.family("fast_rejects_total",
           "Fast-path snapshot opens undone after failed verification.",
           "counter", static_cast<double>(S.fast_rejects));
  P.family("index_resizes_total",
           "Cooperative bucket-directory doubling triggers.", "counter",
           static_cast<double>(S.index_resizes));
  P.family("txn_commits_total", "Transactional commits that published.",
           "counter", static_cast<double>(S.txn_commits));
  P.family("txn_aborts_total",
           "Transactional commits aborted on conflict or kill.", "counter",
           static_cast<double>(S.txn_aborts));
  P.family("async_submits_total",
           "Write ops submitted through the async batched write path.",
           "counter", static_cast<double>(S.async_submits));
  P.family("combiner_takeovers_total",
           "Flat-combining lock acquisitions that drained a submission ring.",
           "counter", static_cast<double>(S.combiner_takeovers));
  P.family("sync_fallbacks_total",
           "Async submits that hit a full ring and applied synchronously.",
           "counter", static_cast<double>(S.sync_fallbacks));
  P.family("node_bytes", "Bytes of node-pool chunks the store holds.",
           "gauge", static_cast<double>(S.node_bytes));
  P.summary("snapshot_open_ns", "Sampled open_snapshot latency (ns).",
            S.snapshot_open_ns);
  P.summary("trim_walk_len", "Version-chain nodes visited per trim walk.",
            S.trim_walk_len);
  P.summary("txn_commit_ns", "Sampled transactional commit latency (ns).",
            S.txn_commit_ns);
  P.summary("submit_batch_len", "Requests applied per async combined batch.",
            S.submit_batch_len);
}

} // namespace

void telemetry::writeJson(json::Writer &W, const domain_stats &S) {
  W.beginObject();
  writeDomainFields(W, S);
  W.endObject();
}

void telemetry::writeJson(json::Writer &W, const store_stats &S) {
  W.beginObject();
  writeStoreFields(W, S);
  W.endObject();
}

std::string telemetry::to_json(const domain_stats &S) {
  json::Writer W;
  writeJson(W, S);
  std::string Doc = W.take();
  Doc.push_back('\n');
  return Doc;
}

std::string telemetry::to_json(const store_stats &S) {
  json::Writer W;
  writeJson(W, S);
  std::string Doc = W.take();
  Doc.push_back('\n');
  return Doc;
}

std::string telemetry::to_prometheus(const domain_stats &S,
                                     std::string_view Prefix) {
  PromWriter P{std::string(), std::string(Prefix)};
  promDomain(P, S);
  return std::move(P.Out);
}

std::string telemetry::to_prometheus(const store_stats &S,
                                     std::string_view Prefix) {
  PromWriter P{std::string(), std::string(Prefix)};
  promStore(P, S);
  return std::move(P.Out);
}
