//===- tests/test_telemetry.cpp - Telemetry subsystem unit tests ----------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
//
// The hot-path primitives (striped Counter, log-bucketed Histogram,
// Sampler gate, TraceRing) plus the public exposition surface
// (to_json / to_prometheus / drain_trace_json). The same binary builds
// under both telemetry configurations: LFSMR_TELEMETRY=ON exercises
// real recording, OFF verifies the no-op stand-ins read zero and —
// statically — carry zero per-op state.
//
//===----------------------------------------------------------------------===//

#include "lfsmr/telemetry.h"
#include "support/telemetry.h"
#include "support/trace.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

using namespace lfsmr;

//===----------------------------------------------------------------------===
// Compile-time cost contract: disabled telemetry must be free.

#if LFSMR_TELEMETRY_ENABLED
static_assert(sizeof(telemetry::Counter) ==
                  telemetry::Counter::NumShards * sizeof(CachePadded<
                      std::atomic<std::uint64_t>>),
              "Counter is exactly its cache-padded shard array");
#else
// The ISSUE-level guarantee: an LFSMR_TELEMETRY=OFF build carries zero
// per-op telemetry state — the stand-ins are empty types, so any object
// embedding them (stores, registries, shard indexes) pays nothing.
static_assert(std::is_empty_v<telemetry::Counter>,
              "disabled Counter holds no state");
static_assert(std::is_empty_v<telemetry::Histogram>,
              "disabled Histogram holds no state");
static_assert(std::is_empty_v<telemetry::Sampler>,
              "disabled Sampler holds no state");
#endif

//===----------------------------------------------------------------------===
// Counter

TEST(TelemetryCounter, ConcurrentExactness) {
  telemetry::Counter C;
  constexpr unsigned Threads = 8;
  constexpr std::uint64_t PerThread = 20000;
  std::vector<std::thread> Ws;
  for (unsigned T = 0; T < Threads; ++T)
    Ws.emplace_back([&C] {
      for (std::uint64_t I = 0; I < PerThread; ++I)
        C.add();
    });
  for (std::thread &W : Ws)
    W.join();
#if LFSMR_TELEMETRY_ENABLED
  EXPECT_EQ(C.total(), Threads * PerThread);
#else
  EXPECT_EQ(C.total(), 0u);
#endif
}

TEST(TelemetryCounter, WeightedAddAndReset) {
  telemetry::Counter C;
  C.add(5);
  C.add(7);
#if LFSMR_TELEMETRY_ENABLED
  EXPECT_EQ(C.total(), 12u);
#endif
  C.reset();
  EXPECT_EQ(C.total(), 0u);
}

//===----------------------------------------------------------------------===
// Histogram

#if LFSMR_TELEMETRY_ENABLED

TEST(TelemetryHistogram, BucketInvariants) {
  // Values below 16 land in exact buckets; above, the bucket's bounds
  // must bracket the value and the midpoint must sit inside them.
  for (std::uint64_t V : {0ull, 1ull, 15ull, 16ull, 17ull, 100ull, 1000ull,
                          123456789ull, ~0ull >> 1, ~0ull}) {
    const unsigned B = telemetry::Histogram::bucketOf(V);
    EXPECT_LE(telemetry::Histogram::bucketLow(B), V);
    if (B + 1 < telemetry::Histogram::NumBuckets) {
      EXPECT_LT(V, telemetry::Histogram::bucketLow(B + 1));
    }
    EXPECT_GE(telemetry::Histogram::bucketMid(B),
              telemetry::Histogram::bucketLow(B));
  }
  for (std::uint64_t V = 0; V < 16; ++V)
    EXPECT_EQ(telemetry::Histogram::bucketOf(V), V);
}

TEST(TelemetryHistogram, PercentileSanity) {
  // Uniform 1..1000: quantiles must land within the histogram's ~6%
  // relative resolution of the exact answers.
  telemetry::Histogram H;
  for (std::uint64_t V = 1; V <= 1000; ++V)
    H.record(V);
  const telemetry::histogram_summary S = H.summarize();
  EXPECT_EQ(S.count, 1000u);
  EXPECT_NEAR(S.mean, 500.5, 500.5 * 0.07);
  EXPECT_NEAR(S.p50, 500.0, 500.0 * 0.08);
  EXPECT_NEAR(S.p90, 900.0, 900.0 * 0.08);
  EXPECT_NEAR(S.p99, 990.0, 990.0 * 0.08);
  EXPECT_LE(S.p50, S.p90);
  EXPECT_LE(S.p90, S.p99);
  EXPECT_LE(S.p99, S.max);
  EXPECT_NEAR(S.max, 1000.0, 1000.0 * 0.07);
}

TEST(TelemetryHistogram, BimodalTail) {
  // 99 fast ops and one slow outlier: p50 tracks the mode, max the
  // outlier — the shape the latency panels rely on.
  telemetry::Histogram H;
  for (int I = 0; I < 99; ++I)
    H.record(100);
  H.record(1000000);
  const telemetry::histogram_summary S = H.summarize();
  EXPECT_NEAR(S.p50, 100.0, 100.0 * 0.07);
  EXPECT_GE(S.max, 900000.0);
}

TEST(TelemetryHistogram, ConcurrentCount) {
  telemetry::Histogram H;
  constexpr unsigned Threads = 8;
  constexpr std::uint64_t PerThread = 10000;
  std::vector<std::thread> Ws;
  for (unsigned T = 0; T < Threads; ++T)
    Ws.emplace_back([&H, T] {
      for (std::uint64_t I = 0; I < PerThread; ++I)
        H.record(T * 1000 + I % 512);
    });
  for (std::thread &W : Ws)
    W.join();
  EXPECT_EQ(H.summarize().count, Threads * PerThread);
}

TEST(TelemetrySampler, Stride) {
  telemetry::Sampler S;
  unsigned Hits = 0;
  for (unsigned I = 0; I < 64; ++I)
    if (S.tick(16))
      ++Hits;
  EXPECT_EQ(Hits, 4u);
}

#else // !LFSMR_TELEMETRY_ENABLED

TEST(TelemetryHistogram, DisabledReadsEmpty) {
  telemetry::Histogram H;
  H.record(123);
  const telemetry::histogram_summary S = H.summarize();
  EXPECT_EQ(S.count, 0u);
  EXPECT_EQ(S.max, 0.0);
}

TEST(TelemetrySampler, DisabledNeverTicks) {
  telemetry::Sampler S;
  for (unsigned I = 0; I < 256; ++I)
    EXPECT_FALSE(S.tick(2));
}

#endif // LFSMR_TELEMETRY_ENABLED

TEST(TelemetryHistogram, EmptySummaryIsZero) {
  telemetry::Histogram H;
  const telemetry::histogram_summary S = H.summarize();
  EXPECT_EQ(S.count, 0u);
  EXPECT_EQ(S.mean, 0.0);
  EXPECT_EQ(S.p50, 0.0);
  EXPECT_EQ(S.p99, 0.0);
  EXPECT_EQ(S.max, 0.0);
}

//===----------------------------------------------------------------------===
// TraceRing (compiled in both configurations)

TEST(TelemetryTraceRing, CapacityRoundsUp) {
  telemetry::TraceRing R(5);
  EXPECT_EQ(R.capacity(), 8u);
  EXPECT_EQ(telemetry::TraceRing(0).capacity(), 1u);
}

TEST(TelemetryTraceRing, WraparoundKeepsNewest) {
  telemetry::TraceRing R(8);
  for (std::uint64_t I = 0; I < 20; ++I)
    R.push(telemetry::TraceEvent::Retire, I);
  EXPECT_EQ(R.capacity(), 8u);
  EXPECT_EQ(R.size(), 8u);
  EXPECT_EQ(R.pushed(), 20u);
  // Drain visits the surviving (newest capacity()) records oldest
  // first: seqs 12..19, args matching.
  std::vector<std::uint64_t> Seqs;
  R.drain([&](const telemetry::TraceRecord &Rec) {
    EXPECT_EQ(Rec.Event, telemetry::TraceEvent::Retire);
    EXPECT_EQ(Rec.Arg, Rec.Seq);
    Seqs.push_back(Rec.Seq);
  });
  ASSERT_EQ(Seqs.size(), 8u);
  for (std::size_t I = 0; I < 8; ++I)
    EXPECT_EQ(Seqs[I], 12 + I);
}

TEST(TelemetryTraceRing, ClearForgetsRecords) {
  telemetry::TraceRing R(4);
  R.push(telemetry::TraceEvent::Reclaim, 1);
  R.clear();
  EXPECT_EQ(R.size(), 0u);
  std::size_t Visited = 0;
  R.drain([&](const telemetry::TraceRecord &) { ++Visited; });
  EXPECT_EQ(Visited, 0u);
}

TEST(TelemetryTrace, EventNamesCoverTaxonomy) {
  using telemetry::TraceEvent;
  EXPECT_STREQ(telemetry::traceEventName(TraceEvent::Retire), "retire");
  EXPECT_STREQ(telemetry::traceEventName(TraceEvent::Reclaim), "reclaim");
  EXPECT_STREQ(telemetry::traceEventName(TraceEvent::EraAdvance),
               "era-advance");
  EXPECT_STREQ(telemetry::traceEventName(TraceEvent::SlowAcquire),
               "slow-acquire");
  EXPECT_STREQ(telemetry::traceEventName(TraceEvent::CommitAbort),
               "commit-abort");
}

//===----------------------------------------------------------------------===
// Public exposition surface

namespace {

telemetry::store_stats sampleStats() {
  telemetry::store_stats St;
  St.allocated = 100;
  St.retired = 80;
  St.freed = 70;
  St.unreclaimed = 10;
  St.era = 7;
  St.version_clock = 42;
  St.live_snapshots = 1;
  St.snapshot_slots = 8;
  St.slow_acquires = 3;
  St.fast_rejects = 2;
  St.index_resizes = 1;
  St.txn_commits = 5;
  St.txn_aborts = 1;
  St.node_bytes = 131072;
  St.snapshot_open_ns = {4, 50.0, 40.0, 60.0, 80.0, 90.0};
  return St;
}

} // namespace

TEST(TelemetryExport, JsonCarriesEveryField) {
  const std::string J = telemetry::to_json(sampleStats());
  for (const char *Key :
       {"\"allocated\"", "\"retired\"", "\"freed\"", "\"unreclaimed\"",
        "\"era\"", "\"version_clock\"", "\"live_snapshots\"",
        "\"snapshot_slots\"", "\"slow_acquires\"", "\"fast_rejects\"",
        "\"index_resizes\"", "\"txn_commits\"", "\"txn_aborts\"",
        "\"snapshot_open_ns\"", "\"trim_walk_len\"", "\"txn_commit_ns\"",
        "\"node_bytes\""})
    EXPECT_NE(J.find(Key), std::string::npos) << Key << " missing in " << J;
  EXPECT_NE(J.find("\"version_clock\": 42"), std::string::npos) << J;
  EXPECT_NE(J.find("\"node_bytes\": 131072"), std::string::npos) << J;
}

TEST(TelemetryExport, DomainJsonIsSubset) {
  telemetry::domain_stats D;
  D.allocated = 3;
  D.era = 9;
  const std::string J = telemetry::to_json(D);
  EXPECT_NE(J.find("\"era\": 9"), std::string::npos) << J;
  EXPECT_EQ(J.find("version_clock"), std::string::npos) << J;
}

TEST(TelemetryExport, PrometheusExposition) {
  const std::string P = telemetry::to_prometheus(sampleStats(), "kvtest");
  EXPECT_NE(P.find("# TYPE kvtest_retired_total counter"),
            std::string::npos)
      << P;
  EXPECT_NE(P.find("kvtest_retired_total 80"), std::string::npos) << P;
  EXPECT_NE(P.find("kvtest_unreclaimed 10"), std::string::npos) << P;
  EXPECT_NE(P.find("# TYPE kvtest_node_bytes gauge"), std::string::npos) << P;
  EXPECT_NE(P.find("kvtest_node_bytes 131072"), std::string::npos) << P;
  // Histogram summaries export as quantile gauges.
  EXPECT_NE(P.find("quantile=\"0.5\""), std::string::npos) << P;
}

/// Every scalar and every histogram summary set, each to its own value.
telemetry::store_stats fullStats() {
  telemetry::store_stats St = sampleStats();
  St.async_submits = 11;
  St.combiner_takeovers = 12;
  St.sync_fallbacks = 13;
  St.trim_walk_len = {9, 3.5, 2.0, 6.0, 8.0, 15.0};
  St.txn_commit_ns = {5, 1250.25, 1024.0, 2048.0, 3072.0, 4096.0};
  St.submit_batch_len = {7, 64.5, 64.0, 120.0, 250.0, 256.0};
  return St;
}

// The whole JSON document and Prometheus text, byte for byte: both
// writers render from one field table, and this pins its order, names,
// types and help texts.
TEST(TelemetryExport, FullStoreStatsRenderVerbatim) {
  EXPECT_EQ(telemetry::to_json(fullStats()), R"({
  "allocated": 100,
  "retired": 80,
  "freed": 70,
  "unreclaimed": 10,
  "era": 7,
  "version_clock": 42,
  "live_snapshots": 1,
  "snapshot_slots": 8,
  "slow_acquires": 3,
  "fast_rejects": 2,
  "index_resizes": 1,
  "txn_commits": 5,
  "txn_aborts": 1,
  "async_submits": 11,
  "combiner_takeovers": 12,
  "sync_fallbacks": 13,
  "node_bytes": 131072,
  "snapshot_open_ns": {
    "count": 4,
    "mean": 50,
    "p50": 40,
    "p90": 60,
    "p99": 80,
    "max": 90
  },
  "trim_walk_len": {
    "count": 9,
    "mean": 3.5,
    "p50": 2,
    "p90": 6,
    "p99": 8,
    "max": 15
  },
  "txn_commit_ns": {
    "count": 5,
    "mean": 1250.25,
    "p50": 1024,
    "p90": 2048,
    "p99": 3072,
    "max": 4096
  },
  "submit_batch_len": {
    "count": 7,
    "mean": 64.5,
    "p50": 64,
    "p90": 120,
    "p99": 250,
    "max": 256
  }
}
)");
  EXPECT_EQ(telemetry::to_prometheus(fullStats(), "kv"), R"(# HELP kv_allocated_total Nodes allocated through the domain.
# TYPE kv_allocated_total counter
kv_allocated_total 100
# HELP kv_retired_total Nodes retired so far.
# TYPE kv_retired_total counter
kv_retired_total 80
# HELP kv_freed_total Nodes handed back to the deleter.
# TYPE kv_freed_total counter
kv_freed_total 70
# HELP kv_unreclaimed Retired but not yet reclaimed nodes.
# TYPE kv_unreclaimed gauge
kv_unreclaimed 10
# HELP kv_era The scheme's global era/epoch clock (0: none).
# TYPE kv_era gauge
kv_era 7
# HELP kv_version_clock Current version clock.
# TYPE kv_version_clock gauge
kv_version_clock 42
# HELP kv_live_snapshots Live snapshot references.
# TYPE kv_live_snapshots gauge
kv_live_snapshots 1
# HELP kv_snapshot_slots Snapshot slot capacity.
# TYPE kv_snapshot_slots gauge
kv_snapshot_slots 8
# HELP kv_slow_acquires_total Snapshot opens that fell off the one-RMW fast path.
# TYPE kv_slow_acquires_total counter
kv_slow_acquires_total 3
# HELP kv_fast_rejects_total Fast-path snapshot opens undone after failed verification.
# TYPE kv_fast_rejects_total counter
kv_fast_rejects_total 2
# HELP kv_index_resizes_total Cooperative bucket-directory doubling triggers.
# TYPE kv_index_resizes_total counter
kv_index_resizes_total 1
# HELP kv_txn_commits_total Transactional commits that published.
# TYPE kv_txn_commits_total counter
kv_txn_commits_total 5
# HELP kv_txn_aborts_total Transactional commits aborted on conflict or kill.
# TYPE kv_txn_aborts_total counter
kv_txn_aborts_total 1
# HELP kv_async_submits_total Write ops submitted through the async batched write path.
# TYPE kv_async_submits_total counter
kv_async_submits_total 11
# HELP kv_combiner_takeovers_total Flat-combining lock acquisitions that drained a submission ring.
# TYPE kv_combiner_takeovers_total counter
kv_combiner_takeovers_total 12
# HELP kv_sync_fallbacks_total Async submits that hit a full ring and applied synchronously.
# TYPE kv_sync_fallbacks_total counter
kv_sync_fallbacks_total 13
# HELP kv_node_bytes Bytes of node-pool chunks the store holds.
# TYPE kv_node_bytes gauge
kv_node_bytes 131072
# HELP kv_snapshot_open_ns Sampled open_snapshot latency (ns).
# TYPE kv_snapshot_open_ns summary
kv_snapshot_open_ns{quantile="0.5"} 40
kv_snapshot_open_ns{quantile="0.9"} 60
kv_snapshot_open_ns{quantile="0.99"} 80
kv_snapshot_open_ns_count 4
# HELP kv_trim_walk_len Version-chain nodes visited per trim walk.
# TYPE kv_trim_walk_len summary
kv_trim_walk_len{quantile="0.5"} 2
kv_trim_walk_len{quantile="0.9"} 6
kv_trim_walk_len{quantile="0.99"} 8
kv_trim_walk_len_count 9
# HELP kv_txn_commit_ns Sampled transactional commit latency (ns).
# TYPE kv_txn_commit_ns summary
kv_txn_commit_ns{quantile="0.5"} 1024
kv_txn_commit_ns{quantile="0.9"} 2048
kv_txn_commit_ns{quantile="0.99"} 3072
kv_txn_commit_ns_count 5
# HELP kv_submit_batch_len Requests applied per async combined batch.
# TYPE kv_submit_batch_len summary
kv_submit_batch_len{quantile="0.5"} 64
kv_submit_batch_len{quantile="0.9"} 120
kv_submit_batch_len{quantile="0.99"} 250
kv_submit_batch_len_count 7
)");
}

TEST(TelemetryExport, TraceDrainShape) {
  // With tracing compiled out (the default) the drain is an empty JSON
  // array; with it compiled in, it is a JSON array either way.
  const std::string T = telemetry::drain_trace_json();
  ASSERT_FALSE(T.empty());
  EXPECT_EQ(T.front(), '[');
  if (!telemetry::trace_enabled()) {
    EXPECT_EQ(T, "[]");
  }
}
