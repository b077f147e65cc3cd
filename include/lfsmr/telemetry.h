//===- lfsmr/telemetry.h - Runtime reclamation observability -----*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `lfsmr::telemetry` — the typed stats snapshots a live domain or store
/// reports, plus their JSON and Prometheus-text renderings.
///
/// The paper's robustness claim (Theorem 5: bounded unreclaimed memory
/// past a stalled thread) is an *operational* property; this header is
/// how a running system observes it. `lfsmr::domain::stats()` and
/// `lfsmr::any_domain::stats()` return a `domain_stats`
/// (allocation/retire/free accounting plus the scheme's era clock), and
/// `lfsmr::kv::store::stats()` returns a `store_stats` layered on top
/// (version clock, live snapshots, snapshot-acquire fast-path counters,
/// index resizes, transaction outcomes, and sampled latency histograms).
/// Both derive from `lfsmr::memory_stats`, so code written against the
/// original `memory_stats stats()` surface keeps compiling unchanged.
///
/// \code
///   lfsmr::kv::store<lfsmr::schemes::hyaline_s> db;
///   ...
///   lfsmr::telemetry::store_stats st = db.stats();
///   std::fputs(lfsmr::telemetry::to_json(st).c_str(), stdout);
///   std::fputs(lfsmr::telemetry::to_prometheus(st).c_str(), stdout);
/// \endcode
///
/// Builds configured with `-DLFSMR_TELEMETRY=OFF` compile every hot-path
/// hook away to nothing: the snapshot types still exist (so this header
/// stays source-compatible), but the counter and histogram fields that a
/// disabled build cannot populate read zero. The allocation accounting
/// inherited from `memory_stats` is *not* gated — it predates telemetry
/// and the reclamation tests rely on it.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_TELEMETRY_H
#define LFSMR_TELEMETRY_H

#include "lfsmr/config.h"

#include <cstdint>
#include <string>
#include <string_view>

/// 1 when the telemetry counters/histograms are compiled in (the
/// default), 0 when the library was built with `-DLFSMR_TELEMETRY=OFF`
/// (which defines `LFSMR_TELEMETRY_DISABLED` on the exported target, so
/// consumers always agree with the library about the configuration).
#if defined(LFSMR_TELEMETRY_DISABLED)
#define LFSMR_TELEMETRY_ENABLED 0
#else
#define LFSMR_TELEMETRY_ENABLED 1
#endif

namespace lfsmr::telemetry {

/// Point-in-time summary of one log-bucketed histogram (latencies in
/// nanoseconds, or dimensionless lengths). Quantiles are computed from
/// power-of-two major buckets split into 16 linear sub-buckets, so each
/// reported value is exact to within ~6% of its magnitude. `count == 0`
/// (nothing recorded, or telemetry disabled) zeroes every field.
struct histogram_summary {
  /// Number of recorded samples.
  std::uint64_t count = 0;
  /// Mean of the recorded samples (bucket-midpoint approximation).
  double mean = 0;
  /// 50th percentile.
  double p50 = 0;
  /// 90th percentile.
  double p90 = 0;
  /// 99th percentile.
  double p99 = 0;
  /// Upper bound of the highest occupied bucket.
  double max = 0;
};

/// Stats snapshot of one reclamation domain: the allocation accounting
/// every scheme keeps (inherited `memory_stats` — the paper's Figure 12
/// metric is `unreclaimed`), plus the scheme-level observables the
/// contract's optional stats surface reports. Returned by
/// `lfsmr::domain::stats()` and `lfsmr::any_domain::stats()`; converts
/// implicitly to `memory_stats` for pre-telemetry callers.
struct domain_stats : memory_stats {
  /// The scheme's global era/epoch clock (EBR's epoch, IBR/HE's era,
  /// Hyaline-S/1S's allocation era). 0 for schemes with no such clock
  /// (Hyaline, Hyaline-1, HP, none) — era 1 is every clock's seed, so 0
  /// is unambiguous.
  std::uint64_t era = 0;
};

/// Stats snapshot of one `lfsmr::kv::store`: the domain's accounting
/// plus the store's serving-path observables. Counter fields are
/// cumulative since construction; histogram fields summarize sampled
/// recordings (see `histogram_summary`). With telemetry disabled the
/// store-level counters and histograms read zero while the inherited
/// allocation accounting stays live.
struct store_stats : domain_stats {
  /// Current version clock (the stamp the next snapshot reads at).
  std::uint64_t version_clock = 0;
  /// Live snapshot references right now (exact at quiescence).
  std::uint64_t live_snapshots = 0;
  /// Current snapshot-slot capacity (grows on demand).
  std::uint64_t snapshot_slots = 0;
  /// Snapshot opens that fell off the one-RMW fast path onto the scan.
  std::uint64_t slow_acquires = 0;
  /// Fast-path opens whose post-increment verification failed and were
  /// undone. Fast-path *successes* are deliberately not counted (a
  /// success counter would be a second shared RMW on the one-RMW open
  /// path); infer them as `opens - slow_acquires`.
  std::uint64_t fast_rejects = 0;
  /// Cooperative bucket-directory doublings across all shards (resize
  /// *triggers*: concurrent writers may both report the crossing that
  /// led to one doubling).
  std::uint64_t index_resizes = 0;
  /// Multi-key/single-key transactional commits that published.
  std::uint64_t txn_commits = 0;
  /// Transactional commits that aborted on conflict or kill.
  std::uint64_t txn_aborts = 0;
  /// Write ops submitted through the async batched write path
  /// (`kv::submitter`), whether they rode a ring or fell back to sync.
  std::uint64_t async_submits = 0;
  /// Times a thread took a shard's flat-combining lock and drained its
  /// submission ring (each takeover may apply several batches).
  std::uint64_t combiner_takeovers = 0;
  /// Async submits that found their shard's ring full and applied the
  /// op synchronously instead (backpressure events).
  std::uint64_t sync_fallbacks = 0;
  /// Bytes of node-pool chunks the store holds: live nodes, freed slots
  /// awaiting reuse, and not-yet-carved slot space. 0 when the store
  /// takes its nodes from `::operator new` (byte-string payloads,
  /// AddressSanitizer builds). Grows once per chunk, never per op, and
  /// stays live with telemetry disabled.
  std::uint64_t node_bytes = 0;
  /// Sampled latency of `open_snapshot()` in nanoseconds.
  histogram_summary snapshot_open_ns;
  /// Version-chain nodes visited per trim walk (boundary descent plus
  /// the retired suffix).
  histogram_summary trim_walk_len;
  /// Sampled latency of transactional commits in nanoseconds.
  histogram_summary txn_commit_ns;
  /// Requests applied per async combined batch (the amortization win:
  /// one guard + one stamp window per recorded value).
  histogram_summary submit_batch_len;
};

/// Renders \p S as one pretty-printed JSON object (the schema embedded in
/// `lfsmr-bench`'s `BENCH_<sha>.json` stats blocks).
std::string to_json(const domain_stats &S);

/// \copydoc to_json(const domain_stats&)
std::string to_json(const store_stats &S);

/// Renders \p S in the Prometheus text exposition format (version 0.0.4):
/// one `# HELP`/`# TYPE`-annotated family per counter or gauge, histogram
/// summaries as `{quantile="..."}` series. \p Prefix namespaces the
/// metric names (`<prefix>_retired_total ...`).
std::string to_prometheus(const domain_stats &S,
                          std::string_view Prefix = "lfsmr");

/// \copydoc to_prometheus(const domain_stats&, std::string_view)
std::string to_prometheus(const store_stats &S,
                          std::string_view Prefix = "lfsmr");

/// True when this build emits trace-ring events (`LFSMR_TELEMETRY_TRACE`
/// was ON and telemetry was not disabled).
bool trace_enabled();

/// Drains every thread's trace ring into one JSON array of
/// `{thread, seq, event, arg}` records, oldest first per thread, and
/// clears the rings. Returns `[]` when tracing is compiled out. Call at
/// quiescence — draining does not synchronize with concurrent emitters.
std::string drain_trace_json();

} // namespace lfsmr::telemetry

#endif // LFSMR_TELEMETRY_H
