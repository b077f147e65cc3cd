#!/usr/bin/env python3
"""Smoke test: `lfsmr-e2e all` with short windows and a traced window.

    smoke_check.py <path to lfsmr-e2e> <path to BENCHMARK.json>

Fails unless every workload exits 0 with error_rate == 0, reports every
end-to-end and per-layer metric it owns, writes its trace file, and agrees
with BENCHMARK.json on the units, directions and bounds of the metrics it
lists. Exits 77 (skip) when fewer than 4 CPUs are available.
"""

import json
import os
import subprocess
import sys

SMR = ["smr.retired_per_op", "smr.freed_per_op", "smr.alloc_per_op",
       "smr.era_per_kop", "smr.unreclaimed_peak", "smr.unreclaimed_end",
       "client.self_share", "client.ns_per_op", "layer.ns_per_op",
       "trace.overhead_pct"]
KV = ["kv.versions_per_write", "kv.trim_walk_len.mean", "kv.trim_walk_len.p99"]
COMMON_E2E = ["setup_s", "throughput_mops", "write_p50_ns", "write_p99_ns",
              "unreclaimed_avg", "unreclaimed_p50", "rss_peak_mib", "error_rate"]
READ = ["read_p50_ns", "read_p99_ns"]

# What each workload owns. Span p99s need 1000 samples, more than a
# 0.2 s window gives the rarer ops, so only span p50s are required here.
OWNED = {
    "hashmap-write": {
        "e2e": COMMON_E2E,
        "layers": SMR + ["ds.success_ratio", "ds.insert_ns.p50", "ds.remove_ns.p50",
                         "ds.time_share"],
    },
    "kv-read-zipf": {
        "e2e": COMMON_E2E + READ,
        "layers": SMR + KV + ["kv.get_hit_ratio", "kv.index_resizes", "kv.get_ns.p50",
                              "kv.put_ns.p50", "kv.erase_ns.p50", "kv.read.time_share"],
    },
    "kv-write-txn": {
        "e2e": COMMON_E2E + READ + ["snapshot_p50_ns", "snapshot_p99_ns",
                                    "txn_p50_ns", "txn_p99_ns"],
        "layers": SMR + KV + [
            "kv.get_hit_ratio", "kv.index_resizes", "kv.get_ns.p50", "kv.put_ns.p50",
            "kv.erase_ns.p50", "kv.merge_ns.p50", "kv.snapshot_open_ns.p50",
            "kv.snapshot_get_ns.p50", "kv.snapshot_close_ns.p50",
            "kv.snapshot_slow_ratio", "kv.snapshot_reject_ratio",
            "kv.txn_buffer_ns.p50", "kv.txn_commit_ns.p50", "kv.txn_abort_ratio",
            "kv.txn_attempts_per_commit", "kv.submit_ns.p50",
            "kv.future_wait_ns.p50", "kv.submit_batch_len.mean",
            "kv.combiner_takeovers_per_kop", "kv.sync_fallback_ratio",
            "kv.snapshot.time_share", "kv.txn.time_share", "kv.submit.time_share"],
    },
    "kv-stall": {
        "e2e": COMMON_E2E + READ,
        "layers": SMR + KV + ["kv.get_hit_ratio", "kv.get_ns.p50", "kv.put_ns.p50",
                              "kv.erase_ns.p50"],
    },
}


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    if len(os.sched_getaffinity(0)) < 4:
        print("skipped: lfsmr-e2e needs 4 CPUs")
        return 77
    spec = json.load(open(spec_path))
    out, trace = os.path.abspath("smoke.json"), os.path.abspath("smoke-trace.json")
    proc = subprocess.run([binary, "all", "--secs", "0.2", "--seed", "11",
                           "--out", out, "--trace", trace], timeout=280)
    errors = []
    if proc.returncode != 0:
        errors.append(f"lfsmr-e2e all exited {proc.returncode}")
    report = json.load(open(out))
    seen = [w["workload"] for w in report["workloads"]]
    if seen != list(OWNED):
        errors.append(f"workloads {seen}, expected {list(OWNED)}")
    for run in report["workloads"]:
        name = run["workload"]
        e2e, layers = run.get("end_to_end", {}), run.get("layers", {})
        if run.get("failed") != 0 or e2e.get("error_rate", {}).get("value") != 0:
            errors.append(f"{name}: failed={run.get('failed')}")
        for metric in OWNED[name]["e2e"]:
            if metric not in e2e:
                errors.append(f"{name}: no end-to-end metric {metric}")
        for metric in OWNED[name]["layers"]:
            if metric not in layers:
                errors.append(f"{name}: no per-layer metric {metric}")
        for m in spec["end_to_end"]:
            got = e2e.get(m["name"])
            if got is None:
                errors.append(f"{name}: BENCHMARK.json metric {m['name']} missing")
            elif (got["unit"], got["better"], got["bound"]) != (m["unit"], m["better"], m["bound"]):
                errors.append(f"{name}: {m['name']} disagrees with BENCHMARK.json")
        for m in spec["per_layer"]:
            got = layers.get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                errors.append(f"{name}: BENCHMARK.json per-layer {m['name']} missing or in another unit")
        trace_file = trace[:-len(".json")] + f".{name}.json"
        try:
            events = json.load(open(trace_file))["traceEvents"]
            if not events:
                errors.append(f"{name}: empty trace file")
        except (OSError, ValueError, KeyError) as e:
            errors.append(f"{name}: bad trace file {trace_file}: {e}")
    for e in errors:
        print("FAIL", e)
    print("smoke:", "FAILED" if errors else "ok", f"({len(seen)} workloads)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
