#!/usr/bin/env python3
"""Smoke-runs every lfsmr-bench suite whose panels run the op-mix loop.

Usage: point_op_panels.py LFSMR_BENCH [--latency]

Runs list, hashmap, kv, kv-serve and kv-async for one short single-thread
repeat under hyalines and checks that each suite emits its full panel
set, every point with a positive rate, and that kv-read still reports
the prefill's heap bytes per key. With --latency (a telemetry build), the
panels that time ops carry lat_p50_ns/lat_p99_ns and no other panel
does; without it, no panel carries them. Exits non-zero on a mismatch.
"""

import json
import subprocess
import sys

PANELS = {
    "list": {"fig11a+12a", "fig11d+12d"},
    "hashmap": {"fig11b+12b", "fig11e+12e"},
    "kv": {"kv-read", "kv-write", "kv-snapshot", "kv-scan", "kv-resize",
           "kv-string", "kv-txn-b1", "kv-txn-b4", "kv-txn-b16"},
    "kv-serve": {"zipf-hot", "oversub", "stall-serve", "churn",
                 "value-dist"},
    "kv-async": {"sync-write", "async-w64", "async-w1024"},
}

# The panels that report sampled latency.
TIMED = {"kv-txn-b1", "kv-txn-b4", "kv-txn-b16"} | PANELS["kv-serve"] \
    | PANELS["kv-async"]

ARGS = ["--schemes", "hyalines", "--threads", "1", "--secs", "0.02",
        "--repeats", "1", "--prefill", "2000", "--keyrange", "4000",
        "--format", "json"]


def main():
    bench = sys.argv[1]
    latency = "--latency" in sys.argv[2:]
    for suite, want in PANELS.items():
        out = subprocess.run([bench, suite] + ARGS, check=True,
                             capture_output=True, text=True).stdout
        pts = json.loads(out)["points"]
        got = {p["panel"] for p in pts}
        assert got == want, (suite, sorted(got))
        for p in pts:
            where = (suite, p["panel"], p["mix"])
            assert p["mops"]["mean"] > 0, where
            timed = latency and p["panel"] in TIMED
            assert ("lat_p50_ns" in p) == timed, where
            assert ("lat_p99_ns" in p) == timed, where
            if p["panel"] == "kv-read":
                # Present on glibc; sanitizer allocators read it as 0.
                assert "heap_bytes_per_key" in p, where
        print(f"{suite}: {len(pts)} points ok")


if __name__ == "__main__":
    main()
