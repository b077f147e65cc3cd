#!/usr/bin/env python3
"""Checks lfsmr-bench reports against one table of what each suite emits.

Usage:
  check_bench.py report FILE...  (an `all` report, or one report per suite)
  check_bench.py async-oversub FILE  (a `kv-async --threads 256` report)
  check_bench.py point-ops BENCH [--latency]  (runs the op-mix suites)

`report` fails unless the reports ran exactly the suites the table has
rows for. `point-ops` runs each op-mix suite for one short repeat, and
expects latency on the timed panels with --latency (a telemetry build),
on none without. Exits non-zero on the first failed check.
"""

import json
import re
import subprocess
import sys
from typing import NamedTuple


class Suite(NamedTuple):
    panels: object  # the exact panel set, or a regex every panel matches
    needs: set = set()  # schemes every panel runs
    bars: set = set()  # schemes no point runs
    stats: bool = False  # points carry the store's `stats` block
    era: bool = False  # stats.era >= 1 exactly for the clocked schemes
    timed: object = set()  # panels with lat_p50_ns/lat_p99_ns, or True: all

    def times(self, panel):
        return self.timed is True or panel in self.timed


TXN = {"kv-txn-b1", "kv-txn-b4", "kv-txn-b16"}
HP_HE = {"hp", "he"}
SUITES = {
    "list": Suite({"fig11a+12a", "fig11d+12d"}, needs=HP_HE),
    "hashmap": Suite({"fig11b+12b", "fig11e+12e"}, needs=HP_HE),
    "nmtree": Suite({"fig11c+12c", "fig11f+12f"}, needs=HP_HE),
    # HP and HE cannot run the Bonsai tree (Table 1's supports_bonsai).
    "bonsai": Suite({"fig13a+13c", "fig13b"}, bars=HP_HE),
    "kv": Suite({"kv-read", "kv-write", "kv-snapshot", "kv-scan",
                 "kv-string", "kv-resize"} | TXN,
                needs={"hp"}, stats=True, era=True, timed=TXN),
    # The registry-only panels run no scheme ("-"), so no era rule.
    "kv-snap-cycle": Suite({"open-close", "open-close-churn", "read-mix"},
                           stats=True, timed=True),
    "kv-serve": Suite({"zipf-hot", "churn", "oversub", "stall-serve",
                       "value-dist"},
                      needs={"hp"}, stats=True, era=True, timed=True),
    "kv-async": Suite({"sync-write", "async-w64", "async-w1024"},
                      stats=True, era=True, timed=True),
    "enter-leave": Suite({"enter_leave", "deref_x64", "alloc_retire"}),
    "ablation": Suite(r"s\d+xb\d+", needs={"hyaline", "hyalines"}),
    "stall": Suite({"series"}),
    "table1": Suite(set()),  # its rows ride in the report's `table1`
}

# Every era clock seeds at 1, so `era` reads 0 exactly for the schemes
# without one: a scheme that loses its era observer fails here instead
# of reporting "no clock".
CLOCKED = {"epoch", "ibr", "he", "hyalines", "hyaline1s"}
CLOCKLESS = {"hyaline", "hyaline1", "hyalinep", "hp", "nomm"}

# Every scheme's u64 kv-read point reports the prefill's heap bytes per
# key (glibc mallinfo2). Pooled nodes read at most ~97 B (two 48 B slots
# plus chunk slack); 56 B slots read ~113 B and glibc chunks 128 B, so a
# fall back to either fails here.
MAX_HEAP_BYTES_PER_KEY = 98


def where(p):
    return (p["suite"], p["panel"], p["scheme"], p["mix"])


def field(p, k):
    assert k in p, (k, "missing", where(p))
    return p[k]


def check_latency(p, timed):
    assert ("lat_p50_ns" in p) == ("lat_p99_ns" in p) == timed, where(p)
    if timed:
        p50, p99 = p["lat_p50_ns"]["mean"], p["lat_p99_ns"]["mean"]
        assert 0 < p50 <= p99, (p50, p99, where(p))


def check_panels(suite, pts):
    want, got = SUITES[suite].panels, {p["panel"] for p in pts}
    if isinstance(want, str):
        assert got and all(re.fullmatch(want, g) for g in got), (suite, got)
    else:
        assert got == want, (suite, sorted(got))


def check_suite(suite, pts):
    """The table's rules, then the suite's own checks, on its points."""
    row = SUITES[suite]
    check_panels(suite, pts)
    for panel in {p["panel"] for p in pts}:
        schemes = {p["scheme"] for p in pts if p["panel"] == panel}
        assert row.needs <= schemes, (suite, panel, sorted(schemes))
    for p in pts:
        assert p["scheme"] not in row.bars, where(p)
        assert ("stats" in p) == row.stats, ("stats block", where(p))
        check_latency(p, row.times(p["panel"]))
        s = p.get("stats")
        if row.stats:
            assert s["freed"] <= s["retired"] <= s["allocated"], where(p)
            assert s["unreclaimed"] == s["retired"] - s["freed"], where(p)
        if row.era:
            clocked = p["scheme"] in CLOCKED
            assert clocked or p["scheme"] in CLOCKLESS, where(p)
            assert (s["era"] >= 1) if clocked else (s["era"] == 0), \
                (s["era"], where(p))
        check_point(p)
    if suite == "kv":
        reads = {p["scheme"] for p in pts if p["panel"] == "kv-read"}
        assert reads == {p["scheme"] for p in pts}, sorted(reads)
    if suite == "kv-serve":
        # stall-serve is an A/B pair: the same write-heavy config under a
        # stalled reader and without one.
        mixes = {p["mix"] for p in pts if p["panel"] == "stall-serve"}
        assert mixes == {"write-stalled", "write-baseline"}, mixes


def check_point(p):
    """One suite's or panel's own checks on point `p`."""
    s, suite, panel = p.get("stats"), p["suite"], p["panel"]
    if panel in TXN:
        assert s["txn_commits"] + s["txn_aborts"] > 0, (s, where(p))
        assert p["mix"] == "txn", where(p)
        assert 0 <= field(p, "abort_pct")["mean"] <= 100, where(p)
    elif panel == "kv-read":
        h = field(p, "heap_bytes_per_key")["mean"]
        assert 0 < h <= MAX_HEAP_BYTES_PER_KEY, (h, where(p))
    elif suite == "kv-snap-cycle":
        # The registry's acquire counters: the fast-path hit rate per run
        # is derivable from these.
        assert {"version_clock", "snapshot_slots", "slow_acquires",
                "fast_rejects"} <= s.keys(), where(p)
    elif suite == "kv-serve":
        assert 0 < field(p, "zipf_theta") < 1, where(p)
        for k in ("avg_unreclaimed", "peak_unreclaimed"):
            assert field(p, k)["mean"] >= 0, (k, where(p))
    elif suite == "kv-async":
        # The sync panel drives the direct store API; the async panels
        # route the same mix through the submission rings, which must
        # combine.
        assert {"async_submits", "combiner_takeovers",
                "sync_fallbacks"} <= s.keys(), where(p)
        if panel.startswith("async-"):
            assert s["async_submits"] > 0, (s, where(p))
            assert s["submit_batch_len"]["count"] > 0, (s, where(p))
            assert s["submit_batch_len"]["mean"] >= 1, (s, where(p))
        else:
            assert s["async_submits"] == 0, (s, where(p))
    elif suite == "ablation":
        assert p["structure"] == "hashmap", where(p)


def report(files):
    docs = [json.load(open(f)) for f in files]
    ran, pts = set(), []
    for doc in docs:
        meta = doc["metadata"]
        assert meta["git_sha"] not in ("", "unknown"), meta["git_sha"]
        assert meta["seed"] == 0x5eed, meta["seed"]
        ran.update(meta["suites"])
        pts += doc["points"]
    rows = SUITES.keys()
    assert not ran - rows, ("suites without a row", sorted(ran - rows))
    assert not rows - ran, ("rows without a suite", sorted(rows - ran))
    assert pts, "no data points"
    for p in pts:
        for k in ("suite", "scheme", "threads", "repeats", "mops"):
            assert k in p, (k, p)
        assert "stddev" in p["mops"], where(p)
    for suite in SUITES:
        check_suite(suite, [p for p in pts if p["suite"] == suite])
    assert any(doc.get("table1") for doc in docs), "table1 rows missing"
    print(f"{len(pts)} points across {len(ran)} suites ok")


def async_oversub(file):
    pts = [p for p in json.load(open(file))["points"]
           if p["suite"] == "kv-async"]
    check_suite("kv-async", pts)
    for p in pts:
        assert p["threads"] == 256, (p["threads"], where(p))
    print(f"kv-async oversubscribed at 256 threads: {len(pts)} points ok")


# The suites whose panels run the op-mix loop, and their smoke flags.
POINT_OPS = ("list", "hashmap", "kv", "kv-serve", "kv-async")
POINT_OP_ARGS = ["--schemes", "hyalines", "--threads", "1", "--secs", "0.02",
                 "--repeats", "1", "--prefill", "2000", "--keyrange", "4000",
                 "--format", "json"]


def point_ops(bench, latency):
    for suite in POINT_OPS:
        out = subprocess.run([bench, suite] + POINT_OP_ARGS, check=True,
                             capture_output=True, text=True).stdout
        pts = json.loads(out)["points"]
        check_panels(suite, pts)
        for p in pts:
            assert p["mops"]["mean"] > 0, where(p)
            check_latency(p, latency and SUITES[suite].times(p["panel"]))
            if p["panel"] == "kv-read":
                # Present on glibc; sanitizer allocators read it as 0.
                field(p, "heap_bytes_per_key")
        print(f"{suite}: {len(pts)} points ok")


def main(cmd=None, *args):
    if cmd == "report" and args:
        report(args)
    elif cmd == "async-oversub" and len(args) == 1:
        async_oversub(*args)
    elif cmd == "point-ops" and args and set(args[1:]) <= {"--latency"}:
        point_ops(args[0], "--latency" in args)
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(*sys.argv[1:])
