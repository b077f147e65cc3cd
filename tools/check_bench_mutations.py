#!/usr/bin/env python3
"""Runs `check_bench.py report` on a fixture report and on mutated copies.

Usage: check_bench_mutations.py

The fixture, check_bench_fixture.json beside this script, is a trimmed
real `lfsmr-bench all` report: the points of every suite and panel under
hyalines and the schemes the table's rules name, without their per-repeat
`samples`. The checker must pass on it as it is and fail on every
mutation below, each of which breaks one rule the checker keeps, by a
failed check rather than a crash. Exits non-zero if any outcome differs.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def first(doc, **match):
    """The first point whose fields equal `match`."""
    return next(p for p in doc["points"]
                if all(p[k] == v for k, v in match.items()))


def drop_kv_panel(doc):
    doc["points"] = [p for p in doc["points"]
                     if (p["suite"], p["panel"]) != ("kv", "kv-scan")]


def hp_in_bonsai(doc):
    p = copy.deepcopy(first(doc, suite="bonsai"))
    p["scheme"] = "hp"
    doc["points"].append(p)


def era0_on_hyalines(doc):
    first(doc, suite="kv", scheme="hyalines")["stats"]["era"] = 0


def heap_99_on_kv_read(doc):
    first(doc, suite="kv", panel="kv-read")["heap_bytes_per_key"]["mean"] = 99


def drop_kv_stats(doc):
    del first(doc, suite="kv")["stats"]


def async_w64_no_submits(doc):
    first(doc, suite="kv-async", panel="async-w64")["stats"][
        "async_submits"] = 0


def snap_p50_above_p99(doc):
    p = first(doc, suite="kv-snap-cycle")
    p["lat_p50_ns"]["mean"] = p["lat_p99_ns"]["mean"] + 1


def suite_without_row(doc):
    doc["metadata"]["suites"].append("kv-new")


def row_without_suite(doc):
    doc["metadata"]["suites"].remove("stall")
    doc["points"] = [p for p in doc["points"] if p["suite"] != "stall"]


MUTATIONS = [drop_kv_panel, hp_in_bonsai, era0_on_hyalines,
             heap_99_on_kv_read, drop_kv_stats, async_w64_no_submits,
             snap_p50_above_p99, suite_without_row, row_without_suite]


def run(doc, tmp):
    """`report`'s outcome on `doc`: "pass", "fail" (a check failed) or
    "crash" (anything else, which a mutant does not count as caught)."""
    path = os.path.join(tmp, "report.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "check_bench.py"), "report", path],
        capture_output=True, text=True)
    if r.returncode == 0:
        return "pass"
    return "fail" if "AssertionError" in r.stderr else "crash"


def main():
    with open(os.path.join(HERE, "check_bench_fixture.json")) as f:
        doc = json.load(f)
    wrong = 0
    with tempfile.TemporaryDirectory() as tmp:
        got = run(doc, tmp)
        print(f"{got:5}  fixture as committed")
        wrong += got != "pass"
        for mutate in MUTATIONS:
            mutant = copy.deepcopy(doc)
            mutate(mutant)
            got = run(mutant, tmp)
            print(f"{got:5}  {mutate.__name__}")
            wrong += got != "fail"
    sys.exit(1 if wrong else 0)


if __name__ == "__main__":
    main()
