#!/usr/bin/env python3
"""Build lfsmr-e2e from this source tree and run one workload.

    python3 bench/e2e/run.py --workload kv-read-zipf --seed 7 --seconds 10 --trace 0

Builds into `.bench_build/e2e` at the root of the source tree (configured
once, rebuilt incrementally), runs the workload, and prints the benchmark's
table followed by one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the `end_to_end` ones `BENCHMARK.json`
lists, from one untraced window of `--seconds`. With `--trace 1` they are
its `per_layer` ones, from an untraced and a traced window of half that
length each (counters from the first, spans from the second). The Chrome
trace file lands in `.bench_build/e2e/trace-<workload>.json`.

Exits non-zero without printing the JSON line when the sources are missing,
the build fails, the machine has fewer than 4 CPUs in the affinity mask, or
the run produced no report; exits 1 after printing it when an output check
failed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "lfsmr-e2e"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "include" / "lfsmr").is_dir():
        fail(f"the lfsmr sources are not at {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "lfsmr-e2e",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()

    report_path = BUILD / f"report-{args.workload}.json"
    report_path.unlink(missing_ok=True)
    cmd = [str(BINARY), args.workload, "--seed", str(args.seed),
           "--out", str(report_path)]
    if args.trace:
        cmd += ["--secs", repr(args.seconds / 2),
                "--trace", str(BUILD / f"trace-{args.workload}.json")]
    else:
        cmd += ["--secs", repr(args.seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    if proc.returncode not in (0, 1) or not report_path.is_file():
        fail(f"lfsmr-e2e exited with {proc.returncode} and no report",
             proc.returncode or 1)
    for line in proc.stdout.splitlines():
        if not line.startswith("{"):
            print(line)

    run = json.loads(report_path.read_text())["workloads"][0]
    found = dict(run["end_to_end"])
    found.update(run["layers"])
    metrics = {}
    for m in wanted:
        got = found.get(m["name"])
        if got is None:
            fail(f"{args.workload} reported no {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} is in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    correct = proc.returncode == 0 and run["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
