"""The gvdlab benchmark: one workload, timed end to end or traced by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload two_k4 --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
metrics of ``BENCHMARK.json``, as the last line of output:

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

Every repetition runs in a fresh interpreter (``perfbench/workloads.py``),
one at a time.  Repetitions continue while the next one is expected to end
within ``--seconds``; there is always at least one.  The program's time is
reported as a cost in ``kref``: its CPU time in units of a fixed reference
kernel timed alongside it, a thousand kernel runs to the unit (see
``speed.py``).  Set-up time runs from the start of a child interpreter to
the moment it has imported gvdlab and built the inputs; it is measured ten
times per run, costed by kernel runs timed right after it, and reported in
seconds at ``speed.REF_S`` seconds per kernel run.  Raw CPU seconds of both
go in the line before the result.
Reported values are medians over repetitions.  Any failed output check
makes ``correct`` false and the exit code 1.  A checkout without gvdlab's
sources or the benchmark's data exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "workloads.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
REQUIRED = (SPEC, os.path.join(ROOT, "src", "gvdlab", "__init__.py"),
            os.path.join(HERE, "data", "census9.json"))

SETUP_SAMPLES = 10
# A run must end within 180 s; children get what is left of this.
RUN_LIMIT_S = 170.0

sys.path.insert(0, HERE)
from speed import REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class ChildFailed(Exception):
    pass


def child(args: list, deadline: float) -> dict:
    """Run one child interpreter to completion; its last line of output."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise ChildFailed("no time left for another child")
    try:
        done = subprocess.run([sys.executable, CHILD] + args, cwd=ROOT,
                              capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise ChildFailed("child %s timed out" % " ".join(args))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed("child %s exited with %d: %s" % (
            " ".join(args), done.returncode, done.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-len(ordered) * q // 100) - 1))
    return ordered[int(k)]


def end_to_end(rep: dict) -> dict:
    return {
        "total_kref": rep["total_kref"],
        "graphs_per_kref": len(rep["graph_kref"]) / sum(rep["graph_kref"]),
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def breakdown(rep: dict) -> dict:
    """What one repetition spent, for the line before the result: raw CPU
    seconds in all and per stage (census9's replay and bipartite stages
    among them), each stage's cost, and the per-graph certify latency's
    median and the highest percentile with at least ten samples beyond it
    on census9, in milliseconds and in ref."""
    out = {"total_s": rep["total_s"], "stages": rep["stages"]}
    for key, unit in (("graph_s", "ms"), ("graph_kref", "ref")):
        if key in rep:
            out["graph_p50_" + unit] = 1000.0 * percentile(rep[key], 50)
            out["graph_p98_" + unit] = 1000.0 * percentile(rep[key], 98)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print("perfbench: not a gvdlab checkout, missing %s"
              % ", ".join(os.path.relpath(p, ROOT) for p in missing), file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []

    def set_up(samples):
        for _ in range(samples):
            setup.append(child(base + ["--setup-only"], deadline))

    try:
        # Half the set-up samples come before the repetitions and half after,
        # so a burst of machine noise cannot move their median on its own.
        if not args.trace:
            set_up(SETUP_SAMPLES // 2)
        reps = []
        measure_start = time.monotonic()
        while True:
            t0 = time.monotonic()
            reps.append(child(base + ["--trace", str(args.trace)], deadline))
            now = time.monotonic()
            if now - measure_start + (now - t0) > args.seconds:
                break
        if not args.trace:
            set_up(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    except ChildFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    for r in reps:
        for err in r["errors"]:
            print("perfbench: failed: %s" % err, file=sys.stderr)
    if any(not r["graph_s"] for r in reps):
        print("perfbench: no graph was certified", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    with open(SPEC) as fh:
        spec = json.load(fh)
    if args.trace:
        wanted = spec["per_layer"]
        values = [r["layers"] for r in reps]
    else:
        wanted = spec["end_to_end"]
        setup_s = REF_S * statistics.median(s["setup_ref"] for s in setup)
        values = [dict(end_to_end(r), setup_s=setup_s) for r in reps]
    metrics = {m["name"]: {"value": statistics.median(v[m["name"]] for v in values),
                           "unit": m["unit"]} for m in wanted}
    info = {"workload": args.workload, "seed": args.seed, "repetitions": len(reps),
            "graphs_per_repetition": len(reps[0]["graph_s"]),
            "breakdown": [breakdown(r) for r in reps],
            "setup_samples": len(setup), "info": [r["info"] for r in reps]}
    if setup:
        info["setup_raw_s"] = statistics.median(s["setup_s"] for s in setup)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
