"""Repository benchmark: accelerator-array ATPG, LBIST grading and EDT.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each repetition runs in a fresh
interpreter (``perfbench/rep.py``), because the good-machine response
cache is process-global and a command-line user pays the cold cost on
every invocation.  Repetitions continue until ``--seconds`` would be
exceeded, with at least ``MIN_REPS`` of them.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over untraced repetitions.  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics of the traced
repetition with the median flow time, plus the tracing overhead.  The
first repetition also runs the workload's correctness oracle; every
repetition must reproduce its outcome exactly (the determinism gate).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Fewest untraced repetitions a ``--trace 0`` run measures.
MIN_REPS = 3

#: Seconds one repetition may take before it is killed and counted failed.
REP_TIMEOUT_S = 150

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Exact counters every traced repetition of one seed must repeat.
EXACT_LAYERS = ("sim.events_propagated", "sim.words_evaluated", "sim.good_passes", "atpg.backtracks")


def check_metric_specs(specs: List[Dict[str, object]]) -> List[str]:
    """Problems with metric names and units against the contract charset."""
    problems = []
    seen = set()
    for spec in specs:
        name, unit = str(spec.get("name", "")), str(spec.get("unit", ""))
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        if not UNIT_RE.match(unit):
            problems.append(f"bad unit {unit!r} for {name!r}")
        if name in seen:
            problems.append(f"metric {name!r} declared twice")
        seen.add(name)
    return problems


def run_rep(workload: str, seed: int, traced: bool, oracle: bool, report_stem: Optional[str]) -> Dict[str, object]:
    """One repetition in a fresh interpreter; ``failures`` says what broke."""
    command = [sys.executable, os.path.join(HERE, "rep.py"), workload, str(seed), "1" if traced else "0", "1" if oracle else "0"]
    if report_stem:
        command.append(report_stem)
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failures": [f"repetition exceeded {REP_TIMEOUT_S} s"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return {"failures": [f"repetition exited with code {done.returncode}"]}
    rep = json.loads(lines[-1])
    rep["traced"] = traced
    return rep


def fingerprint(rep: Dict[str, object]) -> Dict[str, object]:
    """What every repetition of one seed must reproduce exactly."""
    exact = {"quality": rep["quality"]}
    if rep.get("traced"):
        exact["counts"] = rep["counts"]
        exact["layers"] = {key: rep["layers"][key] for key in EXACT_LAYERS}
    return exact


def determinism_failures(reps: List[Dict[str, object]]) -> List[int]:
    """Indices of repetitions whose outcome differs from the first one
    (quality) or from the first traced one (exact layer counters)."""
    bad = []
    reference_quality = reps[0]["quality"]
    traced = [rep for rep in reps if rep["traced"]]
    reference_trace = fingerprint(traced[0]) if traced else None
    for index, rep in enumerate(reps):
        if rep["quality"] != reference_quality:
            bad.append(index)
        elif rep["traced"] and fingerprint(rep) != reference_trace:
            bad.append(index)
    return bad


def schedule(seconds: float, traced_run: bool, run_one) -> List[Dict[str, object]]:
    """Run repetitions until the next one would overrun ``seconds``.

    A ``--trace 1`` run alternates untraced and traced repetitions and
    needs one of each; a ``--trace 0`` run needs ``MIN_REPS`` untraced.
    """
    reps = []
    start = time.perf_counter()
    while True:
        index = len(reps)
        traced = traced_run and index % 2 == 1
        begin = time.perf_counter()
        reps.append(run_one(index, traced))
        last = time.perf_counter() - begin
        needed = 2 if traced_run else MIN_REPS
        if len(reps) >= needed and time.perf_counter() - start + last > seconds:
            return reps


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {ROOT}/src: run from a source checkout", file=sys.stderr)
        return 2
    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = check_metric_specs(spec["end_to_end"] + spec["per_layer"])
    if problems:
        print("; ".join(problems), file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    def run_one(index: int, traced: bool) -> Dict[str, object]:
        stem = os.path.join(out_dir, f"{args.workload}_seed{args.seed}_rep{index}") if traced else None
        return run_rep(args.workload, args.seed, traced, index == 0, stem)

    reps = schedule(args.seconds, bool(args.trace), run_one)
    walls = [f"{rep['wall_s']:.3f}{'t' if rep['traced'] else ''}" for rep in reps if "wall_s" in rep]
    print("wall_s per repetition (t = traced): " + " ".join(walls), file=sys.stderr)
    failed = {index for index, rep in enumerate(reps) if rep["failures"]}
    for index in sorted(failed):
        print(f"repetition {index}: {'; '.join(reps[index]['failures'])}", file=sys.stderr)
    completed = [index for index in range(len(reps)) if index not in failed]
    plain = [reps[index] for index in completed if not reps[index]["traced"]]
    traced = [reps[index] for index in completed if reps[index]["traced"]]
    if not plain or (args.trace and not traced):
        print("no repetition completed; nothing to report", file=sys.stderr)
        return 1
    for position in determinism_failures([reps[index] for index in completed]):
        index = completed[position]
        print(f"repetition {index} differs from the first: {fingerprint(reps[index])}", file=sys.stderr)
        failed.add(index)
    print("fingerprint " + json.dumps(fingerprint(traced[0] if traced else plain[0]), sort_keys=True))

    if args.trace:
        by_wall = sorted(traced, key=lambda rep: rep["wall_s"])
        values = dict(by_wall[(len(by_wall) - 1) // 2]["layers"])
        values["trace.overhead_frac"] = (
            statistics.median(rep["wall_s"] for rep in traced)
            / statistics.median(rep["wall_s"] for rep in plain)
            - 1.0
        )
    else:
        values = {key: statistics.median(rep[key] for rep in plain) for key in ("wall_s", "setup_s", "peak_rss_mb")}
        values.update({key: plain[0]["quality"][key] for key in ("test_coverage", "patterns", "tester_bits")})

    names = [metric["name"] for metric in declared]
    if set(values) != set(names):
        print(f"metrics {sorted(set(values) ^ set(names))} disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    result = {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
