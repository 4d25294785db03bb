"""Supervisor — Table: supervision overhead and recovery cost.

Times one fault-simulation campaign on a generated circuit under these
regimes and records the rows to ``BENCH_supervisor.json``:

* ``ppsfp``           — the single-process baseline;
* ``supervised``      — same campaign under the supervisor, no failures
  (the steady-state cost of per-partition processes + validation);
* ``pool``            — the ``pool`` backend name, which runs the same
  supervised runner with its defaults;
* ``supervised+chaos``— two injected worker crashes mid-campaign (the
  cost of detection, backoff, and re-grading two shards);
* ``resume``          — the campaign replayed from a complete journal
  (every shard skipped; measures the checkpoint read path).

Every regime must produce a detection map bit-identical to single-process
PPSFP — the timing sweep doubles as the differential correctness check.
Acceptance pin: a clean supervised run stays within 3x of the
single-process ``ppsfp`` time of the same campaign (``overhead_x``).  The
bound guards against the fan-out and supervision loop costing more than
the work they shard.

``python -m benchmarks.bench_supervisor --smoke`` runs a small circuit
through every regime in a few seconds for CI, asserting identity but
not timing ratios (containers are too noisy for that).
"""

import os
import sys
import tempfile
import time

from repro.atpg.random_gen import random_patterns
from repro.circuit import generators
from repro.faults import collapse_faults, full_fault_list
from repro.sim.chaos import ChaosPlan
from repro.sim.dispatch import PpsfpBackend
from repro.sim.faultsim import FaultSimulator
from repro.sim.journal import CampaignJournal
from repro.sim.supervisor import SupervisedPoolBackend, SupervisorConfig

from .util import print_table, run_once, write_bench_json

FULL_SIZE = (12, 480, 3)  # matches bench_dispatch's largest rung
FULL_PATTERNS = 256
SMOKE_SIZE = (8, 90, 1)
SMOKE_PATTERNS = 64
JOBS = 4
PARTITIONS = 8
OVERHEAD_BOUND_X = 3.0


def _setup(size, n_patterns):
    netlist = generators.random_circuit(*size[:2], seed=size[2])
    simulator = FaultSimulator(netlist)
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    patterns = random_patterns(simulator.view.num_inputs, n_patterns, seed=size[2])
    return netlist, simulator, faults, patterns


def _timed(backend, simulator, patterns, faults):
    start = time.perf_counter()
    result = backend.run(simulator, patterns, faults, drop=False)
    return result, time.perf_counter() - start


def _campaign(size, n_patterns, journal_dir):
    netlist, simulator, faults, patterns = _setup(size, n_patterns)
    reference = simulator.simulate(patterns, faults, drop=False)

    regimes = []

    def check(name, result, seconds, **extra):
        assert result.detected == reference.detected, name
        assert result.undetected == reference.undetected, name
        regimes.append({"regime": name, "wall_time_s": seconds, **extra})

    # The single-process baseline, timed like every other regime (the
    # reference run above already warmed the good-machine cache).
    base, base_s = _timed(PpsfpBackend(), simulator, patterns, faults)
    check("ppsfp", base, base_s)
    supervised, supervised_s = _timed(
        SupervisedPoolBackend(jobs=JOBS, partitions=PARTITIONS),
        simulator, patterns, faults,
    )
    check(
        "supervised", supervised, supervised_s,
        overhead_x=supervised_s / base_s if base_s else 0.0,
    )
    pool = simulator.simulate(
        patterns, faults, drop=False, engine="pool", jobs=JOBS,
        partitions=PARTITIONS,
    )
    check("pool", pool, pool.stats["wall_time_s"])

    chaos, chaos_s = _timed(
        SupervisedPoolBackend(
            jobs=JOBS,
            partitions=PARTITIONS,
            chaos=ChaosPlan(schedule={1: ("crash",), 5: ("crash",)}),
            config=SupervisorConfig(backoff_s=0.0),
        ),
        simulator, patterns, faults,
    )
    assert chaos.stats["worker_crashes"] == 2
    check(
        "supervised+chaos", chaos, chaos_s,
        recovery_cost_x=chaos_s / supervised_s if supervised_s else 0.0,
    )

    journal_path = os.path.join(journal_dir, f"{netlist.name}.jsonl")
    full, _ = _timed(
        SupervisedPoolBackend(
            jobs=JOBS, partitions=PARTITIONS,
            journal=CampaignJournal(journal_path),
        ),
        simulator, patterns, faults,
    )
    check("journaled", full, full.stats["wall_time_s"])
    resumed, resumed_s = _timed(
        SupervisedPoolBackend(
            jobs=JOBS, partitions=PARTITIONS,
            journal=CampaignJournal(journal_path),
        ),
        simulator, patterns, faults,
    )
    assert resumed.stats["journal_skipped"] == PARTITIONS
    check("resume", resumed, resumed_s)

    for row in regimes:
        row["circuit"] = netlist.name
        row["faults"] = len(faults)
    return regimes


def test_supervision_overhead(benchmark):
    with tempfile.TemporaryDirectory() as journal_dir:
        rows = run_once(benchmark, _campaign, FULL_SIZE, FULL_PATTERNS, journal_dir)
    print_table("Supervisor: overhead and recovery cost", rows)
    path = write_bench_json(
        "supervisor",
        {
            "jobs": JOBS,
            "partitions": PARTITIONS,
            "cpu_count": os.cpu_count() or 1,
            "rows": rows,
        },
    )
    print(f"wrote {path}")
    supervised = next(r for r in rows if r["regime"] == "supervised")
    assert supervised["overhead_x"] < OVERHEAD_BOUND_X


def _run_smoke():
    """Quick CI check: every regime, identical detection maps."""
    with tempfile.TemporaryDirectory() as journal_dir:
        rows = _campaign(SMOKE_SIZE, SMOKE_PATTERNS, journal_dir)
    print_table("supervisor smoke", rows)
    print("OK: supervised/pool/chaos/resume all bit-identical to ppsfp")
    return 0


if __name__ == "__main__":
    sys.exit(_run_smoke() if "--smoke" in sys.argv else 0)
