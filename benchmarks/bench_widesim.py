"""Wide-word kernel — Table: E3 word-width ladder + good-machine cache.

Times single-process PPSFP fault simulation on a replicated MAC-array
chip (>=5k gates) at each word width of the ladder (64 -> 4096 patterns
per packed word) and records the rows to ``BENCH_widesim.json``.  The
detection maps must be bit-identical at every width — the timing sweep
doubles as the differential correctness check.

Acceptance pins:

* width=1024 does the work of width=64 in 1/16 of the good-machine
  passes and strictly fewer evaluated words — exact counter identities
  on the timed runs (asserted in the full pytest-benchmark run; the wall
  rows stay in the envelope as the backstop);
* the good-machine response cache eliminates repeated fault-free passes —
  a re-run of the same ``run_atpg`` flow replays its blocks from cache
  (shown via the cache's hit/miss counters), and an identical
  ``FaultSimulator`` block re-grade reports ``good_passes == 0``.

``python -m benchmarks.bench_widesim --smoke`` runs a ~30 s subset
(smaller array, widths 64 and 1024) asserting a modest >=1.3x speedup,
gated on the baseline running long enough for timer noise not to matter —
the same capability-gate style as ``bench_dispatch``'s core-count check.
"""

import sys
import time

from repro import obs
from repro.atpg.engine import run_atpg
from repro.atpg.random_gen import random_patterns
from repro.circuit import generators
from repro.dft.flatten import replicate_netlist
from repro.faults import collapse_faults, full_fault_list
from repro.sim.faultsim import FaultSimulator
from repro.sim.goodcache import DEFAULT_CACHE
from repro.sim.parallel import WORD_WIDTHS

from .util import print_table, run_once, write_bench_json

# 32 copies of the 158-gate mac_unit(4) core -> 5056 gates.
MAC_COPIES = 32
N_PATTERNS = 4096
FAULT_SAMPLE = 320  # every k-th collapsed fault — keeps 64-bit rung tractable

SMOKE_COPIES = 8
SMOKE_PATTERNS = 1024
SMOKE_FAULTS = 200
# Below this baseline wall time the smoke speedup ratio is timer noise, so
# the assertion is skipped (mirrors bench_dispatch's cpu-count gate).
SMOKE_MIN_BASELINE_S = 0.2


def _mac_array(copies):
    return replicate_netlist(generators.mac_unit(4), copies)


def _fault_sample(netlist, count):
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    if len(faults) <= count:
        return faults
    step = len(faults) // count
    return faults[::step][:count]


def _width_ladder(netlist, faults, n_patterns, widths):
    """One timed drop=False PPSFP run per width; identical work each rung."""
    n_inputs = FaultSimulator(netlist).view.num_inputs  # PIs + scan cells
    patterns = random_patterns(n_inputs, n_patterns, seed=42)
    rows = []
    reference = None
    for width in widths:
        simulator = FaultSimulator(netlist, word_width=width, cache=None)
        start = time.perf_counter()
        result = simulator.simulate(patterns, faults, drop=False)
        elapsed = time.perf_counter() - start
        if reference is None:
            reference = result
        else:  # differential: every width is bit-identical to the 64-bit run
            assert result.detected == reference.detected
            assert result.undetected == reference.undetected
        throughput = len(faults) * n_patterns / elapsed
        speedup = rows[0]["wall_time_s"] / elapsed if rows else 1.0
        rows.append(
            {
                "word_width": width,
                "wall_time_s": elapsed,
                "fault_patterns_per_s": throughput,
                "speedup_vs_64": speedup,
                "good_passes": result.stats["good_passes"],
                "words_evaluated": result.stats["words_evaluated"],
            }
        )
    return rows


def _cache_demo():
    """Good-machine cache counters across a repeated ATPG flow."""
    netlist = generators.random_resistant(12, 4)
    DEFAULT_CACHE.clear()
    before = dict(DEFAULT_CACHE.stats())
    run_atpg(netlist, seed=3, random_batches=2)
    after_first = dict(DEFAULT_CACHE.stats())
    run_atpg(netlist, seed=3, random_batches=2)
    after_second = dict(DEFAULT_CACHE.stats())

    first = {k: after_first[k] - before[k] for k in ("hits", "misses")}
    second = {k: after_second[k] - after_first[k] for k in ("hits", "misses")}

    # Identical block re-grade: the second pass costs zero good passes.
    grade_net = generators.random_circuit(8, 80, seed=5)
    faults, _ = collapse_faults(grade_net, full_fault_list(grade_net))
    patterns = random_patterns(len(grade_net.inputs), 256, seed=5)
    simulator = FaultSimulator(grade_net, word_width=256)
    first_grade = simulator.simulate(patterns, faults, drop=False)
    second_grade = simulator.simulate(patterns, faults, drop=False)
    assert second_grade.detected == first_grade.detected

    return {
        "atpg_first_run": first,
        "atpg_second_run": second,
        "regrade_first_good_passes": first_grade.stats["good_passes"],
        "regrade_second_good_passes": second_grade.stats["good_passes"],
        "regrade_second_cache_hits": second_grade.stats["good_cache_hits"],
    }


def _run_full():
    netlist = _mac_array(MAC_COPIES)
    faults = _fault_sample(netlist, FAULT_SAMPLE)
    rows = _width_ladder(netlist, faults, N_PATTERNS, WORD_WIDTHS)
    cache = _cache_demo()
    return netlist, faults, rows, cache


def test_widesim_width_ladder(benchmark):
    with obs.observe("bench.widesim") as observation:
        netlist, faults, rows, cache = run_once(benchmark, _run_full)
    print_table(f"E3 word-width ladder on {netlist.name}", rows)
    path = write_bench_json(
        "widesim",
        {
            "circuit": netlist.name,
            "gates": len(netlist.gates),
            "faults_sampled": len(faults),
            "n_patterns": N_PATTERNS,
            "rows": rows,
            "cache_demo": cache,
        },
        observation=observation,
    )
    print(f"wrote {path} ({len(netlist.gates)} gates)")

    assert len(netlist.gates) >= 5000
    by_width = {row["word_width"]: row for row in rows}
    # Acceptance: width 1024 packs 16 words of width 64 into one, so it
    # needs exactly 1/16 of the good passes and evaluates fewer words.
    assert by_width[1024]["good_passes"] * 16 == by_width[64]["good_passes"]
    assert by_width[1024]["words_evaluated"] < by_width[64]["words_evaluated"]
    # The cache makes repeated flows and re-grades free of good passes.
    assert cache["atpg_second_run"]["hits"] > cache["atpg_first_run"]["hits"]
    assert cache["regrade_second_good_passes"] == 0
    assert cache["regrade_second_cache_hits"] > 0


def _run_smoke():
    """Quick capability-gated check for CI: wide word beats 64-bit."""
    netlist = _mac_array(SMOKE_COPIES)
    faults = _fault_sample(netlist, SMOKE_FAULTS)
    rows = _width_ladder(netlist, faults, SMOKE_PATTERNS, (64, 1024))
    print_table(f"widesim smoke on {netlist.name}", rows)
    baseline = rows[0]["wall_time_s"]
    speedup = rows[1]["speedup_vs_64"]
    if baseline < SMOKE_MIN_BASELINE_S:
        print(
            f"(smoke speedup assertion skipped: baseline {baseline:.3f}s "
            f"< {SMOKE_MIN_BASELINE_S}s, ratio would be timer noise)"
        )
        return 0
    if speedup < 1.3:
        print(f"FAIL: width-1024 speedup {speedup:.2f}x < 1.3x")
        return 1
    print(f"OK: width-1024 speedup {speedup:.2f}x (baseline {baseline:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(_run_smoke() if "--smoke" in sys.argv else 0)
