"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def record(name, parent, start, end, info=None):
    return [name, parent, float(start), float(end), info]


# ----------------------------------------------------------------------
# Self time of nested spans
# ----------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    records = [
        record("root", -1, 0, 10),
        record("a", 0, 1, 4),
        record("a.inner", 1, 2, 3),
        record("b", 0, 5, 9),
    ]
    assert tracing.self_times(records) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracing.self_times(records)) == 10.0
    assert tracing.subtree(records, 1) == [1, 2]


def flow_records():
    """setup + a portfolio ATPG flow: portfolio -> podem, guided, dalg."""
    return [
        record("setup", -1, 0, 2),
        record("circuit.build", 0, 0, 1),
        record("faults.collapse", 0, 1, 1.5),
        record("flow", -1, 2, 20),
        record("sim.compile", 3, 2, 2.5),
        record("atpg.scoap", 3, 2.5, 3),
        record("sim.simulate", 3, 3, 6, (100, 200, 3, 0)),
        record("atpg.portfolio", 3, 6, 12, ("untestable", 7)),
        record("atpg.podem", 7, 6, 7, ("aborted", 4)),
        record("atpg.guided", 7, 7, 9, ("aborted", 2)),
        record("atpg.dalg", 7, 9, 11.5, ("untestable", 1)),
        record("atpg.portfolio", 3, 12, 13, ("detected", 0)),
        record("atpg.podem", 11, 12, 12.75, ("detected", 0)),
        record("sim.simulate", 3, 13, 14, (5, 6, 1, 1)),
        record("atpg.compact", 3, 14, 15),
    ]


def test_layer_self_times_partition_the_flow():
    layers = tracing.layer_metrics(flow_records())
    assert layers["flow.wall_s"] == 18.0
    assert sum(layers[key] for key in tracing.SELF_TIME_METRICS) == pytest.approx(18.0)
    # A portfolio span minus its members; the flow minus its layer calls.
    assert layers["atpg.portfolio.self_s"] == pytest.approx(0.5 + 0.25)
    assert layers["flow.unattributed_s"] == pytest.approx(18 - 0.5 - 0.5 - 3 - 6 - 1 - 1 - 1)
    assert layers["circuit.build_s"] == 1.0 and layers["faults.collapse_s"] == 0.5
    assert layers["scan.insert_s"] == 0


def test_layer_counters_come_from_outermost_engine_results():
    layers = tracing.layer_metrics(flow_records())
    # Portfolio outcomes already sum their members' backtracks.
    assert layers["atpg.backtracks"] == 7
    assert layers["atpg.settled_ratio"] == 1.0
    assert layers["atpg.podem.calls"] == 2 and layers["atpg.dalg.calls"] == 1
    assert layers["sim.simulate.calls"] == 2
    assert layers["sim.events_propagated"] == 105
    assert layers["sim.words_evaluated"] == 206
    assert layers["sim.good_passes"] == 4
    assert layers["sim.good_cache_hits"] == 1
    assert layers["compression.encode_ratio"] == 0.0


# ----------------------------------------------------------------------
# The tail percentile rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tracing.tail_percentile(count) == expected


def test_latency_metrics():
    durations = [i / 1000.0 for i in range(1, 101)]  # 1..100 ms
    metrics = tracing.latency_metrics("x", durations)
    assert metrics["x.calls"] == 100
    assert metrics["x.p50_ms"] == pytest.approx(50.0)
    assert metrics["x.tail_pct"] == 90.0
    assert metrics["x.tail_ms"] == pytest.approx(90.0)
    few = tracing.latency_metrics("x", durations[:5])
    assert few["x.tail_ms"] == 0.0 and few["x.tail_pct"] == 0.0


# ----------------------------------------------------------------------
# Metric names, units and BENCHMARK.json
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["wall_s", "sim.simulate.p50_ms", "9lives", "a-b.c_d"])
def test_valid_metric_names(name):
    assert run.check_metric_specs([{"name": name, "unit": "s"}]) == []


@pytest.mark.parametrize("name", ["", "_x", ".x", "has space", "x" * 65, "per/sec", "ünï"])
def test_invalid_metric_names(name):
    assert run.check_metric_specs([{"name": name, "unit": "s"}])


@pytest.mark.parametrize("unit, ok", [("ms", True), ("1/s", True), ("%", True), ("", False), ("m s", False), ("x" * 17, False)])
def test_unit_charset(unit, ok):
    assert (run.check_metric_specs([{"name": "m", "unit": unit}]) == []) is ok


def test_duplicate_metric_names_are_refused():
    assert run.check_metric_specs([{"name": "m", "unit": "s"}, {"name": "m", "unit": "s"}])


def test_benchmark_json_declares_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert run.check_metric_specs(spec["end_to_end"] + spec["per_layer"]) == []
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layers = set(tracing.layer_metrics(flow_records())) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layers
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ----------------------------------------------------------------------
# Seeds reach the flow; the LBIST circuit stays fixed
# ----------------------------------------------------------------------


def test_seed_reaches_circuit_generation_and_flow(monkeypatch):
    seen = {}
    monkeypatch.setattr(workloads, "run_atpg", lambda netlist, **kw: seen.setdefault("atpg", kw))
    monkeypatch.setattr(workloads, "run_compressed_atpg", lambda edt, **kw: seen.setdefault("edt", kw))
    circuit_seeds = []
    real_random_circuit = workloads.random_circuit

    def spy_random_circuit(*args, seed, **kw):
        circuit_seeds.append(seed)
        return real_random_circuit(*args, seed=seed, **kw)

    monkeypatch.setattr(workloads, "random_circuit", spy_random_circuit)
    quiet = tracing.Tracer(enabled=False)
    for name in ("atpg_mac_array", "edt_pe_array"):
        workload = workloads.WORKLOADS[name]
        workload.flow(workload.setup(7, quiet))
    assert seen["atpg"]["seed"] == 7 and seen["edt"]["seed"] == 7
    lbist = workloads.WORKLOADS["lbist_prpg"].setup(7, quiet)
    assert lbist["config"].seed == 7
    assert circuit_seeds == [workloads.LBIST_CIRCUIT_SEED]


# ----------------------------------------------------------------------
# The atpg oracle where phase 2 compacts cubes
# ----------------------------------------------------------------------


def test_atpg_oracle_holds_when_phase_two_compacts_cubes():
    """The atpg oracle on a run whose deterministic phase compacts cubes.

    Fails while run_atpg mis-credits such runs.  After one random batch,
    PODEM aborts a few testable faults and leaves cubes; compaction
    re-fills the merged cubes and the final patterns detect some of the
    aborted faults (seed 3: re-grade 8384, flow credits 8383), but the
    top-off grades only faults the flow already counts, so they stay
    listed as aborted and ``test_coverage`` understates the delivered set.
    The benchmark's workload runs the default eight random batches, where
    the re-grade matched the credited count on seeds 1-40.
    """
    workload = workloads.WORKLOADS["atpg_mac_array"]
    context = workload.setup(3, tracing.Tracer(enabled=False))
    result = workloads.run_atpg(
        context["netlist"],
        faults=context["faults"],
        engine="portfolio",
        backtrack_limit=4,
        random_batches=1,
        seed=3,
    )
    assert workload.oracle(context, result) == []


# ----------------------------------------------------------------------
# Wrappers, the first-call probe, and the run's gates
# ----------------------------------------------------------------------


def test_tracer_records_layers_and_restores_originals():
    from repro.atpg.engine import run_atpg
    from repro.circuit.benchmarks import get_benchmark
    from repro.sim.faultsim import FaultSimulator

    original = vars(FaultSimulator)["simulate"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            pass
        with tracer.span("flow"):
            run_atpg(get_benchmark("c17"), engine="portfolio")
    finally:
        tracer.uninstall()
    assert vars(FaultSimulator)["simulate"] is original
    counts = tracing.call_counts(tracer.records)
    assert counts["sim.simulate"] >= 1 and counts["sim.compile"] == 1
    layers = tracing.layer_metrics(tracer.records)
    assert sum(layers[key] for key in tracing.SELF_TIME_METRICS) == pytest.approx(layers["flow.wall_s"])
    report = tracing.run_report(tracer.records, "perfbench.test", {}, layers)
    assert report.span["children"][1]["name"] == "flow"


def test_first_call_probe_sees_a_warm_cache():
    from repro.circuit.benchmarks import get_benchmark
    from repro.faults.stuck_at import full_fault_list
    from repro.sim.faultsim import FaultSimulator
    from repro.sim.goodcache import GoodMachineCache

    netlist = get_benchmark("c17")
    faults = full_fault_list(netlist)
    cache = GoodMachineCache()
    patterns = [[0, 1, 0, 1, 1], [1, 1, 0, 0, 1]]
    FaultSimulator(netlist, cache=cache).simulate(patterns, faults)
    probe = tracing.FirstCallProbe()
    try:
        FaultSimulator(netlist, cache=cache).simulate(patterns, faults)
    finally:
        probe.remove()
    assert probe.first_stats["good_cache_hits"] > 0


def test_determinism_gate_flags_diverging_repetitions():
    def rep(quality, traced=False, backtracks=0):
        layers = {key: 0 for key in run.EXACT_LAYERS}
        layers["atpg.backtracks"] = backtracks
        return {"quality": quality, "traced": traced, "counts": {"x": 1}, "layers": layers}

    same = [rep({"patterns": 3}), rep({"patterns": 3}, True, 5), rep({"patterns": 3}, True, 5)]
    assert run.determinism_failures(same) == []
    assert run.determinism_failures(same + [rep({"patterns": 4})]) == [3]
    assert run.determinism_failures(same + [rep({"patterns": 3}, True, 6)]) == [3]


def test_schedule_meets_the_minimum_then_stops_before_overrunning():
    kinds = []
    reps = run.schedule(0.0, False, lambda index, traced: kinds.append(traced) or {})
    assert len(reps) == run.MIN_REPS and not any(kinds)
    kinds.clear()
    run.schedule(0.0, True, lambda index, traced: kinds.append(traced) or {})
    assert kinds == [False, True]


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "lbist_prpg", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_traced_run_on_a_non_default_seed(capsys):
    """One real traced run of the cheapest workload, seed 5."""
    assert run.main(["--workload", "edt_pe_array", "--seed", "5", "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["compression.solve_cube.calls"] > 0 and metrics["sim.simulate.calls"] > 0
    assert sum(metrics[key] for key in tracing.SELF_TIME_METRICS) == pytest.approx(metrics["flow.wall_s"])
