"""Logic BIST (STUMPS) behaviour."""

import pytest

from repro.bist.lbist import LbistConfig, StumpsController, coverage_curve
from repro.circuit import benchmarks, generators
from repro.faults import collapse_faults, full_fault_list


class TestPatternGeneration:
    def test_deterministic_stream(self, alu4):
        a = StumpsController(alu4).generate_patterns(10)
        b = StumpsController(alu4).generate_patterns(10)
        assert a == b

    def test_pattern_width(self, alu4):
        controller = StumpsController(alu4)
        patterns = controller.generate_patterns(5)
        assert all(len(p) == controller.simulator.view.num_inputs for p in patterns)

    def test_streams_advance(self, alu4):
        controller = StumpsController(alu4)
        first = controller.generate_patterns(5)
        second = controller.generate_patterns(5)
        assert first != second


class TestCoverage:
    def test_curve_is_monotone(self, alu4):
        points = coverage_curve(alu4, 256, checkpoint_every=64)
        coverages = [p["coverage"] for p in points]
        assert coverages == sorted(coverages)
        assert coverages[-1] > 0.85

    def test_random_resistant_circuit_saturates_low(self):
        netlist = generators.random_resistant(14, cones=3)
        result = StumpsController(netlist).run(512)
        # The wide-AND cones stay undetected by pure pseudo-random patterns.
        assert result.final_coverage < 0.999
        assert result.undetected

    def test_easy_circuit_saturates_high(self):
        netlist = generators.parity_tree(12)
        result = StumpsController(netlist).run(256)
        assert result.final_coverage == 1.0


class TestSignature:
    def test_signature_reproducible(self, alu4):
        a = StumpsController(alu4).run(128)
        b = StumpsController(alu4).run(128)
        assert a.signature == b.signature

    def test_signature_depends_on_seed(self, alu4):
        a = StumpsController(alu4, LbistConfig(seed=1)).run(128)
        b = StumpsController(alu4, LbistConfig(seed=2)).run(128)
        assert a.signature != b.signature

    def test_custom_fault_list(self, alu4):
        faults, _ = collapse_faults(alu4, full_fault_list(alu4))
        result = StumpsController(alu4).run(64, faults=faults[:20])
        assert result.total_faults == 20


def _filtered_loop(simulator, chunks, faults):
    """The coverage loop as it used to pass survivors on: every chunk
    re-filters the list by the chunk's detected map."""
    remaining, detected_total, applied, curve = list(faults), 0, 0, []
    for chunk in chunks:
        sim = simulator.simulate(chunk, remaining, drop=True)
        detected_total += len(sim.detected)
        remaining = [f for f in remaining if f not in sim.detected]
        applied += len(chunk)
        curve.append(
            {"patterns": float(applied), "coverage": detected_total / len(faults)}
        )
    return curve, remaining


class TestSurvivorList:
    """Each chunk grades the previous chunk's ``undetected`` list, which
    must be exactly the filtered survivor list, in the same order."""

    def test_stumps_run_unchanged(self):
        netlist = generators.random_resistant(14, cones=3)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        result = StumpsController(netlist).run(320, faults=faults)
        replay = StumpsController(netlist)
        chunks = [replay.generate_patterns(64) for _ in range(5)]
        curve, remaining = _filtered_loop(replay.simulator, chunks, faults)
        assert result.undetected  # survivors exist to be passed on
        assert result.coverage_points == curve
        assert result.undetected == remaining
        assert result.signature == replay.good_signature(
            [pattern for chunk in chunks for pattern in chunk]
        )

    def test_weighted_run_unchanged(self):
        from repro.atpg.random_gen import weighted_random_patterns
        from repro.bist.lbist import derive_input_weights, run_weighted_lbist
        from repro.sim.faultsim import FaultSimulator

        netlist = generators.random_resistant(12, cones=2)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        result = run_weighted_lbist(netlist, 256, faults=faults, seed=1)
        weights = derive_input_weights(netlist)
        chunks = [
            weighted_random_patterns(len(weights), 64, weights, seed=131 + applied)
            for applied in range(0, 256, 64)
        ]
        curve, remaining = _filtered_loop(FaultSimulator(netlist), chunks, faults)
        assert result.undetected
        assert result.coverage_points == curve
        assert result.undetected == remaining
