"""Logic BIST (STUMPS) behaviour."""

import pytest

from repro.bist.lbist import LbistConfig, StumpsController, coverage_curve
from repro.circuit import benchmarks, generators
from repro.compression.lfsr import PRIMITIVE_TAPS
from repro.compression.misr import MISR
from repro.faults import collapse_faults, full_fault_list
from repro.sim.goodcache import DEFAULT_CACHE
from repro.sim.parallel import ParallelSimulator


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


def _serial_signature(netlist, patterns, misr_length):
    """The reference signature: every fault-free response, from an
    uncached simulator, absorbed slice by slice into a serial MISR."""
    misr = MISR(misr_length, seed=0)
    for response in ParallelSimulator(netlist, cache=None).responses(patterns):
        for start in range(0, len(response), misr_length):
            misr.absorb(response[start : start + misr_length])
    return misr.signature


class TestSignatureOracle:
    """``run``'s signature, folded from packed good words, against the
    serial MISR.  The circuits have 15 and 36 observation readers: one
    short slice per response, and two or three slices of which the last is
    short, for every MISR length."""

    MISR_LENGTHS = [length for length in sorted(PRIMITIVE_TAPS) if length >= 16]

    @pytest.fixture(scope="class")
    def circuits(self):
        return [
            generators.random_sequential(4, 40, 6, seed=12),
            generators.random_sequential(6, 80, 30, seed=3),
        ]

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("width", [64, 256, 4096])
    @pytest.mark.parametrize("n_patterns", [1, 7, 100, 320])
    def test_signature_matches_serial_misr(self, circuits, seed, width, n_patterns):
        for netlist in circuits:
            patterns = StumpsController(
                netlist, LbistConfig(seed=seed)
            ).generate_patterns(n_patterns)
            for length in self.MISR_LENGTHS:
                config = LbistConfig(seed=seed, misr_length=length)
                result = StumpsController(netlist, config, word_width=width).run(
                    n_patterns
                )
                assert result.signature == _serial_signature(
                    netlist, patterns, length
                ), (netlist.name, length)


class TestWorkIdentity:
    @pytest.mark.parametrize("width", [64, 256, 4096])
    @pytest.mark.parametrize("n_patterns", [1, 100, 320])
    def test_one_good_pass_per_word(self, width, n_patterns):
        """The grade evaluates each word block once; the signature pass
        reads every block back from the good-machine cache."""
        DEFAULT_CACHE.clear()
        controller = StumpsController(
            generators.random_resistant(14, cones=3), word_width=width
        )
        before = controller.parallel.evaluations
        controller.run(n_patterns)
        assert controller.parallel.evaluations - before == -(-n_patterns // width)
