"""Cross-backend conformance oracle.

Single source of truth for the dispatch contract: every fault-simulation
backend (``serial``, ``ppsfp``, ``pool``, ``supervised``) × every word
width × every pattern source must produce *bit-identical* results — the
same ``detected`` map (same first-detection pattern indices), the same
``undetected`` list, the same coverage — and, within one engine family,
identical deterministic work counters (``events_propagated``,
``words_evaluated``, ``good_passes``).

A pattern source is the container the patterns arrive in: python lists,
or a numpy ``uint8`` bit matrix (what callers of the former numpy lane
kernel handed over).  The one bigint kernel must grade both alike.

The oracle is single-process PPSFP on python lists at the default
64-bit width.  Everything else is measured against it (detection maps
are width- and engine-invariant) or against the same run at the same
width (counters are width-dependent by design, source-invariant by
contract).  Good-machine responses are checked against the scalar
4-valued :mod:`repro.sim.logicsim` simulator, which shares no code with
the packed kernel.

This file replaces the scattered pairwise agreement checks that used to
live in ``test_dispatch.py`` (backend × backend) and ``test_widesim.py``
(width × width); those files keep their partitioning, caching, stats
and regression-pin tests.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atpg.random_gen import random_patterns
from repro.circuit import benchmarks, generators
from repro.faults import collapse_faults, full_fault_list
from repro.sim.dispatch import BACKEND_NAMES
from repro.sim.faultsim import FaultSimulator
from repro.sim.logicsim import LogicSimulator
from repro.sim.parallel import WORD_WIDTH, ParallelSimulator

from tests.oracle_util import small_netlists

#: ≥7 circuits: combinational, arithmetic, and full-scan sequential.
CIRCUIT_FACTORIES = (
    ("c17", benchmarks.c17),
    ("rand5", lambda: generators.random_circuit(5, 25, seed=101)),
    ("rand8", lambda: generators.random_circuit(8, 60, seed=202)),
    ("adder4", lambda: generators.adder(4)),
    ("mac2", lambda: generators.mac_unit(2)),
    ("seq4", lambda: generators.random_sequential(4, 40, 5, seed=303)),
    ("seq6", lambda: generators.random_sequential(6, 50, 8, seed=404)),
)
CIRCUIT_NAMES = [name for name, _ in CIRCUIT_FACTORIES]

N_PATTERNS = 96

#: Width ladder for the single-process matrix; 100 pins the no-power-of-
#: two-assumption property alongside the characterized widths.
WIDTHS = (64, 100, 256, 1024)

#: How the patterns are handed over: python lists or a numpy bit matrix.
SOURCES = ("python", "numpy")

#: Deterministic counters that must be source-invariant within an engine.
COUNTERS = ("events_propagated", "words_evaluated", "faults_simulated")


@functools.lru_cache(maxsize=None)
def _circuit(name):
    for factory_name, factory in CIRCUIT_FACTORIES:
        if factory_name == name:
            netlist = factory()
            netlist.finalize()
            return netlist
    raise KeyError(name)


@functools.lru_cache(maxsize=None)
def _universe(name):
    netlist = _circuit(name)
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    return tuple(faults)


@functools.lru_cache(maxsize=None)
def _patterns(name):
    netlist = _circuit(name)
    n_inputs = FaultSimulator(netlist, cache=None).view.num_inputs
    seed = CIRCUIT_NAMES.index(name)
    return tuple(
        tuple(p) for p in random_patterns(n_inputs, N_PATTERNS, seed=seed)
    )


def _simulate(name, engine, source, width, drop=True, jobs=None):
    netlist = _circuit(name)
    simulator = FaultSimulator(netlist, word_width=width, cache=None)
    if source == "numpy":
        patterns = np.array(_patterns(name), dtype=np.uint8)
    else:
        patterns = [list(p) for p in _patterns(name)]
    return simulator.simulate(
        patterns, list(_universe(name)), drop=drop, engine=engine, jobs=jobs
    )


@functools.lru_cache(maxsize=None)
def _oracle(name, drop=True):
    """Detection oracle: PPSFP on python lists at the default 64-bit width."""
    return _simulate(name, "ppsfp", "python", WORD_WIDTH, drop=drop)


@functools.lru_cache(maxsize=None)
def _counter_reference(name, width, drop=True):
    """Counter oracle at ``width``: counters are width-dependent by design
    (chunk granularity), so source invariance is asserted per width."""
    return _simulate(name, "ppsfp", "python", width, drop=drop)


def _assert_detection(result, oracle):
    assert result.detected == oracle.detected
    assert result.undetected == oracle.undetected
    assert result.total_faults == oracle.total_faults
    assert result.coverage == oracle.coverage


def _assert_counters(result, reference):
    for counter in COUNTERS:
        assert result.stats[counter] == reference.stats[counter], counter
    assert result.patterns_simulated == reference.patterns_simulated


class TestKernelMatrix:
    """Single-process engines: full circuit × width × source cross product."""

    @pytest.mark.parametrize("name", CIRCUIT_NAMES)
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("source", SOURCES)
    def test_ppsfp_matches_oracle(self, name, width, source):
        result = _simulate(name, "ppsfp", source, width)
        _assert_detection(result, _oracle(name))
        _assert_counters(result, _counter_reference(name, width))
        assert result.stats["good_passes"] == _counter_reference(
            name, width
        ).stats["good_passes"]

    @pytest.mark.parametrize("name", CIRCUIT_NAMES)
    @pytest.mark.parametrize("source", SOURCES)
    def test_serial_matches_oracle(self, name, source):
        """Serial grades one fault at a time — its counters are its own,
        but they too must be source-invariant, and its detection maps
        must equal the oracle's."""
        result = _simulate(name, "serial", source, WORD_WIDTH)
        _assert_detection(result, _oracle(name))
        reference = _simulate(name, "serial", "python", WORD_WIDTH)
        for counter in COUNTERS:
            assert result.stats[counter] == reference.stats[counter], counter

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("width", (1, 7, 333))
    def test_extreme_odd_widths(self, source, width):
        """No power-of-two assumption anywhere."""
        result = _simulate("c17", "ppsfp", source, width)
        _assert_detection(result, _oracle("c17"))


class TestBackendMatrix:
    """Multiprocess engines: every backend × source, forked fan-out included."""

    @pytest.mark.parametrize("name", CIRCUIT_NAMES)
    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("engine", ("pool", "supervised"))
    def test_multiprocess_matches_oracle(self, name, source, engine):
        result = _simulate(name, engine, source, 256, jobs=2)
        _assert_detection(result, _oracle(name))
        _assert_counters(result, _counter_reference(name, 256))
        assert result.stats["word_width"] == 256

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("width", (64, 1024))
    @pytest.mark.parametrize("engine", ("pool", "supervised"))
    def test_multiprocess_width_ladder(self, source, width, engine):
        name = "rand8"
        result = _simulate(name, engine, source, width, jobs=2)
        _assert_detection(result, _oracle(name))
        _assert_counters(result, _counter_reference(name, width))
        assert result.stats["word_width"] == width


class TestNoDropConformance:
    """Without fault dropping every pattern is graded for every fault —
    the heaviest counter path, exact across the full matrix."""

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("engine", BACKEND_NAMES)
    def test_no_drop_matches_oracle(self, source, engine):
        name = "rand8"
        jobs = 2 if engine in ("pool", "supervised") else None
        result = _simulate(name, engine, source, 256, drop=False, jobs=jobs)
        _assert_detection(result, _oracle(name, drop=False))
        if engine != "serial":
            _assert_counters(
                result, _counter_reference(name, 256, drop=False)
            )


class TestResponseConformance:
    """Good-machine responses (not just detections) equal the scalar
    4-valued simulator's, pattern by pattern."""

    @pytest.mark.parametrize("name", CIRCUIT_NAMES)
    @pytest.mark.parametrize("width", (64, 256))
    def test_responses_identical(self, name, width):
        netlist = _circuit(name)
        patterns = [list(p) for p in _patterns(name)]
        packed = ParallelSimulator(netlist, word_width=width, cache=None)
        scalar = LogicSimulator(netlist)
        assert packed.responses(patterns) == [
            scalar.response(pattern) for pattern in patterns
        ]


class TestAtpgVectorConformance:
    """ATPG × fault-sim conformance: a cube any engine generates must
    detect its target fault under both stuck-at graders, ``ppsfp`` (by
    fanout-free region) and ``serial`` (full faulty-machine re-evaluation).

    This closes the loop between the two halves of the toolkit — if the
    graders disagreed about an ATPG vector, either the engine's
    implication or a grader's fault injection would be wrong.  Hypothesis
    drives structurally diverse netlists (muxes, dangling cones,
    redundant logic) through all four engines.
    """

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(netlist=small_netlists(), data=st.data())
    def test_every_cube_detects_under_every_kernel(self, netlist, data):
        import random as _random

        from repro.atpg import ENGINE_NAMES, make_engine
        from repro.atpg.engine import x_fill

        netlist.finalize()
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        simulator = FaultSimulator(netlist, cache=None)
        fill_seed = data.draw(st.integers(min_value=0, max_value=2**16))
        for engine_name in ENGINE_NAMES:
            engine = make_engine(engine_name, netlist, backtrack_limit=256)
            for fault in faults:
                outcome = engine.generate(fault)
                if not outcome.detected:
                    continue
                rng = _random.Random(fill_seed)
                pattern = x_fill(outcome.cube, rng, "random")
                for grader in ("ppsfp", "serial"):
                    result = simulator.simulate(
                        [pattern], [fault], drop=True, engine=grader
                    )
                    assert fault in result.detected, (
                        f"{engine_name} cube missed {fault.describe(netlist)} "
                        f"under {grader}"
                    )
