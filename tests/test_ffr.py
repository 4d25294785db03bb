"""Fanout-free-region PPSFP against the serial engine.

``ppsfp`` grades each fault by fanout-free region (FFR): a local word
from the fault site to its region's stem, one propagation per activated
stem, and the AND of the two.  The oracle here is the ``serial`` engine
(one fault, one pattern, whole-netlist re-evaluation), which knows
nothing of regions.  Every check covers fault dropping on and off, and
word widths 1, 7 and 64 — 7 splits every pattern set into
ragged words, so a region's stem lanes cross word boundaries.

Circuits: the conformance set (all ≤16 test inputs), Hypothesis-drawn
netlists, and hand-built corner cases for the stem rule — one driver on
two pins of one gate, a reader that also fans out, a gate feeding only a
flop D pin, branch faults straight into POs and flops, CONST gates.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings

from repro.atpg.random_gen import exhaustive_patterns, random_patterns
from repro.circuit.builder import NetlistBuilder
from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.sim.dispatch import partition_faults
from repro.sim.faultsim import FaultSimulator

from tests.oracle_util import small_netlists
from tests.test_conformance import CIRCUIT_NAMES, _circuit

WIDTHS = (1, 7, 64)
DROPS = (True, False)

#: Exhaustive pattern sets up to this many test inputs, random above.
EXHAUSTIVE_INPUTS = 7


def every_site_fault(netlist):
    """Both stuck values on every gate output and every fanin pin —
    including INPUT outputs, PO-marker and flop pins, and CONST gates,
    sites the collapsed lists leave out."""
    faults = []
    for gate in netlist.gates:
        for pin in [OUTPUT_PIN, *range(len(gate.fanin))]:
            faults.extend(StuckAtFault(gate.index, pin, value) for value in (0, 1))
    return faults


def _patterns(netlist, seed=0, count=64):
    n_inputs = FaultSimulator(netlist, cache=None).view.num_inputs
    if n_inputs <= EXHAUSTIVE_INPUTS:
        return exhaustive_patterns(n_inputs)
    return random_patterns(n_inputs, count, seed=seed)


def _serial(netlist, patterns, faults):
    """The oracle.  Its detected map (first-detection indices) and
    survivor list are the same with or without dropping, so one dropping
    run serves both modes."""
    return FaultSimulator(netlist, cache=None).simulate(
        patterns, faults, drop=True, engine="serial"
    )


def assert_matches_serial(result, oracle, width, n_patterns, drop):
    assert result.detected == oracle.detected
    assert result.undetected == oracle.undetected
    assert result.total_faults == oracle.total_faults
    if not drop or result.undetected:
        assert result.patterns_simulated == n_patterns
    else:
        # With dropping PPSFP stops at the end of the word that detected
        # the last fault; serial stops at that pattern.
        last = max(oracle.detected.values(), default=-1)
        assert result.patterns_simulated == min(n_patterns, (last // width + 1) * width)


def check_all(netlist, patterns, faults):
    """Every width × drop setting against one serial run."""
    oracle = _serial(netlist, patterns, faults)
    for drop in DROPS:
        for width in WIDTHS:
            simulator = FaultSimulator(netlist, word_width=width, cache=None)
            result = simulator.simulate(patterns, faults, drop=drop)
            assert_matches_serial(result, oracle, width, len(patterns), drop)


# ----------------------------------------------------------------------
# Hand-built corner cases of the stem rule
# ----------------------------------------------------------------------


def corner_netlist():
    """One netlist holding every stem-rule corner case."""
    b = NetlistBuilder("ffr_corners")
    a, c, d, e, s = (b.input(name) for name in "acdes")
    zero, one = b.const0("zero"), b.const1("one")
    same_and = b.and_(a, a, name="same_and")        # one driver, two pins
    same_xor = b.xor(c, c, name="same_xor")         # constant 0: redundant
    same_mux = b.mux(s, s, d, name="same_mux")      # select is also data
    chain = b.nand(b.or_(same_and, e), same_mux, name="chain")
    reader = b.xor(chain, same_xor, name="reader")  # read, and fans out
    b.output("y_reader", reader)
    tail = b.and_(reader, b.or_(c, zero), name="tail")
    flop = b.dff(b.nor(tail, d, name="d_only"), name="ff")  # feeds only D
    masked = b.and_(flop, one, name="masked")
    b.output("y_masked", masked)
    b.output("y_flop_direct", flop)                 # flop output read as PO
    b.dff(b.buf(masked), name="ff2")
    return b.build()


def _gate(netlist, name):
    return next(g.index for g in netlist.gates if g.name == name)


class TestStemRule:
    def test_corner_stems(self):
        netlist = corner_netlist()
        simulator = FaultSimulator(netlist, cache=None)
        region = {
            g.name: simulator.fault_region(StuckAtFault(g.index, OUTPUT_PIN, 0))
            for g in netlist.gates
        }

        def is_stem(name):
            return region[name] == _gate(netlist, name)

        # Referenced twice by one gate, read by a PO, fanning out while
        # read, feeding only a flop D pin: all stems.
        for name in ("a", "c", "s", "reader", "d_only", "masked"):
            assert is_stem(name), name
        # One combinational pin each: inside the region of their consumer.
        for name in ("same_and", "same_mux", "chain", "one"):
            assert not is_stem(name), name
        assert region["same_and"] == region["chain"] == region["reader"]

    def test_branch_fault_shares_its_gates_region(self):
        netlist = corner_netlist()
        simulator = FaultSimulator(netlist, cache=None)
        chain = _gate(netlist, "chain")
        assert simulator.fault_region(StuckAtFault(chain, 0, 1)) == _gate(
            netlist, "reader"
        )


class TestCornerCases:
    def test_every_site_fault_matches_serial(self):
        netlist = corner_netlist()
        check_all(netlist, _patterns(netlist), every_site_fault(netlist))

    @pytest.mark.parametrize("op", ["and_", "nand", "or_", "nor", "xor", "xnor"])
    def test_driver_on_both_pins(self, op):
        b = NetlistBuilder(f"twice_{op}")
        a, c = b.input("a"), b.input("c")
        buffered = b.buf(a)
        b.output("y", b.or_(getattr(b, op)(buffered, buffered), c))
        netlist = b.build()
        check_all(netlist, _patterns(netlist), every_site_fault(netlist))

    @pytest.mark.parametrize("pin", [1, 2])
    def test_mux_select_shared_with_data(self, pin):
        b = NetlistBuilder(f"mux_select_{pin}")
        s, d = b.input("s"), b.input("d")
        select = b.not_(s)
        data = [d, d]
        data[pin - 1] = select
        b.output("y", b.mux(select, *data))
        netlist = b.build()
        check_all(netlist, _patterns(netlist), every_site_fault(netlist))

    def test_const_gates(self):
        b = NetlistBuilder("consts")
        a = b.input("a")
        b.output("y0", b.and_(a, b.const1()))
        b.output("y1", b.or_(b.not_(a), b.const0()))
        b.output("y2", b.const1())
        netlist = b.build()
        check_all(netlist, _patterns(netlist), every_site_fault(netlist))


# ----------------------------------------------------------------------
# The conformance circuits and generated netlists
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _conformance_case(name):
    netlist = _circuit(name)
    return netlist, _patterns(netlist, seed=CIRCUIT_NAMES.index(name))


class TestOracleCircuits:
    @pytest.mark.parametrize("name", CIRCUIT_NAMES)
    def test_every_site_fault_matches_serial(self, name):
        netlist, patterns = _conformance_case(name)
        assert FaultSimulator(netlist, cache=None).view.num_inputs <= 16
        check_all(netlist, patterns, every_site_fault(netlist))

    @pytest.mark.parametrize("name", CIRCUIT_NAMES)
    def test_shards_hold_whole_regions(self, name):
        netlist, _ = _conformance_case(name)
        simulator = FaultSimulator(netlist, cache=None)
        faults = every_site_fault(netlist)
        shards = partition_faults(faults, 4, 7, simulator.fault_region)
        assert shards == partition_faults(faults, 4, 7, simulator.fault_region)
        assert sorted(f for shard in shards for f in shard) == sorted(faults)
        owner = {}
        for index, shard in enumerate(shards):
            for fault in shard:
                assert owner.setdefault(simulator.fault_region(fault), index) == index


class TestGeneratedNetlists:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(netlist=small_netlists())
    def test_matches_serial(self, netlist):
        check_all(netlist, _patterns(netlist, count=40), every_site_fault(netlist))
