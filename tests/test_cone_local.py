"""Cone-local per-fault work, checked against whole-netlist references.

Two per-fault loops used to walk the whole netlist: the PPSFP readout
(every observation reader, per fault) and the ATPG all-X implication
(every gate, per fault).  Both now visit only the fault's cone.  These
differential tests pin them to the whole-netlist computations they
replace:

* **Cached all-X implication** — ``_initial_values(fault)`` (the engine's
  fault-free all-X state plus a re-implication from the fault site) must
  equal a from-scratch topological implication with the fault injected,
  exactly, for every collapsed fault.
* **Sparse readout** — detected maps must equal an all-readers readout
  for stuck-at, transition and bridging faults on netlists whose
  response vector reads some gates twice.
* **Implication counter** — the per-search work count is deterministic
  and reaches the campaign result and the observation.
"""

import functools

import pytest

from repro import obs
from repro.atpg import make_engine, run_atpg
from repro.atpg.dalg import DAlgorithm
from repro.atpg.guided import GuidedPodem
from repro.atpg.podem import _RAIL_X, Podem
from repro.atpg.random_gen import random_patterns
from repro.circuit import benchmarks, generators
from repro.circuit.builder import NetlistBuilder
from repro.circuit.dcalc import DX
from repro.circuit.gates import GateType
from repro.faults import OUTPUT_PIN, StuckAtFault, collapse_faults, full_fault_list
from repro.faults.bridging import sample_bridging_faults
from repro.faults.transition import full_transition_list
from repro.scan.insertion import insert_scan
from repro.sim.faultsim import FaultSimulator


def _mixed():
    """MUX2s, both constants, flops, a gate fed twice by one net, and a
    response vector that reads two gates twice."""
    builder = NetlistBuilder("cone_mix")
    a, b, c, s = (builder.input(name) for name in "abcs")
    zero, one = builder.const0(), builder.const1()
    picked = builder.mux(s, a, b)
    n1 = builder.and_(picked, one)
    n2 = builder.or_(c, zero)
    n3 = builder.xor(n1, n2)
    n4 = builder.and_(a, a)
    q = builder.dff(n3)
    n5 = builder.nand(q, n4)
    n6 = builder.mux(q, n5, zero)
    q2 = builder.dff(n5)
    builder.output("y0", n6)
    builder.output("y1", n6)
    builder.output("y2", n3)
    builder.output("y3", builder.xnor(q2, n2))
    return builder.build()


@functools.lru_cache(maxsize=None)
def _scanned_pe_array():
    design = insert_scan(benchmarks.get_benchmark("pe4_x16"), n_chains=16)
    return design.netlist


CIRCUITS = {
    "c17": benchmarks.c17,
    "cone_mix": _mixed,
    "mac2": lambda: generators.mac_unit(2),
    "seq6": lambda: generators.random_sequential(6, 50, 8, seed=404),
    "pe4_x16_scan": _scanned_pe_array,
}


@functools.lru_cache(maxsize=None)
def _circuit(name):
    netlist = CIRCUITS[name]()
    netlist.finalize()
    return netlist


@functools.lru_cache(maxsize=None)
def _collapsed(name):
    netlist = _circuit(name)
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    return tuple(faults)


# ----------------------------------------------------------------------
# Cached all-X implication
# ----------------------------------------------------------------------


def _implied(engine, fault, order, values):
    """Topological implication over ``order`` with ``fault`` injected —
    the whole-netlist pass ``_initial_values`` ran before the cache."""
    gates = engine.netlist.gates
    for index in order:
        gate = gates[index]
        if gate.type == GateType.INPUT or gate.is_sequential:
            if fault.pin == OUTPUT_PIN and index == fault.gate:
                values[index] = _RAIL_X * 3 + fault.value
            continue
        values[index] = engine._recompute(index, fault, values)
    return values


def _from_scratch(engine, fault):
    netlist = engine.netlist
    return _implied(engine, fault, netlist.topo_order, [DX] * len(netlist.gates))


def _cone_order(netlist, position, root):
    """The root's combinational fanout, walked from ``Gate.fanout`` (not
    the shared consumer table), in topological order."""
    seen, stack = set(), [root]
    while stack:
        index = stack.pop()
        if index not in seen:
            seen.add(index)
            stack.extend(
                consumer
                for consumer in netlist.gates[index].fanout
                if not netlist.gates[consumer].is_sequential
            )
    return sorted(seen, key=position.__getitem__)


def _site_kinds(netlist, faults):
    """Which of the tricky fault sites a fault list exercises."""
    gates = netlist.gates
    kinds = set()
    for fault in faults:
        gate = gates[fault.gate]
        if fault.pin == OUTPUT_PIN and gate.type == GateType.INPUT:
            kinds.add("input")
        elif fault.pin == OUTPUT_PIN and gate.is_sequential:
            kinds.add("flop_output")
        elif fault.pin != OUTPUT_PIN and gate.is_sequential:
            kinds.add("flop_d_branch")
        elif gate.type in (GateType.CONST0, GateType.CONST1):
            kinds.add("const")
        elif gate.type == GateType.MUX2:
            kinds.add("mux")
    return kinds


def _special_faults(netlist):
    """Both polarities on every INPUT, flop output, flop D pin, constant
    and mux — collapsing may keep only one representative of each."""
    faults = []
    for gate in netlist.gates:
        if gate.type == GateType.INPUT or gate.is_sequential:
            pins = [OUTPUT_PIN] + ([0] if gate.is_sequential else [])
        elif gate.type in (GateType.CONST0, GateType.CONST1, GateType.MUX2):
            pins = [OUTPUT_PIN] + list(range(len(gate.fanin)))
        else:
            continue
        faults.extend(
            StuckAtFault(gate.index, pin, value) for pin in pins for value in (0, 1)
        )
    return faults


class TestCachedAllXImplication:
    @pytest.mark.parametrize("name", ["c17", "cone_mix", "mac2", "seq6"])
    @pytest.mark.parametrize("engine_class", [Podem, GuidedPodem, DAlgorithm])
    def test_equals_from_scratch_for_every_fault(self, name, engine_class):
        """Searches in between must leave the cached state untouched."""
        netlist = _circuit(name)
        engine = engine_class(netlist, backtrack_limit=16)
        faults = list(_collapsed(name)) + _special_faults(netlist)
        for fault in faults:
            engine.generate(fault)
            assert engine._initial_values(fault) == _from_scratch(engine, fault), (
                fault.describe(netlist)
            )

    @pytest.mark.parametrize("name", ["cone_mix", "seq6", "pe4_x16_scan"])
    def test_fault_lists_cover_the_special_sites(self, name):
        netlist = _circuit(name)
        kinds = _site_kinds(netlist, list(_collapsed(name)) + _special_faults(netlist))
        expected = {"input", "flop_output", "flop_d_branch"}
        if name != "seq6":
            expected |= {"const", "mux"}
        assert expected <= kinds

    def test_scanned_pe_array_every_collapsed_fault(self):
        """All 9890 collapsed faults of the scan-inserted PE array.

        The reference starts from an independent fault-free pass and
        re-evaluates, topologically, every gate of the fault's cone: gates
        outside it cannot depend on the fault site.
        """
        netlist = _scanned_pe_array()
        engine = Podem(netlist)
        faults = list(_collapsed("pe4_x16_scan")) + _special_faults(netlist)
        assert len(_collapsed("pe4_x16_scan")) == 9890
        fault_free = _from_scratch(engine, StuckAtFault(-1, OUTPUT_PIN, 0))
        position = {gate: k for k, gate in enumerate(netlist.topo_order)}
        for fault in faults:
            cone = _cone_order(netlist, position, fault.gate)
            reference = _implied(engine, fault, cone, list(fault_free))
            assert engine._initial_values(fault) == reference, fault.describe(netlist)

    def test_scanned_pe_array_sample_against_whole_netlist_pass(self):
        netlist = _scanned_pe_array()
        engine = Podem(netlist)
        faults = list(_collapsed("pe4_x16_scan"))[::199] + _special_faults(netlist)[::31]
        for fault in faults:
            assert engine._initial_values(fault) == _from_scratch(engine, fault), (
                fault.describe(netlist)
            )


# ----------------------------------------------------------------------
# Sparse readout
# ----------------------------------------------------------------------


class AllReadersSimulator(FaultSimulator):
    """The readout before it went cone-local: every reader, every fault."""

    def _reader_diff(self, good, faulty):
        diff = 0
        for reader in self._readers:
            diff |= faulty.get(reader, good[reader]) ^ good[reader]
        return diff


def _same(result, reference):
    assert result.detected == reference.detected
    assert result.undetected == reference.undetected
    assert result.patterns_simulated == reference.patterns_simulated
    for key in ("events_propagated", "words_evaluated", "good_passes"):
        assert result.stats[key] == reference.stats[key], key


READOUT_CIRCUITS = ["cone_mix", "seq6", "pe4_x16_scan"]


def _sample(name, faults):
    """Every fault on the small circuits; a stride on the PE array."""
    return faults[::4] if name == "pe4_x16_scan" else faults


class TestSparseReadout:
    @pytest.mark.parametrize("name", ["cone_mix", "pe4_x16_scan"])
    def test_netlist_reads_some_gates_twice(self, name):
        readers = FaultSimulator(_circuit(name), cache=None)._readers
        assert len(readers) > len(set(readers))
        if name == "pe4_x16_scan":
            assert (len(readers), len(set(readers))) == (592, 576)

    @pytest.mark.parametrize("name", READOUT_CIRCUITS)
    @pytest.mark.parametrize("drop", [True, False])
    def test_stuck_at(self, name, drop):
        netlist = _circuit(name)
        faults = _sample(name, list(_collapsed(name)) + _special_faults(netlist))
        sparse = FaultSimulator(netlist, cache=None)
        patterns = random_patterns(sparse.view.num_inputs, 80, seed=5)
        _same(
            sparse.simulate(patterns, faults, drop=drop),
            AllReadersSimulator(netlist, cache=None).simulate(patterns, faults, drop=drop),
        )

    @pytest.mark.parametrize("name", READOUT_CIRCUITS)
    def test_transition(self, name):
        netlist = _circuit(name)
        faults = _sample(name, full_transition_list(netlist))
        sparse = FaultSimulator(netlist, cache=None)
        patterns = random_patterns(sparse.view.num_inputs, 96, seed=6)
        pairs = list(zip(patterns[::2], patterns[1::2]))
        for drop in (True, False):
            _same(
                sparse.simulate_transition(pairs, faults, drop=drop),
                AllReadersSimulator(netlist, cache=None).simulate_transition(
                    pairs, faults, drop=drop
                ),
            )

    @pytest.mark.parametrize("name", READOUT_CIRCUITS)
    def test_bridging(self, name):
        netlist = _circuit(name)
        faults = sample_bridging_faults(netlist, 60, seed=7)
        sparse = FaultSimulator(netlist, cache=None)
        patterns = random_patterns(sparse.view.num_inputs, 80, seed=7)
        for drop in (True, False):
            _same(
                sparse.simulate_bridging(patterns, faults, drop=drop),
                AllReadersSimulator(netlist, cache=None).simulate_bridging(
                    patterns, faults, drop=drop
                ),
            )


# ----------------------------------------------------------------------
# Implication counter
# ----------------------------------------------------------------------


class TestImplicationCounter:
    @pytest.mark.parametrize("engine_name", ["podem", "guided", "dalg", "portfolio"])
    def test_per_fault_count_is_deterministic(self, engine_name):
        """Same fault, same count — whatever the engine searched before."""
        netlist = _circuit("mac2")
        faults = _collapsed("mac2")
        first = make_engine(engine_name, netlist, backtrack_limit=8)
        forward = [first.generate(fault).implications for fault in faults]
        second = make_engine(engine_name, netlist, backtrack_limit=8)
        backward = [second.generate(fault).implications for fault in reversed(faults)]
        assert forward == backward[::-1]
        assert sum(forward) > 0

    def test_portfolio_sums_its_members(self):
        netlist = _circuit("seq6")
        portfolio = make_engine("portfolio", netlist, backtrack_limit=2)
        for fault in _collapsed("seq6"):
            outcome = portfolio.generate(fault)
            assert outcome.implications == sum(outcome.engine_implications.values())
            assert set(outcome.engine_implications) <= {"podem", "guided", "dalg"}

    def test_campaign_result_and_observation(self):
        netlist = generators.random_resistant(14, cones=3)
        with obs.observe("atpg") as observation:
            result = run_atpg(
                netlist, engine="portfolio", seed=1, random_batches=2, backtrack_limit=16
            )
        assert set(result.engine_implications) == {"podem", "guided", "dalg"}
        assert observation.counter("atpg.implications").value == sum(
            result.engine_implications.values()
        )


# ----------------------------------------------------------------------
# Aborted faults the delivered pattern set detects
# ----------------------------------------------------------------------


class TestAbortedFaultsCredited:
    def test_final_patterns_grade_the_aborted_faults(self):
        """PODEM with a tight budget aborts faults that later cubes (and
        their compacted re-fills) happen to detect; the flow credits them.
        Before the fix this campaign claimed 522 detections of 523."""
        netlist = generators.mac_unit(4)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        result = run_atpg(
            netlist, faults=faults, backtrack_limit=4, random_batches=1, seed=6
        )
        graded = FaultSimulator(netlist, cache=None).simulate(result.patterns, faults)
        assert result.detected == len(graded.detected) == 523
        assert not set(result.aborted) & set(graded.detected)
        assert (
            result.detected
            + len(result.untestable)
            + len(result.aborted)
            + len(result.consistency_errors)
            == result.total_faults
        )
        assert sum(result.abort_reasons.values()) == len(result.aborted)
        for reasons in result.engine_abort_reasons.values():
            assert sum(reasons.values()) == len(result.aborted)
