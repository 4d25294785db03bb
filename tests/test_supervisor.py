"""Supervised fault-sim pool: chaos-injection differential harness.

The supervisor's contract mirrors the dispatch layer's, under fire: for
ANY injected failure schedule — workers crashing, hanging, raising, or
returning corrupt partials — the recovered merged result must be
bit-identical to single-process PPSFP (same detected map, same
first-detection indices, same undetected list).  When recovery is
impossible, the run must degrade into an explicit partial result, never
a traceback.
"""

import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.random_gen import random_patterns
from repro.circuit import benchmarks, generators
from repro.faults import collapse_faults, full_fault_list
from repro.sim.chaos import CRASH_EXIT_CODE, ChaosError, ChaosPlan
from repro.sim.faultsim import FaultSimResult, FaultSimulator
from repro.sim.store import ShardStore
from repro.sim.supervisor import (
    SupervisedPoolBackend,
    SupervisorConfig,
    _Slot,
    validate_partial,
)


#: How the patterns reach the runner: python lists or a numpy bit matrix.
SOURCES = ("python", "numpy")


def _setup(n_inputs=6, n_gates=40, seed=7, n_patterns=96, source="python"):
    netlist = generators.random_circuit(n_inputs, n_gates, seed=seed)
    simulator = FaultSimulator(netlist)
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    patterns = random_patterns(simulator.view.num_inputs, n_patterns, seed=seed)
    if source == "numpy":
        patterns = np.array(patterns, dtype=np.uint8)
    reference = simulator.simulate(patterns, faults, engine="ppsfp")
    return simulator, faults, patterns, reference


def _assert_identical(result, reference):
    assert result.detected == reference.detected
    assert result.undetected == reference.undetected
    assert result.total_faults == reference.total_faults


class TestCleanRuns:
    @pytest.mark.parametrize("index", range(3))
    def test_matches_ppsfp(self, index):
        circuits = [
            benchmarks.c17(),
            generators.random_circuit(5, 30, seed=101),
            generators.random_sequential(4, 40, 5, seed=303),
        ]
        netlist = circuits[index]
        simulator = FaultSimulator(netlist)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        patterns = random_patterns(simulator.view.num_inputs, 64, seed=index)
        for drop in (True, False):
            reference = simulator.simulate(patterns, faults, drop=drop)
            supervised = simulator.simulate(
                patterns, faults, drop=drop, engine="supervised", jobs=2
            )
            _assert_identical(supervised, reference)
            assert supervised.patterns_simulated == reference.patterns_simulated
            stats = supervised.stats
            assert stats["engine"] == "supervised"
            assert stats["worker_crashes"] == 0
            assert stats["retries"] == 0
            assert "failed_partitions" not in stats

    def test_partitions_override_threads_through(self):
        simulator, faults, patterns, reference = _setup()
        result = simulator.simulate(
            patterns, faults, engine="supervised", jobs=2, partitions=3
        )
        _assert_identical(result, reference)
        assert result.stats["n_partitions"] == 3
        assert len(result.stats["partitions"]) == 3

    def test_zero_faults(self):
        simulator, _, patterns, _ = _setup()
        result = simulator.simulate(patterns, [], engine="supervised")
        assert result.total_faults == 0
        assert result.detected == {} and result.undetected == []


class TestChaosRecovery:
    @pytest.mark.parametrize("source", SOURCES)
    def test_crash_recovered(self, source):
        simulator, faults, patterns, reference = _setup(source=source)
        backend = SupervisedPoolBackend(
            jobs=2, chaos=ChaosPlan.single(2, "crash", times=2)
        )
        result = backend.run(simulator, patterns, faults)
        _assert_identical(result, reference)
        assert result.stats["worker_crashes"] == 2
        assert result.stats["retries"] == 2
        partition2 = next(
            p for p in result.stats["partitions"] if p["partition"] == 2
        )
        assert partition2["attempts"] == 3  # two crashes + one clean run

    @pytest.mark.parametrize("source", SOURCES)
    def test_hang_killed_and_recovered(self, source):
        simulator, faults, patterns, reference = _setup(source=source)
        backend = SupervisedPoolBackend(
            jobs=2,
            chaos=ChaosPlan.single(1, "hang"),
            config=SupervisorConfig(timeout_s=0.5),
        )
        result = backend.run(simulator, patterns, faults)
        _assert_identical(result, reference)
        assert result.stats["timeouts"] == 1

    def test_raise_reported_and_recovered(self):
        simulator, faults, patterns, reference = _setup()
        backend = SupervisedPoolBackend(
            jobs=2, chaos=ChaosPlan.single(0, "raise")
        )
        result = backend.run(simulator, patterns, faults)
        _assert_identical(result, reference)
        assert result.stats["worker_crashes"] == 1  # error message, not timeout

    def test_corrupt_result_rejected_and_recovered(self):
        simulator, faults, patterns, reference = _setup()
        backend = SupervisedPoolBackend(
            jobs=2, chaos=ChaosPlan.single(3, "corrupt")
        )
        result = backend.run(simulator, patterns, faults)
        _assert_identical(result, reference)
        assert result.stats["invalid_results"] == 1

    def test_poisoned_partition_falls_back_inline(self):
        """Crashing every pool attempt forces the parent to grade inline."""
        simulator, faults, patterns, reference = _setup()
        backend = SupervisedPoolBackend(
            jobs=2, chaos=ChaosPlan.single(4, "crash", times=3)
        )
        result = backend.run(simulator, patterns, faults)
        _assert_identical(result, reference)
        assert result.stats["inline_fallbacks"] == 1
        partition4 = next(
            p for p in result.stats["partitions"] if p["partition"] == 4
        )
        assert partition4["source"] == "inline"

    def test_multiple_simultaneous_failures(self):
        simulator, faults, patterns, reference = _setup()
        chaos = ChaosPlan(
            schedule={0: ("crash",), 2: ("corrupt", "crash"), 5: ("raise",)}
        )
        backend = SupervisedPoolBackend(jobs=3, chaos=chaos)
        result = backend.run(simulator, patterns, faults)
        _assert_identical(result, reference)
        assert result.stats["retries"] == 4


class TestGracefulDegradation:
    @pytest.mark.parametrize("source", SOURCES)
    def test_unrecoverable_partition_yields_partial_result(self, source):
        simulator, faults, patterns, reference = _setup(source=source)
        backend = SupervisedPoolBackend(
            jobs=2,
            chaos=ChaosPlan.single(3, "crash", times=3),
            config=SupervisorConfig(inline_fallback=False),
        )
        result = backend.run(simulator, patterns, faults)
        failed = result.stats["failed_partitions"]
        assert len(failed) == 1 and failed[0]["partition"] == 3
        assert failed[0]["faults"] > 0 and failed[0]["attempts"] == 3
        # The failed shard's faults stay conservatively undetected: the
        # result is a lower bound on coverage, and all accounting holds.
        assert result.coverage < reference.coverage
        assert result.stats["coverage_lower_bound"] == result.coverage
        assert set(result.detected) < set(reference.detected)
        assert all(
            result.detected[f] == reference.detected[f] for f in result.detected
        )
        assert len(result.detected) + len(result.undetected) == len(faults)

    def test_inline_chaos_defeats_the_fallback(self):
        """A schedule long enough to cover the inline attempt is fatal."""
        simulator, faults, patterns, _ = _setup()
        backend = SupervisedPoolBackend(
            jobs=2,
            chaos=ChaosPlan(schedule={1: ("crash", "crash", "crash", "raise")}),
        )
        result = backend.run(simulator, patterns, faults)
        failed = result.stats["failed_partitions"]
        assert len(failed) == 1
        assert "inline fallback failed" in failed[0]["reason"]
        assert result.stats["inline_fallbacks"] == 1

    def test_inline_crash_injection_cannot_kill_the_parent(self):
        """A crash scheduled for the inline attempt degrades to a failed
        shard — it must never ``os._exit`` the supervising process."""
        simulator, faults, patterns, _ = _setup()
        backend = SupervisedPoolBackend(
            jobs=2,
            chaos=ChaosPlan.single(0, "crash", times=2),
            config=SupervisorConfig(max_retries=0),
        )
        result = backend.run(simulator, patterns, faults)
        failed = result.stats["failed_partitions"]
        assert len(failed) == 1 and failed[0]["partition"] == 0
        assert "injected crash" in failed[0]["reason"]


class _ExitsDuringPoll:
    """A worker that sends its result and exits right after the
    supervisor's first empty poll of the pipe."""

    def __init__(self):
        self.exited = False
        self.exitcode = None

    # Pipe end.
    def poll(self):
        ready = self.exited
        self.exited = True  # the send + exit lands between two checks
        self.exitcode = 0
        return ready

    def recv(self):
        return ("ok", "partial")

    def close(self):
        pass

    # Process.
    def is_alive(self):
        return not self.exited

    def join(self, timeout=None):
        pass


class TestPollSlot:
    def test_result_shipped_just_before_exit_is_not_a_crash(self):
        """A worker that exits between the pipe check and the liveness
        check has already shipped its result: read it, don't retry."""
        worker = _ExitsDuringPoll()
        slot = _Slot(0, 0, worker, worker, deadline=None)
        backend = SupervisedPoolBackend(jobs=1)
        assert backend._poll_slot(slot, 0.0) is None  # still running
        assert backend._poll_slot(slot, 0.0) == ("ok", "partial")


class TestValidation:
    def test_validate_partial_accepts_clean_result(self):
        simulator, faults, patterns, _ = _setup()
        shard = faults[:5]
        partial = simulator.simulate(patterns, shard)
        assert validate_partial(partial, shard, len(patterns)) is None

    def test_validate_partial_rejects_structural_damage(self):
        simulator, faults, patterns, _ = _setup()
        shard = faults[:5]
        clean = simulator.simulate(patterns, shard)

        missing = FaultSimResult(
            total_faults=clean.total_faults,
            detected=dict(clean.detected),
            undetected=clean.undetected[:-1] if clean.undetected else [],
        )
        if clean.undetected:
            assert "not fully accounted" in validate_partial(
                missing, shard, len(patterns)
            )

        out_of_range = FaultSimResult(
            total_faults=clean.total_faults,
            detected=dict(clean.detected),
            undetected=list(clean.undetected),
        )
        fault = next(iter(out_of_range.detected))
        out_of_range.detected[fault] = len(patterns) + 1
        assert "out of range" in validate_partial(out_of_range, shard, len(patterns))

        foreign = FaultSimResult(
            total_faults=clean.total_faults,
            detected={**clean.detected, faults[10]: 0},
            undetected=list(clean.undetected),
        )
        assert validate_partial(foreign, shard, len(patterns)) is not None

    def test_config_and_argument_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            SupervisedPoolBackend(jobs=0)
        with pytest.raises(ValueError, match="partitions"):
            SupervisedPoolBackend(partitions=-1)
        with pytest.raises(ValueError, match="seed"):
            SupervisedPoolBackend(seed=-3)
        with pytest.raises(ValueError, match="timeout_s"):
            SupervisedPoolBackend(config=SupervisorConfig(timeout_s=0))
        with pytest.raises(ValueError, match="max_retries"):
            SupervisedPoolBackend(config=SupervisorConfig(max_retries=-1))
        with pytest.raises(ValueError, match="chaos mode"):
            ChaosPlan(schedule={0: ("explode",)})
        with pytest.raises(ValueError, match="partition index"):
            ChaosPlan(schedule={-1: ("crash",)})


class TestChaosPlan:
    def test_schedule_semantics(self):
        plan = ChaosPlan(schedule={2: ("crash", "hang")})
        assert plan.mode_for(2, 0) == "crash"
        assert plan.mode_for(2, 1) == "hang"
        assert plan.mode_for(2, 2) is None  # past the schedule: clean
        assert plan.mode_for(0, 0) is None  # unscheduled partition: clean

    def test_parse_round_trip(self):
        plan = ChaosPlan.parse(["2:crash,crash", "0:hang", "2:raise"])
        assert plan.schedule == {2: ("crash", "crash", "raise"), 0: ("hang",)}
        with pytest.raises(ValueError, match="chaos spec"):
            ChaosPlan.parse(["nonsense"])
        with pytest.raises(ValueError, match="no modes"):
            ChaosPlan.parse(["3:"])

    def test_raise_hook(self):
        plan = ChaosPlan.single(1, "raise")
        with pytest.raises(ChaosError):
            plan.execute_pre(1, 0)
        plan.execute_pre(1, 1)  # attempt past schedule: no-op
        plan.execute_pre(0, 0)  # other partition: no-op
        assert CRASH_EXIT_CODE != 0


class TestKeyboardInterruptTeardown:
    @pytest.mark.parametrize("source", SOURCES)
    def test_workers_reaped_and_journal_flushed(
        self, source, tmp_path, monkeypatch
    ):
        """An interrupt mid-campaign must kill children, keep the shards
        already published and release every held lease."""
        simulator, faults, patterns, _ = _setup(source=source)
        store_dir = tmp_path / "interrupted"
        backend = SupervisedPoolBackend(
            jobs=1, partitions=4,
            store=ShardStore(str(store_dir), runner_id="resume"),
        )
        spawned = []
        original_spawn = SupervisedPoolBackend._spawn

        def interrupting_spawn(self, *args, **kwargs):
            if len(spawned) >= 2:
                raise KeyboardInterrupt
            slot = original_spawn(self, *args, **kwargs)
            spawned.append(slot)
            return slot

        monkeypatch.setattr(SupervisedPoolBackend, "_spawn", interrupting_spawn)
        with pytest.raises(KeyboardInterrupt):
            backend.run(simulator, patterns, faults)
        # Every spawned worker is dead, completed shards are durable, and
        # no lease is left for the rerun to wait out.
        for slot in spawned:
            assert not slot.process.is_alive()
        assert not multiprocessing.active_children()
        names = sorted(os.listdir(store_dir / "shards"))
        assert len([n for n in names if n.endswith(".result")]) == 2
        assert [n for n in names if n.endswith(".lease")] == []
        monkeypatch.undo()
        # The interrupted campaign resumes: published shards are skipped
        # and the final merge is bit-identical to a clean run.
        resumed = SupervisedPoolBackend(
            jobs=1, partitions=4,
            store=ShardStore(str(store_dir), runner_id="resume"),
        ).run(simulator, patterns, faults)
        reference = simulator.simulate(patterns, faults)
        _assert_identical(resumed, reference)
        assert resumed.stats["resumed"] == 2


class TestChaosScheduleProperty:
    """Hypothesis: ANY recoverable injected schedule merges bit-identically."""

    @settings(max_examples=12, deadline=None)
    @given(
        schedule=st.dictionaries(
            keys=st.integers(min_value=0, max_value=3),
            values=st.lists(
                st.sampled_from(["crash", "raise", "corrupt"]),
                min_size=1,
                max_size=2,
            ).map(tuple),
            max_size=3,
        )
    )
    def test_recovered_merge_identical_to_ppsfp(self, schedule):
        netlist = generators.random_circuit(5, 25, seed=11)
        simulator = FaultSimulator(netlist)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        patterns = random_patterns(simulator.view.num_inputs, 48, seed=11)
        reference = simulator.simulate(patterns, faults)
        # Schedules are capped at max_retries entries, so the pool always
        # has one clean attempt left: recovery is guaranteed, identity must
        # hold exactly.
        backend = SupervisedPoolBackend(
            jobs=2,
            partitions=4,
            chaos=ChaosPlan(schedule=schedule),
            config=SupervisorConfig(max_retries=2, backoff_s=0.0),
        )
        result = backend.run(simulator, patterns, faults)
        _assert_identical(result, reference)
        assert "failed_partitions" not in result.stats
        injected = sum(len(modes) for p, modes in schedule.items() if p < 4)
        assert result.stats["retries"] == injected
