"""Campaign resume record: the digests and :class:`CampaignKey` that bind
published shards to one campaign, round-trips through a shard store,
refusal of shards cut by another campaign, and ``--resume``-style reruns
that skip what an earlier run under the same runner id published."""

import json
import os

import pytest

from repro.atpg.random_gen import random_patterns
from repro.circuit import benchmarks, generators
from repro.faults import collapse_faults, full_fault_list
from repro.faults.model import StuckAtFault
from repro.sim.chaos import ChaosPlan
from repro.sim.dispatch import SHARDING_SCHEME
from repro.sim.faultsim import FaultSimulator
from repro.sim.store import (
    CampaignKey,
    ShardStore,
    StoreCorruptionError,
    StoreMismatchError,
    fault_digest,
    pattern_digest,
    result_digest,
)
from repro.sim.supervisor import (
    RESUME_RUNNER_ID,
    SupervisedPoolBackend,
    SupervisorConfig,
)


def _setup(seed=5):
    netlist = generators.random_circuit(6, 35, seed=seed)
    simulator = FaultSimulator(netlist)
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    patterns = random_patterns(simulator.view.num_inputs, 64, seed=seed)
    return netlist, simulator, faults, patterns


def _resume_store(path):
    return ShardStore(str(path), runner_id=RESUME_RUNNER_ID)


class TestDigests:
    def test_pattern_digest_deterministic_and_sensitive(self):
        patterns = [[0, 1, 0], [1, 1, 1]]
        assert pattern_digest(patterns) == pattern_digest([list(p) for p in patterns])
        assert pattern_digest(patterns) != pattern_digest([[0, 1, 0]])
        assert pattern_digest(patterns) != pattern_digest([[1, 1, 1], [0, 1, 0]])
        flipped = [[0, 1, 1], [1, 1, 1]]
        assert pattern_digest(patterns) != pattern_digest(flipped)

    def test_fault_digest_order_insensitive(self):
        a = StuckAtFault(3, 0, 1)
        b = StuckAtFault(7, -1, 0)
        assert fault_digest([a, b]) == fault_digest([b, a])
        assert fault_digest([a, b]) != fault_digest([a])
        assert fault_digest([a]) != fault_digest([StuckAtFault(3, 0, 0)])

    def test_campaign_key_binds_every_dimension(self):
        netlist, _, faults, patterns = _setup()
        base = CampaignKey.build(netlist, patterns, faults, 0, 8, True)
        assert base == CampaignKey.build(netlist, patterns, faults, 0, 8, True)
        assert base != CampaignKey.build(netlist, patterns, faults, 1, 8, True)
        assert base != CampaignKey.build(netlist, patterns, faults, 0, 9, True)
        assert base != CampaignKey.build(netlist, patterns, faults, 0, 8, False)
        assert base != CampaignKey.build(netlist, patterns[:-1], faults, 0, 8, True)
        assert base != CampaignKey.build(netlist, patterns, faults[:-1], 0, 8, True)
        other = benchmarks.c17()
        other_faults, _ = collapse_faults(other, full_fault_list(other))
        key_other = CampaignKey.build(
            other, patterns, other_faults, 0, 8, True
        )
        assert base.signature != key_other.signature


class TestRoundTrip:
    def test_record_and_load_identity(self, tmp_path):
        netlist, simulator, faults, patterns = _setup()
        partial = simulator.simulate(patterns, faults[:10])
        key = CampaignKey.build(netlist, patterns, faults[:10], 0, 1, True)
        store = _resume_store(tmp_path)
        assert store.initialize(key, 1) is True
        assert store.publish(0, partial) is True
        loaded = _resume_store(tmp_path).load_results()
        assert set(loaded) == {0}
        restored = loaded[0]
        assert restored.detected == partial.detected
        assert restored.undetected == partial.undetected
        assert restored.total_faults == partial.total_faults
        assert restored.patterns_simulated == partial.patterns_simulated
        assert restored.stats["published_by"] == RESUME_RUNNER_ID

    def test_strict_mismatch_raises(self, tmp_path):
        netlist, _, faults, patterns = _setup()
        key = CampaignKey.build(netlist, patterns, faults, 0, 4, True)
        _resume_store(tmp_path).initialize(key, 4)
        wrong_seed = CampaignKey.build(netlist, patterns, faults, 9, 4, True)
        with pytest.raises(StoreMismatchError, match="seed"):
            _resume_store(tmp_path).initialize(wrong_seed, 4)

    def test_per_fault_shard_journal_refused(self, tmp_path):
        """A campaign pinned before shards held whole fanout-free regions
        names no sharding scheme.  Same seed and count, different shards:
        resume must not merge them."""
        netlist, simulator, faults, patterns = _setup()
        key = CampaignKey.build(netlist, patterns, faults, 0, 4, True)
        assert key.sharding == SHARDING_SCHEME
        _resume_store(tmp_path).initialize(key, 4)
        campaign = tmp_path / "campaign.json"
        pinned = json.loads(campaign.read_text())
        del pinned["key"]["sharding"]
        campaign.write_text(json.dumps(pinned))
        with pytest.raises(StoreMismatchError, match="sharding"):
            SupervisedPoolBackend(
                jobs=2, partitions=4, store=_resume_store(tmp_path)
            ).run(simulator, patterns, faults)


class TestDurability:
    """Every store write goes through a private temp file that is renamed
    or linked into place and then removed."""

    def test_begin_leaves_no_temp_file(self, tmp_path):
        _, simulator, faults, patterns = _setup()
        for _ in range(2):  # a fresh run, then a resumed one
            SupervisedPoolBackend(
                jobs=2, partitions=4, store=_resume_store(tmp_path)
            ).run(simulator, patterns, faults)
        names = os.listdir(tmp_path) + os.listdir(tmp_path / "shards")
        assert [name for name in names if ".tmp" in name] == []
        assert [name for name in names if name.endswith(".lease")] == []


class TestResume:
    def test_resume_after_failed_campaign_matches_ppsfp(self, tmp_path):
        """Kill a campaign (no retries, no fallback), resume it, compare."""
        _, simulator, faults, patterns = _setup()
        reference = simulator.simulate(patterns, faults)
        crashed = SupervisedPoolBackend(
            jobs=2,
            partitions=6,
            chaos=ChaosPlan.single(4, "crash"),
            config=SupervisorConfig(max_retries=0, inline_fallback=False),
            store=_resume_store(tmp_path),
        ).run(simulator, patterns, faults)
        assert len(crashed.stats["failed_partitions"]) == 1
        assert crashed.coverage < reference.coverage

        resumed = SupervisedPoolBackend(
            jobs=2, partitions=6, store=_resume_store(tmp_path)
        ).run(simulator, patterns, faults)
        assert resumed.stats["resumed"] == 5
        assert resumed.detected == reference.detected
        assert resumed.undetected == reference.undetected
        partition4 = next(
            p for p in resumed.stats["partitions"] if p["partition"] == 4
        )
        assert partition4["source"] == "worker"  # the only shard re-graded
        assert resumed.stats["store"]["shards_graded_here"] == 1
        assert not resumed.stats["store"]["finished_by_peers"]

    def test_journaled_shards_revalidated_against_current_campaign(self, tmp_path):
        """A published shard that no longer grades its shard is refused,
        even when its digest was rewritten to match."""
        _, simulator, faults, patterns = _setup()
        SupervisedPoolBackend(
            jobs=2, partitions=4, store=_resume_store(tmp_path)
        ).run(simulator, patterns, faults)
        # Tamper with partition 2's accounting on disk, digest included.
        path = tmp_path / "shards" / "00002.result"
        payload = json.loads(path.read_text())
        partial = payload["partial"]
        partial["undetected"] = partial["undetected"][:-1] or partial["undetected"]
        partial["total"] -= 1
        payload["digest"] = result_digest(partial)
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreCorruptionError, match="shard 2"):
            SupervisedPoolBackend(
                jobs=2, partitions=4, store=_resume_store(tmp_path)
            ).run(simulator, patterns, faults)
