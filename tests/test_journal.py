"""Campaign journal: digests, round-trips, multi-section files, resume."""

import json

import pytest

from repro.atpg.random_gen import random_patterns
from repro.circuit import benchmarks, generators
from repro.faults import collapse_faults, full_fault_list
from repro.faults.model import StuckAtFault
from repro.sim.chaos import ChaosPlan
from repro.sim.dispatch import SHARDING_SCHEME
from repro.sim.faultsim import FaultSimulator
from repro.sim.journal import (
    CampaignJournal,
    CampaignKey,
    JournalMismatchError,
    fault_digest,
    pattern_digest,
)
from repro.sim.supervisor import SupervisedPoolBackend, SupervisorConfig


def _setup(seed=5):
    netlist = generators.random_circuit(6, 35, seed=seed)
    simulator = FaultSimulator(netlist)
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    patterns = random_patterns(simulator.view.num_inputs, 64, seed=seed)
    return netlist, simulator, faults, patterns


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
        path = str(tmp_path / "j.jsonl")
        with CampaignJournal(path) as journal:
            assert journal.begin(key) == {}
            journal.record(0, partial)
        loaded = CampaignJournal(path).completed_for(key)
        assert set(loaded) == {0}
        restored = loaded[0]
        assert restored.detected == partial.detected
        assert restored.undetected == partial.undetected
        assert restored.total_faults == partial.total_faults
        assert restored.patterns_simulated == partial.patterns_simulated
        assert restored.stats["journaled"] is True

    def test_sections_are_isolated_by_key(self, tmp_path):
        netlist, simulator, faults, patterns = _setup()
        key_a = CampaignKey.build(netlist, patterns, faults, 0, 4, True)
        key_b = CampaignKey.build(netlist, patterns, faults, 1, 4, True)
        partial = simulator.simulate(patterns, faults[:3])
        path = str(tmp_path / "multi.jsonl")
        with CampaignJournal(path) as journal:
            journal.begin(key_a)
            journal.record(0, partial)
            journal.begin(key_b)
            journal.record(1, partial)
        assert set(CampaignJournal(path).completed_for(key_a)) == {0}
        assert set(CampaignJournal(path).completed_for(key_b)) == {1}

    def test_torn_trailing_line_tolerated(self, tmp_path):
        netlist, simulator, faults, patterns = _setup()
        key = CampaignKey.build(netlist, patterns, faults[:6], 0, 2, True)
        path = str(tmp_path / "torn.jsonl")
        with CampaignJournal(path) as journal:
            journal.begin(key)
            journal.record(0, simulator.simulate(patterns, faults[:3]))
        with open(path, "a") as handle:
            handle.write('{"kind":"partition","index":1,"tot')  # kill mid-write
        loaded = CampaignJournal(path).completed_for(key)
        assert set(loaded) == {0}

    def test_strict_mismatch_raises(self, tmp_path):
        netlist, _, faults, patterns = _setup()
        path = str(tmp_path / "strict.jsonl")
        with CampaignJournal(path) as journal:
            journal.begin(CampaignKey.build(netlist, patterns, faults, 0, 4, True))
        wrong_seed = CampaignKey.build(netlist, patterns, faults, 9, 4, True)
        with pytest.raises(JournalMismatchError):
            CampaignJournal(path, strict=True).begin(wrong_seed)
        # Non-strict: same mismatch just opens a fresh section.
        assert CampaignJournal(path).begin(wrong_seed) == {}

    def test_per_fault_shard_journal_refused(self, tmp_path):
        """Sections written before shards held whole fanout-free regions
        name no sharding scheme.  Same seed and count, different shards:
        resume must not merge them."""
        netlist, simulator, faults, patterns = _setup()
        key = CampaignKey.build(netlist, patterns, faults, 0, 4, True)
        assert key.sharding == SHARDING_SCHEME
        path = tmp_path / "per-fault.jsonl"
        with CampaignJournal(str(path)) as journal:
            journal.begin(key)
            journal.record(0, simulator.simulate(patterns, faults[:3]))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        del lines[0]["key"]["sharding"]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert CampaignJournal(str(path)).completed_for(key) == {}
        with pytest.raises(JournalMismatchError):
            CampaignJournal(str(path), strict=True).begin(key)


class TestDurability:
    """Section headers are written atomically; shard lines are fsynced."""

    def test_begin_drops_torn_trailing_line(self, tmp_path):
        netlist, simulator, faults, patterns = _setup()
        key = CampaignKey.build(netlist, patterns, faults[:6], 0, 2, True)
        path = str(tmp_path / "torn-begin.jsonl")
        with CampaignJournal(path) as journal:
            journal.begin(key)
            journal.record(0, simulator.simulate(patterns, faults[:3]))
        with open(path, "a") as handle:
            handle.write('{"kind":"partition","index":1,"tot')  # kill mid-write
        # Re-opening the journal for a new section rewrites the file
        # atomically, which scrubs the torn line from a previous crash.
        with CampaignJournal(path) as journal:
            assert set(journal.begin(key)) == {0}
        raw = open(path).read()
        assert raw.endswith("\n")
        for line in raw.splitlines():
            json.loads(line)  # every surviving line parses

    def test_begin_leaves_no_temp_file(self, tmp_path):
        netlist, _, faults, patterns = _setup()
        key = CampaignKey.build(netlist, patterns, faults, 0, 4, True)
        path = tmp_path / "clean.jsonl"
        with CampaignJournal(str(path)) as journal:
            journal.begin(key)
            journal.begin(key)  # second section, same key
        leftovers = [p.name for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert leftovers == []

    def test_rewrite_preserves_prior_sections(self, tmp_path):
        netlist, simulator, faults, patterns = _setup()
        key_a = CampaignKey.build(netlist, patterns, faults, 0, 4, True)
        key_b = CampaignKey.build(netlist, patterns, faults, 1, 4, True)
        partial = simulator.simulate(patterns, faults[:3])
        path = str(tmp_path / "multi.jsonl")
        with CampaignJournal(path) as journal:
            journal.begin(key_a)
            journal.record(0, partial)
        # A later durable begin() for a different key rewrites the file;
        # the earlier section must survive byte-for-byte as valid JSONL.
        with CampaignJournal(path) as journal:
            journal.begin(key_b)
            journal.record(1, partial)
        assert set(CampaignJournal(path).completed_for(key_a)) == {0}
        assert set(CampaignJournal(path).completed_for(key_b)) == {1}

    def test_non_durable_journal_appends_in_place(self, tmp_path):
        netlist, simulator, faults, patterns = _setup()
        key = CampaignKey.build(netlist, patterns, faults[:6], 0, 2, True)
        path = str(tmp_path / "fast.jsonl")
        with CampaignJournal(path, durable=False) as journal:
            journal.begin(key)
            journal.record(0, simulator.simulate(patterns, faults[:3]))
        with open(path, "a") as handle:
            handle.write('{"kind":"partition","index":1,"tot')
        with CampaignJournal(path, durable=False) as journal:
            # Append-only mode never rewrites: the torn line stays on
            # disk, and readers simply stop at it.
            assert set(journal.begin(key)) == {0}
        assert '"tot' in open(path).read()


class TestResume:
    def test_resume_after_failed_campaign_matches_ppsfp(self, tmp_path):
        """Kill a campaign (no retries, no fallback), resume it, compare."""
        _, simulator, faults, patterns = _setup()
        reference = simulator.simulate(patterns, faults)
        path = str(tmp_path / "resume.jsonl")
        crashed = SupervisedPoolBackend(
            jobs=2,
            partitions=6,
            chaos=ChaosPlan.single(4, "crash"),
            config=SupervisorConfig(max_retries=0, inline_fallback=False),
            journal=CampaignJournal(path),
        ).run(simulator, patterns, faults)
        assert len(crashed.stats["failed_partitions"]) == 1
        assert crashed.coverage < reference.coverage

        resumed = SupervisedPoolBackend(
            jobs=2, partitions=6, journal=CampaignJournal(path)
        ).run(simulator, patterns, faults)
        assert resumed.stats["journal_skipped"] == 5
        assert resumed.detected == reference.detected
        assert resumed.undetected == reference.undetected
        partition4 = next(
            p for p in resumed.stats["partitions"] if p["partition"] == 4
        )
        assert partition4["source"] == "worker"  # the only shard re-graded

    def test_journaled_shards_revalidated_against_current_campaign(self, tmp_path):
        """A journal entry that no longer matches its shard is re-run."""
        netlist, simulator, faults, patterns = _setup()
        path = str(tmp_path / "tampered.jsonl")
        key = CampaignKey.build(netlist, patterns, faults, 0, 4, True)
        backend = SupervisedPoolBackend(
            jobs=2, partitions=4, journal=CampaignJournal(path)
        )
        reference = backend.run(simulator, patterns, faults)
        backend.journal.close()
        # Tamper with partition 2's accounting on disk.
        lines = [json.loads(l) for l in open(path)]
        for line in lines:
            if line.get("kind") == "partition" and line["index"] == 2:
                line["undetected"] = line["undetected"][:-1] or line["undetected"]
                line["total"] -= 1
        with open(path, "w") as handle:
            for line in lines:
                handle.write(json.dumps(line) + "\n")
        resumed = SupervisedPoolBackend(
            jobs=2, partitions=4, journal=CampaignJournal(path)
        ).run(simulator, patterns, faults)
        assert resumed.stats["journal_skipped"] == 3
        assert resumed.detected == reference.detected
        assert resumed.undetected == reference.undetected
