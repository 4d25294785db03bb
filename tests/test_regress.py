"""Benchmark regression comparator (``repro.obs.regress``) and the
``repro obs diff/gate/tail`` CLI family.

The comparator is the repo's performance memory: it must flag a genuine
2x wall-time slip (the acceptance criterion), stay silent across noisy
replicates of an identical workload, and treat any drift of a
deterministic work counter — even in a single replicate — as a failure.
"""

import copy
import json

import pytest

from repro.cli import EXIT_REGRESSION, main
from repro.obs import RunReport
from repro.obs.regress import (
    Finding,
    RegressConfig,
    Sample,
    collect_samples,
    compare_paths,
    compare_reports,
    failures,
    pair_bench_files,
)
from repro.faults.model import StuckAtFault
from repro.sim.faultsim import FaultSimResult
from repro.sim.store import CampaignKey, ShardStore


def _bench_report(rows, counters=None, name="bench.widesim"):
    metrics = {}
    if counters:
        metrics = {
            "counters": {
                key: {"kind": "counter", "value": value, "labels": {}}
                for key, value in counters.items()
            }
        }
    return RunReport(
        name=name, payload={"rows": rows}, metrics=metrics, generated_unix_s=1.0
    )


def _replicated_rows(base_wall=1.0, events=5000, n=5, jitter=0.01):
    return [
        {
            "name": f"e3_x{i}",
            "wall_time_s": base_wall + jitter * i,
            "events_propagated": events,
        }
        for i in range(n)
    ]


class TestSample:
    def test_median_odd_and_even(self):
        assert Sample([3.0, 1.0, 2.0]).median == 2.0
        assert Sample([1.0, 2.0, 3.0, 10.0]).median == 2.5

    def test_mad_is_robust_to_one_outlier(self):
        steady = Sample([1.0, 1.01, 0.99, 1.0, 100.0])
        assert steady.median == 1.0
        assert steady.mad == pytest.approx(0.01, abs=1e-9)


class TestFlattenAndGrouping:
    def test_replicates_group_under_one_path(self):
        report = _bench_report(_replicated_rows())
        samples = collect_samples(report)
        sample = samples["payload.rows[name=e3].wall_time_s"]
        assert len(sample.values) == 5
        assert sample.median == pytest.approx(1.02)

    def test_discriminators_beat_list_indices(self):
        rows = [
            {"word_width": 64, "wall_time_s": 2.0},
            {"word_width": 1024, "wall_time_s": 0.5},
        ]
        samples = collect_samples(_bench_report(list(reversed(rows))))
        assert "payload.rows[word_width=64].wall_time_s" in samples
        assert "payload.rows[word_width=1024].wall_time_s" in samples

    def test_metrics_counters_flatten_too(self):
        report = _bench_report([], counters={"faultsim.runs": 7})
        samples = collect_samples(report)
        assert samples["metrics.faultsim.runs"].median == 7

    def test_booleans_are_not_numbers(self):
        report = _bench_report([{"name": "r", "ok": True, "wall_time_s": 1.0}])
        assert not any("ok" in path for path in collect_samples(report))


class TestCompareReports:
    def test_identical_replicate_envelopes_pass(self):
        base = _bench_report(_replicated_rows())
        cur = _bench_report(copy.deepcopy(_replicated_rows()))
        assert failures(compare_reports(base, cur)) == []

    def test_2x_wall_time_regression_fails(self):
        rows = _replicated_rows()
        slow = copy.deepcopy(rows)
        for row in slow:
            row["wall_time_s"] *= 2.0
        findings = failures(
            compare_reports(_bench_report(rows), _bench_report(slow))
        )
        assert len(findings) == 1
        assert findings[0].kind == "wall"
        assert findings[0].ratio == pytest.approx(2.0)

    def test_noise_within_mad_band_passes(self):
        """Replicate-scale jitter must not trip the gate."""
        rows = _replicated_rows(base_wall=1.0, jitter=0.05)
        wobble = copy.deepcopy(rows)
        for index, row in enumerate(wobble):
            row["wall_time_s"] += 0.03 * ((-1) ** index)
        assert failures(
            compare_reports(_bench_report(rows), _bench_report(wobble))
        ) == []

    def test_improvement_is_info_not_failure(self):
        rows = _replicated_rows()
        fast = copy.deepcopy(rows)
        for row in fast:
            row["wall_time_s"] *= 0.25
        findings = compare_reports(_bench_report(rows), _bench_report(fast))
        assert failures(findings) == []
        wall = next(f for f in findings if f.kind == "wall")
        assert "improvement" in wall.note

    def test_counter_drift_in_one_replicate_fails(self):
        rows = _replicated_rows()
        drift = copy.deepcopy(rows)
        drift[3]["events_propagated"] += 1  # median-invisible
        findings = failures(
            compare_reports(_bench_report(rows), _bench_report(drift))
        )
        assert len(findings) == 1
        assert findings[0].kind == "counter"

    def test_counter_tolerance_allows_bounded_drift(self):
        rows = _replicated_rows(events=1000)
        drift = copy.deepcopy(rows)
        for row in drift:
            row["events_propagated"] = 1005
        config = RegressConfig(counter_tolerance=0.01)
        assert failures(
            compare_reports(_bench_report(rows), _bench_report(drift), config)
        ) == []

    def test_missing_gated_metric_fails(self):
        rows = _replicated_rows()
        gone = [
            {k: v for k, v in row.items() if k != "wall_time_s"}
            for row in copy.deepcopy(rows)
        ]
        findings = failures(
            compare_reports(_bench_report(rows), _bench_report(gone))
        )
        assert any(f.kind == "missing" for f in findings)

    def test_new_metric_is_informational(self):
        rows = _replicated_rows()
        extra = copy.deepcopy(rows)
        for row in extra:
            row["stitch_wall_s"] = 0.1
        findings = compare_reports(_bench_report(rows), _bench_report(extra))
        assert failures(findings) == []
        assert any(f.kind == "new" for f in findings)

    def test_abs_floor_ignores_microsecond_flap(self):
        rows = [{"name": "tiny", "wall_time_s": 0.0004}]
        slow = [{"name": "tiny", "wall_time_s": 0.0016}]  # 4x but 1.2ms
        assert failures(
            compare_reports(_bench_report(rows), _bench_report(slow))
        ) == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RegressConfig(wall_threshold=-0.1).validate()
        with pytest.raises(ValueError):
            RegressConfig(mad_k=-1).validate()
        with pytest.raises(ValueError):
            RegressConfig(counter_tolerance=-1).validate()

    def test_finding_render_mentions_severity_and_ratio(self):
        finding = Finding(
            metric="payload.x.wall_time_s", kind="wall", severity="fail",
            baseline=1.0, current=2.0, note="regression",
        )
        text = finding.render()
        assert "[FAIL]" in text and "2.00x" in text and "regression" in text


class TestFilePairing:
    def _write(self, path, report):
        path.write_text(report.to_json() + "\n")

    def test_directory_pairing_by_name(self, tmp_path):
        base_dir, cur_dir = tmp_path / "base", tmp_path / "cur"
        base_dir.mkdir(), cur_dir.mkdir()
        report = _bench_report(_replicated_rows())
        self._write(base_dir / "BENCH_a.json", report)
        self._write(base_dir / "BENCH_b.json", report)
        self._write(cur_dir / "BENCH_a.json", report)
        pairs = pair_bench_files(str(base_dir), str(cur_dir))
        assert [(name, cur is not None) for name, _, cur in pairs] == [
            ("BENCH_a.json", True),
            ("BENCH_b.json", False),
        ]
        results = compare_paths(str(base_dir), str(cur_dir))
        assert failures(results["BENCH_b.json"])  # missing file fails

    def test_mixed_file_and_directory_rejected(self, tmp_path):
        report = _bench_report([])
        self._write(tmp_path / "BENCH_a.json", report)
        with pytest.raises(ValueError):
            pair_bench_files(str(tmp_path), str(tmp_path / "BENCH_a.json"))

    def test_empty_baseline_directory_rejected(self, tmp_path):
        (tmp_path / "base").mkdir(), (tmp_path / "cur").mkdir()
        with pytest.raises(ValueError):
            pair_bench_files(str(tmp_path / "base"), str(tmp_path / "cur"))


class TestObsCli:
    def _write_pair(self, tmp_path, factor=1.0):
        rows = _replicated_rows()
        base = tmp_path / "base.json"
        base.write_text(_bench_report(rows).to_json())
        scaled = copy.deepcopy(rows)
        for row in scaled:
            row["wall_time_s"] *= factor
        cur = tmp_path / "cur.json"
        cur.write_text(_bench_report(scaled).to_json())
        return str(base), str(cur)

    def test_gate_exit_zero_on_identical(self, tmp_path, capsys):
        base, cur = self._write_pair(tmp_path, factor=1.0)
        assert main(["obs", "gate", base, cur]) == 0
        assert "regression gate passed" in capsys.readouterr().out

    def test_gate_exit_code_on_2x_regression(self, tmp_path, capsys):
        base, cur = self._write_pair(tmp_path, factor=2.0)
        assert main(["obs", "gate", base, cur]) == EXIT_REGRESSION
        captured = capsys.readouterr()
        assert "REGRESSION GATE FAILED" in captured.err
        assert "[FAIL]" in captured.out

    def test_diff_always_exits_zero(self, tmp_path, capsys):
        base, cur = self._write_pair(tmp_path, factor=2.0)
        assert main(["obs", "diff", base, cur]) == 0
        assert "[FAIL]" in capsys.readouterr().out

    def test_gate_threshold_flag(self, tmp_path):
        base, cur = self._write_pair(tmp_path, factor=1.3)
        assert main(["obs", "gate", base, cur]) == 0  # default +50%
        assert (
            main(["obs", "gate", base, cur, "--threshold", "0.1"])
            == EXIT_REGRESSION
        )

    def test_gate_rejects_bad_paths(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        code = main(["obs", "gate", str(tmp_path), missing])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def _store(root, runner, n_shards=4):
        store = ShardStore(str(root), runner_id=runner)
        store.initialize(
            CampaignKey("sig", "pat", "flt", 0, n_shards, True), n_shards
        )
        return store

    @staticmethod
    def _partial(shard, n_faults=50):
        partial = FaultSimResult(total_faults=n_faults)
        partial.detected[StuckAtFault(f"g{shard}", 0, 1)] = 2
        partial.undetected = [
            StuckAtFault(f"g{shard}", i, 0) for i in range(n_faults - 1)
        ]
        partial.patterns_simulated = 10
        return partial

    def test_tail_reports_progress(self, tmp_path, capsys):
        store = self._store(tmp_path, "r0")
        store.publish(0, self._partial(0))
        assert store.try_claim(1) is not None
        assert main(["obs", "tail", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "partitions 1/4 done, 1 leased, 2 available" in out
        assert "faults graded 50, detected 1" in out
        assert "r0: 1 published, holds [1@" in out
        assert "campaign complete" not in out

    def test_tail_aggregates_resumed_sections(self, tmp_path, capsys):
        """A resumed run's publishes add to its earlier ones, and an
        ``atpg --resume`` root renders its last pass only."""
        first_pass = tmp_path / "0000"
        self._store(first_pass, "resume").publish(0, self._partial(0))
        # The rerun: same runner id, a new handle on the same store.
        self._store(first_pass, "resume").publish(1, self._partial(1))
        assert main(["obs", "tail", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "partitions 2/4 done" in out and "faults graded 100" in out
        assert "resume: 2 published" in out
        # A later pass is a different campaign: the tally starts over.
        self._store(tmp_path / "0001", "resume", n_shards=2)
        assert main(["obs", "tail", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"store {tmp_path / '0001'}: partitions 0/2 done" in out
        assert "faults graded 0" in out

    def test_tail_empty_journal(self, tmp_path, capsys):
        """A JSONL journal (even an empty one) is not a store: exit 2."""
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["obs", "tail", str(path)]) == 2
        assert "not a shard-store directory" in capsys.readouterr().err


class TestBenchEnvelopeCompat:
    def test_committed_bench_files_are_comparable(self):
        """Every committed BENCH_*.json self-compares clean (gate idempotence)."""
        import pathlib

        bench_dir = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
        paths = sorted(bench_dir.glob("BENCH_*.json"))
        paths += sorted((bench_dir / "baselines").glob("BENCH_*.json"))
        assert paths, "expected committed BENCH_*.json envelopes under benchmarks/"
        for path in paths:
            report = RunReport.from_json(path.read_text())
            samples = collect_samples(report)
            assert samples, f"{path} flattened to no numeric samples"
            assert failures(compare_reports(report, report)) == [], str(path)
