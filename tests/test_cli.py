"""Command-line interface."""

import os

import pytest

from repro.cli import main


class TestCommands:
    def test_circuits(self, capsys):
        assert main(["circuits"]) == 0
        out = capsys.readouterr().out
        assert "c17" in out and "mac4" in out

    def test_stats(self, capsys):
        assert main(["stats", "c17"]) == 0
        out = capsys.readouterr().out
        assert "collapsed" in out

    def test_atpg_and_faultsim_roundtrip(self, tmp_path, capsys):
        pattern_file = tmp_path / "c17.pat"
        assert main(["atpg", "c17", "-o", str(pattern_file), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "test_coverage: 1.0" in out
        assert main(["faultsim", "c17", str(pattern_file)]) == 0
        out = capsys.readouterr().out
        assert "100.00%" in out

    def test_deprecated_kernel_flag_changes_nothing(self, tmp_path, capsys):
        """``--kernel`` is an accepted, ignored alias: there is one kernel."""
        pattern_file = tmp_path / "c17.pat"
        assert main(["atpg", "c17", "-o", str(pattern_file), "--seed", "3"]) == 0
        capsys.readouterr()
        outputs = []
        for flags in ([], ["--kernel", "numpy"], ["--kernel", "python"]):
            assert main(["faultsim", "c17", str(pattern_file), *flags]) == 0
            coverage, stats = capsys.readouterr().out.splitlines()
            # Drop the trailing wall time; coverage, detections and work
            # counters must match exactly.
            outputs.append((coverage, stats.rsplit(",", 1)[0]))
        assert outputs[0][0].startswith("22/22 faults detected")
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("engine", ["podem", "dalg", "guided", "portfolio"])
    def test_atpg_engine_selection(self, tmp_path, capsys, engine):
        pattern_file = tmp_path / f"c17_{engine}.pat"
        assert (
            main(
                [
                    "atpg",
                    "c17",
                    "-o",
                    str(pattern_file),
                    "--seed",
                    "3",
                    "--engine",
                    engine,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "test_coverage: 1.0" in out
        assert f"engine: {engine}" in out

    def test_atpg_rejects_unknown_engine(self, capsys):
        with pytest.raises(SystemExit):
            main(["atpg", "c17", "--engine", "quantum"])

    def test_atpg_on_bench_file(self, tmp_path, capsys):
        from repro.circuit.bench import save_bench
        from repro.circuit import benchmarks

        path = tmp_path / "c.bench"
        save_bench(benchmarks.c17(), str(path))
        assert main(["atpg", str(path)]) == 0
        assert "fault_coverage" in capsys.readouterr().out

    def test_atpg_on_verilog_file(self, tmp_path, capsys):
        from repro.circuit.verilog import save_verilog
        from repro.circuit import benchmarks

        path = tmp_path / "c.v"
        save_verilog(benchmarks.c17(), str(path))
        assert main(["atpg", str(path)]) == 0
        assert "fault_coverage" in capsys.readouterr().out

    def test_lbist(self, capsys):
        assert main(["lbist", "par16", "--patterns", "128"]) == 0
        out = capsys.readouterr().out
        assert "final coverage" in out
        assert "signature" in out

    def test_mbist(self, capsys):
        assert main(["mbist", "--cells", "32", "--samples", "5"]) == 0
        out = capsys.readouterr().out
        assert "March C-" in out

    def test_plan(self, capsys):
        assert main(["plan"]) == 0
        assert "scheduled_cycles" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestSupervisedCampaigns:
    @pytest.fixture()
    def pattern_file(self, tmp_path, capsys):
        path = tmp_path / "alu4.pat"
        assert main(["atpg", "alu4", "-o", str(path), "--seed", "3"]) == 0
        capsys.readouterr()
        return str(path)

    def test_supervised_backend_roundtrip(self, pattern_file, capsys):
        code = main(
            ["faultsim", "alu4", pattern_file,
             "--backend", "supervised", "--jobs", "2", "--partitions", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[supervised" in out and "4 partitions" in out

    def test_partitions_flag_threads_through_pool(self, pattern_file, capsys):
        code = main(
            ["faultsim", "alu4", pattern_file,
             "--backend", "pool", "--jobs", "2", "--partitions", "3"]
        )
        assert code == 0
        assert "3 partitions" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--partitions", "0"],
            ["--jobs", "-2"],
            ["--seed", "-1"],
            ["--timeout", "0"],
            ["--retries", "-1"],
        ],
    )
    def test_invalid_arguments_rejected(self, pattern_file, flags):
        with pytest.raises(SystemExit):
            main(["faultsim", "alu4", pattern_file] + flags)

    def test_chaos_recovered_exit_zero(self, pattern_file, capsys):
        code = main(
            ["faultsim", "alu4", pattern_file, "--jobs", "2",
             "--chaos", "1:crash"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "upgraded to supervised" in out
        assert "recovered: 1 retries, 1 worker crashes" in out

    def test_chaos_unrecoverable_exit_partial(self, pattern_file, capsys):
        code = main(
            ["faultsim", "alu4", pattern_file, "--jobs", "2",
             "--retries", "0", "--chaos", "0:crash,crash"]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "LOWER BOUND" in captured.err

    def test_resume_skips_journaled_partitions(self, pattern_file, tmp_path, capsys):
        store = str(tmp_path / "campaign")
        first = main(
            ["faultsim", "alu4", pattern_file, "--jobs", "2",
             "--partitions", "4", "--resume", store]
        )
        first_out = capsys.readouterr().out
        assert first == 0
        second = main(
            ["faultsim", "alu4", pattern_file, "--jobs", "2",
             "--partitions", "4", "--resume", store]
        )
        second_out = capsys.readouterr().out
        assert second == 0  # its own earlier shards, not a peer's: not 5
        assert "resumed: 4/4" in second_out
        assert "[resume]: 0/4 shards graded by this runner" in second_out
        assert first_out.splitlines()[1] == second_out.splitlines()[1]  # coverage

    def test_resume_into_existing_directory(self, pattern_file, tmp_path, capsys):
        code = main(
            ["faultsim", "alu4", pattern_file, "--jobs", "2",
             "--partitions", "4", "--resume", str(tmp_path)]
        )
        assert code == 0
        assert "[resume]: 4/4 shards graded by this runner" in (
            capsys.readouterr().out
        )

    def test_resume_wrong_campaign_exits_two(self, pattern_file, tmp_path, capsys):
        store = str(tmp_path / "campaign")
        assert main(
            ["faultsim", "alu4", pattern_file, "--resume", store]
        ) == 0
        capsys.readouterr()
        code = main(
            ["faultsim", "alu4", pattern_file, "--seed", "9",
             "--resume", store]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    @pytest.mark.parametrize("flag", ["--resume", "--store"])
    def test_store_path_that_is_a_file_exits_two(
        self, pattern_file, tmp_path, flag, capsys
    ):
        """A JSONL campaign journal from an older checkout is refused with
        a message naming the store-directory format, never a traceback."""
        journal = tmp_path / "campaign.jsonl"
        journal.write_text('{"kind":"header","version":1,"key":{}}\n')
        code = main(["faultsim", "alu4", pattern_file, flag, str(journal)])
        err = capsys.readouterr().err
        assert code == 2
        assert "not a shard-store directory" in err
        assert "journal" in err

    def test_resume_with_store_exits_two(self, pattern_file, tmp_path, capsys):
        code = main(
            ["faultsim", "alu4", pattern_file,
             "--resume", str(tmp_path / "a"), "--store", str(tmp_path / "b")]
        )
        assert code == 2
        assert "--resume" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "a")

    def test_atpg_resume_flag(self, tmp_path, capsys):
        root = tmp_path / "atpg"
        assert main(["atpg", "alu4", "--resume", str(root), "--jobs", "2"]) == 0
        first = capsys.readouterr().out
        assert "fault_coverage" in first
        passes = sorted(os.listdir(root))
        assert passes[0] == "0000"
        assert passes == [f"{i:04d}" for i in range(len(passes))]
        for name in passes:
            assert os.path.exists(root / name / "campaign.json")
        # A rerun resumes every pass and reports the same flow.
        assert main(["atpg", "alu4", "--resume", str(root), "--jobs", "2"]) == 0

        def flow(out):
            return [line for line in out.splitlines() if "cpu_s" not in line]

        assert flow(capsys.readouterr().out) == flow(first)
        assert sorted(os.listdir(root)) == passes

    def test_obs_tail_renders_last_atpg_pass(self, tmp_path, capsys):
        root = tmp_path / "atpg"
        assert main(["atpg", "alu4", "--resume", str(root), "--jobs", "2"]) == 0
        capsys.readouterr()
        last = sorted(os.listdir(root))[-1]
        assert main(["obs", "tail", str(root)]) == 0
        out = capsys.readouterr().out
        assert f"store {root / last}:" in out
        assert "resume:" in out and "campaign complete" in out

    def test_obs_tail_rejects_non_store_paths(self, tmp_path, capsys):
        assert main(["obs", "tail", str(tmp_path)]) == 2
        assert "campaign.json" in capsys.readouterr().err
        journal = tmp_path / "campaign.jsonl"
        journal.write_text("")
        assert main(["obs", "tail", str(journal)]) == 2
        assert "not a shard-store directory" in capsys.readouterr().err

    def test_store_first_runner_grades_everything(self, pattern_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = main(
            ["faultsim", "alu4", pattern_file, "--jobs", "2",
             "--partitions", "4", "--store", store, "--runner-id", "r0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "store" in out and "[r0]: 4/4 shards graded by this runner" in out

    def test_store_second_runner_exits_peers(self, pattern_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            ["faultsim", "alu4", pattern_file, "--jobs", "2",
             "--partitions", "4", "--store", store, "--runner-id", "r0"]
        ) == 0
        first_out = capsys.readouterr().out
        code = main(
            ["faultsim", "alu4", pattern_file, "--jobs", "2",
             "--partitions", "4", "--store", store, "--runner-id", "r1"]
        )
        second_out = capsys.readouterr().out
        assert code == 5
        assert "finished by peer runners" in second_out
        assert "[r1]: 0/4 shards graded by this runner" in second_out
        # The merged result is real: coverage line identical to run one.
        assert first_out.splitlines()[1] == second_out.splitlines()[1]

    def test_store_wrong_campaign_exits_two(self, pattern_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            ["faultsim", "alu4", pattern_file, "--store", store]
        ) == 0
        capsys.readouterr()
        code = main(
            ["faultsim", "alu4", pattern_file, "--seed", "9", "--store", store]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--runner-id", "r0"],                      # runner without store
            ["--host-chaos", "r0:kill"],                # chaos without store
            ["--store", "S", "--runner-id", "bad id"],  # invalid runner name
            ["--store", "S", "--lease-s", "0"],
            ["--store", "S", "--host-chaos", "r0:frobnicate"],
            ["--store", "S", "--host-chaos", "r0"],     # missing mode
        ],
    )
    def test_store_invalid_arguments_exit_two(
        self, pattern_file, tmp_path, flags, capsys
    ):
        flags = [str(tmp_path / "store") if f == "S" else f for f in flags]
        try:
            code = main(["faultsim", "alu4", pattern_file] + flags)
        except SystemExit as exc:  # argparse-level rejections
            code = exc.code
        capsys.readouterr()
        assert code == 2

    def test_obs_tail_renders_store_ownership(self, pattern_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            ["faultsim", "alu4", pattern_file, "--jobs", "2",
             "--partitions", "4", "--store", store, "--runner-id", "r0"]
        ) == 0
        capsys.readouterr()
        assert main(["obs", "tail", store]) == 0
        out = capsys.readouterr().out
        assert "partitions 4/4 done" in out
        assert "r0: 4 published" in out
        assert "campaign complete" in out

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.cli as cli

        def interrupted(_args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_plan", interrupted)
        assert main(["plan"]) == 130
        assert "--resume" in capsys.readouterr().err
