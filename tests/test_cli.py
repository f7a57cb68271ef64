"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def data_dir(tmp_path):
    """A small generated dataset directory."""
    out = tmp_path / "data"
    code = main([
        "generate", "--out", str(out), "--groups", "6",
        "--group-size", "4", "--answers", "5", "--seed", "1",
    ])
    assert code == 0
    return out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestGenerate:
    def test_writes_files(self, data_dir):
        assert (data_dir / "answer.csv").exists()
        assert (data_dir / "truth.csv").exists()

    def test_output_message(self, tmp_path, capsys):
        main(["generate", "--out", str(tmp_path / "d"), "--groups", "2"])
        out = capsys.readouterr().out
        assert "annotations" in out and "facts" in out


class TestDescribe:
    def test_prints_summary(self, data_dir, capsys):
        code = main([
            "describe", "--data", str(data_dir), "--group-size", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "facts:" in out
        assert "tiering:" in out


class TestAggregate:
    def test_runs_and_reports_accuracy(self, data_dir, capsys):
        code = main([
            "aggregate", "--data", str(data_dir), "--method", "MV",
            "--group-size", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out

    @pytest.mark.parametrize("method", ["DS", "EBCC", "MV-BETA"])
    def test_methods_by_name(self, data_dir, method, capsys):
        code = main([
            "aggregate", "--data", str(data_dir),
            "--method", method, "--group-size", "4",
        ])
        assert code == 0

    def test_unknown_method(self, data_dir):
        with pytest.raises(ValueError, match="unknown aggregator"):
            main([
                "aggregate", "--data", str(data_dir),
                "--method", "NOPE", "--group-size", "4",
            ])


class TestStream:
    @pytest.mark.parametrize(
        "flag", ["--rate", "--straggler-timeout", "--allowed-lateness"]
    )
    def test_nan_is_refused(self, data_dir, flag):
        """NaN passes ``<=``/``<`` checks; the spec refuses it before
        any event is generated, so the command exits non-zero."""
        with pytest.raises(ValueError, match=flag.split("-")[2]):
            main([
                "stream", "--data", str(data_dir), "--group-size", "4",
                "--theta", "0.85", "--budget", "10", flag, "nan",
            ])

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--budget", "nan", "budget"), ("--k", "0", "k")],
    )
    def test_bad_budget_or_k_is_refused_before_any_journal(
        self, data_dir, tmp_path, flag, value, field
    ):
        journal = tmp_path / "stream.jsonl"
        with pytest.raises(ValueError, match=f"^{field} must be"):
            main([
                "stream", "--data", str(data_dir), "--group-size", "4",
                "--theta", "0.85", "--journal", str(journal),
                flag, value,
            ])
        assert not journal.exists()


class TestSession:
    def test_prints_trajectory(self, data_dir, capsys):
        code = main([
            "session", "--data", str(data_dir), "--budget", "20",
            "--group-size", "4", "--theta", "0.85", "--rows", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "budget" in out
        assert "accuracy" in out
        # Trajectory ends at or under the requested budget.
        last_line = [l for l in out.splitlines() if l.strip()][-1]
        assert float(last_line.split()[0]) <= 20

    def test_trust_flag_prints_supervision_summary(
        self, data_dir, capsys
    ):
        code = main([
            "session", "--data", str(data_dir), "--budget", "20",
            "--group-size", "4", "--theta", "0.85", "--rows", "4",
            "--trust", "--probe-rate", "0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trust: quarantines=" in out
        assert "readmissions=" in out
        assert "posterior" in out and "breaker" in out
        # the trajectory still prints after the trust summary
        assert "budget" in out and "accuracy" in out

    def test_trust_flag_off_by_default(self, data_dir, capsys):
        main([
            "session", "--data", str(data_dir), "--budget", "20",
            "--group-size", "4", "--theta", "0.85", "--rows", "4",
        ])
        assert "trust:" not in capsys.readouterr().out


class TestServe:
    @pytest.mark.parametrize(
        "flag, value, field",
        [("--k", "0", "k"), ("--theta", "1.5", "theta"),
         ("--budget", "nan", "budget"),
         ("--budget-pool", "nan", "ledger total")],
    )
    def test_bad_session_config_is_refused_before_any_journal(
        self, data_dir, tmp_path, flag, value, field
    ):
        """The configs and the pool are refused where they are built,
        before any campaign runs: the command raises (and so exits
        non-zero) instead of quarantining every campaign, and writes
        nothing."""
        root = tmp_path / "journals"
        with pytest.raises(ValueError, match=f"^{field} must be"):
            main([
                "serve", "--data", str(data_dir), "--group-size", "4",
                "--theta", "0.85", "--journal-root", str(root),
                flag, value,
            ])
        assert not root.exists()


class TestJobsFlag:
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("command", ["reproduce"])
    def test_jobs_below_one_is_refused(self, command, jobs, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--jobs", jobs])
        assert exit_info.value.code != 0
        assert "argument --jobs" in capsys.readouterr().err

    def test_jobs_must_be_an_integer(self, capsys):
        with pytest.raises(SystemExit):
            main(["reproduce", "--jobs", "two"])
        assert "invalid int value: 'two'" in capsys.readouterr().err


class TestReproduce:
    def test_single_small_experiment(self, tmp_path, capsys):
        code = main([
            "reproduce", "--scale", "small",
            "--out", str(tmp_path / "results"),
            "--only", "figure7",
        ])
        assert code == 0
        assert (tmp_path / "results" / "figure7.json").exists()
        assert (tmp_path / "results" / "figure7.txt").exists()


@pytest.mark.chaos
class TestSoak:
    def test_smoke_survives_a_kill_cycle(self, tmp_path, capsys):
        import json

        code = main([
            "soak", "--minutes", "0.02", "--kill-every", "0.4",
            "--seed", "5", "--tenants", "1", "--min-kills", "1",
            "--out", str(tmp_path / "artifacts"),
        ])
        assert code == 0
        out, err = capsys.readouterr()
        result = json.loads(out)
        assert result["byte_identical"] is True
        assert result["kills"] >= 1
        assert result["failed_cycles"] == 0
        assert "soak ok" in err
        assert (
            tmp_path / "artifacts" / "soak_result.json"
        ).exists()

    def test_bad_chaos_spec_is_rejected_up_front(self, tmp_path):
        with pytest.raises(ValueError, match="unknown"):
            main([
                "soak", "--minutes", "0.01",
                "--storage-chaos", "meteor=1.0",
                "--out", str(tmp_path / "artifacts"),
            ])
