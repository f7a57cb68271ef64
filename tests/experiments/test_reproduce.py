"""Tests for the one-command reproduction driver."""

import json

import pytest

from repro.experiments.reproduce import FIGURE_RUNNERS, main, run_all


class TestRunAll:
    def test_single_experiment_writes_artifacts(self, tmp_path):
        timings = run_all(
            scale_name="small",
            out_dir=tmp_path,
            only=["figure7"],
        )
        assert "figure7" in timings
        assert (tmp_path / "figure7.json").exists()
        assert (tmp_path / "figure7.txt").exists()
        assert (tmp_path / "timings.json").exists()

    def test_table3_scaled_down(self, tmp_path):
        run_all(
            scale_name="small",
            out_dir=tmp_path,
            only=["table3"],
            table3_facts=6,
            table3_max_k=2,
            table3_timeout=10.0,
        )
        payload = json.loads((tmp_path / "table3.json").read_text())
        assert [row["k"] for row in payload["rows"]] == [1, 2]

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_all(scale_name="small", out_dir=tmp_path, only=["nope"])

    def test_unknown_experiment_fails_fast_with_valid_names(self, tmp_path):
        """The typo must be caught before any experiment runs (no
        artifacts written) and the error must list every valid name."""
        from repro.experiments.reproduce import available_experiments

        with pytest.raises(ValueError, match="available:") as excinfo:
            run_all(
                scale_name="small",
                out_dir=tmp_path,
                only=["figure7", "figure99"],
            )
        message = str(excinfo.value)
        assert "'figure99'" in message
        for name in available_experiments():
            assert name in message
        # figure7 was valid and listed first, but nothing may have run.
        assert not (tmp_path / "figure7.json").exists()
        assert not (tmp_path / "timings.json").exists()

    def test_available_experiments_registry(self):
        from repro.experiments.reproduce import available_experiments

        names = available_experiments()
        assert set(FIGURE_RUNNERS) <= set(names)
        for name in ("table3", "sweep_theta_k", "figure2_replicated"):
            assert name in names

    def test_parallel_jobs_match_serial_outputs(self, tmp_path):
        """--jobs fans experiments across processes; every artifact
        must be identical to a serial run's."""
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        selected = ["figure7", "figure2_replicated"]
        serial_timings = run_all(
            scale_name="small", out_dir=serial_dir, only=selected
        )
        parallel_timings = run_all(
            scale_name="small", out_dir=parallel_dir, only=selected, jobs=2
        )
        assert set(serial_timings) == set(parallel_timings) == set(selected)
        for name in selected:
            assert json.loads(
                (parallel_dir / f"{name}.json").read_text()
            ) == json.loads((serial_dir / f"{name}.json").read_text())
            assert (parallel_dir / f"{name}.txt").read_text() == (
                serial_dir / f"{name}.txt"
            ).read_text()

    def test_unknown_scale_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown scale"):
            run_all(scale_name="huge", out_dir=tmp_path, only=["figure7"])

    def test_registry_covers_all_figures(self):
        for figure in ("figure2", "figure3", "figure4", "figure5",
                       "figure6", "figure7"):
            assert figure in FIGURE_RUNNERS

    def test_sweep_entry(self, tmp_path):
        run_all(
            scale_name="small", out_dir=tmp_path, only=["sweep_theta_k"]
        )
        payload = json.loads(
            (tmp_path / "sweep_theta_k.json").read_text()
        )
        assert payload["thetas"] == [0.8, 0.85, 0.9]
        assert "sweep" in (tmp_path / "sweep_theta_k.txt").read_text()

    def test_replicated_entry(self, tmp_path):
        run_all(
            scale_name="small", out_dir=tmp_path,
            only=["figure2_replicated"],
        )
        payload = json.loads(
            (tmp_path / "figure2_replicated.json").read_text()
        )
        assert payload["num_runs"] == 5

    def test_json_matches_text_series(self, tmp_path):
        run_all(scale_name="small", out_dir=tmp_path, only=["figure7"])
        payload = json.loads((tmp_path / "figure7.json").read_text())
        text = (tmp_path / "figure7.txt").read_text()
        for series in payload["series"]:
            assert series["label"] in text


class TestMain:
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_refused(self, jobs, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "--scale", "small", "--only", "figure7",
                "--out", str(tmp_path), "--jobs", jobs,
            ])
        assert exit_info.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err
        assert not (tmp_path / "figure7.json").exists()
