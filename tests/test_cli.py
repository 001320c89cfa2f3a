"""CLI tests (direct invocation of repro.cli.main)."""

from __future__ import annotations

import json

import pytest

from repro.cli import _grid_shape, build_parser, main

FAST = [
    "--rows", "2", "--cols", "2", "--peak-rate", "400",
    "--t-peak", "60", "--horizon", "120", "--episodes", "1",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.model == "PairUpLight"
        assert args.pattern == 1

    def test_unknown_model_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "Nope"])


class TestCommands:
    def test_train_writes_history(self, tmp_path, capsys):
        history_path = tmp_path / "history.json"
        code = main(
            ["train", *FAST, "--model", "SingleAgent",
             "--history-out", str(history_path)]
        )
        assert code == 0
        payload = json.loads(history_path.read_text())
        assert payload["model"] == "SingleAgent"
        assert len(payload["wait_curve"]) == 1
        assert "trained 1 episodes" in capsys.readouterr().out

    def test_train_writes_weights(self, tmp_path):
        weights_path = tmp_path / "actor.npz"
        code = main(
            ["train", *FAST, "--model", "PairUpLight",
             "--weights-out", str(weights_path)]
        )
        assert code == 0
        assert weights_path.exists()

    def test_train_static_model_skips_weights(self, tmp_path, capsys):
        code = main(
            ["train", *FAST, "--model", "Fixedtime",
             "--weights-out", str(tmp_path / "w.npz")]
        )
        assert code == 0
        assert "skipping" in capsys.readouterr().out

    def test_evaluate_fixed_time(self, capsys):
        code = main(
            ["evaluate", *FAST, "--model", "Fixedtime", "--episodes", "0",
             "--eval-patterns", "1", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Avg travel time" in out

    def test_compare_table3_subset(self, capsys):
        code = main(
            ["compare", *FAST, "--table", "3", "--models", "Fixedtime"]
        )
        assert code == 0
        assert "Table III" in capsys.readouterr().out

    def test_compare_unknown_models_error(self, capsys):
        code = main(["compare", *FAST, "--models", "Bogus"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_overhead(self, capsys):
        code = main(["overhead", *FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "PairUpLight" in out
        assert "32" in out


class TestExtendedModels:
    def test_evaluate_maxpressure(self, capsys):
        code = main(
            ["evaluate", *FAST, "--model", "MaxPressure", "--episodes", "0",
             "--eval-patterns", "1"]
        )
        assert code == 0
        assert "Avg travel time" in capsys.readouterr().out

    def test_train_iql(self, capsys):
        code = main(["train", *FAST, "--model", "IQL"])
        assert code == 0
        assert "IQL trained" in capsys.readouterr().out

    def test_evaluate_longest_queue(self, capsys):
        code = main(
            ["evaluate", *FAST, "--model", "LongestQueue", "--episodes", "0",
             "--eval-patterns", "1"]
        )
        assert code == 0


class TestObsCommands:
    """train --telemetry-dir -> obs report/tail round trip."""

    def _telemetry_run(self, tmp_path):
        run_dir = tmp_path / "run"
        code = main(
            ["train", *FAST, "--model", "Fixedtime",
             "--telemetry-dir", str(run_dir)]
        )
        assert code == 0
        return run_dir

    def test_train_writes_run_dir(self, tmp_path, capsys):
        run_dir = self._telemetry_run(tmp_path)
        assert "telemetry written" in capsys.readouterr().out
        names = sorted(p.name for p in run_dir.iterdir())
        assert names == ["events.jsonl", "manifest.json", "metrics.json"]

    def test_obs_report_renders_without_resimulating(self, tmp_path, capsys):
        run_dir = self._telemetry_run(tmp_path)
        capsys.readouterr()
        assert main(["obs", "report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Fixedtime" in out
        assert "episodes: 1" in out

    def test_obs_report_csv_export(self, tmp_path, capsys):
        run_dir = self._telemetry_run(tmp_path)
        csv_path = tmp_path / "curve.csv"
        assert main(
            ["obs", "report", str(run_dir), "--csv-out", str(csv_path)]
        ) == 0
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "episode,avg_wait_s,total_reward,duration_s"
        assert len(rows) == 2

    def test_obs_tail(self, tmp_path, capsys):
        run_dir = self._telemetry_run(tmp_path)
        capsys.readouterr()
        assert main(["obs", "tail", str(run_dir), "-n", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert "run_end" in lines[-1]

    def test_obs_report_missing_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path / "nope")]) != 0
        assert "no event log" in capsys.readouterr().err

    def test_trace_spans_flag_writes_trace(self, tmp_path):
        run_dir = tmp_path / "run"
        code = main(
            ["train", *FAST, "--model", "Fixedtime",
             "--telemetry-dir", str(run_dir), "--trace-spans"]
        )
        assert code == 0
        payload = json.loads((run_dir / "trace.json").read_text())
        assert payload["traceEvents"]


class TestGridSize:
    def test_grid_size_overrides_rows_cols(self):
        args = build_parser().parse_args(
            ["serve", "--rows", "9", "--cols", "9", "--grid-size", "3x2"]
        )
        # "3x2" is width 3, height 2 -> a 2x3 grid, not 9x9
        assert _grid_shape(args) == (2, 3)

    def test_bad_grid_size_exits_2(self, capsys):
        assert main(["serve", "--grid-size", "banana"]) == 2
        assert "grid size" in capsys.readouterr().err

    def test_serve_grid_size_on_max_pressure(self, capsys):
        """The city-scale quickstart's command, on a small grid."""
        assert main(["serve", "--grid-size", "4x3", "--model", "MaxPressure",
                     "--pattern", "5", "--ticks", "10"]) == 0
        assert "120 intersection-decisions served (0 unserved)" in (
            capsys.readouterr().out
        )


class TestZooCommand:
    def test_list(self, capsys):
        assert main(["zoo", "list"]) == 0
        out = capsys.readouterr().out
        assert "commuter_day" in out
        assert "incident_closure" in out

    def test_show_is_valid_spec_json(self, capsys):
        assert main(["zoo", "show", "stadium_surge", "--seed", "3"]) == 0
        from repro.scenarios.spec import compile_spec

        spec = json.loads(capsys.readouterr().out)
        assert spec["name"] == "stadium_surge-s3-4x4"
        compile_spec(spec)

    def test_export_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "surge.json"
        assert main(
            ["zoo", "export", "stadium_surge", "--seed", "2", "--out", str(out_path)]
        ) == 0
        assert "digest" in capsys.readouterr().out
        from repro.scenarios.spec import load_spec, spec_digest
        from repro.scenarios.zoo import build_zoo_spec

        exported = load_spec(out_path)
        assert spec_digest(exported) == spec_digest(
            build_zoo_spec("stadium_surge", seed=2)
        )

    def test_unknown_entry_exits_2(self, capsys):
        assert main(["zoo", "show", "nope"]) == 2
        assert "commuter_day" in capsys.readouterr().err


class TestScenarioFlag:
    def test_compare_accepts_zoo_scenario(self, capsys):
        code = main(
            ["compare", "--models", "Fixedtime", "--scenario",
             "zoo:incident_closure", "--horizon", "300", "--episodes", "0",
             "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "incident_closure-s0-4x4" in out
        assert "Fixedtime" in out

    def test_compare_accepts_spec_file(self, tmp_path, capsys):
        from repro.scenarios.spec import save_spec
        from repro.scenarios.zoo import build_zoo_spec

        path = tmp_path / "spec.json"
        save_spec(path, build_zoo_spec("commuter_day", seed=1, rows=2, cols=2))
        code = main(
            ["compare", "--models", "Fixedtime", "--scenario", str(path),
             "--horizon", "200", "--episodes", "0"]
        )
        assert code == 0
        assert "commuter_day-s1-2x2" in capsys.readouterr().out

    def test_scenario_with_table3_rejected(self, capsys):
        assert main(
            ["compare", "--table", "3", "--scenario", "zoo:commuter_day"]
        ) == 2

    def test_bad_scenario_path_exits_2(self, capsys):
        assert main(
            ["compare", "--models", "Fixedtime", "--scenario", "/no/such.json",
             "--episodes", "0"]
        ) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_multiseed_accepts_scenario(self, capsys):
        code = main(
            ["multiseed", "--model", "Fixedtime", "--seeds", "2",
             "--scenario", "zoo:commuter_day", "--horizon", "200",
             "--episodes", "1", "--rows", "2", "--cols", "2"]
        )
        assert code == 0
        assert "seed 2" in capsys.readouterr().out
