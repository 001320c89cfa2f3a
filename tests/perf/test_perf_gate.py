"""The perfbench comparison in ``scripts/check_perf_regression.py``."""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "scripts"))
import check_perf_regression as gate  # noqa: E402

sys.path.pop(0)

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "rate", "better": "higher", "bound": 0.25},
        {"name": "wait", "better": "lower", "bound": 0.25},
    ],
}


def _run(rate=100.0, wait=100.0, correct=True, failed=0, drop=None) -> dict:
    metrics = {"w/rate": {"value": rate}, "w/wait": {"value": wait}}
    metrics.pop(drop, None)
    return {"correct": correct, "failed": failed, "metrics": metrics}


BASELINE = [_run(), _run(rate=90.0, wait=110.0), _run(rate=110.0, wait=90.0)]


def _failures(*runs) -> list:
    return gate.check(list(runs), BASELINE, SPEC)[1]


def test_inside_bound_passes():
    report, failures = gate.check([_run(rate=95.0, wait=105.0)] * 3, BASELINE, SPEC)
    assert failures == []
    assert len(report) == 2 and "0.950" in report[0] and "1.050" in report[1]


def test_exactly_at_bound_passes():
    assert _failures(*[_run(rate=75.0, wait=125.0)] * 3) == []


def test_median_of_runs_is_gated():
    assert _failures(_run(rate=10.0), _run(), _run()) == []


def test_higher_better_outside_bound_fails():
    (failure,) = _failures(*[_run(rate=74.9)] * 3)
    assert failure.startswith("w/rate")


def test_lower_better_outside_bound_fails():
    (failure,) = _failures(*[_run(wait=125.1)] * 3)
    assert failure.startswith("w/wait")


def test_missing_metric_fails():
    assert _failures(*[_run(drop="w/wait")] * 3) == ["w/wait: missing"]


def test_incorrect_run_fails():
    assert _failures(_run(correct=False), _run(), _run()) == [
        "run 1: correct=False failed=0"
    ]


def test_failed_operations_fail():
    assert _failures(_run(), _run(), _run(failed=2)) == ["run 3: correct=True failed=2"]


@pytest.mark.parametrize("rate, code", [(80.0, 0), (50.0, 1)])
def test_exit_code(tmp_path, monkeypatch, capsys, rate, code):
    spec = dict(SPEC, run_seconds=1)
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "baseline.json").write_text(json.dumps(BASELINE))
    monkeypatch.setattr(gate, "SPEC", str(tmp_path / "spec.json"))
    monkeypatch.setattr(gate, "BASELINE", str(tmp_path / "baseline.json"))
    monkeypatch.setattr(gate, "run_perfbench", lambda seconds: _run(rate=rate))
    assert gate.main() == code
    assert "w/rate" in capsys.readouterr().out


def test_baseline_covers_every_end_to_end_metric():
    with open(gate.SPEC) as handle:
        spec = json.load(handle)
    with open(gate.BASELINE) as handle:
        baseline = json.load(handle)
    assert len(baseline) == 5
    _, failures = gate.check(baseline, baseline, spec)
    assert failures == []
