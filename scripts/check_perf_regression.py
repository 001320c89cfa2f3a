#!/usr/bin/env python
"""CI perf gate: perfbench against its committed baseline.

Runs ``perfbench/run.py --workload all --seed 1`` three times at
``BENCHMARK.json``'s ``run_seconds``, prints every end-to-end metric's
ratio to ``benchmarks/perfbench_baseline.json`` (five runs at the same
seed and length; medians on both sides) and exits 1 unless every run is
correct with zero failed operations and each ratio stays within the
metric's ``bound`` in its ``better`` direction.  perfbench pins BLAS to
one thread and host-scales its CPU clocks.  From the repository root::

    python scripts/check_perf_regression.py

Refresh the baseline only in a change whose benchmark result shows a
gain, on the host whose CI runs this gate::

    for i in 1 2 3 4 5; do
        python3 perfbench/run.py --workload all --seed 1 --seconds 32 | tail -n 1
    done | python3 -c 'import json, sys; json.dump([json.loads(line) for line in sys.stdin], sys.stdout, indent=1)' > benchmarks/perfbench_baseline.json
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BASELINE = os.path.join(ROOT, "benchmarks", "perfbench_baseline.json")
RUNS = 3


def run_perfbench(seconds: int) -> dict:
    """One ``--workload all`` run's closing JSON object."""
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", "all", "--seed", "1", "--seconds", str(seconds)]
    lines = subprocess.run(command, cwd=ROOT, capture_output=True, text=True).stdout.splitlines()
    return json.loads(lines[-1]) if lines else {"correct": False, "failed": -1, "metrics": {}}


def check(runs: list, baseline: list, spec: dict) -> tuple[list, list]:
    """``(report lines, failures)`` of ``runs`` against ``baseline``."""
    failures = [f"run {i}: correct={run['correct']} failed={run['failed']}"
                for i, run in enumerate(runs, 1) if not run["correct"] or run["failed"]]
    report = []
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            name = f"{workload['name']}/{metric['name']}"
            base = [run["metrics"][name]["value"] for run in baseline if name in run["metrics"]]
            live = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
            if len(base) < len(baseline) or len(live) < len(runs) or not base:
                failures.append(f"{name}: missing")
                continue
            base, live = statistics.median(base), statistics.median(live)
            if metric["better"] == "higher":
                ok = live >= base * (1.0 - metric["bound"])
            else:
                ok = live <= base * (1.0 + metric["bound"])
            line = (f"{name:<36} {live:>12.6g} / {base:>12.6g} = {live / base:6.3f}"
                    f"  ({metric['better']} better, bound {metric['bound']})")
            report.append(line + ("" if ok else "  REGRESSION"))
            if not ok:
                failures.append(line)
    return report, failures


def main() -> int:
    with open(SPEC) as handle:
        spec = json.load(handle)
    with open(BASELINE) as handle:
        baseline = json.load(handle)
    runs = [run_perfbench(spec["run_seconds"]) for _ in range(RUNS)]
    report, failures = check(runs, baseline, spec)
    print("\n".join(report))
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"perf gate: {'FAILED' if failures else 'OK'} "
          f"(median of {len(runs)} runs vs median of {len(baseline)} baseline runs)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
