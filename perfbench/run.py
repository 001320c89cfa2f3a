"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  ``--trace 0`` prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` runs the same work twice,
untraced and then with every layer boundary wrapped in a span, and
prints the per-layer metrics, the tracing overhead and whether the
traced run reproduced the untraced run's waits and exact counts.
``--workload all`` runs each workload in its own process, prints one
table, and sums their operations into its closing JSON object, whose
metric names carry a ``<workload>/`` prefix.  The last line of standard
output is always one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Times are this process's CPU time (see ``workloads.py``), scaled to
the reference host's speed by the host probe sampled during the timed
phase and after each set-up (see :func:`host_scale`).  The first output line, ``{"host": ...}``,
also records the unscaled CPU and wall-clock figures.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter, process_time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: ``workloads.host_probe_s`` on the reference host (2 vCPUs, Python
#: 3.11, numpy 2.4) at its usual speed, in ms.
REFERENCE_PROBE_MS = 2.5
#: Probes run after each set-up; they scale ``setup_s``.
SETUP_PROBES = 3
#: BLAS threads the launcher pins, before numpy is first imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metric units (names and units match BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "sim_s_per_s": "1/s",
    "decide_p50_ms": "ms",
    "avg_wait_s": "s",
    "peak_rss_mb": "MB",
}
#: Exact counts a traced run must reproduce.  Deadline misses and the
#: fallbacks they cause depend on timing, so they are left out.
EXACT_COUNTS = ("vehicles_created", "controller_fault_decisions")


def calib_ms() -> float:
    """Host-speed probe: median of nine :func:`workloads.host_probe_s`.

    In milliseconds of CPU time like every other figure.  It runs the
    same instructions on every commit, so a change in it is host drift.
    """
    from workloads import host_probe_s

    return 1000.0 * statistics.median(host_probe_s() for _ in range(9))


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use (-1 when it cannot be asked)."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return -1


def host_record() -> dict:
    import numpy as np

    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
    }


@dataclass
class Measurement:
    """Set-ups and one timed phase of a workload."""

    #: CPU and wall seconds of each set-up.
    setup_s: list
    setup_wall_s: list
    #: ``host_probe_s`` run right after the set-ups, SETUP_PROBES each.
    setup_probe_s: list
    outcome: object
    #: Wall seconds of the timed phase, sampler probes included.
    wall_s: float


def measure(workload, seed: int, units: int, tracer=None,
            setups: int = SETUP_REPEATS) -> Measurement:
    """Set up ``setups`` times, then run the timed phase on the last rig.

    With a tracer, the boundaries are wrapped for the timed phase only.
    """
    from workloads import host_probe_s

    setup_s, setup_wall_s, setup_probe_s = [], [], []
    rig = None
    for _ in range(setups):
        rig = None  # let the previous rig go before building the next
        cpu, wall = process_time(), perf_counter()
        rig = workload.setup(seed, workload.size)
        setup_s.append(process_time() - cpu)
        setup_wall_s.append(perf_counter() - wall)
        setup_probe_s.extend(host_probe_s() for _ in range(SETUP_PROBES))
    with tracing.installed(tracer) if tracer is not None else nullcontext():
        started = perf_counter()
        outcome = workload.run(rig, units)
        wall_s = perf_counter() - started
    return Measurement(setup_s, setup_wall_s, setup_probe_s, outcome, wall_s)


def host_scale(probe_s) -> float:
    """Factor turning this host's CPU seconds into reference-host seconds.

    The shared reference host runs the same instructions up to 1.7 times
    slower for minutes at a time, and CPU time does not leave that out.
    The probe, sampled evenly over the phase it scales, slows with it.
    """
    return REFERENCE_PROBE_MS / (1000.0 * statistics.median(probe_s))


def end_to_end(m: Measurement) -> dict:
    import numpy as np

    outcome = m.outcome
    scale = host_scale(outcome.probe_s)
    decide_ms = 1000.0 * np.asarray(outcome.decide_s)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(m.setup_s) * host_scale(m.setup_probe_s),
        "sim_s_per_s": outcome.sim_seconds / (outcome.busy_s * scale),
        "decide_p50_ms": float(np.percentile(decide_ms, 50)) * scale,
        "avg_wait_s": outcome.avg_wait_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return {name: {"value": values[name], "unit": END_TO_END[name]}
            for name in END_TO_END}


def per_layer(tracer, base, traced, traced_wall, host, calib) -> dict:
    """Per-layer table of the traced phase.

    Self times and shares cover the traced phase's wall time, sampler
    probes included.  The overhead compares the two runs' scaled CPU
    times, like the end-to-end figures, so host drift between the runs
    does not read as tracing cost.
    """
    table = tracer.layers(traced_wall)
    metrics = {}
    for name, row in table.items():
        if name != "other":
            metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
        metrics[f"{name}.share"] = (row["share"], "share")
    counts = traced.counts
    extra = {
        "nn.optim.steps": (table["nn.optim.step"]["calls"], "count"),
        "eval.batched_obs.fallback_steps": (
            table["eval.batched.step_all"]["calls"]
            - table["eval.batched_obs.finish_all"]["calls"], "count"),
        "serve.fallback_decisions": (counts.get("fallback_decisions", 0), "count"),
        "serve.controller_fault_decisions": (
            counts.get("controller_fault_decisions", 0), "count"),
        "serve.deadline_misses": (counts.get("deadline_misses", 0), "count"),
        "sim.vehicles_created": (counts["vehicles_created"], "count"),
        "host.calib_ms": (calib[0], "ms"),
        "host.calib_after_ms": (calib[1], "ms"),
        "host.probe_ms": (1000.0 * statistics.median(traced.probe_s), "ms"),
        "host.cpu_count": (host["cpu_count"], "count"),
        "host.blas_threads": (host["blas_threads"], "count"),
        "trace.overhead": (
            traced.busy_s * host_scale(traced.probe_s)
            / (base.busy_s * host_scale(base.probe_s)) - 1.0, "share"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    metrics.update(extra)
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def trace_mismatches(base, traced) -> list[str]:
    """Where the traced run failed to reproduce the untraced one."""
    problems = []
    deadline_free = not base.counts.get("deadline_misses") and not traced.counts.get(
        "deadline_misses")
    if deadline_free and base.avg_wait_s != traced.avg_wait_s:
        problems.append(
            f"traced avg_wait_s {traced.avg_wait_s!r} != untraced {base.avg_wait_s!r}")
    if base.attempted != traced.attempted:
        problems.append(
            f"traced attempted {traced.attempted} != untraced {base.attempted}")
    for key in EXACT_COUNTS:
        if base.counts.get(key) != traced.counts.get(key):
            problems.append(
                f"traced {key} {traced.counts.get(key)} != untraced "
                f"{base.counts.get(key)}")
    return problems


def run_workload(workload, seed: int, units: int, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns ``(result, host record)``."""
    import numpy as np

    host = host_record()
    calib = [calib_ms()]
    base = measure(workload, seed, units)
    problems = list(base.outcome.problems)
    outcome = base.outcome
    if trace:
        tracer = tracing.Tracer()
        traced = measure(workload, seed, units, tracer, setups=1)
        outcome = traced.outcome
        problems += outcome.problems + trace_mismatches(base.outcome, outcome)
    calib.append(calib_ms())
    host["calib_ms"] = calib
    if trace:
        metrics = per_layer(tracer, base.outcome, outcome, traced.wall_s, host, calib)
        os.makedirs(".perfbench", exist_ok=True)
        tracer.write(os.path.join(".perfbench", f"{workload.name}-seed{seed}-spans.json"))
    else:
        metrics = end_to_end(base)
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    if not finite:
        problems.append("non-finite metric")
    host["problems"] = problems[:20]
    host["probe_ms"] = [1000.0 * p for p in outcome.probe_s]
    host["setup_probe_ms"] = [1000.0 * p for p in base.setup_probe_s]
    # Reported with its sample count, not gated: the 99th percentile
    # follows the shared host's stalls, so its run-to-run spread exceeds
    # any bound BENCHMARK.json may set.
    decide_ms = 1000.0 * np.asarray(outcome.decide_s)
    host["decide_samples"] = len(decide_ms)
    host["decide_p99_ms"] = float(np.percentile(decide_ms, 99)) * host_scale(outcome.probe_s)
    decide_wall_ms = 1000.0 * np.asarray(outcome.decide_wall_s)
    host["cpu"] = {
        "setup_s": statistics.median(base.setup_s),
        "sim_s_per_s": outcome.sim_seconds / outcome.busy_s,
        "decide_p50_ms": float(np.percentile(decide_ms, 50)),
    }
    host["wall"] = {
        "setup_s": statistics.median(base.setup_wall_s),
        "sim_s_per_s": outcome.sim_seconds / outcome.busy_wall_s,
        "decide_p50_ms": float(np.percentile(decide_wall_ms, 50)),
    }
    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return result, host


def print_table(result: dict, host: dict) -> None:
    for name, entry in result["metrics"].items():
        print(f"  {name:<48} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'decide_p99_ms (not gated)':<48} {host['decide_p99_ms']:>14.6g} ms"
          f"  ({host['decide_samples']} decisions)")
    for clock in ("cpu", "wall"):
        for name, value in host[clock].items():
            print(f"  {f'{name}, {clock} unscaled (not gated)':<48} {value:>14.6g}")


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    from workloads import WORKLOADS

    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            status = 1
            combined["correct"] = False
            continue
        host = json.loads(lines[0])["host"]
        result = json.loads(lines[-1])
        status |= not result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        print_table(result, host)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    units = max(1, round(args.seconds / workload.unit_s))
    result, host = run_workload(workload, args.seed, units, bool(args.trace))
    host["units"] = units
    print(json.dumps({"host": host}))
    print_table(result, host)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
