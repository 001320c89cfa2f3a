"""Performance subsystem: timers and parallel workers.

* :mod:`repro.perf.timers` — lightweight phase timers around the
  sim-tick / forward / update phases of a training run,
* :mod:`repro.perf.parallel` — fork-based ``parallel_map`` used by
  multi-seed evaluation (``run_multiseed(..., workers=N)``),
* :mod:`repro.perf.workers` — persistent forked workers for the
  sharded simulation.

The benchmark is ``perfbench/`` (workloads declared in
``BENCHMARK.json``); ``scripts/check_perf_regression.py`` gates it
against the committed ``benchmarks/perfbench_baseline.json``.
"""

from repro.perf.parallel import parallel_map
from repro.perf.timers import TIMERS, PhaseTimers

__all__ = ["TIMERS", "PhaseTimers", "parallel_map"]
