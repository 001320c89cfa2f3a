"""Real-time control service for live policies.

Production traffic-signal control is a long-running service under hard
per-tick latency budgets, not a training loop.  This package serves a
checkpointed policy over many intersections with:

* a per-tick **deadline budget** (:class:`DeadlineBudget`) and a
  side-thread **watchdog** (:class:`Watchdog`) for hung evaluations,
* per-intersection **fallback** to classical control with
  exponential-backoff re-promotion (:class:`FallbackManager`, reusing
  :class:`repro.faults.FallbackController`),
* **atomic checkpoint hot-reload** — validate on a shadow agent, swap
  on success, roll back on corruption (:class:`PolicyRuntime`),
* a health plane (:class:`HealthTracker`) streamed through
  :mod:`repro.obs` telemetry.

The invariant the whole package exists to uphold: **every intersection
receives a valid action on every tick**, no matter what the policy,
the checkpoint pipeline, or the fault injector does.

Entry points: ``python -m repro serve`` (CLI) and the
``serve_6x6_faults`` workload of ``perfbench/`` (closed-loop serving
latency and throughput under controller deaths and message delay,
gated by ``scripts/check_perf_regression.py``).
"""

from repro.serve.config import ServeConfig
from repro.serve.deadline import DeadlineBudget, Watchdog
from repro.serve.fallback import BACKOFF, PRIMARY, PROBATION, FallbackManager
from repro.serve.health import HealthTracker
from repro.serve.runtime import PolicyRuntime, ReloadResult
from repro.serve.service import ControlService

__all__ = [
    "BACKOFF",
    "ControlService",
    "DeadlineBudget",
    "FallbackManager",
    "HealthTracker",
    "PRIMARY",
    "PROBATION",
    "PolicyRuntime",
    "ReloadResult",
    "ServeConfig",
    "Watchdog",
]
