"""Service health: counters, latency percentiles, and the ops report."""

from __future__ import annotations

import numpy as np


class HealthTracker:
    """Accumulates one serving session's health signals.

    Every ``decide()`` call reports its latency and outcome here; the
    snapshot (:meth:`report`) is what the ``serve`` CLI prints.
    """

    def __init__(self) -> None:
        self.ticks = 0
        self.intersections_served = 0
        self.unserved = 0
        self.deadline_misses = 0
        self.policy_exceptions = 0
        self.invalid_actions = 0
        self.controller_faults = 0
        self.fallback_ticks = 0
        self.watchdog_stalls = 0
        self.reloads_applied = 0
        self.reloads_rejected = 0
        self.episodes = 0
        self._latencies: list[float] = []

    # ------------------------------------------------------------------
    def observe_tick(
        self,
        latency_s: float,
        served: int,
        expected: int,
        fallback_count: int,
        deadline_missed: bool,
    ) -> None:
        self.ticks += 1
        self.intersections_served += served
        self.unserved += max(expected - served, 0)
        self.fallback_ticks += fallback_count
        if deadline_missed:
            self.deadline_misses += 1
        self._latencies.append(float(latency_s))

    # ------------------------------------------------------------------
    def latency_percentile(self, q: float) -> float:
        """Decision latency percentile in milliseconds."""
        if not self._latencies:
            return 0.0
        return float(np.percentile(np.asarray(self._latencies), q)) * 1000.0

    def decision_seconds(self) -> float:
        """Total time spent inside ``decide()`` across the session."""
        return float(np.sum(self._latencies)) if self._latencies else 0.0

    def intersections_per_second(self) -> float:
        """Sustained serving throughput over decision time only."""
        total = self.decision_seconds()
        return self.intersections_served / total if total > 0 else 0.0

    @property
    def healthy(self) -> bool:
        """No intersection ever went unserved."""
        return self.unserved == 0

    # ------------------------------------------------------------------
    def report(self, fallback_snapshot: dict[str, dict] | None = None) -> dict:
        """JSON-safe health snapshot."""
        payload = {
            "ticks": self.ticks,
            "episodes": self.episodes,
            "intersections_served": self.intersections_served,
            "unserved": self.unserved,
            "intersections_per_second": round(self.intersections_per_second(), 1),
            "latency_ms": {
                "p50": round(self.latency_percentile(50.0), 3),
                "p99": round(self.latency_percentile(99.0), 3),
                "max": round(max(self._latencies) * 1000.0, 3)
                if self._latencies
                else 0.0,
            },
            "deadline_misses": self.deadline_misses,
            "policy_exceptions": self.policy_exceptions,
            "invalid_actions": self.invalid_actions,
            "controller_faults": self.controller_faults,
            "fallback_ticks": self.fallback_ticks,
            "watchdog_stalls": self.watchdog_stalls,
            "reloads_applied": self.reloads_applied,
            "reloads_rejected": self.reloads_rejected,
        }
        if fallback_snapshot is not None:
            payload["intersections"] = fallback_snapshot
        return payload

    def summary(self) -> str:
        """One-paragraph operator summary."""
        status = "HEALTHY" if self.healthy else "DEGRADED (unserved ticks!)"
        return (
            f"{status}: {self.ticks} ticks, {self.intersections_served} "
            f"intersection-decisions served ({self.unserved} unserved), "
            f"{self.intersections_per_second():.0f} intersections/s, "
            f"p50 {self.latency_percentile(50.0):.2f} ms / "
            f"p99 {self.latency_percentile(99.0):.2f} ms, "
            f"{self.deadline_misses} deadline misses, "
            f"{self.policy_exceptions} policy exceptions, "
            f"{self.invalid_actions} invalid actions, "
            f"{self.controller_faults} controller-fault ticks, "
            f"{self.fallback_ticks} fallback decisions, "
            f"{self.watchdog_stalls} watchdog stalls, "
            f"reloads {self.reloads_applied} applied / "
            f"{self.reloads_rejected} rejected"
        )
