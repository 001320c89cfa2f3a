"""The telemetry facade: one object wiring a run directory together.

A :class:`Telemetry` instance owns the run directory and its four
artifacts (manifest, event log, metric registry, optional trace spans)
and exposes the domain-level recording calls the rest of the codebase
uses (``episode_end``, ``fault_activation``, ``nan_rollback`` …).

Design invariants, enforced by the test suite:

* **Opt-in** — every integration point takes ``telemetry=None`` and
  guards with a single ``is not None`` check, so disabled runs pay one
  attribute test per call site.
* **Zero RNG perturbation** — no method here draws from any random
  stream; training with telemetry on is bit-exact with telemetry off.
"""

from __future__ import annotations

import os
import time

from repro.errors import ConfigError
from repro.obs.events import EVENTS_FILENAME, EventLog
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricRegistry
from repro.obs.spans import TRACE_FILENAME, SpanRecorder

#: Filename of the final metric snapshot inside a run directory.
METRICS_FILENAME = "metrics.json"


class Telemetry:
    """Structured observability for one training/evaluation run.

    Parameters
    ----------
    run_dir:
        Directory to create/populate.  Existing event logs are appended
        to (resume-friendly); the manifest is rewritten at start.
    config:
        JSON-safe run configuration recorded in the manifest and the
        ``run_begin`` event.
    seed:
        Base seed of the run (manifest provenance).
    agent_name:
        Human-readable controller name.
    trace_spans:
        Attach a :class:`~repro.obs.spans.SpanRecorder` to the global
        ``TIMERS`` so phase sections are exported as ``trace.json``.
        This enables the timers (wall-clock only; never touches RNG).
    flush_every:
        Event-buffer flush cadence (see :class:`~repro.obs.events.EventLog`).
    """

    def __init__(
        self,
        run_dir: str | os.PathLike,
        config: dict | None = None,
        seed: int = 0,
        agent_name: str = "",
        trace_spans: bool = False,
        flush_every: int = 64,
    ) -> None:
        self.run_dir = os.fspath(run_dir)
        os.makedirs(self.run_dir, exist_ok=True)
        self.manifest = RunManifest.capture(
            seed=seed, config=config, agent_name=agent_name
        )
        self.manifest.write(self.run_dir)
        self.events = EventLog(
            os.path.join(self.run_dir, EVENTS_FILENAME), flush_every=flush_every
        )
        self.metrics = MetricRegistry()
        self.spans: SpanRecorder | None = None
        self._timers_were_enabled = False
        if trace_spans:
            from repro.perf.timers import TIMERS

            self._timers_were_enabled = TIMERS.enabled
            self.spans = SpanRecorder()
            self.spans.attach(TIMERS)
        self._started = time.perf_counter()
        self._closed = False
        self.events.emit(
            "run_begin", seed=int(seed), agent=agent_name, config=config or {}
        )

    # ------------------------------------------------------------------
    # Episode lifecycle
    # ------------------------------------------------------------------
    def episode_begin(self, episode: int, seed: int) -> None:
        self.events.emit("episode_begin", episode=int(episode), seed=int(seed))
        self.metrics.count("train.episodes_started")

    def episode_end(
        self,
        episode: int,
        avg_wait: float,
        total_reward: float,
        duration_s: float,
    ) -> None:
        self.events.emit(
            "episode_end",
            episode=int(episode),
            avg_wait=float(avg_wait),
            total_reward=float(total_reward),
            duration_s=float(duration_s),
        )
        self.metrics.count("train.episodes_completed")
        self.metrics.gauge("train.last_avg_wait", avg_wait)
        self.metrics.observe("train.avg_wait", avg_wait)
        self.metrics.observe("train.total_reward", total_reward)
        self.metrics.observe("train.episode_seconds", duration_s)
        # Episode boundaries are the durability points: flush so a
        # killed run keeps every completed episode on disk and a live
        # run can be followed with ``obs tail``.
        self.events.flush()

    def update_stats(self, episode: int, stats: dict) -> None:
        """PPO/A2C update diagnostics for one episode."""
        if not stats:
            return
        clean = {
            key: float(value)
            for key, value in stats.items()
            if isinstance(value, (int, float))
        }
        self.events.emit("update", episode=int(episode), **clean)
        for key, value in clean.items():
            self.metrics.observe(f"update.{key}", value)

    # ------------------------------------------------------------------
    # Resilience events
    # ------------------------------------------------------------------
    def checkpoint_written(self, episode: int, path: str) -> None:
        self.events.emit("checkpoint", episode=int(episode), path=str(path))
        self.metrics.count("train.checkpoints")

    def nan_rollback(self, episode: int) -> None:
        self.events.emit("nan_rollback", episode=int(episode))
        self.metrics.count("train.nan_rollbacks")
        self.events.flush()

    def episode_aborted(self, episode: int, error: str) -> None:
        self.events.emit("episode_aborted", episode=int(episode), error=str(error))
        self.metrics.count("train.aborted_episodes")
        self.events.flush()

    def teleport(self, tick: int, count: int) -> None:
        """``count`` vehicles teleported at simulation time ``tick``."""
        self.events.emit("teleport", tick=int(tick), count=int(count))
        self.metrics.count("sim.teleports", count)

    def fault_activation(
        self, kind: str, fault_id: str, episode: int, tick: int | None, scope: str
    ) -> None:
        """First firing of one fault (``kind``) on one target this episode.

        ``scope`` is ``"episode"`` for per-episode faults (stuck
        detectors, dead controllers — active from ``tick`` to episode
        end) and ``"event"`` for per-event faults (the activation marks
        the first occurrence).
        """
        if scope not in ("episode", "event"):
            raise ConfigError(f"unknown fault scope {scope!r}")
        self.events.emit(
            "fault_activation",
            kind=str(kind),
            id=str(fault_id),
            episode=int(episode),
            tick=None if tick is None else int(tick),
            scope=scope,
        )
        self.metrics.count(f"faults.{kind}")

    # ------------------------------------------------------------------
    # Serving events (ops plane of repro.serve)
    # ------------------------------------------------------------------
    def serve_deadline_miss(
        self, tick: int, elapsed_ms: float, deadline_ms: float
    ) -> None:
        """One tick's policy evaluation ran past its deadline budget."""
        self.events.emit(
            "serve_deadline_miss",
            tick=int(tick),
            elapsed_ms=float(elapsed_ms),
            deadline_ms=float(deadline_ms),
        )
        self.metrics.count("serve.deadline_misses")
        self.metrics.observe("serve.miss_elapsed_ms", elapsed_ms)

    def serve_policy_failure(self, tick: int, error: str) -> None:
        """The policy raised during evaluation; the tick was served
        entirely from the fallback."""
        self.events.emit("serve_policy_failure", tick=int(tick), error=str(error))
        self.metrics.count("serve.policy_exceptions")
        self.events.flush()

    def serve_fallback(
        self, node_id: str, tick: int, reason: str, backoff_ticks: int
    ) -> None:
        """One intersection was demoted from the policy to the fallback."""
        self.events.emit(
            "serve_fallback",
            node=str(node_id),
            tick=int(tick),
            reason=str(reason),
            backoff_ticks=int(backoff_ticks),
        )
        self.metrics.count("serve.demotions")
        self.metrics.count(f"serve.fallback.{reason}")

    def serve_promotion(self, node_id: str, tick: int) -> None:
        """One intersection was re-promoted to the primary policy."""
        self.events.emit("serve_promotion", node=str(node_id), tick=int(tick))
        self.metrics.count("serve.promotions")

    def serve_watchdog_stall(self, tick: int, threshold_ms: float) -> None:
        """The watchdog fired: a policy evaluation is hung/very slow.

        Emitted from the watchdog timer thread while the evaluation may
        still be running (event-buffer appends are thread-safe).
        """
        self.events.emit(
            "serve_watchdog_stall",
            tick=int(tick),
            threshold_ms=float(threshold_ms),
        )
        self.metrics.count("serve.watchdog_stalls")

    def serve_reload(
        self, path: str, applied: bool, generation: int, reason: str = ""
    ) -> None:
        """Outcome of a checkpoint hot-reload attempt (applied or
        rejected-with-rollback).  Flushed immediately: reloads are the
        durability points of a serving session."""
        self.events.emit(
            "serve_reload",
            path=str(path),
            applied=bool(applied),
            generation=int(generation),
            reason=str(reason),
        )
        self.metrics.count(
            "serve.reloads_applied" if applied else "serve.reloads_rejected"
        )
        self.events.flush()

    def serve_session(self, report: dict) -> None:
        """End-of-session health snapshot (see
        :meth:`repro.serve.HealthTracker.report`)."""
        self.events.emit("serve_session", **report)
        self.metrics.gauge("serve.unserved", report.get("unserved", 0))
        self.metrics.gauge(
            "serve.intersections_per_second",
            report.get("intersections_per_second", 0.0),
        )
        self.events.flush()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Emit ``run_end``, flush events, write metrics and trace."""
        if self._closed:
            return
        self._closed = True
        self.events.emit(
            "run_end", wall_s=time.perf_counter() - self._started
        )
        self.events.close()
        self.metrics.write(os.path.join(self.run_dir, METRICS_FILENAME))
        if self.spans is not None:
            self.spans.export_chrome_trace(
                os.path.join(self.run_dir, TRACE_FILENAME)
            )
            self.spans.detach()
            if not self._timers_were_enabled:
                from repro.perf.timers import TIMERS

                TIMERS.disable()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
