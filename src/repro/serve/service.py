"""The fault-tolerant real-time control service.

A :class:`ControlService` steps every signalized intersection of one
environment on batched observations, inside a per-tick deadline budget,
and **never fails open**: whatever the policy does — run past the
deadline, raise, emit NaN/invalid actions, or get killed by an injected
controller fault — every intersection receives a valid action every
tick.  Failures are covered per-intersection by a classical fallback
(:class:`repro.faults.FallbackController`) with exponential-backoff
re-promotion once the policy proves healthy again.

Checkpoint hot-reload is atomic (validate on a shadow, swap on success,
roll back on corruption) and applied only between ticks, so a reload can
never tear a decision.  The optional :mod:`repro.obs` telemetry sink is
the ops plane: deadline misses, fallback transitions, watchdog stalls
and reload outcomes all land in the event log.
"""

from __future__ import annotations

import os
import time
from typing import Callable

import numpy as np

from repro.env.tsc_env import TrafficSignalEnv
from repro.errors import ConfigError
from repro.faults.controller import FallbackController
from repro.perf.timers import TIMERS
from repro.serve.config import ServeConfig
from repro.serve.deadline import DeadlineBudget, Watchdog
from repro.serve.fallback import FallbackManager
from repro.serve.health import HealthTracker
from repro.serve.runtime import PolicyRuntime

#: Per-intersection failure verdicts (event/report vocabulary).
VERDICTS = (
    "policy_exception",
    "deadline_miss",
    "invalid_action",
    "controller_fault",
)


class ControlService:
    """Serve one environment's intersections from a live policy.

    Parameters
    ----------
    env:
        The environment being controlled.  Its fault schedule (if any)
        supplies injected controller deaths; detector/message faults act
        through the usual observation/message paths.
    runtime:
        The policy runtime (checkpoint loading + hot-reload).
    config:
        Deadline/fallback/backoff/watchdog envelope.
    telemetry:
        Optional :class:`repro.obs.telemetry.Telemetry` ops sink.
    clock:
        Injectable monotonic clock for the deadline budget (tests pass a
        scripted clock to exercise deadline misses deterministically).
    """

    def __init__(
        self,
        env: TrafficSignalEnv,
        runtime: PolicyRuntime,
        config: ServeConfig | None = None,
        telemetry=None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.env = env
        self.runtime = runtime
        self.config = config or ServeConfig()
        self.telemetry = telemetry
        self._clock = clock
        self.health = HealthTracker()
        self.fallbacks = FallbackManager(list(env.agent_ids), self.config)
        self.fallback_controller = FallbackController(
            self.config.fallback, self.config.fixed_stage_seconds
        )
        self.watchdog: Watchdog | None = None
        if self.config.watchdog:
            self.watchdog = Watchdog(
                self.config.watchdog_threshold_s, on_stall=self._on_stall
            )
        self.tick_index = 0
        self._pending_reload: str | None = None
        self.reload_log: list = []
        if telemetry is not None:
            env.attach_telemetry(telemetry)

    # ------------------------------------------------------------------
    # Episode / session control
    # ------------------------------------------------------------------
    def start_episode(self, seed: int | None = None) -> dict[str, np.ndarray]:
        """Reset the environment and the policy's episode state."""
        observations = self.env.reset(seed=seed)
        self.runtime.begin_episode(self.env)
        return observations

    def serve(self, ticks: int, seed: int | None = 0) -> HealthTracker:
        """Serve ``ticks`` decision steps, spanning episodes as needed."""
        if ticks <= 0:
            raise ConfigError("ticks must be positive")
        observations = self.start_episode(seed)
        for _ in range(ticks):
            actions = self.decide(observations)
            result = self.env.step(actions)
            observations = result.observations
            if result.done:
                self.health.episodes += 1
                observations = self.start_episode()
        if self.telemetry is not None:
            self.telemetry.serve_session(self.health.report())
        return self.health

    # ------------------------------------------------------------------
    # Hot-reload
    # ------------------------------------------------------------------
    def request_reload(self, path: str | os.PathLike) -> None:
        """Schedule a checkpoint reload for the next tick boundary."""
        self._pending_reload = os.fspath(path)

    def _apply_pending_reload(self) -> None:
        path, self._pending_reload = self._pending_reload, None
        result = self.runtime.try_reload(path, env=self.env)
        self.reload_log.append(result)
        if result.applied:
            self.health.reloads_applied += 1
        else:
            self.health.reloads_rejected += 1
        if self.telemetry is not None:
            self.telemetry.serve_reload(
                path=result.path,
                applied=result.applied,
                generation=self.runtime.generation,
                reason=result.reason,
            )

    # ------------------------------------------------------------------
    # The per-tick decision
    # ------------------------------------------------------------------
    def decide(self, observations: dict[str, np.ndarray]) -> dict[str, int]:
        """One guaranteed-coverage decision tick.

        Always returns a valid action for every intersection; never
        raises for a policy-side failure.
        """
        env = self.env
        tick = self.tick_index
        self.tick_index += 1
        if self._pending_reload is not None:
            # Reloads happen between ticks, outside the deadline budget.
            self._apply_pending_reload()

        budget = DeadlineBudget(self.config.deadline_s, clock=self._clock)
        failure: str | None = None
        raw_actions: dict[str, int] = {}
        if self.watchdog is not None:
            self.watchdog.arm(tick)
        try:
            with TIMERS.section("serve/act"):
                raw_actions = self.runtime.act(observations, env)
        except Exception as error:  # the service must never fail open
            failure = f"{type(error).__name__}: {error}"
        finally:
            if self.watchdog is not None and self.watchdog.disarm():
                self.health.watchdog_stalls += 1
        deadline_missed = budget.exceeded()

        if failure is not None:
            self.health.policy_exceptions += 1
            if self.telemetry is not None:
                self.telemetry.serve_policy_failure(tick=tick, error=failure)
        if deadline_missed and self.telemetry is not None:
            self.telemetry.serve_deadline_miss(
                tick=tick,
                elapsed_ms=budget.elapsed() * 1000.0,
                deadline_ms=self.config.deadline_ms,
            )

        actions: dict[str, int] = {}
        fallback_count = 0
        with TIMERS.section("serve/fallback"):
            for node_id in env.agent_ids:
                verdict = self._verdict(
                    env, node_id, raw_actions, failure, deadline_missed
                )
                decision = self.fallbacks.decide(node_id, tick, verdict is None)
                if self.telemetry is not None:
                    if decision.transition == "demoted":
                        self.telemetry.serve_fallback(
                            node_id=node_id,
                            tick=tick,
                            reason=verdict or "unknown",
                            backoff_ticks=self.fallbacks.state(node_id).backoff_ticks,
                        )
                    elif decision.transition == "promoted":
                        self.telemetry.serve_promotion(node_id=node_id, tick=tick)
                if decision.use_fallback:
                    actions[node_id] = self.fallback_controller.action(env, node_id)
                    fallback_count += 1
                else:
                    actions[node_id] = int(raw_actions[node_id])

        self.health.observe_tick(
            latency_s=budget.elapsed(),
            served=len(actions),
            expected=len(env.agent_ids),
            fallback_count=fallback_count,
            deadline_missed=deadline_missed,
        )
        if self.telemetry is not None:
            self.telemetry.metrics.count("serve.ticks")
            self.telemetry.metrics.count("serve.intersections_served", len(actions))
            if fallback_count:
                self.telemetry.metrics.count("serve.fallback_decisions", fallback_count)
        return actions

    # ------------------------------------------------------------------
    def _verdict(
        self,
        env: TrafficSignalEnv,
        node_id: str,
        raw_actions: dict[str, int],
        failure: str | None,
        deadline_missed: bool,
    ) -> str | None:
        """This tick's failure verdict for one intersection (None = healthy)."""
        verdict: str | None = None
        if failure is not None:
            verdict = "policy_exception"
        elif deadline_missed:
            verdict = "deadline_miss"
        else:
            action = raw_actions.get(node_id)
            try:
                valid = action is not None and env.action_spaces[node_id].contains(
                    int(action)
                )
            except (TypeError, ValueError, OverflowError):
                valid = False
            if not valid:
                verdict = "invalid_action"
                self.health.invalid_actions += 1
        if self._controller_dead(env, node_id):
            verdict = "controller_fault"
            self.health.controller_faults += 1
        return verdict

    def _controller_dead(self, env: TrafficSignalEnv, node_id: str) -> bool:
        """Injected controller death (reuses the env's fault schedule)."""
        schedule = env.fault_schedule
        if schedule is None or not schedule.config.any_controller_faults:
            return False
        if not schedule.controller_dead(node_id):
            return False
        tick = env.sim.time if env.sim is not None else None
        schedule.emit_activation(
            "controller_death", node_id, tick=tick, scope="episode"
        )
        return True

    def _on_stall(self, tick: int, threshold_s: float) -> None:
        """Watchdog timer callback (runs on the timer thread)."""
        if self.telemetry is not None:
            self.telemetry.serve_watchdog_stall(
                tick=tick, threshold_ms=threshold_s * 1000.0
            )
