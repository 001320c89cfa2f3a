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
        self._num_phases = np.array(
            [env.action_spaces[a].n for a in env.agent_ids], dtype=np.int64
        )
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
        self.run_ticks(self.start_episode(seed), ticks)
        return self.end_session()

    def run_ticks(
        self, observations: dict[str, np.ndarray], ticks: int
    ) -> dict[str, np.ndarray]:
        """Serve ``ticks`` decision steps from ``observations``, starting a
        new episode whenever one ends; return the next tick's observations.

        :meth:`serve` is one call; a caller that acts between two ticks
        (say, requests a reload) splits the session into several.
        """
        for _ in range(ticks):
            result = self.env.step(self.decide(observations))
            observations = result.observations
            if result.done:
                self.health.episodes += 1
                observations = self.start_episode()
        return observations

    def end_session(self) -> HealthTracker:
        """Report the session, per-intersection fallback state included,
        to telemetry; return the health tracker."""
        if self.telemetry is not None:
            self.telemetry.serve_session(
                self.health.report(self.fallbacks.snapshot())
            )
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
        raises for a policy-side failure.  Verdicts, injected controller
        deaths and the fallback arbitration are ``(M,)`` masks over
        ``env.agent_ids``, and fallback phases come from one
        :meth:`FallbackController.actions` call; only telemetry events
        go node by node (death activation, then demotion or promotion).
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

        with TIMERS.section("serve/fallback"):
            served, healthy, dead = self._verdicts(
                env, raw_actions, failure is not None or deadline_missed
            )
            use_fallback, demoted, promoted = self.fallbacks.decide(tick, healthy)
            self._emit_transitions(
                env, tick, dead, demoted, promoted, failure, deadline_missed
            )
            rows = use_fallback.nonzero()[0]
            if len(rows):
                served[rows] = self.fallback_controller.actions(env, rows)
            actions = dict(zip(env.agent_ids, served.tolist()))
        fallback_count = len(rows)

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
    def _verdicts(
        self, env: TrafficSignalEnv, raw_actions: dict, policy_failed: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """This tick's ``(M,)`` policy actions, verdict mask (True =
        healthy) and injected-death mask (None without controller
        faults), in ``env.agent_ids`` order.

        A policy exception or deadline miss fails every intersection.
        Otherwise an action is valid when ``int(action)`` names one of
        the intersection's phases; an injected controller death fails
        its intersection whatever the policy did.
        """
        num = len(env.agent_ids)
        if policy_failed:
            served = np.zeros(num, dtype=np.int64)
            healthy = np.zeros(num, dtype=bool)
        else:
            served, healthy = self._policy_actions(env, raw_actions)
            self.health.invalid_actions += num - int(np.count_nonzero(healthy))
        dead = self._dead_controllers(env)
        if dead is not None:
            healthy &= ~dead
            self.health.controller_faults += int(np.count_nonzero(dead))
        return served, healthy, dead

    def _policy_actions(
        self, env: TrafficSignalEnv, raw_actions: dict
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(M,)`` ``int(action)`` codes of the policy's actions and
        their validity.  Integer actions are checked on arrays; any other
        output (missing keys, floats, NaN, objects) goes through ``int()``
        one action at a time, as the phase index it would be served as."""
        values = list(map(raw_actions.get, env.agent_ids))
        try:
            codes = np.array(values)
        except ValueError:  # ragged outputs
            codes = None
        if codes is None or codes.dtype.kind not in "iub" or codes.shape != (len(values),):
            codes = np.array(
                [_action_code(v, n) for v, n in zip(values, self._num_phases.tolist())],
                dtype=np.int64,
            )
        codes = codes.astype(np.int64)
        return codes, (codes >= 0) & (codes < self._num_phases)

    def _dead_controllers(self, env: TrafficSignalEnv) -> np.ndarray | None:
        """Injected controller deaths (reuses the env's fault schedule)."""
        schedule = env.fault_schedule
        if schedule is None or not schedule.config.any_controller_faults:
            return None
        return schedule.controller_dead_mask(env.agent_ids)

    def _emit_transitions(
        self,
        env: TrafficSignalEnv,
        tick: int,
        dead: np.ndarray | None,
        demoted: np.ndarray,
        promoted: np.ndarray,
        failure: str | None,
        deadline_missed: bool,
    ) -> None:
        """Per intersection, in agent order: its controller-death
        activation (deduplicated per episode by the schedule), then its
        demotion or promotion event."""
        schedule = env.fault_schedule
        deaths = dead is not None and schedule.event_sink is not None
        if self.telemetry is None and not deaths:
            return
        marked = demoted | promoted
        if deaths:
            marked = marked | dead
        for i in np.flatnonzero(marked):
            node_id = env.agent_ids[i]
            if deaths and dead[i]:
                schedule.emit_activation(
                    "controller_death",
                    node_id,
                    tick=env.sim.time if env.sim is not None else None,
                    scope="episode",
                )
            if self.telemetry is None:
                continue
            if demoted[i]:
                if dead is not None and dead[i]:
                    reason = "controller_fault"
                elif failure is not None:
                    reason = "policy_exception"
                else:
                    reason = "deadline_miss" if deadline_missed else "invalid_action"
                self.telemetry.serve_fallback(
                    node_id=node_id,
                    tick=tick,
                    reason=reason,
                    backoff_ticks=int(self.fallbacks.backoff_ticks[i]),
                )
            elif promoted[i]:
                self.telemetry.serve_promotion(node_id=node_id, tick=tick)

    def _on_stall(self, tick: int, threshold_s: float) -> None:
        """Watchdog timer callback (runs on the timer thread)."""
        if self.telemetry is not None:
            self.telemetry.serve_watchdog_stall(
                tick=tick, threshold_ms=threshold_s * 1000.0
            )


def _action_code(action, num_phases: int) -> int:
    """``int(action)`` if that names one of ``num_phases`` phases, else -1."""
    if action is None:
        return -1
    try:
        code = int(action)
    except (TypeError, ValueError, OverflowError):
        return -1
    return code if 0 <= code < num_phases else -1
