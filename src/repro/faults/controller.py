"""Controller-failure wrapper: dead RL controllers fall back gracefully.

Wraps any :class:`repro.agents.base.AgentSystem`.  At each episode the
fault schedule decides, per intersection, whether its RL controller is
down; a dead intersection's action is replaced by a classical fallback —
cyclic fixed-time or max-pressure — while the surviving agents keep
running the learned policy.  The inner system still observes and learns
from every step, so a transient outage degrades control quality without
corrupting training.
"""

from __future__ import annotations

import numpy as np

from repro.agents.base import AgentSystem
from repro.env.tsc_env import StepResult, TrafficSignalEnv
from repro.errors import FaultInjectionError
from repro.faults.config import FaultConfig
from repro.faults.schedule import FaultSchedule
from repro.sim.signal import FixedTimeProgram

#: Supported fallback policies for dead controllers.
FALLBACK_POLICIES = ("fixed_time", "max_pressure")


class FallbackController:
    """Stateless-policy substitute for one or more dead RL controllers.

    Computes classical actions (cyclic fixed-time or max-pressure) for
    any intersection of the environment.  Shared by
    :class:`ControllerFaultWrapper` (episode-scoped controller deaths
    during training/evaluation) and the real-time service
    (:mod:`repro.serve`), so both layers degrade identically.
    """

    def __init__(self, policy: str = "max_pressure", fixed_stage_seconds: int = 5) -> None:
        if policy not in FALLBACK_POLICIES:
            raise FaultInjectionError(
                f"unknown fallback {policy!r}; choose from {FALLBACK_POLICIES}"
            )
        self.policy = policy
        self.fixed_stage_seconds = fixed_stage_seconds
        self._programs: dict[str, FixedTimeProgram] = {}
        #: The detector bulk array ``_mp_values`` was listed from.
        self._mp_array: np.ndarray | None = None
        self._mp_values: list[float] = []

    def action(self, env: TrafficSignalEnv, node_id: str) -> int:
        """Fallback phase for ``node_id`` at the current simulation time."""
        if self.policy == "fixed_time":
            return self._fixed_time_action(env, node_id)
        return self._max_pressure_action(env, node_id)

    def _fixed_time_action(self, env: TrafficSignalEnv, node_id: str) -> int:
        assert env.sim is not None
        program = self._programs.get(node_id)
        if program is None:
            num_phases = env.action_spaces[node_id].n
            program = FixedTimeProgram(
                [(index, self.fixed_stage_seconds) for index in range(num_phases)]
            )
            self._programs[node_id] = program
        return program.phase_at(env.sim.time)

    def _max_pressure_action(self, env: TrafficSignalEnv, node_id: str) -> int:
        detectors = env.detectors
        assert detectors is not None
        plan = env.phase_plans[node_id]
        if (
            detectors._cache_enabled
            and detectors._bulk_enabled
            and detectors._bulk_ready()
        ):
            # Bulk suites: this tick's movement pressures as one list,
            # summed per phase in the green-movement order below.
            mp = detectors._bulk_mp
            if mp is not self._mp_array:
                self._mp_array, self._mp_values = mp, mp.tolist()
            values = self._mp_values
            phase_pressures = [
                sum(values[i] for i in movements)
                for movements in _phase_movements(detectors, node_id, plan)
            ]
        else:  # fault-injecting suites: every read may draw RNG
            phase_pressures = (
                sum(
                    detectors.movement_pressure(env.network.movements[key])
                    for key in phase.green_order
                )
                for phase in plan.phases
            )
        best_index = 0
        best_pressure = -np.inf
        for index, pressure in enumerate(phase_pressures):
            if pressure > best_pressure:
                best_index, best_pressure = index, pressure
        return best_index


def _phase_movements(detectors, node_id: str, plan) -> tuple[tuple[int, ...], ...]:
    """Per phase of ``plan``, the bulk movement rows of its green set, in
    ``Phase.green_order``; memoized on the detectors' network per node
    (checked against the plan object, which the memo keeps)."""
    memo = detectors.sim.network.detector_memo.setdefault("fallback_phases", {})
    entry = memo.get(node_id)
    if entry is None or entry[0] is not plan:
        mv_index = detectors._mv_index
        entry = memo[node_id] = (
            plan,
            tuple(
                tuple(mv_index[key] for key in phase.green_order)
                for phase in plan.phases
            ),
        )
    return entry[1]


class ControllerFaultWrapper(AgentSystem):
    """Inject per-episode controller deaths around an agent system."""

    def __init__(
        self,
        inner: AgentSystem,
        config: FaultConfig,
        fallback: str = "max_pressure",
        seed: int = 0,
        fixed_stage_seconds: int = 5,
    ) -> None:
        self.inner = inner
        self.schedule = FaultSchedule(config, seed=seed)
        self.fallback = fallback
        self.fixed_stage_seconds = fixed_stage_seconds
        self.name = f"{inner.name}+{fallback}-fallback"
        self._controller = FallbackController(fallback, fixed_stage_seconds)

    # ------------------------------------------------------------------
    # Delegated lifecycle
    # ------------------------------------------------------------------
    def begin_episode(self, env: TrafficSignalEnv, training: bool) -> None:
        self.schedule.begin_episode()
        self.inner.begin_episode(env, training)

    def observe(self, result: StepResult, env: TrafficSignalEnv) -> None:
        self.inner.observe(result, env)

    def end_episode(self, env: TrafficSignalEnv, training: bool) -> dict:
        return self.inner.end_episode(env, training)

    def communication_bits_per_step(self, env: TrafficSignalEnv) -> int:
        return self.inner.communication_bits_per_step(env)

    def _checkpoint_modules(self) -> dict:
        return self.inner._checkpoint_modules()

    def training_state(self) -> dict[str, np.ndarray]:
        return self.inner.training_state()

    def load_training_state(self, state: dict[str, np.ndarray]) -> None:
        self.inner.load_training_state(state)

    def attach_telemetry(self, telemetry) -> None:
        """Route this wrapper's fault schedule into the telemetry sink."""
        self.schedule.event_sink = telemetry
        self.inner.attach_telemetry(telemetry)

    # ------------------------------------------------------------------
    # Acting with substitution
    # ------------------------------------------------------------------
    def act(
        self,
        observations: dict[str, np.ndarray],
        env: TrafficSignalEnv,
        training: bool,
    ) -> dict[str, int]:
        actions = self.inner.act(observations, env, training)
        for node_id in env.agent_ids:
            if self.schedule.controller_dead(node_id):
                if self.schedule.event_sink is not None:
                    tick = env.sim.time if env.sim is not None else None
                    self.schedule.emit_activation(
                        "controller_death", node_id, tick=tick, scope="episode"
                    )
                actions[node_id] = self._fallback_action(env, node_id)
        return actions

    def dead_controllers(self) -> list[str]:
        """Intersections running on the fallback this episode."""
        return self.schedule.dead_controllers()

    # ------------------------------------------------------------------
    def _fallback_action(self, env: TrafficSignalEnv, node_id: str) -> int:
        return self._controller.action(env, node_id)
