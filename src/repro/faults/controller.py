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
        #: The detector bulk array and phase plans ``_mp_picks`` was
        #: computed from.
        self._mp_key: tuple = (None, ())
        self._mp_picks = np.zeros(0, dtype=np.intp)
        #: This tick's movement pressures plus a trailing zero, the
        #: value of the phase table's pad slots.
        self._mp_padded = np.zeros(1)

    def action(self, env: TrafficSignalEnv, node_id: str) -> int:
        """Fallback phase for ``node_id`` at the current simulation time."""
        if self.policy == "fixed_time":
            return self._fixed_time_action(env, node_id)
        if _bulk_suite(env.detectors):
            return int(self._bulk_max_pressure(env)[env.agent_ids.index(node_id)])
        return self._max_pressure_action(env, node_id)

    def actions(self, env: TrafficSignalEnv, rows: np.ndarray) -> np.ndarray:
        """Fallback phases of ``env.agent_ids[i]`` for each ``i`` in
        ``rows`` (ascending), as :meth:`action` would give them one by
        one.  On a bulk detector suite max-pressure picks every node at
        once; fault-injecting suites read per movement, node by node,
        and fixed-time looks up each node's program."""
        if self.policy == "max_pressure" and _bulk_suite(env.detectors):
            return self._bulk_max_pressure(env)[rows]
        agent_ids = env.agent_ids
        return np.array([self.action(env, agent_ids[i]) for i in rows], dtype=np.int64)

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

    def _bulk_max_pressure(self, env: TrafficSignalEnv) -> np.ndarray:
        """Every node's max-pressure phase from this tick's bulk movement
        pressures, memoized per bulk array and phase plans.

        Each phase sums its green movements' pressures with explicit
        left-to-right adds in ``Phase.green_order`` (pad slots add an
        exact ``0.0``), the order of the per-movement scan, and
        ``argmax`` takes the first maximum as its strict ``>`` does."""
        mp = env.detectors._bulk_mp
        plans = tuple(map(env.phase_plans.__getitem__, env.agent_ids))
        if mp is self._mp_key[0] and plans == self._mp_key[1]:
            return self._mp_picks
        table, phase_pad = _phase_table(env.detectors, plans)
        padded = self._mp_padded
        if len(padded) != len(mp) + 1:
            padded = self._mp_padded = np.zeros(len(mp) + 1)
        padded[:-1] = mp
        terms = padded[table]  # (L, M, P): slot-major
        pressure = terms[0].copy()
        for term in terms[1:]:
            pressure += term
        if phase_pad is not None:
            pressure[phase_pad] = -np.inf
        self._mp_key = (mp, plans)
        self._mp_picks = pressure.argmax(axis=1)
        return self._mp_picks

    def _max_pressure_action(self, env: TrafficSignalEnv, node_id: str) -> int:
        """Per-movement reads: on a fault-injecting suite each may draw RNG."""
        detectors = env.detectors
        phase_pressures = (
            sum(
                detectors.movement_pressure(env.network.movements[key])
                for key in phase.green_order
            )
            for phase in env.phase_plans[node_id].phases
        )
        best_index = 0
        best_pressure = -np.inf
        for index, pressure in enumerate(phase_pressures):
            if pressure > best_pressure:
                best_index, best_pressure = index, pressure
        return best_index


def _bulk_suite(detectors) -> bool:
    """Whether this tick's movement pressures come as one bulk array."""
    return (
        detectors._cache_enabled
        and detectors._bulk_enabled
        and detectors._bulk_ready()
    )


def _phase_table(detectors, plans: tuple) -> tuple[np.ndarray, np.ndarray | None]:
    """``(L, M, P)`` bulk movement rows of each plan's phases' green
    sets, slot ``l`` holding each phase's ``l``-th movement in
    ``Phase.green_order`` and ``-1`` (a zero pressure) past its end, and
    the ``(M, P)`` mask of pad phases (None when every plan has ``P``);
    memoized on the detectors' network, checked against the plans."""
    memo = detectors.sim.network.detector_memo
    entry = memo.get("fallback_phase_table")
    if entry is None or entry[0] != plans:
        mv_index = detectors._mv_index
        rows = [
            [[mv_index[key] for key in phase.green_order] for phase in plan.phases]
            for plan in plans
        ]
        num_phases = max(len(phases) for phases in rows)
        width = max(len(green) for phases in rows for green in phases)
        table = np.full((max(width, 1), len(rows), num_phases), -1, dtype=np.intp)
        phase_pad = np.ones((len(rows), num_phases), dtype=bool)
        for i, phases in enumerate(rows):
            for p, green in enumerate(phases):
                table[: len(green), i, p] = green
                phase_pad[i, p] = False
        entry = memo["fallback_phase_table"] = (
            plans,
            table,
            phase_pad if phase_pad.any() else None,
        )
    return entry[1], entry[2]


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
