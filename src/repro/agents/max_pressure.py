"""Classical non-learning adaptive baselines (extension beyond the paper).

Two standard comparators from the TSC literature, useful for sanity
checks and ablations against the learned controllers:

* :class:`MaxPressureSystem` — Varaiya's max-pressure policy: each
  decision step, activate the phase whose green movements have the
  largest total pressure.  Provably throughput-optimal under idealised
  assumptions; a strong non-learning adaptive baseline.
* :class:`LongestQueueSystem` — serve the phase with the most queued
  vehicles (greedy); simple but prone to starving minor movements.

Both use the same range-limited detectors as the RL agents, so the
comparison is information-fair.
"""

from __future__ import annotations

import numpy as np

from repro.agents.base import AgentSystem
from repro.env.tsc_env import TrafficSignalEnv
from repro.errors import ConfigError


class MaxPressureSystem(AgentSystem):
    """Max-pressure control over detector-observed pressures."""

    name = "MaxPressure"

    def __init__(self, env: TrafficSignalEnv, min_green: int = 0) -> None:
        if min_green < 0:
            raise ConfigError("min_green must be non-negative")
        self.min_green = min_green

    def act(
        self,
        observations: dict[str, np.ndarray],
        env: TrafficSignalEnv,
        training: bool,
    ) -> dict[str, int]:
        assert env.sim is not None and env.detectors is not None
        actions: dict[str, int] = {}
        for node_id in env.agent_ids:
            signal = env.sim.signals[node_id]
            if self.min_green and 0 < signal.time_in_phase < self.min_green:
                actions[node_id] = signal.current_phase_index
                continue
            plan = env.phase_plans[node_id]
            best_index = 0
            best_pressure = -np.inf
            for index, phase in enumerate(plan.phases):
                pressure = sum(
                    env.detectors.movement_pressure(env.network.movements[key])
                    for key in phase.green_order
                )
                if pressure > best_pressure:
                    best_index, best_pressure = index, pressure
            actions[node_id] = best_index
        return actions


class LongestQueueSystem(AgentSystem):
    """Greedy longest-queue-first control (known to starve movements)."""

    name = "LongestQueue"

    def act(
        self,
        observations: dict[str, np.ndarray],
        env: TrafficSignalEnv,
        training: bool,
    ) -> dict[str, int]:
        assert env.sim is not None
        sim = env.sim
        network = env.network
        actions: dict[str, int] = {}
        for node_id in env.agent_ids:
            plan = env.phase_plans[node_id]
            best_index = 0
            best_queue = -1
            for index, phase in enumerate(plan.phases):
                queued = 0
                for in_link, out_link in phase.green_movements:
                    movement = network.movements[(in_link, out_link)]
                    for lane in network.lanes_for_movement(movement):
                        queued += sum(
                            1
                            for vehicle in sim.lane_queues[lane.lane_id]
                            if vehicle.next_link == out_link
                        )
                if queued > best_queue:
                    best_index, best_queue = index, queued
            actions[node_id] = best_index
        return actions
