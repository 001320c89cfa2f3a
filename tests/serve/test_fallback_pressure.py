"""The max-pressure fallback on the detectors' bulk movement pressures.

On a plain ``DetectorSuite`` the fallback sums this tick's
``_bulk_mp`` through a per-node ``(phase, movement)`` index memoized on
the network; it must pick exactly what the per-movement reference loop
picks (first maximum, ``-inf`` start).  Fault-injecting suites keep the
per-movement reads, whose every call may draw RNG.  Both paths, and
the ``MaxPressure`` baseline agent, sum a phase's pressures in
``Phase.green_order`` (sorted movement keys), so a serve run and a
max-pressure run read the same waits in every process, whatever its
string-hash seed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from helpers import make_env
from repro.faults.config import FaultConfig
from repro.faults.controller import FallbackController
from repro.faults.detectors import FaultyDetectorSuite
from repro.scenarios.grid import build_grid
from repro.sim.detectors import DetectorSuite

pytestmark = pytest.mark.serve


def _reference(env, node_id: str) -> int:
    best_index, best_pressure = 0, -np.inf
    for index, phase in enumerate(env.phase_plans[node_id].phases):
        pressure = sum(
            env.detectors.movement_pressure(env.network.movements[key])
            for key in sorted(phase.green_movements)
        )
        if pressure > best_pressure:
            best_index, best_pressure = index, pressure
    return best_index


@pytest.mark.parametrize("engine", ["object", "soa"])
def test_bulk_path_matches_reference(engine):
    env = make_env(build_grid(6, 6), peak_rate=900.0, t_peak=60.0, engine=engine)
    controller = FallbackController("max_pressure")
    rng = np.random.default_rng(0)
    env.reset(seed=4)
    picks = set()
    for _ in range(40):
        for node_id in env.agent_ids:
            action = controller.action(env, node_id)
            assert action == _reference(env, node_id), node_id
            picks.add(action)
        env.step({a: int(rng.integers(4)) for a in env.agent_ids})
    assert len(picks) > 1  # pressures actually moved the choice


def test_empty_network_ties_pick_first_phase():
    env = make_env(build_grid(3, 3))
    env.reset(seed=0)  # tick 0: every pressure is zero
    controller = FallbackController("max_pressure")
    assert all(controller.action(env, a) == 0 for a in env.agent_ids)


def test_plain_suite_skips_per_movement_reads(monkeypatch):
    env = make_env(build_grid(3, 3), peak_rate=900.0, t_peak=60.0)
    env.reset(seed=1)
    env.step({a: 0 for a in env.agent_ids})

    def forbidden(self, movement):
        raise AssertionError("per-movement read on a bulk suite")

    monkeypatch.setattr(DetectorSuite, "movement_pressure", forbidden)
    controller = FallbackController("max_pressure")
    for node_id in env.agent_ids:
        controller.action(env, node_id)


def test_faulty_suite_keeps_per_movement_reads(monkeypatch):
    env = make_env(
        build_grid(3, 3), faults=FaultConfig(detector_dropout=0.2, detector_noise=0.3)
    )
    env.reset(seed=1)
    assert isinstance(env.detectors, FaultyDetectorSuite)
    reads = []
    original = FaultyDetectorSuite.movement_pressure

    def counting(self, movement):
        reads.append(movement.key)
        return original(self, movement)

    monkeypatch.setattr(FaultyDetectorSuite, "movement_pressure", counting)
    FallbackController("max_pressure").action(env, env.agent_ids[0])
    assert reads


def test_memo_follows_the_plan_object():
    env = make_env(build_grid(3, 3), peak_rate=900.0, t_peak=60.0)
    env.reset(seed=2)
    env.step({a: 0 for a in env.agent_ids})
    node_id = env.agent_ids[4]
    controller = FallbackController("max_pressure")
    before = controller.action(env, node_id)
    plan = env.phase_plans[node_id]
    # A plan object listing the phases in reverse order gets its own rows.
    reversed_plan = type(plan)(plan.node_id, list(reversed(plan.phases)))
    env.phase_plans = {**env.phase_plans, node_id: reversed_plan}
    assert controller.action(env, node_id) == _reference(env, node_id)
    env.phase_plans = {**env.phase_plans, node_id: plan}
    assert controller.action(env, node_id) == before


#: A tiny closed-loop serve run where every controller is dead, so each
#: decision is the max-pressure fallback; prints its average wait.
_SERVE_RUN = textwrap.dedent(
    """
    from repro.agents.pairuplight import PairUpLightSystem
    from repro.eval.harness import ExperimentScale, GridExperiment
    from repro.faults.config import FaultConfig
    from repro.serve import ControlService, PolicyRuntime, ServeConfig

    scale = ExperimentScale(
        rows=3, cols=3, peak_rate=1500.0, t_peak=60.0, light_duration=120.0,
        horizon_ticks=150, max_ticks=3600, train_episodes=1, eval_episodes=1,
    )
    faults = FaultConfig(controller_failure=1.0)
    env = GridExperiment(scale, seed=3).train_env(1, faults=faults)
    runtime = PolicyRuntime(lambda: PairUpLightSystem(env, seed=0))
    service = ControlService(env, runtime, ServeConfig(deadline_ms=10_000))
    observations = service.start_episode(seed=3)
    waits = []
    for _ in range(150):
        result = env.step(service.decide(observations))
        waits.append(result.info["average_wait"])
        if result.done:
            break
        observations = result.observations
    assert service.health.controller_faults > 0
    print(repr(sum(waits) / len(waits)))
    """
)


#: The ``MaxPressure`` baseline agent on a loaded 3x3 grid; prints its
#: mean wait.
_MAX_PRESSURE_RUN = textwrap.dedent(
    """
    from repro.agents import MaxPressureSystem
    from repro.eval.harness import ExperimentScale, GridExperiment
    from repro.rl.runner import train

    scale = ExperimentScale(
        rows=3, cols=3, peak_rate=1500.0, t_peak=60.0, light_duration=120.0,
        horizon_ticks=150, max_ticks=3600, train_episodes=1, eval_episodes=1,
    )
    env = GridExperiment(scale, seed=3).train_env(1)
    history = train(MaxPressureSystem(env), env, episodes=1, seed=3)
    print(repr(history.episodes[0].avg_wait))
    """
)


def test_serve_waits_do_not_depend_on_string_hashing():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    runs = {"serve": _SERVE_RUN, "max_pressure": _MAX_PRESSURE_RUN}
    waits = {name: set() for name in runs}
    for hash_seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        for name, script in runs.items():
            run = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            waits[name].add(run.stdout.strip())
    assert all(len(values) == 1 for values in waits.values()), waits
