"""Seeded property fuzzer: engine invariants on randomized scenarios.

Each case draws a random small grid, demand intensity, optional teleport
watchdog, and a random phase-churn stream, then drives two engines —
the reference object engine and a single-replica SoA engine — through
the identical scenario.  Checked every few ticks:

* conservation: ``total_created == in_network + pending + finished``,
* non-negative queues and occupancy, halted <= occupancy per link,
* occupancy never exceeds storage (teleports may overshoot by design:
  a teleported head enters its next link ignoring storage),
* the two engines agree on the full public introspection surface.

Seeds are fixed so failures reproduce; widen ``CASES`` locally to fuzz
harder.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import check_engine_invariants, public_engine_snapshot
from repro.eval.harness import ExperimentScale, GridExperiment
from repro.sim.engine import Simulation
from repro.sim.soa import SoAEngine

pytestmark = pytest.mark.soa

CASES = range(6)


def _draw_scenario(case_seed: int):
    rng = np.random.default_rng(5000 + case_seed)
    scale = ExperimentScale(
        rows=int(rng.integers(2, 4)),
        cols=int(rng.integers(2, 4)),
        peak_rate=float(rng.uniform(300.0, 1100.0)),
        t_peak=120.0,
        light_duration=240.0,
        horizon_ticks=240,
        max_ticks=3600,
        train_episodes=1,
        eval_episodes=1,
    )
    teleport = int(rng.integers(25, 70)) if rng.random() < 0.5 else None
    pattern = int(rng.integers(1, 4))
    demand_seed = int(rng.integers(0, 10_000))
    return scale, teleport, pattern, demand_seed


def _fresh_demand(scale, pattern, demand_seed):
    # Each engine consumes its own generator (emission is stateful).
    experiment = GridExperiment(scale, seed=3)
    env = experiment.train_env(pattern)
    env.reset(seed=demand_seed)
    return env.network, env.sim.demand, env.phase_plans


@pytest.mark.parametrize("case_seed", CASES)
def test_fuzzed_invariants_and_cross_engine_agreement(case_seed):
    scale, teleport, pattern, demand_seed = _draw_scenario(case_seed)
    kwargs = {} if teleport is None else {"teleport_time": teleport}

    engines = []
    for which in ("object", "soa"):
        network, demand, plans = _fresh_demand(scale, pattern, demand_seed)
        if which == "soa":
            engines.append(SoAEngine(network, [demand], plans, **kwargs).view(0))
        else:
            engines.append(Simulation(network, demand, plans, **kwargs))

    churn_streams = [np.random.default_rng(case_seed) for _ in engines]
    nodes = sorted(engines[0].network.signalized_nodes())
    plans = engines[0].phase_plans
    for t in range(240):
        if t % 6 == 0:
            for sim, churn in zip(engines, churn_streams):
                for node_id in nodes:
                    sim.set_phase(
                        node_id, int(churn.integers(plans[node_id].num_phases))
                    )
        for sim in engines:
            sim.step()
        if t % 20 == 0 or t == 239:
            for sim in engines:
                check_engine_invariants(sim, teleport)
            snapshots = [public_engine_snapshot(sim) for sim in engines]
            assert snapshots[0] == snapshots[1], (
                f"case {case_seed} diverged at tick {t}"
            )
