"""Oracle-lockstep equivalence: SoA batched engine vs the object engine.

The object-per-vehicle :class:`Simulation` is the bit-exactness oracle
for :class:`repro.sim.soa.SoAEngine` (DESIGN.md, "SoA engine").  These
tests run B replicas batched in one SoA engine against B independent
reference simulations fed *identical demand streams*, driving both
through the same randomized phase churn, and compare full state
snapshots tick for tick — queues (ids, waits, route positions), running
lists, occupancy, discharge credits, signal state machines, finished
vehicles, and teleport counts — on grid, arterial, and monaco
scenarios, including a spillback-heavy case that actually teleports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.harness import ExperimentScale, GridExperiment
from repro.scenarios.arterial import ArterialScenario, ArterialSpec
from repro.scenarios.monaco import MonacoScenario, MonacoSpec
from repro.sim.demand import DemandGenerator, Router
from repro.sim.engine import Simulation
from repro.sim.soa import SoAEngine

pytestmark = pytest.mark.soa

CONGESTED_SCALE = ExperimentScale(
    rows=3,
    cols=3,
    peak_rate=900.0,
    t_peak=200.0,
    light_duration=400.0,
    horizon_ticks=400,
    max_ticks=3600,
    train_episodes=1,
    eval_episodes=1,
)


def _grid_demand(seed: int) -> tuple:
    """(network, phase_plans, demand) with a fresh generator per call."""
    experiment = GridExperiment(CONGESTED_SCALE, seed=7)
    env = experiment.train_env(1)
    env.reset(seed=seed)
    return env.network, env.phase_plans, env.sim.demand


def _scenario_demand(make_scenario, seed: int, stochastic: bool = True) -> tuple:
    # Fresh scenario per generator: deterministic-emission accumulators
    # live on the Flow objects, so generators must not share them.
    scenario = make_scenario()
    demand = DemandGenerator(
        scenario.flows, Router(scenario.network), seed=seed, stochastic=stochastic
    )
    return scenario.network, scenario.phase_plans, demand


def _snapshot(sim) -> dict:
    """Full-state snapshot; works on Simulation and SoAReplicaView."""
    return {
        "time": sim.time,
        "queues": {
            lane_id: [
                (v.vehicle_id, v.wait_total, v.wait_current_link, v.route_index)
                for v in sim.lane_queues[lane_id]
            ]
            for lane_id in sim.lane_queues
        },
        "running": {
            link_id: [
                (v.vehicle_id, v.run_start, v.run_arrival, v.route_index)
                for v in sim.running[link_id]
            ]
            for link_id in sim.running
        },
        "occupancy": dict(sim.link_occupancy),
        "credits": {
            lane_id: sim.discharge_credit(lane_id) for lane_id in sim.lane_queues
        },
        "finished": [
            (v.vehicle_id, v.finished, v.wait_total) for v in sim.finished_vehicles
        ],
        "teleports": sim.teleport_count,
        "total_created": sim.total_created,
        "in_network": sim.vehicles_in_network(),
        "pending": sim.pending_insertions(),
        "signals": {
            node_id: (
                sim.signals[node_id].current_phase_index,
                sim.signals[node_id].pending_phase_index,
                sim.signals[node_id].yellow_remaining,
                sim.signals[node_id].time_in_phase,
            )
            for node_id in sim.signals
        },
    }


def _run_locked(
    make_demand,
    seeds: list[int],
    ticks: int,
    snapshot_every: int = 25,
    churn_every: int = 5,
    **sim_kwargs,
) -> SoAEngine:
    """Drive SoA batch + per-replica references through identical churn."""
    references = []
    demands = []
    for seed in seeds:
        network, plans, demand_ref = make_demand(seed)
        _, _, demand_soa = make_demand(seed)
        references.append(
            Simulation(network, demand_ref, plans, **sim_kwargs)
        )
        demands.append(demand_soa)
    engine = SoAEngine(network, demands, plans, **sim_kwargs)
    views = [engine.view(b) for b in range(len(seeds))]
    churn_soa = [np.random.default_rng(1000 + seed) for seed in seeds]
    churn_ref = [np.random.default_rng(1000 + seed) for seed in seeds]
    node_ids = list(plans)

    for t in range(ticks):
        if t % churn_every == 0:
            for b, reference in enumerate(references):
                for node_id in node_ids:
                    plan = plans[node_id]
                    engine.request_phase(
                        b, node_id, int(churn_soa[b].integers(plan.num_phases))
                    )
                    reference.signals[node_id].request_phase(
                        int(churn_ref[b].integers(plan.num_phases))
                    )
        engine.step()
        for reference in references:
            reference.step()
        if t % snapshot_every == 0 or t == ticks - 1:
            for b, reference in enumerate(references):
                assert _snapshot(views[b]) == _snapshot(reference), (
                    f"replica {b} diverged at tick {t}"
                )
    return engine


class TestGridLockstep:
    def test_default_config(self):
        """Teleports off, permissive lefts on (paper-faithful), B=3."""
        _run_locked(_grid_demand, [123, 456, 789], 400)

    def test_protected_lefts_only(self):
        _run_locked(_grid_demand, [123, 456], 300, permissive_left=False)

    def test_teleporting_spillback_heavy(self):
        """Congested grid with an aggressive watchdog: teleports fire and
        the engines stay bit-exact through them."""
        engine = _run_locked(_grid_demand, [123, 456], 400, teleport_time=25)
        assert sum(engine.teleport_count) > 0

    def test_zero_yellow_time(self):
        """yellow_time=0 exercises the instant-commit request path."""
        _run_locked(_grid_demand, [123], 200, yellow_time=0)


class TestArterialLockstep:
    def test_arterial(self):
        make = lambda: ArterialScenario(ArterialSpec(intersections=4))
        _run_locked(lambda seed: _scenario_demand(make, seed), [11, 22], 300)

    def test_arterial_deterministic_demand(self):
        make = lambda: ArterialScenario(ArterialSpec(intersections=3))
        _run_locked(
            lambda seed: _scenario_demand(make, seed, stochastic=False),
            [5, 6],
            250,
        )


class TestMonacoLockstep:
    def test_monaco(self):
        make = lambda: MonacoScenario(MonacoSpec(rows=3, cols=4))
        _run_locked(lambda seed: _scenario_demand(make, seed), [31, 32], 250)


class TestFixedTimeDriver:
    def test_run_fixed_time_matches_stepwise(self):
        from repro.sim.signal import FixedTimeProgram

        network, plans, demand_ref = _grid_demand(123)
        _, _, demand_soa = _grid_demand(123)
        reference = Simulation(network, demand_ref, plans)
        engine = SoAEngine(network, [demand_soa], plans)
        programs = {
            node_id: FixedTimeProgram([(i, 13) for i in range(plan.num_phases)])
            for node_id, plan in plans.items()
        }
        engine.run_fixed_time(programs, 300)
        for t in range(300):
            for node_id, program in programs.items():
                reference.signals[node_id].request_phase(program.phase_at(t))
            reference.step()
        assert _snapshot(engine.view(0)) == _snapshot(reference)
