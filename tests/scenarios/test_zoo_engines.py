"""Cross-engine agreement on a compiled zoo scenario.

``incident_closure`` runs on the reference object engine and on a
single-replica SoA engine under one fixed-time schedule.  The two must
agree bit for bit on the full public snapshot, and their capacity
factors must match tick for tick, so closures apply and clear on the
same tick in both.
"""

from __future__ import annotations

import pytest

from helpers import check_engine_invariants, public_engine_snapshot
from repro.scenarios.zoo import build_zoo_scenario
from repro.sim.engine import Simulation
from repro.sim.signal import FixedTimeProgram
from repro.sim.soa import SoAEngine

pytestmark = pytest.mark.zoo


def _programs(scenario, green=15):
    return {
        node_id: FixedTimeProgram([(i, green) for i in range(plan.num_phases)])
        for node_id, plan in scenario.phase_plans.items()
    }


def test_object_soa_agree_with_incidents():
    scenario = build_zoo_scenario("incident_closure", seed=0)
    engines = []
    for which in ("object", "soa"):
        demand = scenario.demand_generator(seed=0, stochastic=False)
        if which == "soa":
            sim = SoAEngine(scenario.network, [demand], scenario.phase_plans).view(0)
        else:
            sim = Simulation(scenario.network, demand, scenario.phase_plans)
        sim.incidents = scenario.incidents
        engines.append(sim)

    programs = _programs(scenario)
    ticks = min(scenario.horizon_ticks, 700)
    incident_window_seen = False
    for t in range(ticks):
        for sim in engines:
            for node_id, program in programs.items():
                sim.set_phase(node_id, program.phase_at(t))
            sim.step()
        if t % 50 == 0 or t == ticks - 1:
            for sim in engines:
                check_engine_invariants(sim, teleport=None)
            snapshots = [public_engine_snapshot(sim) for sim in engines]
            assert snapshots[0] == snapshots[1], f"tick {t}"
        factors = [
            {k: v for k, v in sim.capacity_factors.items() if v != 1.0}
            for sim in engines
        ]
        assert factors[0] == factors[1]
        incident_window_seen = incident_window_seen or bool(factors[0])
    assert incident_window_seen  # the closure actually hit the run
    assert engines[0].total_created > 0
