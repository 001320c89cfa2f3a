"""Seeded fuzz harness: engine invariants on *compiled* scenario specs.

Complements :mod:`tests.sim.test_engine_fuzz` (which fuzzes grid scale /
phase churn): here the fuzzer samples whole scenario *specs* — network
shape, demand mixes over every profile kind, and mid-episode incidents —
compiles each, and drives the reference object engine and a
single-replica SoA engine through the identical scenario under a
fixed-time signal schedule.  Checked periodically:

* spec round-trip: the compiled scenario canonicalises idempotently,
* vehicle conservation: ``created == in_network + pending + finished``,
* occupancy bounds against *static* storage (an incident that starts on
  an occupied link reduces effective storage below the current load;
  the surplus drains out — by design it never exceeds the physical
  storage, which is what we assert),
* full public-API agreement between the two engines, incidents
  included (closures apply and clear on the same tick everywhere).

Environment knobs (the CI fuzz stage widens them; defaults keep tier-1
fast):

* ``REPRO_FUZZ_CASES``  — number of distinct specs (default 8),
* ``REPRO_FUZZ_SEED``   — fuzzer seed (default 20260808),
* ``REPRO_FUZZ_CASE_BUDGET_S`` — per-case wall-clock budget; a case
  exceeding it fails with a timing message (default 30 s).
"""

from __future__ import annotations

import os
import time

import pytest

from helpers import check_engine_invariants, public_engine_snapshot
from repro.scenarios.fuzz import fuzz_specs
from repro.scenarios.spec import compile_spec, scenario_to_spec
from repro.sim.engine import Simulation
from repro.sim.signal import FixedTimeProgram
from repro.sim.soa import SoAEngine

pytestmark = pytest.mark.zoo

FUZZ_CASES = int(os.environ.get("REPRO_FUZZ_CASES", "8"))
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260808"))
CASE_BUDGET_S = float(os.environ.get("REPRO_FUZZ_CASE_BUDGET_S", "30"))

SPECS = fuzz_specs(seed=FUZZ_SEED, count=FUZZ_CASES)


def _engines(scenario):
    """Reference object engine and SoA view over the same scenario."""
    engines = []
    for which in ("object", "soa"):
        # Each engine consumes its own demand generator (stateful) but
        # shares the stateless IncidentSchedule.
        demand = scenario.demand_generator(seed=17, stochastic=False)
        if which == "soa":
            engine = SoAEngine(
                scenario.network, [demand], scenario.phase_plans
            ).view(0)
        else:
            engine = Simulation(scenario.network, demand, scenario.phase_plans)
        if scenario.incidents:
            engine.incidents = scenario.incidents
        engines.append(engine)
    return engines


def test_fuzzer_yields_requested_distinct_specs():
    assert len(SPECS) == FUZZ_CASES
    names = {spec["name"] for spec in SPECS}
    assert len(names) == FUZZ_CASES


@pytest.mark.parametrize("spec", SPECS, ids=[s["name"] for s in SPECS])
def test_fuzzed_scenario_invariants_across_engines(spec):
    started = time.monotonic()
    scenario = compile_spec(spec)

    # Round-trip property on the compiled artifact.
    canonical = scenario_to_spec(scenario)
    assert scenario_to_spec(compile_spec(canonical)) == canonical

    engines = _engines(scenario)
    programs = {
        node_id: FixedTimeProgram(
            [(index, 20) for index in range(plan.num_phases)]
        )
        for node_id, plan in scenario.phase_plans.items()
    }
    ticks = min(scenario.horizon_ticks, 600)
    for t in range(ticks):
        for sim in engines:
            for node_id, program in programs.items():
                sim.set_phase(node_id, program.phase_at(t))
            sim.step()
        if t % 25 == 0 or t == ticks - 1:
            for sim in engines:
                check_engine_invariants(sim, teleport=None)
            snapshots = [public_engine_snapshot(sim) for sim in engines]
            assert snapshots[0] == snapshots[1], (
                f"{spec['name']} diverged at tick {t}"
            )
            factors = [dict(sim.capacity_factors) for sim in engines]
            assert factors[0] == factors[1]

    # Demand ran: deterministic emission must have created vehicles for
    # any sampled spec (all profiles carry positive mass by construction).
    assert engines[0].total_created > 0

    elapsed = time.monotonic() - started
    assert elapsed < CASE_BUDGET_S, (
        f"{spec['name']} exceeded the per-case fuzz budget: "
        f"{elapsed:.1f}s >= {CASE_BUDGET_S:.1f}s"
    )


@pytest.mark.parametrize("spec", [s for s in SPECS if s.get("incidents")][:2],
                         ids=lambda s: s["name"])
def test_fuzzed_incidents_apply_and_clear(spec):
    scenario = compile_spec(spec)
    sim = scenario.build_simulation(seed=3, stochastic=False)
    schedule = scenario.incidents
    assert schedule is not None
    end = schedule.end_time
    active_seen = False
    for _ in range(min(scenario.horizon_ticks, end + 5)):
        sim.step()
        # Incidents are applied at the top of the tick, before ``time``
        # increments: after step(), factors reflect ``time - 1``.
        desired = {
            link: factor
            for link, factor in schedule.factors_at(sim.time - 1).items()
            if factor != 1.0
        }
        applied = {
            link: factor
            for link, factor in sim.capacity_factors.items()
            if factor != 1.0
        }
        assert applied == desired
        active_seen = active_seen or bool(desired)
    assert active_seen
    assert not {f for f in sim.capacity_factors.values() if f != 1.0}
