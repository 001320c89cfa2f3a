"""Engine surface checks shared by the object reference and SoA engines.

Fast-vs-reference state equivalence on a congested grid under one shared
phase churn, accessor error parity across engines, the fixed-time phase
table, and the detector suite's per-tick cache.  Multi-replica,
arterial and monaco lockstep of the SoA engine with the reference
``Simulation`` lives in ``tests/sim/test_soa_lockstep.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.harness import ExperimentScale, GridExperiment
from repro.sim.engine import Simulation
from repro.sim.soa import SoAEngine

SCALE = ExperimentScale(
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


def _make_sim(**sim_kwargs) -> Simulation:
    # Each call builds its own environment, so every engine gets an
    # independent-but-identical demand generator.
    experiment = GridExperiment(SCALE, seed=7)
    env = experiment.train_env(1)
    env.reset(seed=123)
    return Simulation(env.network, env.sim.demand, env.phase_plans, **sim_kwargs)


def _make_soa(**sim_kwargs) -> SoAEngine:
    experiment = GridExperiment(SCALE, seed=7)
    env = experiment.train_env(1)
    env.reset(seed=123)
    return SoAEngine(env.network, [env.sim.demand], env.phase_plans, **sim_kwargs)


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
        "signals": {
            node_id: (
                sim.signals[node_id].current_phase_index,
                sim.signals[node_id].pending_phase_index,
                sim.signals[node_id].yellow_remaining,
            )
            for node_id in sim.signals
        },
    }


def _run_paired(
    ticks: int, snapshot_every: int = 50, **sim_kwargs
) -> tuple[SoAEngine, Simulation]:
    """Drive the SoA engine and the reference through one phase churn."""
    fast = _make_soa(**sim_kwargs)
    view = fast.view(0)
    reference = _make_sim(**sim_kwargs)
    churn_fast = np.random.default_rng(42)
    churn_ref = np.random.default_rng(42)

    for t in range(ticks):
        if t % 5 == 0:
            for node_id, plan in reference.phase_plans.items():
                fast.request_phase(
                    0, node_id, int(churn_fast.integers(plan.num_phases))
                )
                reference.signals[node_id].request_phase(
                    int(churn_ref.integers(plan.num_phases))
                )
        fast.step()
        reference.step()
        if t % snapshot_every == 0 or t == ticks - 1:
            assert _snapshot(view) == _snapshot(reference), f"divergence at tick {t}"
    return fast, reference


class TestFastPathEquivalence:
    """The SoA engine (the fast engine every production path runs) is a
    pure acceleration of the reference ``Simulation``: every queue,
    vehicle timing field, credit and signal state matches tick for tick."""

    def test_default_config(self):
        """teleport off, permissive lefts on (the paper-faithful setup)."""
        _run_paired(400)

    def test_with_teleport_watchdog(self):
        _run_paired(400, teleport_time=60)

    def test_teleports_actually_fire_in_lockstep(self):
        """Aggressive watchdog on a congested grid: teleports must occur,
        and the engines must stay bit-exact through heads vanishing
        mid-queue."""
        fast, reference = _run_paired(400, snapshot_every=25, teleport_time=25)
        assert reference.teleport_count > 0
        assert fast.view(0).teleport_count == reference.teleport_count

    def test_protected_lefts_only(self):
        _run_paired(400, permissive_left=False)

    def test_fixed_time_program_equivalence(self):
        """Both engines' ``run_fixed_time`` (the SoA one hoists a phase
        table) match stepwise requests on the reference engine."""
        from repro.sim.signal import FixedTimeProgram

        fast = _make_soa()
        driven = _make_sim()
        reference = _make_sim()
        programs = {
            node_id: FixedTimeProgram(
                [(i, 13) for i in range(plan.num_phases)]
            )
            for node_id, plan in reference.phase_plans.items()
        }
        fast.run_fixed_time(programs, 300)
        driven.run_fixed_time(programs, 300)
        for t in range(300):
            for node_id, program in programs.items():
                reference.signals[node_id].request_phase(program.phase_at(t))
            reference.step()
        assert _snapshot(fast.view(0)) == _snapshot(reference)
        assert _snapshot(driven) == _snapshot(reference)


class TestAccessorErrorParity:
    """Unknown ids raise the same SimulationError on every engine.

    The object engine resolves lanes through its per-lane dicts and the
    SoA view through ``_lane_of``/``_link_of``.  Both must agree on
    message shape so callers can handle a typo'd detector id uniformly.
    """

    LANE_ACCESSORS = ("discharge_credit", "queue_length", "head_wait")
    LINK_ACCESSORS = ("halting_count", "link_head_wait")

    def _engines(self):
        experiment = GridExperiment(SCALE, seed=7)
        env = experiment.train_env(1)
        env.reset(seed=123)
        yield "object", _make_sim()
        yield "soa", SoAEngine(
            env.network, [env.sim.demand], env.phase_plans
        ).view(0)

    @pytest.mark.parametrize("accessor", LANE_ACCESSORS)
    def test_unknown_lane_id(self, accessor):
        from repro.errors import SimulationError

        for label, sim in self._engines():
            with pytest.raises(SimulationError) as excinfo:
                getattr(sim, accessor)("no_such_lane")
            assert str(excinfo.value) == "unknown lane id 'no_such_lane'", label

    @pytest.mark.parametrize("accessor", LINK_ACCESSORS)
    def test_unknown_link_id(self, accessor):
        from repro.errors import SimulationError

        for label, sim in self._engines():
            with pytest.raises(SimulationError) as excinfo:
                getattr(sim, accessor)("no_such_link")
            assert str(excinfo.value) == "unknown link id 'no_such_link'", label

    def test_known_ids_do_not_raise(self):
        for label, sim in self._engines():
            link_id = next(iter(sim.network.links))
            lane_id = sim.network.links[link_id].lanes[0].lane_id
            for accessor in self.LANE_ACCESSORS:
                getattr(sim, accessor)(lane_id)
            for accessor in self.LINK_ACCESSORS:
                getattr(sim, accessor)(link_id)


class TestPhaseTable:
    def test_phase_at_matches_scan(self):
        from repro.sim.signal import FixedTimeProgram

        program = FixedTimeProgram([(0, 7), (2, 3), (1, 15)])
        cycle = program.cycle_length

        def scan(t: int) -> int:
            offset = t % cycle
            for phase_index, duration in program.stages:
                if offset < duration:
                    return phase_index
                offset -= duration
            raise AssertionError

        for t in range(3 * cycle + 5):
            assert program.phase_at(t) == scan(t)

    def test_fractional_durations_fall_back(self):
        from repro.sim.signal import FixedTimeProgram

        program = FixedTimeProgram([(0, 2.0), (1, 3.0)])
        assert program.phase_at(0) == 0
        assert program.phase_at(2) == 1
        assert program.phase_at(5) == 0


class TestDetectorCacheEquivalence:
    def test_cached_readings_match_uncached(self):
        from repro.sim.detectors import DetectorSuite

        sim = _make_sim()
        cached = DetectorSuite(sim)
        uncached = DetectorSuite(sim)
        uncached._cache_enabled = False
        for _ in range(120):
            sim.step()
        network = sim.network
        for link_id in network.links:
            assert cached.observed_approaching(link_id) == (
                uncached.observed_approaching(link_id)
            )
            assert cached.observed_downstream(link_id) == (
                uncached.observed_downstream(link_id)
            )
            assert cached.link_pressure(link_id) == uncached.link_pressure(link_id)
        for movement in network.movements.values():
            assert cached.movement_pressure(movement) == (
                uncached.movement_pressure(movement)
            )
        for node_id in network.nodes:
            assert cached.intersection_pressure(node_id) == (
                uncached.intersection_pressure(node_id)
            )
            assert cached.intersection_congestion(node_id) == (
                uncached.intersection_congestion(node_id)
            )

    def test_cache_invalidates_on_tick(self):
        from repro.sim.detectors import DetectorSuite

        sim = _make_sim()
        suite = DetectorSuite(sim)
        for _ in range(30):
            sim.step()
        before = {n: suite.intersection_congestion(n) for n in sim.network.nodes}
        for _ in range(60):
            sim.step()
        after = {n: suite.intersection_congestion(n) for n in sim.network.nodes}
        fresh = DetectorSuite(sim)
        assert after == {n: fresh.intersection_congestion(n) for n in sim.network.nodes}
        assert before != after  # traffic actually moved

    def test_bulk_mode_restricted_to_base_class(self):
        """The vectorized bulk pass bypasses overridable ``observed_*``
        methods, so only the exact base class may use it."""
        from repro.sim.detectors import DetectorSuite

        sim = _make_sim()
        assert DetectorSuite(sim)._bulk_enabled is True

        class Overriding(DetectorSuite):
            def observed_queue(self, lane_id):
                return 0

        assert Overriding(sim)._bulk_enabled is False

    def test_faulty_suite_cache_disabled(self):
        from repro.faults.config import FaultConfig
        from repro.faults.detectors import FaultyDetectorSuite
        from repro.faults.schedule import FaultSchedule

        sim = _make_sim()
        config = FaultConfig(detector_dropout=0.5)
        schedule = FaultSchedule(config, seed=3)
        schedule.begin_episode(3)
        suite = FaultyDetectorSuite(sim, schedule)
        assert suite._cache_enabled is False
        lane_id = next(iter(sim.lane_queues))
        # Each read consumes fault RNG, so repeated same-tick reads may
        # differ — exactly why caching must stay off for this subclass.
        readings = {suite.observed_queue(lane_id) for _ in range(50)}
        assert len(readings) >= 1  # draws happened without error
