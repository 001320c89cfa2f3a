"""The per-network memo of ``SoAEngine``'s static tables.

An engine's link/lane/movement index, permission tables, flow routes and
demand rate schedule are pure functions of the network plus the flow
routes and profiles, the phase plans and ``permissive_left``, so they are
built once per network and kept in ``RoadNetwork.detector_memo`` beside
the detector index.  Pinned here: a build from the memo equals a fresh
build in every static table (values, dtype, memory order) and still runs
bit-exact with the object engine; engines sharing the memo are isolated
from each other's mutations; ``RoadNetwork.add_*`` clears the memo and
different plans or flows get entries of their own; the numpy rate
schedule equals the scalar ``emit`` arithmetic; and the memo keeps no
engine alive.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.eval.harness import ExperimentScale, GridExperiment
from repro.sim.demand import DemandGenerator, Flow, RateProfile
from repro.sim.engine import Simulation
from repro.sim.signal import Phase, PhasePlan
from repro.sim.soa import SoAEngine, _rate_schedule

from helpers import public_engine_snapshot

pytestmark = pytest.mark.soa

SCALE = ExperimentScale(
    rows=3,
    cols=3,
    peak_rate=900.0,
    t_peak=100.0,
    light_duration=200.0,
    horizon_ticks=300,
    max_ticks=3600,
    train_episodes=1,
    eval_episodes=1,
)


def _env(seed: int = 7, pattern: int = 1):
    return GridExperiment(SCALE, seed=seed).train_env(pattern)


def _demand(env, seed: int = 0, stochastic: bool = True) -> DemandGenerator:
    """A generator over fresh copies of ``env``'s flows."""
    flows = [Flow(f.name, f.origin_link, f.destination_link, f.profile) for f in env.flows]
    return DemandGenerator(flows, env.router, seed=seed, stochastic=stochastic)


def _engine(env, seeds=(1,), stochastic=True, **kwargs) -> SoAEngine:
    demands = [_demand(env, seed, stochastic) for seed in seeds]
    return SoAEngine(env.network, demands, env.phase_plans, **kwargs)


def _soa_keys(network) -> list:
    """The memo keys of SoA static tables."""
    return [
        key
        for key in network.detector_memo
        if isinstance(key, tuple) and key[0] == "soa_static"
    ]


def _static_names(network) -> list[str]:
    """Every attribute an engine takes from the memo."""
    names = set()
    for key in _soa_keys(network):
        tables = network.detector_memo[key]
        if isinstance(tables, dict):
            names.update(tables)
    assert names
    return sorted(names)


def _assert_same_table(name, a, b) -> None:
    assert type(a) is type(b), name
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.flags.c_contiguous == b.flags.c_contiguous, name
        assert a.flags.f_contiguous == b.flags.f_contiguous, name
        assert np.array_equal(a, b), name
    elif isinstance(a, (list, tuple)) and a and isinstance(a[0], np.ndarray):
        assert len(a) == len(b), name
        for x, y in zip(a, b):
            _assert_same_table(name, x, y)
    else:
        assert a == b, name


def _lockstep_against_object(engine: SoAEngine, env, seed: int, ticks: int = 200) -> None:
    """Drive a one-replica engine and the object engine through the same
    phase churn and compare their public state every 20 ticks."""
    reference = Simulation(env.network, _demand(env, seed), env.phase_plans)
    view = engine.view(0)
    churn = np.random.default_rng(seed)
    for t in range(ticks):
        if t % 5 == 0:
            for node_id, plan in env.phase_plans.items():
                phase = int(churn.integers(plan.num_phases))
                view.set_phase(node_id, phase)
                reference.set_phase(node_id, phase)
        view.step()
        reference.step()
        if t % 20 == 0 or t == ticks - 1:
            assert public_engine_snapshot(view) == public_engine_snapshot(reference), t


class TestMemoContents:
    def test_warm_build_equals_fresh_build(self):
        env = _env()
        env.network.detector_memo.clear()
        fresh = _engine(env)
        env.network.detector_memo.clear()
        first = _engine(env)  # rebuilds every table
        warm = _engine(env)  # takes every table from the memo
        for name in _static_names(env.network):
            value = getattr(warm, name)
            if not isinstance(value, int):
                assert value is getattr(first, name), name
                assert value is not getattr(fresh, name), name
            _assert_same_table(name, value, getattr(fresh, name))

    @pytest.mark.parametrize("warm", [False, True])
    def test_memo_build_runs_bit_exact_with_object_engine(self, warm):
        env = _env()
        env.network.detector_memo.clear()
        if warm:
            _engine(env, seeds=(99,))
        _lockstep_against_object(_engine(env, seeds=(3,)), env, seed=3)

    def test_deterministic_replay_matches_emit(self):
        env = _env()
        engine = _engine(env, seeds=(0, 1), stochastic=False)
        reference = Simulation(
            env.network, _demand(env, stochastic=False), env.phase_plans
        )
        reference.step(SCALE.horizon_ticks)
        engine.step(SCALE.horizon_ticks)
        assert reference.total_created > 0
        for b in range(2):
            assert public_engine_snapshot(engine.view(b)) == public_engine_snapshot(
                reference
            )


class TestRateSchedule:
    PROFILES = [
        RateProfile.triangular(0, 100, 300, 500.0),
        RateProfile.triangular(7.5, 33.3, 201.7, 911.0),
        RateProfile.constant(360.0, 90),
        # Integer points, a step (zero-length segment) and a gap after
        # the last point.
        RateProfile(((10, 0), (20, 720), (20, 1440), (50, 180))),
        RateProfile(((0.0, 36.0),)),
        RateProfile(((5.0, 0.0), (9.0, 0.0))),
    ]

    def test_matches_scalar_rate_at(self):
        # ``_rate_schedule`` reads only the entries' profile tails.
        entries = [(None, None, *_span(profile)) for profile in self.PROFILES]
        pair_t, pair_f, lam = _rate_schedule(entries)
        expect = []
        t_end = int(max(profile.end_time for profile in self.PROFILES))
        for t in range(t_end + 1):
            for f, profile in enumerate(self.PROFILES):
                per_second = profile.rate_at(float(t)) / 3600.0
                if per_second > 0.0:
                    expect.append((t, f, per_second))
        assert list(zip(pair_t.tolist(), pair_f.tolist(), lam.tolist())) == expect
        assert (pair_t.dtype, pair_f.dtype, lam.dtype) == (np.int64, np.int64, np.float64)


def _span(profile: RateProfile) -> tuple:
    """``DemandGenerator``'s per-flow entry tail for ``profile``."""
    pts = profile.points
    segments = tuple(
        (t0, t1, r0, r1) for (t0, r0), (t1, r1) in zip(pts[:-1], pts[1:])
    )
    return pts[0][0], pts[-1][0], pts[-1][1], segments


class TestIsolation:
    def test_incident_closure_stays_in_its_engine(self):
        env = _env()
        closed, other = _engine(env, seeds=(5,)), _engine(env, seeds=(5,))
        link_id = next(iter(env.network.links))
        static = list(other._static_storage)
        closed.set_capacity_factor(link_id, 0.0)
        assert other._storage == static
        assert other.capacity_factors == {}
        assert other._static_storage == static
        assert closed._static_storage == static
        # The untouched engine still runs exactly like a fresh one.
        env.network.detector_memo.clear()
        fresh = _engine(env, seeds=(5,))
        for engine in (closed, other, fresh):
            engine.step(120)
        assert public_engine_snapshot(other.view(0)) == public_engine_snapshot(
            fresh.view(0)
        )

    def test_shared_arrays_are_read_only(self):
        env = _env()
        engine = _engine(env)
        for name in ("_code_flat", "_lane_sig", "_col_base", "_num_phases"):
            with pytest.raises(ValueError):
                getattr(engine, name)[0] = 0


class TestInvalidation:
    def test_add_link_clears_the_memo(self):
        env = _env()
        before = _engine(env)
        network = env.network
        assert _soa_keys(network)
        node_ids = list(network.nodes)
        network.add_link("extra_link", node_ids[0], node_ids[-1], 100.0, 1)
        assert not network.detector_memo
        after = _engine(env)
        assert after.LK == before.LK + 1
        assert "extra_link" in after._link_of
        assert after._link_ids is not before._link_ids

    def test_different_phase_plans_get_their_own_entry(self):
        env = _env()
        base = _engine(env)
        node_id = next(iter(env.phase_plans))
        plan = env.phase_plans[node_id]
        plans = dict(env.phase_plans)
        plans[node_id] = PhasePlan(node_id, list(reversed(plan.phases)))
        swapped = SoAEngine(env.network, [env._fresh_demand(1)], plans)
        assert swapped._code_flat is not base._code_flat
        assert not np.array_equal(swapped._code_flat, base._code_flat)
        # An equal plan (new objects, same values) shares the entry.
        equal = {
            nid: PhasePlan(
                nid, [Phase(p.name, frozenset(p.green_movements)) for p in pl.phases]
            )
            for nid, pl in env.phase_plans.items()
        }
        rebuilt = SoAEngine(env.network, [env._fresh_demand(1)], equal)
        assert rebuilt._code_flat is base._code_flat
        lefts_off = SoAEngine(
            env.network, [env._fresh_demand(1)], env.phase_plans, permissive_left=False
        )
        assert lefts_off._code_flat is not base._code_flat
        assert len(_soa_keys(env.network)) == 3

    def test_different_flows_get_their_own_entry(self):
        experiment = GridExperiment(SCALE, seed=7)
        network = experiment.scenario.network
        pattern_1 = _engine(experiment.train_env(1))
        pattern_2 = _engine(experiment.train_env(2))
        assert pattern_2._flow_routes != pattern_1._flow_routes
        assert pattern_2._link_ids is not pattern_1._link_ids
        assert len(_soa_keys(network)) == 2
        # The same routes at other rates are another entry too.
        retimed = experiment.train_env(1)
        retimed.flows = [
            Flow(f.name, f.origin_link, f.destination_link, RateProfile.constant(300.0, 120))
            for f in retimed.flows
        ]
        retimed_engine = _engine(retimed)
        assert retimed_engine._flow_routes == pattern_1._flow_routes
        assert retimed_engine._rates[2] is not pattern_1._rates[2]
        assert len(_soa_keys(network)) == 3
        assert _engine(experiment.train_env(1))._rates is pattern_1._rates


class TestLifetime:
    def test_memo_keeps_no_engine_alive(self):
        env = _env()
        engine = _engine(env)
        engine.step(30)
        view = engine.view(0)
        engine_ref, view_ref = weakref.ref(engine), weakref.ref(view)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del engine, view
            assert engine_ref() is None
            assert view_ref() is None
        finally:
            if was_enabled:
                gc.enable()
        assert _soa_keys(env.network)

    def test_serial_env_frees_its_engine_on_reset(self):
        env = _env()
        env.reset(seed=0)
        env.step({a: 1 for a in env.agent_ids})
        previous = weakref.ref(env.sim.engine)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            env.reset(seed=1)
            assert previous() is None
        finally:
            if was_enabled:
                gc.enable()
