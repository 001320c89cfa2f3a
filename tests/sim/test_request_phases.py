"""Vectorized phase requests vs the per-cell ``request_phase`` oracle.

``SoAEngine.request_phases(req, where=mask)`` must leave the engine in
exactly the state that per-(replica, signal) ``request_phase`` calls on
the masked cells produce — with and without yellow, for random action
sequences and partial masks.  ``LockstepEnvGroup.step_all`` builds that
request from the action dicts; an invalid action raises
``TrafficSignalEnv._apply_actions``'s message and applies nothing, in a
lockstep group and in a serial env on either engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.eval.batched import LockstepEnvGroup
from repro.eval.harness import ExperimentScale, make_experiment
from repro.sim.soa import SoAEngine

pytestmark = pytest.mark.soa

SCALE = ExperimentScale(
    rows=3,
    cols=3,
    peak_rate=900.0,
    t_peak=100.0,
    light_duration=200.0,
    horizon_ticks=200,
    max_ticks=3600,
    train_episodes=1,
    eval_episodes=1,
)
SEEDS = [3, 4, 5]


def _envs():
    return [make_experiment(SCALE, seed=seed).train_env(1) for seed in SEEDS]


def _engine(envs, yellow_time):
    head = envs[0]
    return SoAEngine(
        head.network,
        [env._fresh_demand(seed) for env, seed in zip(envs, SEEDS)],
        head.phase_plans,
        yellow_time=yellow_time,
        saturation_rate=head.config.saturation_rate,
        startup_lost_time=head.config.startup_lost_time,
    )


def _signal_state(engine):
    return [
        engine._cur.copy(),
        engine._pend.copy(),
        engine._yel.copy(),
        engine._tip.copy(),
        engine._credit.copy(),
        [len(q) for q in engine._queues],
    ]


def _assert_same(a, b):
    for x, y in zip(_signal_state(a), _signal_state(b)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("yellow_time", [0, 2])
@pytest.mark.parametrize("live_share", [1.0, 0.5])
def test_masked_request_matches_per_cell(yellow_time, live_share):
    envs = _envs()
    vector, scalar = _engine(envs, yellow_time), _engine(envs, yellow_time)
    counts = np.asarray([plan.num_phases for plan in vector._plans])
    rng = np.random.default_rng(yellow_time + int(10 * live_share))
    for _ in range(60):
        req = rng.integers(0, counts, size=(vector.batch, vector.NS))
        where = rng.random((vector.batch, vector.NS)) < live_share
        vector.request_phases(req, where=where)
        for b, s in zip(*np.nonzero(where)):
            scalar.request_phase(int(b), scalar._sig_nodes[s], int(req[b, s]))
        _assert_same(vector, scalar)
        # Hold the request for a random number of ticks so both
        # in-yellow and settled cells get re-requested.
        ticks = int(rng.integers(1, 4))
        vector.step(ticks)
        scalar.step(ticks)
        _assert_same(vector, scalar)


def test_invalid_action_raises_and_applies_nothing():
    envs = _envs()
    group = LockstepEnvGroup(envs)
    group.reset_all(SEEDS)
    engine = group.engine
    before = _signal_state(engine)
    agent = envs[1].agent_ids[4]
    bad = envs[1].action_spaces[agent].n
    # Every valid entry asks for phase 1, which would start a yellow
    # (and so show in the signal state) if it were applied.
    actions = [{a: 1 for a in env.agent_ids} for env in envs]
    actions[1][agent] = bad
    with pytest.raises(ConfigError) as caught:
        group.step_all(actions)
    with pytest.raises(ConfigError) as expected:
        envs[1]._apply_actions({agent: bad})
    assert str(caught.value) == str(expected.value)
    for x, y in zip(before, _signal_state(engine)):
        assert np.array_equal(x, y)
    assert engine.time == 0


def _phases(env):
    return [
        (signal.current_phase_index, signal.pending_phase_index, signal.yellow_remaining)
        for signal in env.sim.signals.values()
    ]


@pytest.mark.parametrize("engine", ["object", "soa"])
def test_serial_invalid_action_applies_nothing(engine):
    """A serial env validates every entry before applying any, on
    either engine, so a caught ``ConfigError`` leaves the signals as
    they were."""
    env = make_experiment(SCALE, seed=SEEDS[0]).train_env(1)
    env.config.engine = engine
    env.reset(seed=SEEDS[0])
    before = _phases(env)
    agents = env.agent_ids
    # Valid entries before and after the bad one, each asking for a
    # phase change that would show in the signal state if applied.
    actions = {a: 1 for a in agents}
    actions[agents[4]] = env.action_spaces[agents[4]].n
    with pytest.raises(ConfigError, match="invalid action"):
        env.step(actions)
    assert _phases(env) == before
    assert env.sim.time == 0


def test_partial_and_reordered_action_dicts():
    """Action dicts need not list every agent in agent order."""
    envs = _envs()
    vector_group = LockstepEnvGroup(envs)
    vector_group.reset_all(SEEDS)
    scalar_envs = _envs()
    scalar_group = LockstepEnvGroup(scalar_envs)
    scalar_group.reset_all(SEEDS)
    agents = envs[0].agent_ids
    actions = [
        {a: 1 for a in reversed(agents)},
        {agents[0]: 1, agents[3]: 2},
        None,
    ]
    vector_group.step_all(actions)
    # Reference: one per-cell ``request_phase`` per entry, in dict order.
    for env, acts in zip(scalar_envs, actions):
        for node_id, action in (acts or {}).items():
            env.sim.set_phase(node_id, int(action))
    scalar_group.engine.step(scalar_envs[0].config.delta_t)
    _assert_same(vector_group.engine, scalar_group.engine)
