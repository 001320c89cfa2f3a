"""The SoA engine must be invisible above the sim layer.

Two integration contracts on top of the kernel-level lockstep tests:

* ``EnvConfig(engine="soa")`` — a :class:`TrafficSignalEnv` backed by a
  single-replica SoA engine produces bit-identical observations,
  rewards, dones and infos to the object-engine env, episode by episode.
* ``run_multiseed(..., engine="soa")`` — batching all seeds into one
  engine reproduces the per-seed sweep run on object-engine envs exactly
  (wait curves, eval travel times, completion rates), for both a static
  controller and a learning agent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.harness import ExperimentScale, GridExperiment
from repro.eval.multiseed import run_multiseed

pytestmark = pytest.mark.soa

TINY = ExperimentScale(
    rows=2,
    cols=2,
    peak_rate=600.0,
    t_peak=60.0,
    light_duration=120.0,
    horizon_ticks=80,
    max_ticks=3600,
    train_episodes=1,
    eval_episodes=1,
)


def _rollout(engine: str, episodes: int = 2):
    """Random-action rollout; returns every step's full outcome."""
    experiment = GridExperiment(TINY, seed=3)
    env = experiment.train_env(1)
    env.config.engine = engine
    rng = np.random.default_rng(99)
    trace = []
    for episode in range(episodes):
        observations = env.reset(seed=200 + episode)
        trace.append({k: v.copy() for k, v in observations.items()})
        done = False
        while not done:
            actions = {
                node_id: int(rng.integers(space.n))
                for node_id, space in env.action_spaces.items()
            }
            result = env.step(actions)
            trace.append(
                (
                    {k: v.copy() for k, v in result.observations.items()},
                    result.rewards,
                    result.done,
                    result.info,
                )
            )
            done = result.done
    return trace


def _assert_traces_equal(object_trace, soa_trace):
    assert len(object_trace) == len(soa_trace)
    for obj, soa in zip(object_trace, soa_trace):
        if isinstance(obj, dict):  # reset observations
            assert obj.keys() == soa.keys()
            for node_id in obj:
                np.testing.assert_array_equal(obj[node_id], soa[node_id])
            continue
        obs_o, rew_o, done_o, info_o = obj
        obs_s, rew_s, done_s, info_s = soa
        for node_id in obs_o:
            np.testing.assert_array_equal(obs_o[node_id], obs_s[node_id])
        assert rew_o == rew_s
        assert done_o == done_s
        assert info_o == info_s


class TestEnvEngineSwitch:
    def test_soa_env_matches_object_env(self):
        _assert_traces_equal(_rollout("object"), _rollout("soa"))

    def test_unknown_engine_rejected(self):
        from repro.env.tsc_env import EnvConfig
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="engine"):
            EnvConfig(engine="vectorized")


def _on_object_engine(sweep):
    """``sweep()`` with every experiment env built on, and stepped by,
    the object engine: the reference ``Simulation`` must have stepped,
    so the sweep cannot quietly run on SoA."""
    from repro.env.tsc_env import EnvConfig
    from repro.eval import harness
    from repro.sim.engine import Simulation

    made = []
    object_steps = []

    def object_config(**kwargs):
        made.append(EnvConfig(engine="object", **kwargs))
        return made[-1]

    step = Simulation.step

    def counted_step(self, *args, **kwargs):
        object_steps.append(1)
        return step(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "EnvConfig", object_config)
        patch.setattr(Simulation, "step", counted_step)
        result = sweep()
    assert made and all(config.engine == "object" for config in made)
    assert object_steps
    return result


class TestMultiseedEngineSwitch:
    """The per-seed sweep runs on object-engine envs, the reference the
    batched SoA sweep must reproduce."""

    def _assert_equal_sweeps(self, serial, batched):
        assert len(serial.runs) == len(batched.runs)
        for run_s, run_b in zip(serial.runs, batched.runs):
            assert run_s.seed == run_b.seed
            assert run_s.eval_travel_time == run_b.eval_travel_time
            assert run_s.completion_rate == run_b.completion_rate
            np.testing.assert_array_equal(run_s.wait_curve, run_b.wait_curve)

    def test_static_controller_matches_serial(self):
        from repro.agents import MaxPressureSystem

        def sweep(engine):
            return run_multiseed(
                TINY,
                lambda env, seed: MaxPressureSystem(env),
                model_name="MaxPressure",
                seeds=[0, 1, 2],
                engine=engine,
            )

        serial = _on_object_engine(lambda: sweep("object"))
        self._assert_equal_sweeps(serial, sweep("soa"))

    def test_learning_agent_matches_serial(self):
        from repro.agents import PairUpLightSystem

        def sweep(engine):
            return run_multiseed(
                TINY,
                lambda env, seed: PairUpLightSystem(env, seed=seed),
                model_name="PairUpLight",
                seeds=[0, 1],
                engine=engine,
            )

        serial = _on_object_engine(lambda: sweep("object"))
        self._assert_equal_sweeps(serial, sweep("soa"))

    def test_unknown_engine_rejected(self):
        from repro.agents import MaxPressureSystem
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="engine"):
            run_multiseed(
                TINY,
                lambda env, seed: MaxPressureSystem(env),
                model_name="MaxPressure",
                seeds=[0],
                engine="fast",
            )
