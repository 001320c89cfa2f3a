"""End-to-end integration tests: does the full stack actually learn?

These are the repository's "does it reproduce" smoke tests: slow-ish
(seconds, not minutes) runs asserting the qualitative shapes the paper
reports — adaptive agents beat a fixed-time baseline after brief
training on a small grid, and the full heterogeneous pipeline runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.fixed_time import FixedTimeSystem
from repro.agents.pairuplight import PairUpLightConfig, PairUpLightSystem
from repro.env.tsc_env import EnvConfig, TrafficSignalEnv
from repro.rl.ppo import PPOConfig
from repro.rl.runner import evaluate, train
from repro.scenarios.monaco import MonacoSpec, MonacoScenario

from helpers import make_env, single_agent


@pytest.fixture(scope="module")
def trained_pairuplight(tiny_grid_module):
    """Train PairUpLight briefly on a 2x2 grid (shared across tests)."""
    env = make_env(tiny_grid_module, peak_rate=700, t_peak=100, horizon_ticks=300)
    agent = PairUpLightSystem(
        env,
        PairUpLightConfig(ppo=PPOConfig(epochs=4, minibatch_agents=4)),
        seed=0,
    )
    history = train(agent, env, episodes=50, seed=0)
    return agent, history, env


@pytest.fixture(scope="module")
def tiny_grid_module():
    from repro.scenarios.grid import build_grid

    return build_grid(2, 2)


class TestLearningProgress:
    def test_wait_time_improves_with_training(self, trained_pairuplight):
        _, history, _ = trained_pairuplight
        first = history.wait_curve[:5].mean()
        last = history.wait_curve[-5:].mean()
        assert last < first  # the Fig. 7 declining-curve shape

    def test_training_stats_stay_finite(self, trained_pairuplight):
        _, history, _ = trained_pairuplight
        for log in history.episodes:
            for value in log.update_stats.values():
                assert np.isfinite(value)

    def test_trained_beats_fixed_time(self, trained_pairuplight, tiny_grid_module):
        agent, _, _ = trained_pairuplight
        eval_env = make_env(
            tiny_grid_module,
            peak_rate=700,
            t_peak=100,
            horizon_ticks=300,
            drain=True,
        )
        rl_result = evaluate(agent, eval_env, episodes=2, seed=777)
        ft_result = evaluate(FixedTimeSystem(eval_env), eval_env, episodes=2, seed=777)
        assert rl_result.average_travel_time < ft_result.average_travel_time

    def test_policy_checkpoint_roundtrip(self, trained_pairuplight, tmp_path):
        from repro.nn.serialization import load_state, save_state

        agent, _, env = trained_pairuplight
        path = tmp_path / "actor.npz"
        save_state(agent.shared_actor, path)
        clone = PairUpLightSystem(env, seed=123)
        load_state(clone.shared_actor, path)
        np.testing.assert_allclose(
            clone.shared_actor.policy_head.weight.data,
            agent.shared_actor.policy_head.weight.data,
        )


class TestSingleAgentLearning:
    def test_single_agent_improves(self, tiny_grid_module):
        env = make_env(tiny_grid_module, peak_rate=700, t_peak=100, horizon_ticks=300)
        agent = single_agent(env, seed=0)
        history = train(agent, env, episodes=30, seed=0)
        curve = history.wait_curve
        # Learning happened: the best stretch clearly undercuts the start.
        assert curve[5:].min() < 0.9 * curve[:3].mean()
        assert curve[-10:].mean() < curve[:3].mean()


class TestHeterogeneousPipeline:
    def test_monaco_training_runs(self):
        scenario = MonacoScenario(MonacoSpec(rows=2, cols=3, seed=7, t_peak=60.0))
        env = TrafficSignalEnv(
            scenario.network,
            scenario.phase_plans,
            scenario.flows,
            EnvConfig(horizon_ticks=120, max_ticks=1200),
        )
        agent = PairUpLightSystem(
            env,
            PairUpLightConfig(
                parameter_sharing=False,
                ppo=PPOConfig(epochs=1, minibatch_agents=6),
            ),
            seed=0,
        )
        history = train(agent, env, episodes=2, seed=0)
        assert len(history.episodes) == 2
        assert all(np.isfinite(log.avg_wait) for log in history.episodes)


class TestDeterminism:
    def test_same_seed_same_training_curve(self, tiny_grid_module):
        curves = []
        for _ in range(2):
            env = make_env(tiny_grid_module, horizon_ticks=100)
            agent = PairUpLightSystem(env, seed=5)
            history = train(agent, env, episodes=3, seed=5)
            curves.append(history.wait_curve)
        np.testing.assert_allclose(curves[0], curves[1])
