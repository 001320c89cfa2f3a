"""Behavioural contracts of all five agent systems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.colight import CoLightSystem
from repro.agents.fixed_time import FixedTimeSystem
from repro.agents.ma2c import MA2CSystem
from repro.agents.pairuplight import PairUpLightConfig, PairUpLightSystem
from repro.env.tsc_env import EnvConfig, TrafficSignalEnv
from repro.errors import ConfigError
from repro.rl.ppo import PPOConfig
from repro.rl.runner import run_episode, train
from repro.scenarios.monaco import build_monaco

from helpers import make_env, single_agent


def run_training_episodes(agent, env, episodes=2, seed=0):
    return train(agent, env, episodes=episodes, seed=seed)


def _small_colight(env):
    from repro.agents.colight import CoLightConfig
    from repro.rl.dqn import DQNConfig

    config = CoLightConfig(dqn=DQNConfig(batch_size=16, learning_starts=16))
    return CoLightSystem(env, config, seed=0)


ALL_LEARNING_SYSTEMS = [
    lambda env: PairUpLightSystem(env, seed=0),
    lambda env: single_agent(env),
    lambda env: MA2CSystem(env, seed=0),
    _small_colight,
]


class TestCommonContracts:
    @pytest.mark.parametrize("factory", ALL_LEARNING_SYSTEMS)
    def test_actions_valid(self, tiny_grid, factory):
        env = make_env(tiny_grid, horizon_ticks=60)
        agent = factory(env)
        obs = env.reset(seed=0)
        agent.begin_episode(env, training=True)
        actions = agent.act(obs, env, training=True)
        assert set(actions) == set(env.agent_ids)
        for agent_id, action in actions.items():
            assert env.action_spaces[agent_id].contains(action)

    @pytest.mark.parametrize("factory", ALL_LEARNING_SYSTEMS)
    def test_training_episode_completes(self, tiny_grid, factory):
        env = make_env(tiny_grid, horizon_ticks=60)
        agent = factory(env)
        history = run_training_episodes(agent, env, episodes=2)
        assert len(history.episodes) == 2
        assert all(np.isfinite(log.avg_wait) for log in history.episodes)

    @pytest.mark.parametrize("factory", ALL_LEARNING_SYSTEMS)
    def test_eval_mode_is_deterministic(self, tiny_grid, factory):
        env = make_env(tiny_grid, horizon_ticks=60)
        agent = factory(env)
        obs = env.reset(seed=0)
        agent.begin_episode(env, training=False)
        first = agent.act(obs, env, training=False)
        agent.begin_episode(env, training=False)
        second = agent.act(obs, env, training=False)
        assert first == second

    @pytest.mark.parametrize("factory", ALL_LEARNING_SYSTEMS)
    def test_parameters_change_after_update(self, tiny_grid, factory):
        env = make_env(tiny_grid, horizon_ticks=60)
        agent = factory(env)
        nets = []
        if hasattr(agent, "_unique_actors"):
            nets = agent._unique_actors
        elif hasattr(agent, "actor"):
            nets = [agent.actor]
        elif hasattr(agent, "networks"):
            nets = list(agent.networks.values())[:1]
        elif hasattr(agent, "online"):
            nets = [agent.online]
        before = [p.data.copy() for net in nets for p in net.parameters()]
        run_training_episodes(agent, env, episodes=2)
        after = [p.data for net in nets for p in net.parameters()]
        changed = any(
            not np.array_equal(old, new) for old, new in zip(before, after)
        )
        assert changed


class TestFixedTime:
    def test_cycles_through_phases(self, tiny_grid):
        env = make_env(tiny_grid, horizon_ticks=120)
        agent = FixedTimeSystem(env, stage_seconds=5)
        env.reset(seed=0)
        seen = set()
        obs = env.reset(seed=0)
        for _ in range(16):
            actions = agent.act(obs, env, training=False)
            seen.add(actions[env.agent_ids[0]])
            env.step(actions)
        assert seen == set(range(env.action_spaces[env.agent_ids[0]].n))

    def test_no_communication(self, tiny_grid):
        env = make_env(tiny_grid)
        agent = FixedTimeSystem(env)
        assert agent.communication_bits_per_step(env) == 0

    def test_bad_stage_seconds_rejected(self, tiny_grid):
        env = make_env(tiny_grid)
        with pytest.raises(ConfigError):
            FixedTimeSystem(env, stage_seconds=0)


class TestPairUpLight:
    def test_communication_bits_match_table4(self, tiny_grid):
        env = make_env(tiny_grid)
        agent = PairUpLightSystem(env, seed=0)
        assert agent.communication_bits_per_step(env) == 32  # one 32-bit message

    def test_no_comm_ablation_zero_bits(self, tiny_grid):
        env = make_env(tiny_grid)
        agent = PairUpLightSystem(
            env, PairUpLightConfig(communicate=False), seed=0
        )
        assert agent.communication_bits_per_step(env) == 0
        assert agent.name == "PairUpLight-NoComm"

    def test_messages_flow_between_steps(self, tiny_grid):
        env = make_env(tiny_grid, peak_rate=2000, t_peak=100)
        agent = PairUpLightSystem(env, seed=0)
        obs = env.reset(seed=0)
        agent.begin_episode(env, training=True)
        agent.act(obs, env, training=True)
        posted = [agent.board.read(a) for a in agent.agent_ids]
        assert all(0 < m[0] < 1 for m in posted)  # logistic-squashed

    def test_update_stats_returned(self, tiny_grid):
        env = make_env(tiny_grid, horizon_ticks=60)
        agent = PairUpLightSystem(env, seed=0)
        history = run_training_episodes(agent, env, episodes=1)
        stats = history.episodes[0].update_stats
        assert {"policy_loss", "value_loss", "entropy", "approx_kl"} <= set(stats)

    def test_sharing_on_heterogeneous_rejected(self):
        scenario = build_monaco(seed=7)
        env = TrafficSignalEnv(
            scenario.network,
            scenario.phase_plans,
            scenario.flows,
            EnvConfig(horizon_ticks=60, max_ticks=600),
        )
        with pytest.raises(ConfigError):
            PairUpLightSystem(env, PairUpLightConfig(parameter_sharing=True))

    def test_independent_mode_on_heterogeneous(self):
        scenario = build_monaco(seed=7)
        env = TrafficSignalEnv(
            scenario.network,
            scenario.phase_plans,
            scenario.flows,
            EnvConfig(horizon_ticks=30, max_ticks=600),
        )
        agent = PairUpLightSystem(
            env,
            PairUpLightConfig(
                parameter_sharing=False,
                ppo=PPOConfig(epochs=1, minibatch_agents=30),
            ),
            seed=0,
        )
        avg_wait, total_reward, _ = run_episode(agent, env, training=True, seed=0)
        stats = agent.end_episode(env, training=True)
        assert np.isfinite(stats["policy_loss"])

    def test_message_dim_two_supported(self, tiny_grid):
        env = make_env(tiny_grid, horizon_ticks=60)
        agent = PairUpLightSystem(env, PairUpLightConfig(message_dim=2), seed=0)
        assert agent.communication_bits_per_step(env) == 64
        history = run_training_episodes(agent, env, episodes=1)
        assert np.isfinite(history.episodes[0].avg_wait)


class TestSingleAgent:
    def test_requires_homogeneous(self):
        scenario = build_monaco(seed=7)
        env = TrafficSignalEnv(
            scenario.network,
            scenario.phase_plans,
            scenario.flows,
            EnvConfig(horizon_ticks=60, max_ticks=600),
        )
        with pytest.raises(ConfigError):
            single_agent(env)

    def test_no_communication(self, tiny_grid):
        env = make_env(tiny_grid)
        agent = single_agent(env)
        assert agent.communication_bits_per_step(env) == 0
        assert agent.name == "SingleAgent"
        assert agent.shared_actor.message_head is None


class TestMA2C:
    def test_works_on_heterogeneous(self):
        scenario = build_monaco(seed=7)
        env = TrafficSignalEnv(
            scenario.network,
            scenario.phase_plans,
            scenario.flows,
            EnvConfig(horizon_ticks=30, max_ticks=600),
        )
        agent = MA2CSystem(env, seed=0)
        run_episode(agent, env, training=True, seed=0)
        stats = agent.end_episode(env, training=True)
        assert np.isfinite(stats["policy_loss"])

    def test_per_agent_networks_not_shared(self, tiny_grid):
        env = make_env(tiny_grid)
        agent = MA2CSystem(env, seed=0)
        nets = list(agent.networks.values())
        assert nets[0] is not nets[1]

    def test_communication_bits_positive(self, tiny_grid):
        env = make_env(tiny_grid)
        agent = MA2CSystem(env, seed=0)
        bits = agent.communication_bits_per_step(env)
        # Neighbour obs (8) + fingerprints (4) from 2 neighbours at corners.
        assert bits > 32

    def test_spatial_reward_discounting(self, tiny_grid):
        env = make_env(tiny_grid)
        agent = MA2CSystem(env, seed=0)
        rewards = {a: -1.0 for a in env.agent_ids}
        spatial = agent._spatial_rewards(rewards)
        # Corner agents in 2x2 have exactly 2 neighbours.
        expected = -1.0 - agent.config.alpha * 2
        np.testing.assert_allclose(spatial, expected)


class TestCoLight:
    def test_requires_homogeneous(self):
        scenario = build_monaco(seed=7)
        env = TrafficSignalEnv(
            scenario.network,
            scenario.phase_plans,
            scenario.flows,
            EnvConfig(horizon_ticks=60, max_ticks=600),
        )
        with pytest.raises(ConfigError):
            CoLightSystem(env)

    def test_neighbourhood_includes_self_first(self, tiny_grid):
        env = make_env(tiny_grid)
        agent = CoLightSystem(env, seed=0)
        for agent_id, members in agent.neighbourhoods.items():
            assert members[0] == agent_id

    def test_replay_fills_during_training(self, tiny_grid):
        env = make_env(tiny_grid, horizon_ticks=60)
        agent = CoLightSystem(env, seed=0)
        run_episode(agent, env, training=True, seed=0)
        steps = 60 // env.config.delta_t
        assert len(agent.updater.replay) == steps * len(env.agent_ids)

    def test_epsilon_greedy_explores_in_training(self, tiny_grid):
        env = make_env(tiny_grid, horizon_ticks=60)
        agent = CoLightSystem(env, seed=0)
        obs = env.reset(seed=0)
        agent.begin_episode(env, training=True)
        actions = [agent.act(obs, env, training=True) for _ in range(20)]
        distinct = {a[env.agent_ids[0]] for a in actions}
        assert len(distinct) > 1  # epsilon starts at 1.0: must explore

    def test_communication_bits(self, tiny_grid):
        env = make_env(tiny_grid)
        agent = CoLightSystem(env, seed=0)
        obs_dim = env.observation_spaces[env.agent_ids[0]].dim
        assert agent.communication_bits_per_step(env) == 2 * obs_dim * 32
