"""Multi-agent environment tests: stepping, rewards, episode modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.env.reward import intersection_reward
from repro.env.tsc_env import EnvConfig, TrafficSignalEnv
from repro.errors import ConfigError, SimulationError
from repro.faults.incidents import Incident, IncidentSchedule
from repro.scenarios.flows import flow_pattern
from repro.scenarios.monaco import build_monaco
from repro.sim.engine import Simulation
from repro.sim.soa import SoAEngine

from helpers import make_env


class TestEnvConfig:
    def test_defaults_valid(self):
        config = EnvConfig()
        assert config.delta_t == 5
        assert config.yellow_time == 2

    def test_bad_delta_t_rejected(self):
        with pytest.raises(ConfigError):
            EnvConfig(delta_t=0)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigError):
            EnvConfig(horizon_ticks=100, max_ticks=50)


class TestIncidentLinks:
    """An incident schedule may only name links of the env's network."""

    @pytest.mark.parametrize("engine", ["object", "soa"])
    def test_unknown_link_rejected_at_build(self, tiny_grid, engine):
        schedule = IncidentSchedule([Incident.link_closure("no_such_link", 0, 60)])
        with pytest.raises(ConfigError, match="no_such_link"):
            make_env(tiny_grid, engine=engine, incidents=schedule)

    @pytest.mark.parametrize("engine", ["object", "soa"])
    def test_unknown_link_rejected_by_engine(self, tiny_grid, engine):
        network, plans = tiny_grid.network, tiny_grid.phase_plans
        if engine == "soa":
            sim = SoAEngine(network, [None], plans).view(0)
        else:
            sim = Simulation(network, None, plans)
        sim.incidents = IncidentSchedule([Incident.link_closure("no_such_link", 0, 60)])
        with pytest.raises(SimulationError, match="no_such_link"):
            sim.step()


class TestStepping:
    def test_step_before_reset_rejected(self, tiny_grid):
        env = make_env(tiny_grid)
        with pytest.raises(ConfigError):
            env.step({a: 0 for a in env.agent_ids})

    def test_step_advances_delta_t(self, tiny_env):
        tiny_env.reset(seed=0)
        result = tiny_env.step({a: 0 for a in tiny_env.agent_ids})
        assert result.info["time"] == tiny_env.config.delta_t

    def test_invalid_action_rejected(self, tiny_env):
        tiny_env.reset(seed=0)
        actions = {a: 0 for a in tiny_env.agent_ids}
        actions[tiny_env.agent_ids[0]] = 99
        with pytest.raises(ConfigError):
            tiny_env.step(actions)

    def test_rewards_match_eq6(self, tiny_env):
        tiny_env.reset(seed=0)
        for _ in range(20):
            result = tiny_env.step({a: 0 for a in tiny_env.agent_ids})
        for agent_id in tiny_env.agent_ids:
            expected = intersection_reward(
                tiny_env.sim, agent_id, tiny_env.config.reward_scale
            )
            assert result.rewards[agent_id] == pytest.approx(expected)

    def test_rewards_nonpositive(self, tiny_env):
        tiny_env.reset(seed=0)
        for _ in range(30):
            result = tiny_env.step({a: 0 for a in tiny_env.agent_ids})
            assert all(r <= 0 for r in result.rewards.values())

    def test_done_at_horizon_in_training_mode(self, tiny_grid):
        env = make_env(tiny_grid, horizon_ticks=100)
        env.reset(seed=0)
        steps = 0
        done = False
        while not done:
            done = env.step({a: 0 for a in env.agent_ids}).done
            steps += 1
        assert steps == 100 // env.config.delta_t

    def test_drain_mode_runs_past_horizon(self, tiny_grid):
        env = make_env(tiny_grid, horizon_ticks=100, drain=True, peak_rate=300, t_peak=40)
        env.reset(seed=0)
        done = False
        while not done:
            result = env.step({a: 0 for a in env.agent_ids})
            done = result.done
        assert result.info["time"] >= 100
        assert "average_travel_time" in result.info
        # Cycling phase 0 only still serves some movements: some vehicles finish.
        assert result.info["finished_vehicles"] >= 0

    def test_drain_mode_respects_max_ticks(self, tiny_grid):
        env = make_env(
            tiny_grid, horizon_ticks=50, drain=True, peak_rate=3000, t_peak=40
        )
        env.config.max_ticks = 200
        env.reset(seed=0)
        done = False
        while not done:
            result = env.step({a: 0 for a in env.agent_ids})
            done = result.done
        assert result.info["time"] <= 200 + env.config.delta_t


class TestSeeding:
    def test_same_seed_same_trajectory(self, tiny_grid):
        env_a = make_env(tiny_grid, seed=3)
        env_b = make_env(tiny_grid, seed=3)
        obs_a = env_a.reset(seed=3)
        obs_b = env_b.reset(seed=3)
        for _ in range(20):
            result_a = env_a.step({a: 0 for a in env_a.agent_ids})
            result_b = env_b.step({a: 0 for a in env_b.agent_ids})
        for agent_id in env_a.agent_ids:
            np.testing.assert_array_equal(
                result_a.observations[agent_id], result_b.observations[agent_id]
            )

    def test_auto_seed_changes_between_episodes(self, tiny_grid):
        env = make_env(tiny_grid, peak_rate=1500)
        env.reset()
        totals = []
        for _ in range(2):
            done = False
            while not done:
                done = env.step({a: 0 for a in env.agent_ids}).done
            totals.append(env.sim.total_created)
            env.reset()
        assert totals[0] != totals[1]  # different Poisson draws


class TestTopologyHelpers:
    def test_homogeneous_grid(self, tiny_env):
        assert tiny_env.homogeneous

    def test_heterogeneous_monaco(self):
        scenario = build_monaco(seed=7)
        env = TrafficSignalEnv(
            scenario.network,
            scenario.phase_plans,
            scenario.flows,
            EnvConfig(horizon_ticks=100, max_ticks=1000),
        )
        assert not env.homogeneous

    def test_congestion_score_nonnegative(self, tiny_env):
        tiny_env.reset(seed=0)
        for agent_id in tiny_env.agent_ids:
            assert tiny_env.congestion_score(agent_id) >= 0

    def test_pressure_cache_consistency(self, tiny_env):
        tiny_env.reset(seed=0)
        tiny_env.step({a: 0 for a in tiny_env.agent_ids})
        first = tiny_env.link_pressures("I0_0")
        second = tiny_env.link_pressures("I0_0")
        np.testing.assert_array_equal(first, second)


class TestRewardFunction:
    def test_reward_zero_on_empty_network(self, tiny_env):
        tiny_env.reset(seed=0)
        for agent_id in tiny_env.agent_ids:
            assert intersection_reward(tiny_env.sim, agent_id) == 0.0

    def test_reward_scale_applied(self, tiny_grid):
        env = make_env(tiny_grid, peak_rate=2000, reward_scale=1.0)
        env.reset(seed=0)
        for _ in range(30):
            result = env.step({a: 0 for a in env.agent_ids})
        raw = result.rewards[env.agent_ids[0]]
        half = intersection_reward(env.sim, env.agent_ids[0], reward_scale=0.5)
        assert half == pytest.approx(raw * 0.5)
