"""Full-system checkpoint tests for PairUpLight."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.pairuplight import PairUpLightConfig, PairUpLightSystem
from repro.errors import CheckpointError
from repro.env.tsc_env import EnvConfig, TrafficSignalEnv
from repro.rl.ppo import PPOConfig
from repro.rl.runner import run_episode, train
from repro.scenarios.monaco import MonacoScenario, MonacoSpec

from helpers import make_env, single_agent


class TestSharedCheckpoint:
    def test_round_trip_preserves_behaviour(self, tiny_grid, tmp_path):
        env = make_env(tiny_grid, horizon_ticks=60)
        agent = PairUpLightSystem(env, seed=0)
        train(agent, env, episodes=2, seed=0)
        path = tmp_path / "pairuplight.npz"
        agent.save(path)

        clone = PairUpLightSystem(env, seed=99)
        clone.load(path)
        obs = env.reset(seed=5)
        agent.begin_episode(env, training=False)
        clone.begin_episode(env, training=False)
        assert agent.act(obs, env, training=False) == clone.act(
            obs, env, training=False
        )

    def test_state_dict_keys_stable(self, tiny_grid):
        env = make_env(tiny_grid)
        agent = PairUpLightSystem(env, seed=0)
        keys = set(agent.state_dict())
        assert any(k.startswith("actor.") for k in keys)
        assert any(k.startswith("critic.") for k in keys)

    def test_load_rejects_wrong_architecture(self, tiny_grid, tmp_path):
        env = make_env(tiny_grid)
        # (saved, loading): a narrower network; the no-communication
        # actor (no message input or head) and the communicating one.
        pairs = [
            (PairUpLightConfig(), PairUpLightConfig(hidden_size=32)),
            (PairUpLightConfig(communicate=False), PairUpLightConfig()),
            (PairUpLightConfig(), PairUpLightConfig(communicate=False)),
        ]
        for saved, loading in pairs:
            path = tmp_path / "weights.npz"
            PairUpLightSystem(env, saved, seed=0).save(path)
            other = PairUpLightSystem(env, loading, seed=0)
            with pytest.raises(CheckpointError):
                other.load(path)


class TestIndependentCheckpoint:
    def test_heterogeneous_round_trip(self, tmp_path):
        scenario = MonacoScenario(MonacoSpec(rows=2, cols=3, seed=7, t_peak=60.0))
        env = TrafficSignalEnv(
            scenario.network,
            scenario.phase_plans,
            scenario.flows,
            EnvConfig(horizon_ticks=60, max_ticks=600),
        )
        config = PairUpLightConfig(
            parameter_sharing=False, ppo=PPOConfig(epochs=1, minibatch_agents=6)
        )
        agent = PairUpLightSystem(env, config, seed=0)
        run_episode(agent, env, training=True, seed=0)
        agent.end_episode(env, training=True)
        path = tmp_path / "het.npz"
        agent.save(path)

        clone = PairUpLightSystem(env, config, seed=123)
        clone.load(path)
        for agent_id in agent.agent_ids:
            np.testing.assert_allclose(
                clone.actors[agent_id].policy_head.weight.data,
                agent.actors[agent_id].policy_head.weight.data,
            )


class TestGenericCheckpointing:
    """save/load via the AgentSystem base implementation."""

    def _round_trip(self, make_agent, env, tmp_path, get_probe):
        import numpy as np

        agent = make_agent(0)
        path = tmp_path / "weights.npz"
        agent.save(path)
        clone = make_agent(123)
        clone.load(path)
        np.testing.assert_allclose(get_probe(clone), get_probe(agent))

    def test_single_agent(self, tiny_grid, tmp_path):
        env = make_env(tiny_grid)
        self._round_trip(
            lambda s: single_agent(env, seed=s), env, tmp_path,
            lambda a: a.shared_actor.policy_head.weight.data,
        )

    @pytest.mark.parametrize("seed", [0, 7])
    def test_single_agent_keeps_the_standalone_layout(self, tiny_grid, seed):
        """The SingleAgent preset's weights are laid out, named and
        initialised as the standalone SingleAgentRL networks were, so
        their ``.npz`` files still load: a local actor (encoder, LSTM,
        policy head) then a local critic (encoder, LSTM, value head),
        drawn in that order from ``default_rng(seed + 1)``."""
        from repro.nn.linear import Linear
        from repro.nn.lstm import LSTMCell

        env = make_env(tiny_grid)
        agent_id = env.agent_ids[0]
        obs_dim = env.observation_spaces[agent_id].dim
        num_phases = env.action_spaces[agent_id].n
        hidden = PairUpLightConfig().hidden_size
        rng = np.random.default_rng(seed + 1)
        layers = [
            ("actor.encoder", Linear(obs_dim, hidden, rng)),
            ("actor.lstm", LSTMCell(hidden, hidden, rng)),
            ("actor.policy_head", Linear(hidden, num_phases, rng, gain=0.01)),
            ("critic.encoder", Linear(obs_dim, hidden, rng)),
            ("critic.lstm", LSTMCell(hidden, hidden, rng)),
            ("critic.value_head", Linear(hidden, 1, rng, gain=1.0)),
        ]
        expected = {
            f"{prefix}.{name}": value
            for prefix, layer in layers
            for name, value in layer.state_dict().items()
        }
        state = single_agent(env, seed=seed).state_dict()
        assert {k: v.shape for k, v in state.items()} == {
            k: v.shape for k, v in expected.items()
        }
        for key, value in expected.items():
            assert state[key].tobytes() == value.tobytes(), key

    def test_ma2c(self, tiny_grid, tmp_path):
        from repro.agents.ma2c import MA2CSystem

        env = make_env(tiny_grid)
        self._round_trip(
            lambda s: MA2CSystem(env, seed=s), env, tmp_path,
            lambda a: a.networks[a.agent_ids[0]].policy_head.weight.data,
        )

    def test_colight(self, tiny_grid, tmp_path):
        from repro.agents.colight import CoLightSystem

        env = make_env(tiny_grid)
        self._round_trip(
            lambda s: CoLightSystem(env, seed=s), env, tmp_path,
            lambda a: a.online.q_head.weight.data,
        )

    def test_iql(self, tiny_grid, tmp_path):
        from repro.agents.iql import IQLSystem

        env = make_env(tiny_grid)
        self._round_trip(
            lambda s: IQLSystem(env, seed=s), env, tmp_path,
            lambda a: a.online.body.output.weight.data,
        )

    def test_static_agent_save_rejected(self, tiny_grid, tmp_path):
        import pytest

        from repro.agents.fixed_time import FixedTimeSystem

        env = make_env(tiny_grid)
        with pytest.raises(ValueError):
            FixedTimeSystem(env).save(tmp_path / "nothing.npz")
