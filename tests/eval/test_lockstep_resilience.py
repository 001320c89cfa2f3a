"""The one training loop keeps its guarantees at every batch size.

``rl.runner.train`` is the one-env call of ``eval.batched.train_lockstep``,
so the serial runner's crash-safety reaches B > 1:

* kill-and-resume is bit-exact (waits, rewards, parameter bytes,
  optimizer moments, RNG state) for a 6x6 B=8 ``shared_across_replicas``
  run and for B=2 independent mode, and for the SingleAgent preset
  serially and at B=2;
* the NaN guard rolls back only the poisoned replica's learner, and both
  replicas' histories equal their serial runs;
* a contained ``SimulationError`` aborts the group episode for every
  replica, while ``train_lockstep``'s default still raises;
* drain-mode envs end each replica's episode at its own done, so B=2
  drain training equals two serial runs;
* a B > 1 group refuses envs configured for the object engine, which
  only a one-env group can run.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_env, single_agent
from repro.agents import FixedTimeSystem, MaxPressureSystem, PairUpLightSystem
from repro.errors import ConfigError, SimulationError
from repro.eval.batched import LockstepEnvGroup, train_lockstep
from repro.eval.harness import ExperimentScale, make_experiment
from repro.rl.runner import train
from repro.scenarios.grid import build_grid

pytestmark = pytest.mark.soa

TINY = ExperimentScale(
    rows=2,
    cols=2,
    peak_rate=600.0,
    t_peak=60.0,
    light_duration=120.0,
    horizon_ticks=80,
    max_ticks=3600,
    train_episodes=2,
    eval_episodes=1,
)

SEEDS = [0, 1]


def _tiny_envs(drain: bool = False, seeds=SEEDS):
    experiments = [make_experiment(TINY, seed=seed) for seed in seeds]
    return [exp.eval_env(1) if drain else exp.train_env(1) for exp in experiments]


def _state_bytes(agent) -> dict[str, bytes]:
    state = {**agent.state_dict(), **agent.training_state()}
    return {key: np.asarray(value).tobytes() for key, value in state.items()}


def _assert_same_runs(want_agents, want, got_agents, got):
    """Histories and agents equal bit for bit."""
    assert len(want) == len(got)
    for hist_w, hist_g in zip(want, got):
        assert [log.episode for log in hist_g.episodes] == [
            log.episode for log in hist_w.episodes
        ]
        assert hist_g.wait_curve.tobytes() == hist_w.wait_curve.tobytes()
        assert hist_g.reward_curve.tobytes() == hist_w.reward_curve.tobytes()
        assert hist_g.aborted_episodes == hist_w.aborted_episodes
        assert hist_g.rolled_back_episodes == hist_w.rolled_back_episodes
    for agent_w, agent_g in zip(want_agents, got_agents):
        assert _state_bytes(agent_g) == _state_bytes(agent_w)


class TestKillAndResume:
    EPISODES = 3
    KILLED_AFTER = 2

    def _kill_and_resume(self, make_group, tmp_path, **kwargs):
        """An uninterrupted run, and a run checkpointed after
        ``KILLED_AFTER`` episodes whose fresh agents resume to the end."""
        agents, envs, seeds = make_group()
        full = train_lockstep(agents, envs, self.EPISODES, seeds, **kwargs)
        first, envs1, _ = make_group()
        train_lockstep(
            first, envs1, self.KILLED_AFTER, seeds,
            checkpoint_dir=str(tmp_path), **kwargs,
        )
        resumed_agents, envs2, _ = make_group()
        resumed = train_lockstep(
            resumed_agents, envs2, self.EPISODES, seeds,
            resume_from=str(tmp_path), **kwargs,
        )
        assert len(resumed[0].episodes) == self.EPISODES
        _assert_same_runs(agents, full, resumed_agents, resumed)

    def test_6x6_b8_shared_resume_is_bit_exact(self, tmp_path):
        grid = build_grid(6, 6)

        def make_group():
            envs = [
                make_env(grid, peak_rate=400.0, t_peak=40.0, horizon_ticks=40)
                for _ in range(8)
            ]
            agents = [PairUpLightSystem(env, seed=b) for b, env in enumerate(envs)]
            return agents, envs, [100 * b for b in range(8)]

        self._kill_and_resume(
            make_group, tmp_path, batched_policy=True, shared_across_replicas=True
        )

    @pytest.mark.parametrize("batched_policy", [False, True])
    def test_b2_independent_resume_is_bit_exact(self, tmp_path, batched_policy):
        def make_group():
            envs = _tiny_envs()
            agents = [PairUpLightSystem(env, seed=s) for env, s in zip(envs, SEEDS)]
            return agents, envs, SEEDS

        self._kill_and_resume(make_group, tmp_path, batched_policy=batched_policy)

    @pytest.mark.parametrize(
        "replicas,batched_policy",
        [(1, False), (2, False), (2, True)],
        ids=["serial", "b2", "b2-batched"],
    )
    def test_single_agent_resume_is_bit_exact(
        self, tmp_path, replicas, batched_policy
    ):
        def make_group():
            seeds = SEEDS[:replicas]
            envs = _tiny_envs(seeds=seeds)
            return [single_agent(env, s) for env, s in zip(envs, seeds)], envs, seeds

        self._kill_and_resume(make_group, tmp_path, batched_policy=batched_policy)

    def test_replica_count_mismatch_rejected(self, tmp_path):
        from repro.errors import CheckpointError

        envs = _tiny_envs()
        agents = [FixedTimeSystem(env) for env in envs]
        train_lockstep(agents, envs, 1, SEEDS, checkpoint_dir=str(tmp_path))
        env = _tiny_envs()[0]
        with pytest.raises(CheckpointError, match="replicas"):
            train(FixedTimeSystem(env), env, 2, resume_from=str(tmp_path))


class _PoisonedPairUpLight(PairUpLightSystem):
    """PairUpLight whose update poisons one weight with NaN on chosen
    updates."""

    def __init__(self, env, seed, poison_on):
        super().__init__(env, seed=seed)
        self.poison_on = poison_on
        self.updates = 0

    def end_episode(self, env, training):
        stats = super().end_episode(env, training)
        if self.updates in self.poison_on:
            state = self.state_dict()
            key = sorted(state)[0]
            state[key] = np.full_like(state[key], np.nan)
            self.load_state_dict(state)
        self.updates += 1
        return stats


class TestNaNGuard:
    EPISODES = 3

    @staticmethod
    def _agent(b, env):
        if b == 0:
            return _PoisonedPairUpLight(env, SEEDS[0], poison_on={1})
        return PairUpLightSystem(env, seed=SEEDS[b])

    @pytest.mark.parametrize("batched_policy", [False, True])
    def test_rolls_back_only_the_poisoned_replica(self, batched_policy):
        serial_agents, serial = [], []
        for b, env in enumerate(_tiny_envs()):
            serial_agents.append(self._agent(b, env))
            serial.append(train(serial_agents[b], env, self.EPISODES, seed=SEEDS[b]))
        assert serial[0].rolled_back_episodes == [1]
        assert serial[1].rolled_back_episodes == []

        envs = _tiny_envs()
        agents = [self._agent(b, env) for b, env in enumerate(envs)]
        histories = train_lockstep(
            agents, envs, self.EPISODES, SEEDS,
            batched_policy=batched_policy, nan_guard=True,
        )
        _assert_same_runs(serial_agents, serial, agents, histories)
        for agent in agents:
            for value in agent.state_dict().values():
                assert np.all(np.isfinite(value))


class _FlakyAgent(FixedTimeSystem):
    """Fixed-time controller whose episode 'blows up' on chosen episodes."""

    def __init__(self, env, explode_on: set[int]) -> None:
        super().__init__(env)
        self.explode_on = explode_on
        self._episode = -1

    def begin_episode(self, env, training):
        self._episode += 1
        if self._episode in self.explode_on:
            raise SimulationError(f"injected blow-up in episode {self._episode}")
        super().begin_episode(env, training)


class TestSimulationErrorContainment:
    def test_error_aborts_the_group_episode_for_every_replica(self):
        envs = _tiny_envs()
        agents = [_FlakyAgent(envs[0], explode_on={1}), FixedTimeSystem(envs[1])]
        histories = train_lockstep(
            agents, envs, 3, SEEDS, max_episode_failures=None
        )
        for history in histories:
            assert history.aborted_episodes == [1]
            assert [log.episode for log in history.episodes] == [0, 2]

    def test_train_lockstep_raises_by_default(self):
        envs = _tiny_envs()
        agents = [_FlakyAgent(envs[0], explode_on={0}), FixedTimeSystem(envs[1])]
        with pytest.raises(SimulationError):
            train_lockstep(agents, envs, 2, SEEDS)


class TestDrainModeTraining:
    def test_b2_drain_training_equals_serial_runs(self):
        """Each replica ends its episode at its own done: the B=2 run
        neither cuts a replica short nor steps it past its done."""
        serial = []
        for env, seed in zip(_tiny_envs(drain=True), SEEDS):
            serial.append(train(MaxPressureSystem(env), env, 2, seed=seed))
        envs = _tiny_envs(drain=True)
        histories = train_lockstep([MaxPressureSystem(env) for env in envs], envs, 2, SEEDS)
        for hist_s, hist_b in zip(serial, histories):
            assert hist_b.wait_curve.tobytes() == hist_s.wait_curve.tobytes()
            assert hist_b.reward_curve.tobytes() == hist_s.reward_curve.tobytes()

    def test_shared_mode_rejects_drain_envs(self):
        envs = _tiny_envs(drain=True)
        agents = [PairUpLightSystem(env, seed=s) for env, s in zip(envs, SEEDS)]
        with pytest.raises(ConfigError, match="fixed-horizon"):
            train_lockstep(
                agents, envs, 1, SEEDS,
                batched_policy=True, shared_across_replicas=True,
            )


class TestEngineConfig:
    def test_object_engine_rejected_at_b_above_1(self):
        envs = _tiny_envs()
        envs[1].config.engine = "object"
        with pytest.raises(ConfigError, match="engine='object'"):
            LockstepEnvGroup(envs)

    def test_one_env_group_keeps_the_object_engine(self):
        from repro.sim.engine import Simulation

        env = _tiny_envs()[0]
        env.config.engine = "object"
        group = LockstepEnvGroup([env])
        group.reset_all([0])
        assert isinstance(env.sim, Simulation)
        group.step_all([{a: 0 for a in env.agent_ids}])
        assert env.sim.time == env.config.delta_t

    def test_telemetry_needs_one_env(self, tmp_path):
        from repro.obs.telemetry import Telemetry

        envs = _tiny_envs()
        agents = [FixedTimeSystem(env) for env in envs]
        telemetry = Telemetry(tmp_path / "run", seed=0)
        try:
            with pytest.raises(ConfigError, match="telemetry"):
                train_lockstep(agents, envs, 1, SEEDS, telemetry=telemetry)
        finally:
            telemetry.close()
