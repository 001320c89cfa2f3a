"""Fault injection, graceful degradation, and crash-safe training.

Covers the robustness layer end to end: the seeded fault schedule, the
faulty detector suite and message channel, controller-failure fallback,
the NaN/divergence guard and ``SimulationError`` containment in the
training runner, checkpoint validation, kill-and-resume reproducibility,
and the degradation comparison the robustness sweep is built on.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from helpers import make_env
from repro.agents import FixedTimeSystem, PairUpLightSystem
from repro.agents.base import AgentSystem
from repro.agents.pairuplight.agent import PairUpLightConfig
from repro.agents.pairuplight.messaging import (
    FaultyMessageChannel,
    ResilientMessageReader,
)
from repro.errors import CheckpointError, FaultInjectionError, SimulationError
from repro.eval import batched
from repro.eval.harness import ExperimentScale, GridExperiment
from repro.eval.robustness import (
    formatted_degradation_table,
    run_degradation_comparison,
)
from repro.faults import (
    ControllerFaultWrapper,
    FaultConfig,
    FaultSchedule,
    FaultyDetectorSuite,
)
from repro.nn.linear import Linear
from repro.nn.serialization import atomic_savez, load_state, read_archive, save_state
from repro.rl import runner
from repro.rl.checkpoint import (
    load_training_checkpoint,
    save_training_checkpoint,
)
from repro.rl.runner import train
from repro.scenarios.grid import build_grid

ALL_FAULTS = FaultConfig(
    detector_dropout=0.1,
    detector_stuck=0.05,
    detector_noise=0.3,
    message_drop=0.1,
    message_corrupt=0.05,
    message_delay=0.05,
    controller_failure=0.1,
)


# ----------------------------------------------------------------------
# FaultConfig
# ----------------------------------------------------------------------
class TestFaultConfig:
    def test_defaults_inactive(self):
        config = FaultConfig()
        assert not config.active
        assert not config.any_detector_faults
        assert not config.any_message_faults
        assert not config.any_controller_faults

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultConfig(message_drop=-0.1)
        with pytest.raises(FaultInjectionError):
            FaultConfig(detector_dropout=1.5)

    def test_uniform_maps_kinds_to_families(self):
        config = FaultConfig.uniform(0.2, ("message",))
        assert config.message_drop == 0.2
        assert config.detector_dropout == 0.0
        assert config.any_message_faults and not config.any_detector_faults

    def test_uniform_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultConfig.uniform(0.2, ("gremlins",))


# ----------------------------------------------------------------------
# FaultSchedule
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def _drop_sequence(self, schedule: FaultSchedule, n: int = 200) -> list[bool]:
        return [schedule.message_dropped() for _ in range(n)]

    def test_same_seed_same_episode_reproduces(self):
        config = FaultConfig(message_drop=0.3)
        a, b = FaultSchedule(config, seed=7), FaultSchedule(config, seed=7)
        a.begin_episode(3)
        b.begin_episode(3)
        assert self._drop_sequence(a) == self._drop_sequence(b)

    def test_different_episode_seed_differs(self):
        config = FaultConfig(message_drop=0.3)
        a, b = FaultSchedule(config, seed=7), FaultSchedule(config, seed=7)
        a.begin_episode(3)
        b.begin_episode(4)
        assert self._drop_sequence(a) != self._drop_sequence(b)

    def test_stuck_decision_stable_within_episode(self):
        schedule = FaultSchedule(FaultConfig(detector_stuck=0.5), seed=0)
        schedule.begin_episode(0)
        first = {f"d{i}": schedule.detector_stuck(f"d{i}") for i in range(40)}
        again = {f"d{i}": schedule.detector_stuck(f"d{i}") for i in range(40)}
        assert first == again
        assert any(first.values()) and not all(first.values())

    def test_episode_decisions_independent_of_event_sampling(self):
        # Dead-controller decisions come from the dedicated per-episode
        # stream: draining per-event samples first must not change them.
        config = FaultConfig(message_drop=0.5, controller_failure=0.5)
        a, b = FaultSchedule(config, seed=1), FaultSchedule(config, seed=1)
        a.begin_episode(0)
        b.begin_episode(0)
        self._drop_sequence(a, 500)  # only a consumes per-event samples
        ids = [f"n{i}" for i in range(30)]
        assert [a.controller_dead(i) for i in ids] == [
            b.controller_dead(i) for i in ids
        ]

    def test_corrupt_matches_shape_and_codomain(self):
        schedule = FaultSchedule(FaultConfig(message_corrupt=1.0), seed=0)
        schedule.begin_episode(0)
        garbage = schedule.corrupt(np.array([5.0, -3.0, 99.0]))
        assert garbage.shape == (3,)
        assert np.all((garbage >= 0.0) & (garbage <= 1.0))


# ----------------------------------------------------------------------
# FaultyDetectorSuite
# ----------------------------------------------------------------------
class TestFaultyDetectors:
    def _suite_on_env(self, tiny_env, config, degrade=True):
        tiny_env.reset(seed=0)
        schedule = FaultSchedule(config, seed=0)
        schedule.begin_episode(0)
        suite = FaultyDetectorSuite(tiny_env.sim, schedule, degrade=degrade)
        link_id = next(iter(tiny_env.network.links))
        return suite, schedule, link_id

    def test_dropout_imputes_last_known_value(self, tiny_env):
        suite, schedule, link = self._suite_on_env(tiny_env, FaultConfig())
        healthy = suite.observed_approaching(link)
        # Flip the config to guaranteed dropout: degraded reads must now
        # repeat the last healthy value rather than going blind.
        schedule.config = FaultConfig(detector_dropout=1.0)
        assert suite.observed_approaching(link) == healthy
        assert suite.dropout_fraction > 0.0

    def test_ablation_reads_zero_on_dropout(self, tiny_env):
        suite, schedule, link = self._suite_on_env(
            tiny_env, FaultConfig(), degrade=False
        )
        suite.observed_approaching(link)
        schedule.config = FaultConfig(detector_dropout=1.0)
        assert suite.observed_approaching(link) == 0.0

    def test_stuck_detector_repeats_first_reading(self, tiny_env):
        suite, _, link = self._suite_on_env(
            tiny_env, FaultConfig(detector_stuck=1.0)
        )
        first = suite.observed_approaching(link)
        tiny_env.sim.step(5)
        assert suite.observed_approaching(link) == first

    def test_noise_degrade_keeps_counts_valid(self, tiny_env):
        suite, _, link = self._suite_on_env(
            tiny_env, FaultConfig(detector_noise=5.0)
        )
        for _ in range(50):
            value = suite.observed_approaching(link)
            assert value >= 0.0
            assert value == round(value)

    def test_env_observations_stay_finite_under_faults(self, tiny_grid):
        env = make_env(
            tiny_grid, horizon_ticks=80, faults=ALL_FAULTS, fault_degrade=True
        )
        observations = env.reset(seed=0)
        assert isinstance(env.detectors, FaultyDetectorSuite)
        agent = FixedTimeSystem(env)
        agent.begin_episode(env, training=False)
        done = False
        while not done:
            result = env.step(agent.act(observations, env, training=False))
            observations = result.observations
            for obs in observations.values():
                assert np.all(np.isfinite(obs))
            done = result.done


# ----------------------------------------------------------------------
# Message faults + graceful degradation
# ----------------------------------------------------------------------
class TestMessageFaults:
    def _channel(self, **rates) -> FaultyMessageChannel:
        schedule = FaultSchedule(FaultConfig(**rates), seed=0)
        schedule.begin_episode(0)
        return FaultyMessageChannel(schedule, ["a", "b"], message_dim=1)

    def test_drop_returns_none(self):
        channel = self._channel(message_drop=1.0)
        assert channel.deliver("a", np.array([0.7])) is None

    def test_corrupt_replaces_payload(self):
        channel = self._channel(message_corrupt=1.0)
        delivered = channel.deliver("a", np.array([5.0]))
        assert delivered is not None
        assert 0.0 <= delivered[0] <= 1.0  # channel garbage, not the payload

    def test_delay_repeats_previous_delivery(self):
        channel = self._channel(message_delay=1.0)
        delivered = channel.deliver("a", np.array([0.9]))
        # Nothing delivered yet, so the one-step delay yields the initial
        # zero message regardless of the payload.
        assert np.array_equal(delivered, np.zeros(1))

    def test_reader_passthrough_on_success(self):
        reader = ResilientMessageReader(["a"], 1)
        out = reader.receive("a", np.array([0.8]), own_message=np.array([0.1]))
        assert out[0] == pytest.approx(0.8)
        assert reader.staleness("a") == 0

    def test_reader_decays_stale_message_then_self_pairs(self):
        reader = ResilientMessageReader(["a"], 1, decay=0.5, max_staleness=2)
        own = np.array([0.3])
        reader.receive("a", np.array([0.8]), own)
        assert reader.receive("a", None, own)[0] == pytest.approx(0.4)
        assert reader.receive("a", None, own)[0] == pytest.approx(0.2)
        # Past max_staleness: fall back to the agent's own message.
        assert reader.receive("a", None, own)[0] == pytest.approx(0.3)
        assert reader.staleness("a") == 3

    def test_reader_recovers_after_loss(self):
        reader = ResilientMessageReader(["a"], 1, max_staleness=1)
        own = np.array([0.0])
        reader.receive("a", None, own)
        out = reader.receive("a", np.array([0.6]), own)
        assert out[0] == pytest.approx(0.6)
        assert reader.staleness("a") == 0


# ----------------------------------------------------------------------
# Controller failure + fallback
# ----------------------------------------------------------------------
class TestControllerFallback:
    def test_unknown_fallback_rejected(self, tiny_env):
        inner = FixedTimeSystem(tiny_env)
        with pytest.raises(FaultInjectionError):
            ControllerFaultWrapper(
                inner, FaultConfig(controller_failure=1.0), fallback="coinflip"
            )

    @pytest.mark.parametrize("fallback", ["fixed_time", "max_pressure"])
    def test_dead_controllers_run_fallback(self, tiny_env, fallback):
        inner = FixedTimeSystem(tiny_env)
        wrapper = ControllerFaultWrapper(
            inner, FaultConfig(controller_failure=1.0), fallback=fallback
        )
        observations = tiny_env.reset(seed=0)
        wrapper.begin_episode(tiny_env, training=False)
        actions = wrapper.act(observations, tiny_env, training=False)
        assert set(wrapper.dead_controllers()) == set(tiny_env.agent_ids)
        for node_id, action in actions.items():
            assert 0 <= action < tiny_env.action_spaces[node_id].n

    def test_no_failures_is_transparent(self, tiny_env):
        inner = FixedTimeSystem(tiny_env)
        wrapper = ControllerFaultWrapper(inner, FaultConfig(controller_failure=0.0))
        observations = tiny_env.reset(seed=0)
        wrapper.begin_episode(tiny_env, training=False)
        expected = inner.act(observations, tiny_env, training=False)
        assert wrapper.act(observations, tiny_env, training=False) == expected
        assert wrapper.dead_controllers() == []

    def test_full_episode_with_dead_controllers(self, tiny_grid):
        env = make_env(tiny_grid, horizon_ticks=80, drain=False)
        wrapper = ControllerFaultWrapper(
            FixedTimeSystem(env), FaultConfig(controller_failure=0.5), seed=3
        )
        avg_wait, _, _ = runner.run_episode(wrapper, env, training=False, seed=0)
        assert np.isfinite(avg_wait)


# ----------------------------------------------------------------------
# Satellite: atomic, validated serialization
# ----------------------------------------------------------------------
class TestCheckpointSerialization:
    def test_atomic_save_leaves_no_temp_files(self, tmp_path, rng):
        module = Linear(3, 2, rng)
        save_state(module, tmp_path / "weights.npz")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["weights.npz"]

    def test_roundtrip(self, tmp_path, rng):
        module = Linear(3, 2, rng)
        save_state(module, tmp_path / "weights.npz")
        other = Linear(3, 2, rng)
        load_state(other, tmp_path / "weights.npz")
        for key, value in module.state_dict().items():
            assert np.array_equal(other.state_dict()[key], value)

    def test_missing_file_raises_checkpoint_error(self, tmp_path, rng):
        with pytest.raises(CheckpointError):
            load_state(Linear(3, 2, rng), tmp_path / "nope.npz")

    def test_truncated_archive_raises_checkpoint_error(self, tmp_path, rng):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"PK\x03\x04 not really a zip")
        with pytest.raises(CheckpointError):
            read_archive(path)

    def test_shape_mismatch_raises_checkpoint_error(self, tmp_path, rng):
        save_state(Linear(3, 2, rng), tmp_path / "weights.npz")
        with pytest.raises(CheckpointError):
            load_state(Linear(5, 2, rng), tmp_path / "weights.npz")

    def test_savez_appends_npz_suffix(self, tmp_path):
        atomic_savez(tmp_path / "plain", {"x": np.arange(3)})
        assert (tmp_path / "plain.npz").exists()

    def test_agent_load_mismatch_raises_checkpoint_error(self, tmp_path, tiny_env):
        agent = PairUpLightSystem(tiny_env, seed=0)
        agent.save(tmp_path / "agent.npz")
        other = PairUpLightSystem(
            tiny_env, PairUpLightConfig(hidden_size=agent.config.hidden_size * 2),
            seed=0,
        )
        with pytest.raises(CheckpointError):
            other.load(tmp_path / "agent.npz")

    def test_training_checkpoint_roundtrip(self, tmp_path, tiny_env):
        agent = PairUpLightSystem(tiny_env, seed=0)
        save_training_checkpoint(tmp_path / "ckpt", agent, {"next_episode": 4})
        meta = load_training_checkpoint(tmp_path / "ckpt", agent)
        assert meta["next_episode"] == 4
        assert meta["agent_name"] == agent.name

    def test_non_checkpoint_archive_rejected(self, tmp_path, tiny_env):
        atomic_savez(tmp_path / "stray.npz", {"x": np.arange(3)})
        agent = PairUpLightSystem(tiny_env, seed=0)
        with pytest.raises(CheckpointError):
            load_training_checkpoint(tmp_path / "stray.npz", agent)


# ----------------------------------------------------------------------
# Satellite: evaluate() NaN handling
# ----------------------------------------------------------------------
class _IdleAgent(AgentSystem):
    name = "Idle"

    def act(self, observations, env, training):
        return {}


class TestEvaluateNaNHandling:
    def _patch_episodes(self, monkeypatch, infos):
        """Each episode of the one evaluation loop ends with the next info."""
        episodes = iter(infos)
        monkeypatch.setattr(
            batched, "run_episodes", lambda *a, **k: [(1.0, 0.0, next(episodes))]
        )

    def test_nan_episode_excluded_from_mean(self, monkeypatch):
        self._patch_episodes(
            monkeypatch,
            [
                {"average_travel_time": 100.0, "finished_vehicles": 5,
                 "total_created": 5},
                {},  # no vehicle finished: no travel-time sample
                {"average_travel_time": 200.0, "finished_vehicles": 5,
                 "total_created": 5},
            ],
        )
        result = runner.evaluate(_IdleAgent(), None, episodes=3)
        assert result.average_travel_time == pytest.approx(150.0)
        assert result.invalid_episodes == 1

    def test_all_invalid_reports_nan_not_crash(self, monkeypatch):
        self._patch_episodes(monkeypatch, [{}, {}])
        result = runner.evaluate(_IdleAgent(), None, episodes=2)
        assert np.isnan(result.average_travel_time)
        assert result.invalid_episodes == 2


# ----------------------------------------------------------------------
# Resilient training: containment, NaN guard, kill-and-resume
# ----------------------------------------------------------------------
class _FlakyAgent(FixedTimeSystem):
    """Fixed-time controller whose simulation 'blows up' on chosen episodes."""

    def __init__(self, env, explode_on: set[int]) -> None:
        super().__init__(env)
        self.explode_on = explode_on
        self._episode = -1

    def begin_episode(self, env, training):
        self._episode += 1
        if self._episode in self.explode_on:
            raise SimulationError(f"injected blow-up in episode {self._episode}")
        super().begin_episode(env, training)


class _PoisonAgent(AgentSystem):
    """Agent whose update poisons its weights with NaN on chosen episodes."""

    name = "Poison"

    def __init__(self, rng, poison_on: set[int]) -> None:
        self.net = Linear(2, 2, rng)
        self.poison_on = poison_on
        self.updates = 0

    def _checkpoint_modules(self):
        return {"net": self.net}

    def act(self, observations, env, training):
        return {node_id: 0 for node_id in env.agent_ids}

    def end_episode(self, env, training):
        self.updates += 1
        if self.updates - 1 in self.poison_on:
            self.net.weight.data[:] = np.nan
        return {}


class TestResilientTraining:
    def test_simulation_error_contained(self, tiny_env):
        agent = _FlakyAgent(tiny_env, explode_on={1})
        history = train(agent, tiny_env, episodes=3, seed=0)
        assert history.aborted_episodes == [1]
        assert [log.episode for log in history.episodes] == [0, 2]

    def test_max_episode_failures_propagates(self, tiny_env):
        agent = _FlakyAgent(tiny_env, explode_on={0, 1})
        with pytest.raises(SimulationError):
            train(agent, tiny_env, episodes=3, seed=0, max_episode_failures=1)

    def test_nan_guard_rolls_back_poisoned_update(self, tiny_env, rng):
        agent = _PoisonAgent(rng, poison_on={1})
        history = train(agent, tiny_env, episodes=3, seed=0)
        assert history.rolled_back_episodes == [1]
        assert [log.episode for log in history.episodes] == [0, 2]
        assert np.all(np.isfinite(agent.net.weight.data))

    def test_nan_guard_disabled_keeps_poison(self, tiny_env, rng):
        agent = _PoisonAgent(rng, poison_on={1})
        history = train(agent, tiny_env, episodes=2, seed=0, nan_guard=False)
        assert history.rolled_back_episodes == []
        assert not np.all(np.isfinite(agent.net.weight.data))


@pytest.mark.faults
class TestKillAndResume:
    """Train with all fault types live, kill mid-run, resume to completion."""

    EPISODES = 3

    def _env(self, tiny_grid):
        return make_env(
            tiny_grid,
            peak_rate=300.0,
            t_peak=60.0,
            horizon_ticks=120,
            faults=ALL_FAULTS,
            fault_degrade=True,
        )

    def _kill_and_resume(self, make_env_fn, tmp_path):
        """Train EPISODES uninterrupted; then train 2 episodes ("crash"),
        resume a fresh agent from the checkpoint and finish.  Returns
        ``(uninterrupted agent, its history, resumed agent, its history)``."""
        env = make_env_fn()
        agent = PairUpLightSystem(env, seed=0)
        full = train(agent, env, episodes=self.EPISODES, seed=0)

        env1 = make_env_fn()
        first = PairUpLightSystem(env1, seed=0)
        train(first, env1, episodes=2, seed=0,
              checkpoint_dir=str(tmp_path), checkpoint_every=1)
        assert (tmp_path / "checkpoint.npz").exists()

        env2 = make_env_fn()
        resumed_agent = PairUpLightSystem(env2, seed=0)
        resumed = train(resumed_agent, env2, episodes=self.EPISODES, seed=0,
                        resume_from=str(tmp_path))
        return agent, full, resumed_agent, resumed

    def _assert_bit_exact(self, agent, full, resumed_agent, resumed):
        """Waits, rewards, weights and optimizer moments equal bit for bit:
        every parameter is C-ordered before and after a checkpoint load,
        so both runs' GEMMs round alike."""
        assert len(resumed.episodes) == self.EPISODES
        assert resumed.wait_curve.tobytes() == full.wait_curve.tobytes()
        assert resumed.reward_curve.tobytes() == full.reward_curve.tobytes()
        want = {**agent.state_dict(), **agent.training_state()}
        got = {**resumed_agent.state_dict(), **resumed_agent.training_state()}
        assert sorted(got) == sorted(want)
        for key, value in want.items():
            assert np.asarray(got[key]).tobytes() == np.asarray(value).tobytes(), key

    def test_resume_reproduces_uninterrupted_run(self, tiny_grid, tmp_path):
        self._assert_bit_exact(
            *self._kill_and_resume(lambda: self._env(tiny_grid), tmp_path)
        )

    def test_resume_reproduces_uninterrupted_run_6x6_shared(self, tmp_path):
        """The production shape: one shared policy over 36 agents, so the
        PPO update runs full minibatches of ``minibatch_agents = 8``."""
        grid = build_grid(6, 6)

        def make():
            return make_env(grid, peak_rate=400.0, t_peak=40.0, horizon_ticks=60)

        agent, full, resumed_agent, resumed = self._kill_and_resume(make, tmp_path)
        assert agent.config.parameter_sharing
        assert agent.num_agents > 2 * agent.config.ppo.minibatch_agents == 16
        self._assert_bit_exact(agent, full, resumed_agent, resumed)

    def test_checkpoint_loadable_after_every_episode(self, tiny_grid, tmp_path):
        env = self._env(tiny_grid)
        agent = PairUpLightSystem(env, seed=0)
        for episode in range(1, 3):
            train(agent, env, episodes=episode, seed=0,
                  checkpoint_dir=str(tmp_path), checkpoint_every=1,
                  resume_from=str(tmp_path) if episode > 1 else None)
            probe = PairUpLightSystem(self._env(tiny_grid), seed=0)
            meta = load_training_checkpoint(str(tmp_path), probe)
            assert meta["next_episode"] == episode


# ----------------------------------------------------------------------
# Degradation sweep acceptance: graceful degradation beats the ablation
# ----------------------------------------------------------------------
@pytest.mark.faults
class TestDegradationAcceptance:
    SCALE = ExperimentScale(
        rows=2, cols=2, peak_rate=300.0, t_peak=80.0, light_duration=160.0,
        horizon_ticks=200, max_ticks=1600, train_episodes=10,
    )

    def test_degraded_outperforms_no_fallback_ablation(self):
        curves = run_degradation_comparison(
            self.SCALE,
            fault_rates=(0.2,),
            kinds=("message", "detector"),
            seed=2,
            include_baselines=False,
        )
        by_name = {curve.agent_name: curve for curve in curves}
        degraded = by_name["PairUpLight"].points[0].result
        ablation = by_name["PairUpLight-NoFallback"].points[0].result

        # At 20% message+detector faults the degraded system still
        # completes episodes with well-formed metrics...
        assert np.isfinite(degraded.average_travel_time)
        assert degraded.invalid_episodes == 0
        assert degraded.completion_rate >= 0.5
        # ...and beats the blind-sensor / zero-message ablation.
        assert degraded.average_travel_time < ablation.average_travel_time

    def test_table_formatting(self):
        curves = run_degradation_comparison(
            self.SCALE.with_episodes(0),
            fault_rates=(0.0, 0.2),
            kinds=("message",),
            seed=0,
            include_baselines=False,
        )
        table = formatted_degradation_table(curves)
        assert "PairUpLight" in table and "PairUpLight-NoFallback" in table
        assert "p=0.20" in table and "worst/healthy" in table


@pytest.mark.faults
class TestRobustnessCLI:
    def test_robustness_subcommand_end_to_end(self, capsys):
        from repro.cli import main

        code = main([
            "robustness", "--rows", "2", "--cols", "2",
            "--peak-rate", "300", "--t-peak", "60", "--horizon", "120",
            "--episodes", "2", "--rates", "0.0", "0.2",
            "--kinds", "message", "--no-baselines", "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Degradation sweep" in out
        assert "PairUpLight-NoFallback" in out

    def test_train_checkpoint_resume_flags(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "train", "--model", "Fixedtime", "--rows", "2", "--cols", "2",
            "--peak-rate", "300", "--t-peak", "60", "--horizon", "100",
            "--checkpoint-dir", str(tmp_path / "run"),
        ]
        assert main(args + ["--episodes", "1"]) == 0
        assert os.path.exists(tmp_path / "run" / "checkpoint.npz")
        code = main(
            args + ["--episodes", "2", "--resume-from", str(tmp_path / "run")]
        )
        assert code == 0
        assert "trained 2 episodes" in capsys.readouterr().out

    def test_out_of_range_rate_reports_error(self, capsys):
        from repro.cli import main

        code = main([
            "robustness", "--rows", "2", "--cols", "2", "--horizon", "100",
            "--episodes", "0", "--rates", "-0.5", "--no-baselines",
        ])
        assert code == 2
        assert "fault rates must lie in [0, 1]" in capsys.readouterr().err

    def test_bad_resume_path_reports_error(self, capsys, tmp_path):
        from repro.cli import main

        code = main([
            "train", "--model", "Fixedtime", "--rows", "2", "--cols", "2",
            "--horizon", "100", "--episodes", "1",
            "--resume-from", str(tmp_path / "missing"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
