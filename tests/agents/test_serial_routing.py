"""Serial PairUpLight acting as the B=1 case of the array path.

With the env's step extractor engaged, ``PairUpLightSystem`` picks
partners from the extractor's ``(1, M)`` congestion row through the
shared :class:`MessageRouter` (the batched group's code) and selects
greedy actions with one ``argmax`` over the ``(M, A)`` probabilities.
Forcing the extractor off runs the per-agent ``select_partner``
reference; training and evaluation must match it bit for bit, for every
partner strategy and under message faults.  A healthy 6x6 serve episode
must never touch the per-agent observation, reward or partner code.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_env
from repro.agents import PairUpLightConfig, PairUpLightSystem
from repro.agents.pairuplight import agent as agent_module
from repro.agents.pairuplight import messaging
from repro.env import tsc_env
from repro.env.observation import ObservationBuilder
from repro.eval import batched_obs
from repro.faults.config import FaultConfig
from repro.perf.timers import TIMERS
from repro.rl.runner import TrainingHistory, evaluate, train
from repro.scenarios.grid import build_grid
from repro.sim.detectors import DetectorSuite
from repro.serve import ControlService, PolicyRuntime, ServeConfig


def _reference(patch) -> None:
    patch.setattr(
        batched_obs.BatchedStepExtractor,
        "maybe_build",
        staticmethod(lambda envs, engine: None),
    )
    # Per-call raw readings: the oracle shares no bulk kernel.
    patch.setattr(DetectorSuite, "_bulk_ready", lambda self: False)


def _run(monkeypatch, reference, faults=None, drain=False, **config):
    scenario = build_grid(3, 3)
    env = make_env(
        scenario, peak_rate=900.0, t_peak=40.0, horizon_ticks=100, faults=faults,
        drain=drain,
    )
    system = PairUpLightSystem(env, PairUpLightConfig(**config), seed=3)
    with monkeypatch.context() as patch:
        if reference:
            _reference(patch)
        if drain:
            result = evaluate(system, env, episodes=2, seed=11)
        else:
            result = train(system, env, episodes=2, seed=11)
        engaged = env._extractor is not None
    return system, result, engaged


def _assert_same(fast, ref):
    (agent_a, result_a, engaged_a), (agent_b, result_b, engaged_b) = fast, ref
    assert engaged_a and not engaged_b
    state_a, state_b = agent_a.state_dict(), agent_b.state_dict()
    for key in state_a:
        assert state_a[key].tobytes() == state_b[key].tobytes(), key
    assert agent_a._rng.bit_generator.state == agent_b._rng.bit_generator.state
    assert agent_a.board.messages.tobytes() == agent_b.board.messages.tobytes()
    if isinstance(result_a, TrainingHistory):
        for log_a, log_b in zip(result_a.episodes, result_b.episodes):
            assert log_a.avg_wait == log_b.avg_wait
            assert log_a.total_reward == log_b.total_reward
            assert log_a.update_stats == log_b.update_stats
    else:
        assert result_a == result_b


class TestSerialRoutingMatchesReference:
    @pytest.mark.parametrize("strategy", ["upstream", "random", "fixed", "self"])
    def test_training(self, monkeypatch, strategy):
        _assert_same(
            _run(monkeypatch, False, partner_strategy=strategy),
            _run(monkeypatch, True, partner_strategy=strategy),
        )

    @pytest.mark.parametrize("degrade", [True, False])
    def test_training_with_message_faults(self, monkeypatch, degrade):
        faults = FaultConfig(message_drop=0.3, message_delay=0.2, message_corrupt=0.1)
        _assert_same(
            _run(monkeypatch, False, faults=faults, degrade_on_loss=degrade),
            _run(monkeypatch, True, faults=faults, degrade_on_loss=degrade),
        )

    def test_greedy_drain_evaluation(self, monkeypatch):
        faults = FaultConfig(controller_failure=0.25, message_delay=0.25)
        _assert_same(
            _run(monkeypatch, False, faults=faults, drain=True),
            _run(monkeypatch, True, faults=faults, drain=True),
        )


class TestGreedyMatrixSampling:
    def test_matrix_matches_rows(self):
        env = make_env(build_grid(2, 2))
        system = PairUpLightSystem(env, seed=0)
        rng = np.random.default_rng(5)
        for _ in range(200):
            logits = rng.normal(size=(9, 4)) * rng.choice([0.1, 3.0, 40.0])
            matrix = agent_module.softmax_rows(logits)
            rows = [agent_module._softmax_1d(row) for row in logits]
            assert matrix.tobytes() == np.stack(rows).tobytes()
            actions_m, logprobs_m = system._sample_actions(matrix, False)
            actions_r, logprobs_r = system._sample_actions(rows, False)
            assert actions_m.tolist() == actions_r.tolist()
            assert logprobs_m.tobytes() == logprobs_r.tobytes()


def _serve_6x6(ticks, faults=None):
    env = make_env(build_grid(6, 6), horizon_ticks=300, faults=faults)
    runtime = PolicyRuntime(lambda: PairUpLightSystem(env, seed=7))
    service = ControlService(env, runtime, ServeConfig(deadline_ms=500.0))
    observations = service.start_episode(seed=2)
    trace = []
    for _ in range(ticks):
        actions = service.decide(observations)
        result = env.step(actions)
        trace.append(
            (
                actions,
                {a: o.tobytes() for a, o in result.observations.items()},
                {a: r.hex() for a, r in result.rewards.items()},
                result.info,
            )
        )
        observations = result.observations
        if result.done:
            observations = service.start_episode()
    health = service.health.report()
    # Counts only: latencies differ run to run.
    del health["latency_ms"], health["intersections_per_second"]
    return trace, health


class TestServePath:
    def test_healthy_episode_skips_per_agent_code(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-agent path called on a healthy serve tick")

        monkeypatch.setattr(ObservationBuilder, "build", forbidden)
        monkeypatch.setattr(tsc_env, "all_rewards", forbidden)
        monkeypatch.setattr(tsc_env, "network_average_wait", forbidden)
        monkeypatch.setattr(messaging, "select_partner", forbidden)
        trace, health = _serve_6x6(60)
        assert trace[-1][3]["time"] == 300  # one whole episode
        assert health["unserved"] == 0

    def test_timers_on_is_bit_exact(self):
        faults = FaultConfig(controller_failure=0.25, message_delay=0.25)
        untimed = _serve_6x6(70, faults)
        was_enabled = TIMERS.enabled
        TIMERS.reset()
        TIMERS.enable()
        try:
            timed = _serve_6x6(70, faults)
            report = TIMERS.report()
        finally:
            TIMERS.reset()
            if not was_enabled:
                TIMERS.disable()
        assert timed == untimed
        for name in (
            "serve/act",
            "serve/fallback",
            "env_step/apply",
            "env_step/engine",
            "env_step/extract",
        ):
            assert report[name]["calls"] == 70, name
