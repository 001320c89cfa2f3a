"""Shared-mode lockstep routing: array path vs the per-agent reference.

With the batched extractor engaged, ``BatchedPolicyGroup`` picks every
partner from the ``(B, M)`` congestion matrix and reads every replica's
board with one gather.  Forcing the extractor off (``maybe_build``
returns ``None``) runs the per-agent ``select_partner`` loop instead;
the two must train and evaluate bit for bit alike — with a faulty
message channel too, where array selection feeds the per-agent
deliver/receive loop.  The suite also pins that the healthy 6x6 path
never calls ``select_partner``, that the lockstep ``TIMERS`` sections
are recorded, and that timing changes no result.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.agents import PairUpLightConfig, PairUpLightSystem
from repro.eval import batched_obs
from repro.eval.batched import evaluate_lockstep, train_lockstep
from repro.eval.harness import ExperimentScale, make_experiment
from repro.faults.config import FaultConfig
from repro.perf.timers import TIMERS

pytestmark = pytest.mark.soa

SEEDS = [0, 1, 2]


def _scale(rows: int, horizon: int) -> ExperimentScale:
    return ExperimentScale(
        rows=rows,
        cols=rows,
        peak_rate=600.0,
        t_peak=horizon / 3,
        light_duration=2 * horizon / 3,
        horizon_ticks=horizon,
        max_ticks=3600,
        train_episodes=2,
        eval_episodes=1,
    )


def _rig(rows=2, horizon=80, faults=None, drain=False, seeds=SEEDS, **config):
    experiments = [make_experiment(_scale(rows, horizon), seed=s) for s in seeds]
    envs = [
        exp.eval_env(1, faults=faults) if drain else exp.train_env(1, faults=faults)
        for exp in experiments
    ]
    agents = [
        PairUpLightSystem(env, PairUpLightConfig(**config), seed=seed)
        for env, seed in zip(envs, seeds)
    ]
    return agents, envs


def _train(reference: bool, monkeypatch, faults=None, **config):
    agents, envs = _rig(faults=faults, **config)
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(
                batched_obs.BatchedStepExtractor,
                "maybe_build",
                staticmethod(lambda envs, engine: None),
            )
        histories = train_lockstep(
            agents,
            envs,
            2,
            SEEDS,
            batched_policy=True,
            shared_across_replicas=True,
        )
    return agents[0], histories


def _assert_same_training(run_a, run_b):
    (agent_a, hist_a), (agent_b, hist_b) = run_a, run_b
    state_a, state_b = agent_a.state_dict(), agent_b.state_dict()
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        assert state_a[key].tobytes() == state_b[key].tobytes(), key
    for h_a, h_b in zip(hist_a, hist_b):
        for log_a, log_b in zip(h_a.episodes, h_b.episodes):
            assert log_a.avg_wait == log_b.avg_wait
            assert log_a.total_reward == log_b.total_reward
            assert log_a.update_stats == log_b.update_stats
    assert agent_a._rng.bit_generator.state == agent_b._rng.bit_generator.state


class TestArrayRoutingMatchesReference:
    def test_training_b3(self, monkeypatch):
        _assert_same_training(
            _train(False, monkeypatch), _train(True, monkeypatch)
        )

    @pytest.mark.parametrize("strategy", ["random", "fixed"])
    def test_training_other_strategies(self, monkeypatch, strategy):
        _assert_same_training(
            _train(False, monkeypatch, partner_strategy=strategy),
            _train(True, monkeypatch, partner_strategy=strategy),
        )

    def test_training_with_message_faults(self, monkeypatch):
        faults = FaultConfig(
            message_drop=0.3, message_delay=0.2, message_corrupt=0.1
        )
        _assert_same_training(
            _train(False, monkeypatch, faults=faults),
            _train(True, monkeypatch, faults=faults),
        )

    def test_drain_evaluation_with_early_finisher(self, monkeypatch):
        from repro.eval.batched import LockstepEnvGroup

        def run(reference):
            agents, envs = _rig(horizon=60, drain=True)
            # Replica 0 hits its tick cap first and drains early; the
            # others keep running (and routing) without it.
            for env, cap in zip(envs, (90, 150, 150)):
                env.config = dataclasses.replace(env.config, max_ticks=cap)
            mixed = []
            step_all = LockstepEnvGroup.step_all

            def spy(group, actions):
                mixed.append(0 < sum(a is None for a in actions) < len(actions))
                return step_all(group, actions)

            with monkeypatch.context() as patch:
                patch.setattr(LockstepEnvGroup, "step_all", spy)
                if reference:
                    patch.setattr(
                        batched_obs.BatchedStepExtractor,
                        "maybe_build",
                        staticmethod(lambda envs, engine: None),
                    )
                results = evaluate_lockstep(
                    agents,
                    envs,
                    1,
                    SEEDS,
                    batched_policy=True,
                    shared_across_replicas=True,
                )
            return results, any(mixed)

        (fast, fast_mixed), (ref, _) = run(False), run(True)
        assert fast_mixed  # some replica drained while others ran on
        for a, b in zip(fast, ref):
            assert a.average_wait == b.average_wait
            assert a.finished_vehicles == b.finished_vehicles
            assert a.total_created == b.total_created
            assert np.array_equal(
                np.asarray(a.average_travel_time), np.asarray(b.average_travel_time),
                equal_nan=True,
            )


class TestHealthyPathSkipsScalarSelection:
    def test_select_partner_never_called_on_6x6(self, monkeypatch):
        from repro.agents.pairuplight import batched, messaging

        def forbidden(*args, **kwargs):
            raise AssertionError("select_partner called on the array path")

        monkeypatch.setattr(batched, "select_partner", forbidden)
        monkeypatch.setattr(messaging, "select_partner", forbidden)
        agents, envs = _rig(rows=6, horizon=30, seeds=[0, 1])
        histories = train_lockstep(
            agents,
            envs,
            1,
            [0, 1],
            batched_policy=True,
            shared_across_replicas=True,
        )
        assert all(np.isfinite(h.episodes[0].avg_wait) for h in histories)


class TestLockstepTimers:
    SECTIONS = (
        "forward",
        "env_step",
        "update",
        "act/route",
        "act/forward",
        "act/sample",
        "env_step/apply",
        "env_step/engine",
        "env_step/extract",
    )

    def test_sections_recorded_and_bit_exact(self, monkeypatch):
        untimed = _train(False, monkeypatch)
        was_enabled = TIMERS.enabled
        TIMERS.reset()
        TIMERS.enable()
        try:
            timed = _train(False, monkeypatch)
            report = TIMERS.report()
        finally:
            TIMERS.reset()
            if not was_enabled:
                TIMERS.disable()
        _assert_same_training(untimed, timed)
        for name in self.SECTIONS:
            assert report[name]["calls"] > 0, name
        steps = report["env_step"]["calls"]
        for name in ("act/route", "act/forward", "act/sample", "env_step/engine"):
            assert report[name]["calls"] == steps, name
        assert report["update"]["calls"] == 2
