"""Batched-policy-path equivalence: the PR 10 bit-exactness contract.

The cross-replica batched path (vectorized extraction in
``eval/batched_obs.py`` plus ``BatchedPolicyGroup``) must be invisible
in results: training B seeds through ``train_lockstep`` — with or
without ``batched_policy=True`` — reproduces ``rl.runner.train`` seed by
seed, down to the parameter bytes.  The suite pins:

* PairUpLight and its SingleAgent preset via ``batched_policy=True``
  (fast extraction + grouped acting) — parameter bytes and episode
  summaries bit-exact vs serial;
* a baseline (IQL) through the fast extraction — same contract;
* a *faulted* variant, where fault-injecting detector suites disqualify
  the vectorized extractor and the reference per-env path must kick in
  (still bit-exact);
* the clean ``ConfigError`` for agents the policy group cannot drive;
* the ``shared_across_replicas`` training regime (no serial oracle:
  deterministic, finite, one combined update; the fused kernels
  bit-exact with the composed op chains of ``helpers.composed_kernels``);
* ``duration_s`` is the per-seed share and ``group_duration_s`` the
  whole-group wall-clock, update included, at every B (B=1 included).
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import kernels, single_agent
from repro.errors import ConfigError
from repro.eval.batched import LockstepEnvGroup, train_lockstep
from repro.eval.harness import ExperimentScale, make_experiment
from repro.faults.config import FaultConfig
from repro.rl.runner import train

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


def _make_envs(faults: FaultConfig | None = None):
    experiments = [make_experiment(TINY, seed=seed) for seed in SEEDS]
    return [exp.train_env(1, faults=faults) for exp in experiments]


def _serial_histories(factory, faults: FaultConfig | None = None):
    """The ``rl.runner.train`` oracle, one run per seed."""
    agents, histories = [], []
    for env, seed in zip(_make_envs(faults), SEEDS):
        agent = factory(env, seed)
        histories.append(
            train(agent, env, episodes=TINY.train_episodes, seed=seed)
        )
        agents.append(agent)
    return agents, histories


def _batched_histories(factory, faults: FaultConfig | None = None, **kwargs):
    envs = _make_envs(faults)
    agents = [factory(env, seed) for env, seed in zip(envs, SEEDS)]
    histories = train_lockstep(
        agents, envs, TINY.train_episodes, SEEDS, **kwargs
    )
    return agents, histories


def _assert_same_parameters(serial_agents, batched_agents):
    for serial, batched in zip(serial_agents, batched_agents):
        state_s, state_b = serial.state_dict(), batched.state_dict()
        assert state_s.keys() == state_b.keys()
        for key in state_s:
            assert state_s[key].tobytes() == state_b[key].tobytes(), key


def _assert_same_histories(serial_histories, batched_histories):
    for hist_s, hist_b in zip(serial_histories, batched_histories):
        assert len(hist_s.episodes) == len(hist_b.episodes)
        for log_s, log_b in zip(hist_s.episodes, hist_b.episodes):
            assert log_s.episode == log_b.episode
            assert log_s.avg_wait == log_b.avg_wait
            assert log_s.total_reward == log_b.total_reward
            assert log_s.update_stats == log_b.update_stats


def _pairuplight(env, seed):
    from repro.agents import PairUpLightSystem

    return PairUpLightSystem(env, seed=seed)


def _iql(env, seed):
    from repro.agents import IQLSystem

    return IQLSystem(env, seed=seed)


class TestBatchedPathBitExact:
    def test_pairuplight_batched_policy(self):
        for factory in (_pairuplight, single_agent):
            serial_agents, serial_hist = _serial_histories(factory)
            batched_agents, batched_hist = _batched_histories(
                factory, batched_policy=True
            )
            _assert_same_parameters(serial_agents, batched_agents)
            _assert_same_histories(serial_hist, batched_hist)

    def test_baseline_fast_extraction(self):
        serial_agents, serial_hist = _serial_histories(_iql)
        batched_agents, batched_hist = _batched_histories(_iql)
        _assert_same_parameters(serial_agents, batched_agents)
        _assert_same_histories(serial_hist, batched_hist)

    def test_faulted_variant_falls_back_and_matches(self):
        faults = FaultConfig(detector_dropout=0.3, message_drop=0.3)
        serial_agents, serial_hist = _serial_histories(_pairuplight, faults)
        batched_agents, batched_hist = _batched_histories(
            _pairuplight, faults, batched_policy=True
        )
        _assert_same_parameters(serial_agents, batched_agents)
        _assert_same_histories(serial_hist, batched_hist)


class TestExtractorEligibility:
    def test_healthy_group_uses_extractor(self):
        group = LockstepEnvGroup(_make_envs())
        group.reset_all(SEEDS)
        assert group.extractor is not None

    def test_telemetry_keeps_extractor_and_matches_per_env(self, tmp_path):
        """Attached telemetry no longer forces the per-env path, and the
        extractor records exactly what the per-env finisher records."""
        from repro.obs.events import read_events
        from repro.obs.telemetry import Telemetry

        def rollout(name, use_extractor):
            envs = _make_envs()
            sinks = [
                Telemetry(tmp_path / f"{name}{b}", seed=b) for b in range(len(envs))
            ]
            for env, sink in zip(envs, sinks):
                env.attach_telemetry(sink)
            group = LockstepEnvGroup(envs)
            group.reset_all(SEEDS)
            engaged = group.extractor is not None
            if not use_extractor:
                group.extractor = None
            steps = []
            for decision in range(1000):
                actions = [
                    {a: (decision // 2) % env.action_spaces[a].n for a in env.agent_ids}
                    for env in envs
                ]
                results = group.step_all(actions)
                steps.append(results)
                if all(result.done for result in results):
                    break
            logs = []
            for sink in sinks:
                sink.events.flush()
                logs.append(
                    [(e["type"], e["data"]) for e in read_events(sink.events.path)]
                )
            snapshots = [sink.metrics.snapshot() for sink in sinks]
            for sink in sinks:
                sink.close()
            return engaged, snapshots, logs, steps

        engaged, snap_fast, logs_fast, steps_fast = rollout("fast", True)
        _, snap_ref, logs_ref, steps_ref = rollout("ref", False)
        assert engaged
        assert snap_fast == snap_ref
        assert snap_fast[0]["counters"]["env.steps"] == len(steps_fast)
        assert "env.last_episode_ticks" in snap_fast[0]["gauges"]
        assert logs_fast == logs_ref
        assert len(steps_fast) == len(steps_ref)
        for fast, ref in zip(steps_fast, steps_ref):
            for a, b in zip(fast, ref):
                assert a.done == b.done and a.info == b.info
                assert a.rewards == b.rewards
                for node_id in a.observations:
                    assert np.array_equal(a.observations[node_id], b.observations[node_id])

    def test_faulty_detectors_disqualify(self):
        faults = FaultConfig(detector_dropout=0.3)
        group = LockstepEnvGroup(_make_envs(faults))
        group.reset_all(SEEDS)
        assert group.extractor is None


class TestEngineLifetime:
    def test_previous_engine_freed_without_cycle_collection(self):
        """A finished episode's engine is freed as soon as the next
        ``reset_all`` replaces it: no reference cycle keeps it (and its
        arrays) alive until the cyclic garbage collector runs."""
        import gc
        import weakref

        group = LockstepEnvGroup(_make_envs())
        group.reset_all(SEEDS)
        group.step_all([{a: 0 for a in env.agent_ids} for env in group.envs])
        previous = weakref.ref(group.engine)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            group.reset_all([seed + 1 for seed in SEEDS])
            assert previous() is None
        finally:
            if was_enabled:
                gc.enable()


class TestIncompatibleAgents:
    def test_static_controller_rejected(self):
        from repro.agents import MaxPressureSystem

        envs = _make_envs()
        agents = [MaxPressureSystem(env) for env in envs]
        with pytest.raises(ConfigError, match="MaxPressureSystem"):
            train_lockstep(
                agents, envs, TINY.train_episodes, SEEDS, batched_policy=True
            )


class TestSharedAcrossReplicas:
    def test_trains_deterministically(self):
        def run(factory):
            agents, histories = _batched_histories(
                factory, batched_policy=True, shared_across_replicas=True
            )
            return agents[0].state_dict(), histories

        for factory in (_pairuplight, single_agent):
            state_a, hist_a = run(factory)
            state_b, hist_b = run(factory)
            for key in state_a:
                assert state_a[key].tobytes() == state_b[key].tobytes(), key
            for hist in hist_a:
                for log in hist.episodes:
                    assert log.update_stats  # one combined PPO update ran
                    for value in log.update_stats.values():
                        assert np.isfinite(value)
            # Every seed's history records the same combined-update stats.
            for log_0, log_1 in zip(hist_a[0].episodes, hist_a[1].episodes):
                assert log_0.update_stats == log_1.update_stats
            _assert_same_histories(hist_a, hist_b)

    def test_fused_matches_composed_bit_exact(self):
        """The shared-mode oracle: the fused update path (whole-sequence
        trunk kernel) trains exactly like the composed per-step chain."""
        from repro.agents import PairUpLightConfig, PairUpLightSystem

        def run(fused):
            def factory(env, seed):
                return PairUpLightSystem(env, PairUpLightConfig(), seed=seed)

            with kernels(fused):
                return _batched_histories(
                    factory, batched_policy=True, shared_across_replicas=True
                )

        fused_agents, fused_hist = run(True)
        composed_agents, composed_hist = run(False)
        _assert_same_parameters(fused_agents, composed_agents)
        _assert_same_histories(fused_hist, composed_hist)


class TestGroupDurationStamping:
    def test_duration_is_per_seed_share(self):
        _, histories = _batched_histories(_pairuplight)
        for history in histories:
            for log in history.episodes:
                assert log.group_duration_s > 0.0
                assert log.duration_s == pytest.approx(
                    log.group_duration_s / len(SEEDS)
                )

    def test_serial_runner_is_its_own_group(self):
        env = _make_envs()[0]
        agent = _pairuplight(env, 0)
        history = train(agent, env, episodes=1, seed=0)
        assert history.episodes[0].group_duration_s == history.episodes[0].duration_s
        assert history.episodes[0].duration_s > 0.0

    @pytest.mark.parametrize("batch", [1, 2])
    def test_duration_includes_the_update(self, batch):
        """``duration_s`` covers the whole episode, update included, on
        the serial and the lockstep path alike."""
        import time

        from repro.agents import FixedTimeSystem

        update_s = 0.05

        class SlowUpdate(FixedTimeSystem):
            def end_episode(self, env, training):
                time.sleep(update_s)
                return {}

        envs = _make_envs()[:batch]
        histories = train_lockstep(
            [SlowUpdate(env) for env in envs], envs, 1, SEEDS[:batch]
        )
        for history in histories:
            assert history.episodes[0].group_duration_s >= batch * update_s
