"""ControlService: guaranteed per-tick coverage under every failure mode."""

from __future__ import annotations

import pytest

from helpers import make_env
from repro.faults.config import FaultConfig
from repro.serve import BACKOFF, ControlService, PolicyRuntime, PRIMARY, ServeConfig

pytestmark = pytest.mark.serve


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class ScriptedPolicy:
    """Stand-in agent whose per-tick behaviour is scripted by the test."""

    name = "Scripted"

    def __init__(self, behaviour) -> None:
        self.behaviour = behaviour
        self.calls = 0

    def begin_episode(self, env, training: bool) -> None:
        pass

    def act(self, observations, env, training: bool):
        self.calls += 1
        return self.behaviour(observations, env, self.calls)

    def state_dict(self):
        return {}

    def load_state_dict(self, state) -> None:
        pass


def make_service(env, behaviour, config=None, clock=None):
    runtime = PolicyRuntime(lambda: ScriptedPolicy(behaviour))
    return ControlService(
        env,
        runtime,
        config or ServeConfig(watchdog=False),
        clock=clock or FakeClock(),
    )


def healthy(observations, env, call):
    return {node: 0 for node in env.agent_ids}


class TestCoverageGuarantee:
    def test_healthy_policy_serves_its_own_actions(self, tiny_grid):
        env = make_env(tiny_grid)
        service = make_service(env, healthy)
        health = service.serve(ticks=5, seed=0)
        assert health.healthy
        assert health.intersections_served == 5 * len(env.agent_ids)
        assert health.fallback_ticks == 0
        assert all(service.fallbacks.mode(n) == PRIMARY for n in env.agent_ids)

    def test_raising_policy_never_leaks_and_demotes_all(self, tiny_grid):
        env = make_env(tiny_grid)

        def explode(observations, env, call):
            raise RuntimeError("policy crashed")

        service = make_service(env, explode)
        health = service.serve(ticks=4, seed=0)
        assert health.healthy  # every intersection still served
        assert health.policy_exceptions == 4
        assert health.fallback_ticks == 4 * len(env.agent_ids)
        assert all(service.fallbacks.mode(n) == BACKOFF for n in env.agent_ids)

    def test_nan_actions_are_invalid_and_covered(self, tiny_grid):
        env = make_env(tiny_grid)

        def nans(observations, env, call):
            return {node: float("nan") for node in env.agent_ids}

        service = make_service(env, nans)
        health = service.serve(ticks=3, seed=0)
        assert health.healthy
        assert health.invalid_actions == 3 * len(env.agent_ids)
        assert health.policy_exceptions == 0

    def test_out_of_range_action_covered_per_intersection(self, tiny_grid):
        env = make_env(tiny_grid)
        bad_node = env.agent_ids[0]

        def one_bad(observations, env, call):
            actions = {node: 0 for node in env.agent_ids}
            actions[bad_node] = 999
            return actions

        service = make_service(env, one_bad)
        observations = service.start_episode(seed=0)
        actions = service.decide(observations)
        assert set(actions) == set(env.agent_ids)
        assert env.action_spaces[bad_node].contains(actions[bad_node])
        assert service.fallbacks.mode(bad_node) == BACKOFF
        healthy_nodes = [n for n in env.agent_ids if n != bad_node]
        assert all(service.fallbacks.mode(n) == PRIMARY for n in healthy_nodes)

    def test_missing_action_key_is_invalid(self, tiny_grid):
        env = make_env(tiny_grid)
        dropped = env.agent_ids[-1]

        def drop_one(observations, env, call):
            return {n: 0 for n in env.agent_ids if n != dropped}

        service = make_service(env, drop_one)
        observations = service.start_episode(seed=0)
        actions = service.decide(observations)
        assert dropped in actions
        assert service.health.invalid_actions == 1


class TestDeadline:
    def test_slow_policy_is_a_deadline_miss(self, tiny_grid):
        env = make_env(tiny_grid)
        clock = FakeClock()

        def slow(observations, env, call):
            clock.advance(0.200)  # 200 ms against a 50 ms deadline
            return {node: 0 for node in env.agent_ids}

        service = make_service(
            env, slow, config=ServeConfig(deadline_ms=50.0, watchdog=False),
            clock=clock,
        )
        observations = service.start_episode(seed=0)
        actions = service.decide(observations)
        assert set(actions) == set(env.agent_ids)
        assert service.health.deadline_misses == 1
        assert all(service.fallbacks.mode(n) == BACKOFF for n in env.agent_ids)

    def test_fast_policy_keeps_primary(self, tiny_grid):
        env = make_env(tiny_grid)
        clock = FakeClock()

        def fast(observations, env, call):
            clock.advance(0.001)
            return {node: 0 for node in env.agent_ids}

        service = make_service(
            env, fast, config=ServeConfig(deadline_ms=50.0, watchdog=False),
            clock=clock,
        )
        observations = service.start_episode(seed=0)
        service.decide(observations)
        assert service.health.deadline_misses == 0
        assert all(service.fallbacks.mode(n) == PRIMARY for n in env.agent_ids)


class TestRecovery:
    def test_policy_recovers_and_is_promoted(self, tiny_grid):
        env = make_env(tiny_grid)

        def flaky(observations, env, call):
            if call <= 2:
                raise RuntimeError("transient crash")
            return {node: 0 for node in env.agent_ids}

        config = ServeConfig(
            watchdog=False, backoff_base_ticks=1, promote_after=1
        )
        runtime = PolicyRuntime(lambda: ScriptedPolicy(flaky))
        service = ControlService(env, runtime, config, clock=FakeClock())
        health = service.serve(ticks=8, seed=0)
        assert health.healthy
        assert all(service.fallbacks.mode(n) == PRIMARY for n in env.agent_ids)
        assert all(
            service.fallbacks.state(n).promotions >= 1 for n in env.agent_ids
        )


class TestControllerFaults:
    def test_dead_controllers_served_by_fallback(self, tiny_grid):
        env = make_env(
            tiny_grid, faults=FaultConfig(controller_failure=1.0), seed=3
        )
        service = make_service(env, healthy)
        health = service.serve(ticks=4, seed=0)
        assert health.healthy
        # Every intersection is dead every tick -> all decisions fall back.
        assert health.fallback_ticks == 4 * len(env.agent_ids)
        assert health.controller_faults == 4 * len(env.agent_ids)

    def test_observations_always_produce_full_action_dict(self, tiny_grid):
        env = make_env(
            tiny_grid,
            faults=FaultConfig(controller_failure=0.5, message_drop=0.3),
            seed=5,
        )
        service = make_service(env, healthy)
        observations = service.start_episode(seed=1)
        for _ in range(6):
            actions = service.decide(observations)
            assert set(actions) == set(env.agent_ids)
            for node, action in actions.items():
                assert env.action_spaces[node].contains(int(action))
            observations = env.step(actions).observations


class TestHealthReport:
    def test_report_is_json_safe_and_complete(self, tiny_grid):
        import json

        env = make_env(tiny_grid)
        service = make_service(env, healthy)
        service.serve(ticks=3, seed=0)
        report = service.health.report(service.fallbacks.snapshot())
        json.dumps(report)
        assert report["ticks"] == 3
        assert report["unserved"] == 0
        assert set(report["intersections"]) == set(env.agent_ids)
        assert "p99" in report["latency_ms"]

    def test_serve_session_event_carries_fallback_snapshot(self, tiny_grid, tmp_path):
        """``serve()`` reports the session with each intersection's
        fallback state, as the CLI's serve command does."""
        import json

        from repro.obs import Telemetry
        from repro.obs.events import read_events

        env = make_env(tiny_grid)
        bad_node = env.agent_ids[0]

        def one_bad(observations, env, call):
            actions = {node: 0 for node in env.agent_ids}
            actions[bad_node] = 99
            return actions

        telemetry = Telemetry(tmp_path / "tel")
        service = ControlService(
            env,
            PolicyRuntime(lambda: ScriptedPolicy(one_bad)),
            ServeConfig(watchdog=False),
            telemetry=telemetry,
            clock=FakeClock(),
        )
        service.serve(ticks=3, seed=0)
        telemetry.close()
        (session,) = [
            e["data"] for e in read_events(telemetry.events.path)
            if e["type"] == "serve_session"
        ]
        snapshot = json.loads(json.dumps(service.fallbacks.snapshot()))
        assert session["intersections"] == snapshot
        assert snapshot[bad_node] != snapshot[env.agent_ids[1]]
        assert session["ticks"] == 3

    def test_latency_percentiles_from_observed_ticks(self):
        from repro.serve import HealthTracker

        tracker = HealthTracker()
        for latency in (0.001, 0.002, 0.010):
            tracker.observe_tick(
                latency_s=latency, served=4, expected=4,
                fallback_count=0, deadline_missed=False,
            )
        assert tracker.latency_percentile(50.0) == pytest.approx(2.0)
        assert tracker.intersections_per_second() == pytest.approx(12 / 0.013)

    def test_unserved_marks_unhealthy(self):
        from repro.serve import HealthTracker

        tracker = HealthTracker()
        tracker.observe_tick(
            latency_s=0.001, served=3, expected=4,
            fallback_count=0, deadline_missed=False,
        )
        assert not tracker.healthy
        assert "DEGRADED" in tracker.summary()
