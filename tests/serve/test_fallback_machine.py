"""FallbackManager state machine: demotion, backoff, promotion, anti-flap.

Each tick arbitrates every intersection at once from a healthy mask;
:func:`decide` names the unhealthy ones and returns one node's outcome.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import BACKOFF, FallbackManager, PRIMARY, PROBATION, ServeConfig

pytestmark = pytest.mark.serve


def make_manager(**overrides) -> FallbackManager:
    defaults = dict(
        backoff_base_ticks=2,
        backoff_factor=2.0,
        backoff_max_ticks=16,
        promote_after=2,
        reset_backoff_after=4,
        watchdog=False,
    )
    defaults.update(overrides)
    return FallbackManager(["A", "B"], ServeConfig(**defaults))


def decide(manager, tick: int, node: str = "A", policy_healthy: bool = True, **others):
    """Arbitrate one tick with ``node`` (and any of ``others``, by name)
    healthy or not, every other node healthy; returns ``node``'s
    ``(use_fallback, transition)``."""
    verdicts = {**others, node: policy_healthy}
    healthy = np.array([verdicts.get(n, True) for n in manager.node_ids])
    use_fallback, demoted, promoted = manager.decide(tick, healthy)
    i = manager.node_ids.index(node)
    transition = "demoted" if demoted[i] else "promoted" if promoted[i] else None
    return bool(use_fallback[i]), transition


class TestDemotion:
    def test_starts_primary_serving_policy(self):
        manager = make_manager()
        decision = decide(manager, 0, "A", True)
        assert not decision[0]
        assert decision[1] is None
        assert manager.mode("A") == PRIMARY

    def test_failure_demotes_and_serves_fallback(self):
        manager = make_manager()
        decision = decide(manager, 0, "A", False)
        assert decision[0]
        assert decision[1] == "demoted"
        assert manager.mode("A") == BACKOFF

    def test_nodes_are_independent(self):
        manager = make_manager()
        decision = decide(manager, 0, "B", True, A=False)
        assert not decision[0]
        assert manager.mode("B") == PRIMARY
        assert manager.degraded_nodes() == ["A"]

    def test_backoff_dwell_serves_fallback_even_when_healthy(self):
        manager = make_manager(backoff_base_ticks=3)
        decide(manager, 0, "A", False)
        for tick in (1, 2):
            decision = decide(manager, tick, "A", True)
            assert decision[0]
            assert manager.mode("A") == BACKOFF


class TestPromotion:
    def test_promotes_after_consecutive_healthy_probes(self):
        manager = make_manager(backoff_base_ticks=2, promote_after=2)
        decide(manager, 0, "A", False)
        decide(manager, 1, "A", True)  # still dwelling
        probe = decide(manager, 2, "A", True)  # probation
        assert not probe[0]
        assert manager.mode("A") == PROBATION
        promoted = decide(manager, 3, "A", True)
        assert promoted[1] == "promoted"
        assert manager.mode("A") == PRIMARY
        assert manager.state("A").promotions == 1

    def test_probation_serves_policy_actions(self):
        manager = make_manager(backoff_base_ticks=1, promote_after=3)
        decide(manager, 0, "A", False)
        decision = decide(manager, 1, "A", True)
        assert not decision[0]
        assert manager.mode("A") == PROBATION


class TestBackoffEscalation:
    def test_probe_failure_escalates_backoff(self):
        manager = make_manager(backoff_base_ticks=2, backoff_factor=2.0)
        decide(manager, 0, "A", False)
        assert manager.state("A").backoff_ticks == 2
        # Dwell expires at tick 2; the probe fails -> escalate to 4.
        decide(manager, 2, "A", False)
        assert manager.state("A").backoff_ticks == 4
        decide(manager, 6, "A", False)
        assert manager.state("A").backoff_ticks == 8

    def test_backoff_caps_at_max(self):
        manager = make_manager(backoff_base_ticks=2, backoff_max_ticks=8)
        tick = 0
        for _ in range(8):
            decide(manager, tick, "A", False)
            tick = manager.state("A").resume_tick
        assert manager.state("A").backoff_ticks == 8

    def test_permanently_dead_policy_probed_logarithmically(self):
        """A never-recovering policy settles at max backoff, not flapping."""
        manager = make_manager(backoff_base_ticks=2, backoff_max_ticks=16)
        for tick in range(200):
            decide(manager, tick, "A", False)
        state = manager.state("A")
        assert state.backoff_ticks == 16
        assert state.demotions == 1  # demoted once, never promoted


class TestAntiFlap:
    def test_escalated_backoff_persists_through_promotion(self):
        manager = make_manager(
            backoff_base_ticks=2, promote_after=1, reset_backoff_after=100
        )
        decide(manager, 0, "A", False)
        decide(manager, 2, "A", False)  # probe fails -> 4
        assert manager.state("A").backoff_ticks == 4
        promoted = decide(manager, 6, "A", True)
        assert promoted[1] == "promoted"
        # The next failure reuses the escalated dwell, not the base one.
        decide(manager, 7, "A", False)
        assert manager.state("A").resume_tick == 7 + 4

    def test_backoff_resets_after_sustained_health(self):
        manager = make_manager(
            backoff_base_ticks=2, promote_after=1, reset_backoff_after=3
        )
        decide(manager, 0, "A", False)
        decide(manager, 2, "A", False)  # escalate to 4
        decide(manager, 6, "A", True)  # promoted (promote_after=1)
        for tick in range(7, 11):
            decide(manager, tick, "A", True)
        assert manager.state("A").backoff_ticks == 2

    def test_total_transitions_counts_demotions_and_promotions(self):
        manager = make_manager(backoff_base_ticks=1, promote_after=1)
        decide(manager, 0, "A", False)  # demoted
        # A promoted, B demoted in the same tick.
        decide(manager, 1, "A", True, B=False)
        assert manager.total_transitions() == 3


class TestSnapshot:
    def test_snapshot_is_json_safe_per_node(self):
        import json

        manager = make_manager()
        decide(manager, 0, "A", False)  # B healthy
        snapshot = manager.snapshot()
        assert set(snapshot) == {"A", "B"}
        assert snapshot["A"]["mode"] == BACKOFF
        assert snapshot["A"]["demotions"] == 1
        json.dumps(snapshot)  # must not raise
