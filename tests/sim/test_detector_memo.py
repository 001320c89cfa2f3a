"""The per-network detector index memo.

Every episode builds fresh ``DetectorSuite``s over the same network;
their static lookups and bulk index arrays are memoized on the
``RoadNetwork`` per coverage.  Pinned here: the memo equals a fresh
build, is shared by later suites, is cleared by ``RoadNetwork.add_*``,
leaves ``FaultyDetectorSuite`` readings unchanged, and holds nothing
that would keep a simulation alive.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.faults.config import FaultConfig
from repro.scenarios.grid import build_grid
from repro.sim import detectors
from repro.sim.detectors import (
    _build_bulk_index,
    _build_lookups,
    network_index,
)
from repro.sim.network import TurnType

from helpers import make_env


def _assert_equal_index(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert a[key].dtype == b[key].dtype, key
            assert np.array_equal(a[key], b[key]), key
        else:
            assert a[key] == b[key], key


class TestMemoContents:
    def test_bulk_index_equals_fresh_build(self):
        network = build_grid(3, 3).network
        for coverage in (50.0, 120.0):
            memo = network_index(network, coverage, bulk=True)
            lookups = _build_lookups(network, coverage)
            fresh = {**lookups, **_build_bulk_index(network, lookups)}
            _assert_equal_index(memo, fresh)

    def test_suites_share_the_memo(self):
        env = make_env(build_grid(2, 2))
        env.reset(seed=0)
        first = env.detectors
        env.reset(seed=1)
        second = env.detectors
        assert first is not second
        assert second._link_geom is first._link_geom
        assert second._in_mv is first._in_mv

    def test_coverages_memoized_separately(self):
        network = build_grid(2, 2).network
        near = network_index(network, 20.0)
        far = network_index(network, 200.0)
        assert near["_visible_slots"] < far["_visible_slots"]
        assert network_index(network, 20.0) is near

    def test_memo_holds_no_simulation(self):
        scenario = build_grid(2, 2)
        env = make_env(scenario)
        env.reset(seed=0)
        sim_ref = weakref.ref(env.sim)
        suite_ref = weakref.ref(env.detectors)
        assert scenario.network.detector_memo
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            env.sim = None
            env.detectors = None
            assert sim_ref() is None
            assert suite_ref() is None
        finally:
            if was_enabled:
                gc.enable()


class TestInvalidation:
    @pytest.mark.parametrize("change", ["node", "link", "movement"])
    def test_add_clears_memo(self, change):
        network = build_grid(2, 2).network
        network_index(network, 50.0, bulk=True)
        assert network.detector_memo
        if change == "node":
            network.add_node("extra", 1e4, 1e4)
        elif change == "link":
            network.add_node("extra", 1e4, 1e4)
            network_index(network, 50.0, bulk=True)
            origin = next(iter(network.nodes))
            network.add_link("extra_in", origin, "extra", 300.0, 1)
        else:
            network.add_node("extra", 1e4, 1e4)
            link = next(iter(network.links.values()))
            network.add_link("extra_out", link.to_node, "extra", 300.0, 1)
            network_index(network, 50.0, bulk=True)
            network.add_movement(link.link_id, "extra_out", TurnType.THROUGH)
        assert not network.detector_memo

    def test_rebuilt_index_sees_new_link(self):
        network = build_grid(2, 2).network
        before = network_index(network, 50.0, bulk=True)
        network.add_node("extra", 1e4, 1e4)
        origin = next(iter(network.nodes))
        network.add_link("extra_in", origin, "extra", 300.0, 2)
        after = network_index(network, 50.0, bulk=True)
        assert "extra_in" not in before["_link_geom"]
        assert "extra_in" in after["_link_geom"]
        assert len(after["_lane_order"]) == len(before["_lane_order"]) + 2


class TestFaultyReadingsUnchanged:
    def test_memo_does_not_change_faulty_readings(self, monkeypatch):
        """A faulty-detector rollout reads the same with a warm memo as
        with a memo rebuilt from scratch for every suite."""

        def rollout():
            env = make_env(
                build_grid(2, 2),
                horizon_ticks=120,
                faults=FaultConfig(
                    detector_dropout=0.2, detector_noise=0.5, detector_stuck=0.1
                ),
            )
            readings = []
            for episode in range(2):
                observations = env.reset(seed=episode)
                readings.append(observations)
                done = False
                while not done:
                    result = env.step({a: 1 for a in env.agent_ids})
                    readings.append(result.observations)
                    done = result.done
            return readings

        def fresh_index(network, coverage, bulk=False):
            lookups = _build_lookups(network, coverage)
            if not bulk:
                return lookups
            return {**lookups, **_build_bulk_index(network, lookups)}

        warm = rollout()
        with monkeypatch.context() as patch:
            patch.setattr(detectors, "network_index", fresh_index)
            cold = rollout()
        assert len(warm) == len(cold)
        for obs_w, obs_c in zip(warm, cold):
            for node_id in obs_w:
                assert np.array_equal(obs_w[node_id], obs_c[node_id])

    def test_faulty_suite_gets_lookups_without_bulk_arrays(self):
        from repro.faults.detectors import FaultyDetectorSuite
        from repro.faults.schedule import FaultSchedule

        scenario = build_grid(2, 2)
        env = make_env(scenario)
        env.reset(seed=0)
        suite = FaultyDetectorSuite(
            env.sim, FaultSchedule(FaultConfig(detector_dropout=0.1), seed=0)
        )
        assert suite._link_geom is network_index(scenario.network, 50.0)["_link_geom"]
        assert not hasattr(suite, "_in_mv")
