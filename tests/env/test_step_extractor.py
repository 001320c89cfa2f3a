"""The serial env step at B=1: extractor path vs the per-agent reference.

``TrafficSignalEnv`` finishes its steps (and its reset-time
observations) through a one-env :class:`BatchedStepExtractor` whenever
``maybe_build`` accepts it.  Forcing ``maybe_build`` to return ``None``
and the detectors onto their per-call raw readings runs the per-agent
reference (``ObservationBuilder.build``, ``all_rewards``,
``network_average_wait``); the two must agree byte for
byte on every observation, reward, info entry, congestion score and
critic pressure, on both engines, under faults, incidents and drain
mode.  Envs the extractor cannot serve (fault-injecting detectors,
heterogeneous slot widths) must fall back and read exactly as before.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import batched_obs
from repro.faults.config import FaultConfig
from repro.faults.incidents import Incident, IncidentSchedule
from repro.scenarios.grid import build_grid
from repro.sim.detectors import DetectorSuite
from repro.sim.network import TurnType

from helpers import make_env


def _canon(value):
    """A byte-exact, comparable form of a step's outputs."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, dict):
        return {key: _canon(item) for key, item in value.items()}
    return (type(value).__name__, value)


def _record(env) -> dict:
    """Everything an agent or metric can read at the current tick."""
    return {
        "congestion": {a: _canon(env.congestion_score(a)) for a in env.agent_ids},
        "pressures": {a: _canon(env.link_pressures(a)) for a in env.agent_ids},
    }


def _rollout(make, monkeypatch, reference, episodes=2, seeds=(1, 2, 5), actions=None):
    """Records of ``episodes`` episodes per seed; ``actions`` is an
    optional per-step action list, otherwise seeded random phases."""
    trace = []
    engaged = []
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(
                batched_obs.BatchedStepExtractor,
                "maybe_build",
                staticmethod(lambda envs, engine: None),
            )
            # Per-call raw readings: the oracle shares no bulk kernel.
            patch.setattr(DetectorSuite, "_bulk_ready", lambda self: False)
        for seed in seeds:
            env = make()
            rng = np.random.default_rng(seed)
            for episode in range(episodes):
                observations = env.reset(seed=100 * seed + episode)
                engaged.append(env._extractor is not None)
                trace.append(("reset", _canon(observations), _record(env)))
                step = 0
                done = False
                while not done:
                    if actions is not None:
                        if step >= len(actions):
                            break
                        chosen = {
                            a: actions[step] % env.action_spaces[a].n
                            for a in env.agent_ids
                        }
                    else:
                        chosen = {
                            a: int(rng.integers(env.action_spaces[a].n))
                            for a in env.agent_ids
                        }
                    result = env.step(chosen)
                    trace.append(
                        (
                            _canon(result.observations),
                            _canon(result.rewards),
                            _canon(result.info),
                            result.done,
                            _record(env),
                        )
                    )
                    done = result.done
                    step += 1
    return trace, engaged


def _assert_exact(make, monkeypatch, engages, **kwargs):
    fast, fast_engaged = _rollout(make, monkeypatch, False, **kwargs)
    ref, ref_engaged = _rollout(make, monkeypatch, True, **kwargs)
    assert all(e is engages for e in fast_engaged)
    assert not any(ref_engaged)
    assert len(fast) == len(ref)
    for fast_step, ref_step in zip(fast, ref):
        assert fast_step == ref_step


def _grid_env(rows=3, engine="object", **kwargs):
    scenario = build_grid(rows, rows)
    kwargs.setdefault("horizon_ticks", 120)
    return lambda: make_env(scenario, peak_rate=900.0, t_peak=40.0, engine=engine, **kwargs)


ENGINES = ["object", "soa"]


class TestExtractorMatchesReference:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_healthy(self, monkeypatch, engine):
        _assert_exact(_grid_env(engine=engine), monkeypatch, engages=True)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_controller_and_message_faults_engage(self, monkeypatch, engine):
        faults = FaultConfig(
            controller_failure=0.25, message_drop=0.2, message_delay=0.25
        )
        _assert_exact(
            _grid_env(engine=engine, faults=faults), monkeypatch, engages=True
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_detector_faults_fall_back(self, monkeypatch, engine):
        faults = FaultConfig(detector_dropout=0.2, detector_noise=0.5)
        _assert_exact(
            _grid_env(engine=engine, faults=faults), monkeypatch, engages=False
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_incidents_and_drain(self, monkeypatch, engine):
        scenario = build_grid(3, 3)
        first, second = list(scenario.network.links.values())[4:6]
        incidents = IncidentSchedule(
            [
                Incident.link_closure(first.link_id, start=20, duration=60),
                Incident.lane_closure(
                    second.link_id, start=30, duration=80, num_lanes=second.num_lanes
                ),
            ]
        )

        def make():
            return make_env(
                scenario,
                peak_rate=900.0,
                t_peak=40.0,
                horizon_ticks=90,
                drain=True,
                engine=engine,
                incidents=incidents,
            )

        _assert_exact(make, monkeypatch, engages=True, episodes=1, seeds=(2,))

    def test_monaco_heterogeneous_lanes_and_phases(self, monkeypatch):
        """Monaco's nodes differ in lane counts and phase sets but all
        fit four compass slots, so the extractor serves them."""
        from repro.env.tsc_env import EnvConfig, TrafficSignalEnv
        from repro.scenarios.monaco import build_monaco

        monaco = build_monaco(seed=7)

        def make():
            return TrafficSignalEnv(
                monaco.network,
                monaco.phase_plans,
                monaco.flows,
                EnvConfig(horizon_ticks=60, max_ticks=600),
                seed=3,
            )

        _assert_exact(make, monkeypatch, engages=True, episodes=1, seeds=(1,))

    def test_non_uniform_slot_widths_fall_back(self, monkeypatch):
        """A node with a fifth approach widens its slot list; the env
        keeps the per-agent path and reads exactly as before."""
        scenario = build_grid(3, 3)
        network = scenario.network
        node = network.nodes[sorted(network.signalized_nodes())[4]]
        network.add_node("extra", node.x + 150.0, node.y + 150.0)
        network.add_link("extra_in", "extra", node.node_id, 200.0, 1)
        network.add_movement("extra_in", node.outgoing[0], TurnType.THROUGH)

        def make():
            return make_env(scenario, peak_rate=900.0, t_peak=40.0, horizon_ticks=60)

        widths = {len(s) for s in make().obs_builder._slots.values()}
        assert widths == {4, 5}
        _assert_exact(make, monkeypatch, engages=False, episodes=1, seeds=(1,))


class TestRandomActionSequences:
    @settings(max_examples=6, deadline=None)
    @given(
        rows=st.sampled_from([3, 6]),
        engine=st.sampled_from(ENGINES),
        actions=st.lists(st.integers(0, 7), min_size=1, max_size=12),
    )
    def test_property(self, rows, engine, actions):
        monkeypatch = pytest.MonkeyPatch()
        try:
            _assert_exact(
                _grid_env(rows=rows, engine=engine, horizon_ticks=60),
                monkeypatch,
                engages=True,
                episodes=1,
                seeds=(len(actions),),
                actions=actions,
            )
        finally:
            monkeypatch.undo()
