"""The serving layer's array passes against their per-node oracles.

* ``FallbackManager.decide`` (one masks call per tick) arbitrates
  exactly like the per-node :class:`helpers.ReferenceFallbackManager`
  under random configurations and healthy masks.
* The channel and reader arrays — ``MessageRouter.route``'s array pass
  and the one-row ``deliver``/``receive`` calls of ``route_reference``
  — resolve messages exactly like the per-agent dict loop
  :func:`helpers.reference_message_faults`, for every subset of message
  faults with and without ``degrade_on_loss``, and leave the fault RNG
  in the same state.
* A ``ControlService`` run under stuck detectors and controller deaths
  serves what :func:`helpers.reference_decide` serves, tick by tick,
  with the same health, events and fault-RNG streams — which pins the
  order of the per-episode death draws against the detector reads.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ReferenceFallbackManager,
    make_env,
    reference_decide,
    reference_message_faults,
)
from repro.agents import PairUpLightSystem
from repro.agents.pairuplight.messaging import (
    FaultyMessageChannel,
    MessageRouter,
    ResilientMessageReader,
    select_partner_rows,
)
from repro.faults.config import FaultConfig
from repro.faults.schedule import FaultSchedule
from repro.obs.events import read_events
from repro.obs.telemetry import Telemetry
from repro.scenarios.grid import build_grid
from repro.serve import ControlService, FallbackManager, PolicyRuntime, ServeConfig

pytestmark = pytest.mark.serve


# ----------------------------------------------------------------------
# Arbitration
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nodes=st.integers(1, 6),
    base=st.integers(1, 4),
    factor=st.floats(1.0, 3.5),
    extra=st.integers(0, 40),
    promote_after=st.integers(1, 4),
    reset_after=st.integers(1, 20),
    fail_rate=st.floats(0.0, 1.0),
)
def test_mask_arbitration_matches_per_node(
    seed, nodes, base, factor, extra, promote_after, reset_after, fail_rate
):
    config = ServeConfig(
        backoff_base_ticks=base,
        backoff_factor=factor,
        backoff_max_ticks=base + extra,
        promote_after=promote_after,
        reset_backoff_after=reset_after,
        watchdog=False,
    )
    node_ids = [f"n{i}" for i in range(nodes)]
    manager = FallbackManager(node_ids, config)
    oracle = ReferenceFallbackManager(node_ids, config)
    rng = np.random.default_rng(seed)
    # Per-node failure rates, so some nodes flap and some stay down.
    rates = rng.uniform(0.0, fail_rate, size=nodes)
    tick = 0
    for _ in range(240):
        tick += int(rng.integers(1, 3))
        healthy = rng.random(nodes) >= rates
        use_fallback, demoted, promoted = manager.decide(tick, healthy)
        for i, node in enumerate(node_ids):
            want_fallback, transition = oracle.decide(node, tick, bool(healthy[i]))
            assert use_fallback[i] == want_fallback
            assert demoted[i] == (transition == "demoted")
            assert promoted[i] == (transition == "promoted")
            assert manager.state(node) == oracle.states[node]
    assert manager.total_transitions() == sum(
        s.demotions + s.promotions for s in oracle.states.values()
    )


# ----------------------------------------------------------------------
# Message delivery
# ----------------------------------------------------------------------
class _Sink:
    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def fault_activation(self, kind, fault_id, episode, tick, scope) -> None:
        self.calls.append((kind, fault_id, episode, tick, scope))


KINDS = ("message_drop", "message_delay", "message_corrupt")
SUBSETS = [c for r in range(1, 4) for c in itertools.combinations(KINDS, r)]


def _schedule(kinds) -> FaultSchedule:
    schedule = FaultSchedule(FaultConfig(**{k: 0.35 for k in kinds}), seed=7)
    schedule.begin_episode(0)
    schedule.event_sink = _Sink()
    return schedule


@pytest.mark.parametrize("degrade", [True, False], ids=["degrade", "zeros"])
@pytest.mark.parametrize("kinds", SUBSETS, ids="+".join)
def test_channel_and_reader_match_per_agent_loop(small_grid, kinds, degrade):
    env = make_env(small_grid)
    agent_ids = list(env.agent_ids)
    num, dim, decay, max_stale = len(agent_ids), 2, 0.6, 2
    router = MessageRouter(env, agent_ids, "upstream", dim, degrade)
    # The array pass, the one-row calls and the oracle each own a schedule.
    schedules = [_schedule(kinds) for _ in range(3)]
    oracle = schedules[2]
    channels = [
        FaultyMessageChannel(s, agent_ids, dim, clock=lambda: 5) for s in schedules[:2]
    ]
    readers = [ResilientMessageReader(agent_ids, dim, decay, max_stale) for _ in range(2)]
    prev = {a: np.zeros(dim) for a in agent_ids}
    last = {a: np.zeros(dim) for a in agent_ids}
    staleness = {a: 0 for a in agent_ids}
    rng = np.random.default_rng(3)
    live = np.array([0])
    for _ in range(60):
        messages = rng.uniform(size=(1, num, dim))
        congestion = rng.uniform(size=(1, num))
        partners = select_partner_rows(router.table, "upstream", congestion, live)[0]
        want = reference_message_faults(
            oracle, agent_ids, messages[0, partners], messages[0], prev, last,
            staleness, degrade, decay, max_stale, sink_ticks=5,
        )
        # The array pass of ``route``.
        incoming = np.zeros((1, num, dim))
        router.route(
            incoming, messages, congestion, live, None, channels[:1], readers[:1]
        )
        assert np.array_equal(incoming[0], want)
        # The one-row calls of ``route_reference``.
        got = np.zeros((num, dim))
        for i, agent_id in enumerate(agent_ids):
            message = channels[1].deliver(agent_id, messages[0, partners[i]])
            if degrade:
                message = readers[1].receive(agent_id, message, messages[0, i])
            got[i] = 0.0 if message is None else message
        assert np.array_equal(got, want)
    for reader in readers:
        assert [reader.staleness(a) for a in agent_ids] == [
            staleness[a] for a in agent_ids
        ]
    for schedule in schedules[:2]:
        assert schedule._rng.bit_generator.state == oracle._rng.bit_generator.state
        assert schedule.event_sink.calls == oracle.event_sink.calls
    assert oracle.event_sink.calls  # the faults fired


# ----------------------------------------------------------------------
# A whole serve run
# ----------------------------------------------------------------------
FAULTS = FaultConfig(detector_stuck=0.3, controller_failure=0.3, message_delay=0.2)


def _service(run_dir):
    env = make_env(build_grid(3, 3), horizon_ticks=100, seed=4, faults=FAULTS)
    runtime = PolicyRuntime(lambda: PairUpLightSystem(env, seed=3))
    ticks = itertools.count()
    telemetry = Telemetry(run_dir)
    service = ControlService(
        env,
        runtime,
        ServeConfig(deadline_ms=50.0, watchdog=False),
        telemetry=telemetry,
        clock=lambda: next(ticks) * 1e-4,
    )
    return service, telemetry


def _fault_and_serve_events(telemetry) -> list[tuple]:
    telemetry.events.flush()
    return [
        (e["type"], e["data"])
        for e in read_events(telemetry.events.path)
        if e["type"].startswith(("fault_", "serve_"))
    ]


def test_serve_run_matches_per_node_oracle(tmp_path):
    served, served_tel = _service(tmp_path / "array")
    oracle, oracle_tel = _service(tmp_path / "oracle")
    oracle.fallbacks = ReferenceFallbackManager(oracle.env.agent_ids, oracle.config)
    observations = [served.start_episode(seed=11), oracle.start_episode(seed=11)]
    decide = [served.decide, lambda obs: reference_decide(oracle, obs)]
    envs = [served.env, oracle.env]
    episodes = 0
    for _ in range(60):  # three 20-decision episodes
        actions = [decide[k](observations[k]) for k in range(2)]
        assert actions[0] == actions[1]
        results = [envs[k].step(actions[k]) for k in range(2)]
        assert results[0].info["average_wait"] == results[1].info["average_wait"]
        if results[0].done:
            episodes += 1
            observations = [served.start_episode(), oracle.start_episode()]
        else:
            observations = [r.observations for r in results]
    assert episodes == 3
    snapshot = {n: s.as_dict() for n, s in oracle.fallbacks.states.items()}
    assert served.health.report(served.fallbacks.snapshot()) == oracle.health.report(
        snapshot
    )
    assert served.health.controller_faults > 0
    assert served.fallbacks.total_transitions() > 0
    schedules = [env.fault_schedule for env in envs]
    for stream in ("_rng", "_episode_rng"):
        states = [getattr(s, stream).bit_generator.state for s in schedules]
        assert states[0] == states[1]
    events = [_fault_and_serve_events(t) for t in (served_tel, oracle_tel)]
    assert events[0] == events[1]
    kinds = {data.get("kind") for _, data in events[0]}
    assert {"controller_death", "detector_stuck", "message_delay"} <= kinds
