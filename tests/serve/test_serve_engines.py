"""Serving does not depend on the engine underneath it.

The SoA engine is the production engine (``EnvConfig().engine``); the
object engine is its oracle.  A ``ControlService`` run under detector
dropout and noise (the per-agent reference path), controller deaths,
message delay and one applied plus one rejected hot reload must take
the same action at every intersection on every tick, report the same
health and see the same waits on both engines.  A scripted clock makes
the reported latencies deterministic, and the watchdog (a wall-clock
thread) is off, so the whole report can be compared.
"""

from __future__ import annotations

import itertools

import pytest

from helpers import make_env
from repro.agents import PairUpLightSystem
from repro.env.tsc_env import EnvConfig
from repro.eval.harness import ExperimentScale, GridExperiment
from repro.faults.config import FaultConfig
from repro.scenarios.grid import build_grid
from repro.serve import ControlService, PolicyRuntime, ServeConfig
from repro.sim.soa import SoAReplicaView

pytestmark = pytest.mark.serve

FAULTS = FaultConfig(
    detector_dropout=0.15,
    detector_noise=0.2,
    controller_failure=0.25,
    message_delay=0.3,
)
HORIZON = 150  # ticks per episode: 30 decisions
DECISIONS = 2 * HORIZON // 5


def _serve(engine: str, good, bad) -> tuple:
    env = make_env(
        build_grid(3, 3), horizon_ticks=HORIZON, seed=4, engine=engine, faults=FAULTS
    )
    runtime = PolicyRuntime(lambda: PairUpLightSystem(env, seed=3))
    ticks = itertools.count()
    service = ControlService(
        env,
        runtime,
        ServeConfig(deadline_ms=50.0, watchdog=False),
        clock=lambda: next(ticks) * 1e-4,
    )
    observations = service.start_episode(seed=11)
    actions, waits = [], []
    for tick in range(DECISIONS):
        if tick == 8:
            service.request_reload(good)
        elif tick == 40:
            service.request_reload(bad)
        decided = service.decide(observations)
        actions.append(decided)
        result = env.step(decided)
        waits.append(result.info["average_wait"])
        if result.done:
            service.health.episodes += 1
            observations = service.start_episode()
        else:
            observations = result.observations
    return env, actions, waits, service.health.report(service.fallbacks.snapshot())


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    donor_env = make_env(build_grid(3, 3), horizon_ticks=HORIZON)
    good, bad = root / "good.npz", root / "bad.npz"
    PairUpLightSystem(donor_env, seed=9).save(good)
    payload = good.read_bytes()
    bad.write_bytes(payload[: len(payload) // 2])
    return good, bad


def test_object_and_soa_serve_identically(checkpoints):
    env_obj, actions_obj, waits_obj, report_obj = _serve("object", *checkpoints)
    env_soa, actions_soa, waits_soa, report_soa = _serve("soa", *checkpoints)
    assert isinstance(env_soa.sim, SoAReplicaView)
    assert not isinstance(env_obj.sim, SoAReplicaView)
    # Detector faults keep both envs on the per-agent reference path.
    assert env_obj._extractor is None and env_soa._extractor is None
    assert actions_soa == actions_obj
    assert waits_soa == waits_obj
    assert report_soa == report_obj
    assert report_soa["episodes"] == 2
    assert report_soa["reloads_applied"] == 1
    assert report_soa["reloads_rejected"] == 1
    assert report_soa["controller_faults"] > 0
    assert report_soa["fallback_ticks"] > 0


def test_soa_is_the_default_engine():
    assert EnvConfig().engine == "soa"


def test_healthy_serve_env_engages_the_extractor():
    """The serving benchmark's 6x6 env, whose detectors are healthy (only
    controller and message faults), finishes steps through the B=1
    extractor over a one-replica SoA engine."""
    scale = ExperimentScale(
        rows=6, cols=6, peak_rate=500.0, t_peak=100.0, light_duration=200.0,
        horizon_ticks=300, max_ticks=14400, train_episodes=1, eval_episodes=1,
    )
    faults = FaultConfig(controller_failure=0.25, message_delay=0.25)
    env = GridExperiment(scale, seed=1000).train_env(1, faults=faults)
    env.reset(seed=1000)
    assert isinstance(env.sim, SoAReplicaView)
    assert env.sim.engine.batch == 1
    assert env._extractor is not None
    result = env.step({a: 0 for a in env.agent_ids})
    assert env._extractor is not None
    assert set(result.observations) == set(env.agent_ids)


@pytest.mark.parametrize("engine", ["soa", "object"])
def test_serve_run_constructs_no_object_engine(engine):
    """A short run shaped like the ``serve_6x6_faults`` benchmark (6x6,
    controller deaths and message delay, one episode boundary crossed)
    builds no reference ``Simulation`` at all; the ``object`` case shows
    the count sees one when the env asks for it."""
    from repro.sim.engine import Simulation

    scale = ExperimentScale(
        rows=6, cols=6, peak_rate=500.0, t_peak=100.0, light_duration=200.0,
        horizon_ticks=50, max_ticks=14400, train_episodes=1, eval_episodes=1,
    )
    faults = FaultConfig(controller_failure=0.25, message_delay=0.25)
    env = GridExperiment(scale, seed=1000).train_env(1, faults=faults)
    env.config.engine = engine
    built = []
    init = Simulation.__init__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulation, "__init__", counted_init)
        runtime = PolicyRuntime(lambda: PairUpLightSystem(env, seed=7))
        service = ControlService(
            env, runtime, ServeConfig(deadline_ms=500.0, watchdog=False)
        )
        observations = service.start_episode(seed=1000)
        episodes = 0
        for _ in range(15):
            result = env.step(service.decide(observations))
            if result.done:
                episodes += 1
                observations = service.start_episode()
            else:
                observations = result.observations
    assert episodes == 1
    assert (len(built) == 0) == (engine == "soa")
