"""Self-tests of the benchmark: metric coverage, checks and tracing.

Run with ``python -m pytest perfbench -q`` from the repository root.
Every workload runs at a tiny size here; the full sizes are only
exercised by ``perfbench/run.py`` itself.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import signal
import time

import numpy as np
import pytest

import run
import tracing
import workloads
from repro.agents.pairuplight import PairUpLightSystem
from repro.eval.batched import evaluate_lockstep, train_lockstep
from repro.eval.batched_obs import BatchedStepExtractor
from repro.eval.harness import GridExperiment
from repro.serve import ControlService
from repro.sim.soa import SoAReplicaView
from workloads import WORKLOADS, Size

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

TINY = {
    "train_6x6_shared_b8": (Size(2, 2, horizon=30, batch=2), 2),
    "rollout_6x6_shared_b8": (Size(2, 2, horizon=30, batch=2), 2),
    "serve_6x6_faults": (Size(2, 2, horizon=30), 12),
}


def tiny(name: str):
    size, units = TINY[name]
    return dataclasses.replace(WORKLOADS[name], size=size), units


def test_spec_names_the_registered_workloads_and_units():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_with_its_unit(name, trace, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload, units = tiny(name)
    result, host = run.run_workload(workload, seed=3, units=units, trace=trace)
    assert json.loads(json.dumps(result)) == result
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["correct"], host["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert tracing.wrapped_boundaries() == []
    if trace:
        assert (tmp_path / ".perfbench" / f"{name}-seed3-spans.json").exists()
        assert result["metrics"]["eval.batched_obs.fallback_steps"]["value"] == 0


def test_untraced_run_installs_no_wrapper():
    seen = []
    workload = dataclasses.replace(
        tiny("rollout_6x6_shared_b8")[0],
        run=lambda rig, units: seen.append(tracing.wrapped_boundaries())
        or workloads.run_lockstep(rig, units, False),
    )
    run.measure(workload, seed=0, units=1, setups=1)
    assert seen == [[]]
    run.measure(workload, seed=0, units=1, tracer=tracing.Tracer(), setups=1)
    assert seen[1] == [name for name, *_ in tracing.BOUNDARIES]
    assert tracing.wrapped_boundaries() == []


def test_host_sampler_probes_evenly_and_leaves_its_probes_out():
    before = signal.getsignal(signal.SIGALRM)
    with workloads.HostSampler(every_s=0.05) as sampler:
        cpu, started = sampler.cpu(), time.process_time()
        while time.process_time() - started < 0.5:
            pass
        busy = sampler.cpu() - cpu
    assert len(sampler.probe_s) >= 4
    # Readable CPU time: an armed CPU-time itimer would round it to ticks.
    assert all(probe > 0 for probe in sampler.probe_s)
    assert busy == pytest.approx(0.5 - sum(sampler.probe_s), abs=0.02)
    assert signal.getsignal(signal.SIGALRM) is before
    with workloads.HostSampler(every_s=10.0) as sampler:
        pass
    assert len(sampler.probe_s) == 1


def test_self_time_subtracts_children_and_other_covers_the_rest():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["rl.ppo.update", 0.0, 10.0, -1],
        ["nn.tensor.backward", 2.0, 5.0, 0],
        ["nn.optim.step", 6.0, 7.0, 0],
        ["sim.soa.step", 11.0, 12.0, -1],
    ]
    table = tracer.layers(wall_s=16.0)
    assert table["rl.ppo.update"]["self_s"] == 6.0
    assert table["nn.tensor.backward"]["self_s"] == 3.0
    assert table["other"]["self_s"] == 5.0
    assert sum(row["self_s"] for row in table.values()) == 16.0


def _fresh_lockstep(size: Size, seed: int):
    experiment = GridExperiment(workloads._scale(size), seed=1000 * seed)
    envs = [experiment.train_env(1) for _ in range(size.batch)]
    agents = [PairUpLightSystem(env, seed=workloads.POLICY_SEED + b)
              for b, env in enumerate(envs)]
    return agents, envs


def test_one_call_per_episode_matches_one_multi_episode_call():
    size = Size(2, 2, horizon=30, batch=2)
    rig = workloads.setup_lockstep(5, size)
    mine = workloads.run_lockstep(rig, 2, training=True)
    agents, envs = _fresh_lockstep(size, 5)
    histories = train_lockstep(agents, envs, 2, rig.seeds, batched_policy=True,
                               shared_across_replicas=True)
    logs = [h.episodes[e] for e in range(2) for h in histories]
    assert mine.waits == [log.avg_wait for log in logs]
    assert mine.failed == 0
    # Same updates, down to the statistics and the parameter bytes.
    assert all(mine.update_stats)
    assert mine.update_stats == [log.update_stats for log in logs]
    theirs, ours = agents[0].state_dict(), rig.agents[0].state_dict()
    assert theirs.keys() == ours.keys()
    assert all(np.array_equal(theirs[k], ours[k]) for k in theirs)

    rig = workloads.setup_lockstep(5, size)
    mine = workloads.run_lockstep(rig, 2, training=False)
    agents, envs = _fresh_lockstep(size, 5)
    results = evaluate_lockstep(agents, envs, 2, rig.seeds, batched_policy=True,
                                shared_across_replicas=True)
    assert [float(np.mean(mine.waits[b::2])) for b in range(2)] == [
        r.average_wait for r in results]
    created = sum(r.total_created for r in results)
    assert mine.counts["vehicles_created"] == created


def _bad_finish(mutate):
    original = BatchedStepExtractor.finish_all

    def finish_all(self, live):
        results = original(self, live)
        mutate(results)
        return results

    return finish_all


def test_nan_wait_fails_one_replica_episode(monkeypatch):
    def mutate(results):
        results[1].info["average_wait"] = float("nan")

    monkeypatch.setattr(BatchedStepExtractor, "finish_all", _bad_finish(mutate))
    rig = workloads.setup_lockstep(0, Size(2, 2, horizon=30, batch=2))
    out = workloads.run_lockstep(rig, 1, training=False)
    assert (out.attempted, out.failed) == (2, 1)
    assert "non-finite average wait" in out.problems[0]


def test_dropped_vehicle_fails_one_replica_episode(monkeypatch):
    created = SoAReplicaView.total_created.fget
    monkeypatch.setattr(SoAReplicaView, "total_created",
                        property(lambda view: created(view) + (view.b == 0)))
    rig = workloads.setup_lockstep(0, Size(2, 2, horizon=30, batch=2))
    out = workloads.run_lockstep(rig, 1, training=True)
    assert (out.attempted, out.failed) == (2, 1)
    assert "replica 0: vehicle conservation" in out.problems[0]


def test_unserved_intersection_fails_its_decisions(monkeypatch):
    original = ControlService.decide

    def decide(self, observations):
        actions = original(self, observations)
        if self.tick_index == 3:
            actions.pop(next(iter(actions)))
        return actions

    monkeypatch.setattr(ControlService, "decide", decide)
    rig = workloads.setup_serve(0, Size(2, 2, horizon=30))
    out = workloads.run_serve(rig, 10)
    assert out.attempted == 4 * 10
    # The dropped intersection on tick 3, then every decision not made.
    assert out.failed == 1 + 4 * 7
    assert "unserved" in out.problems[0]


def test_check_functions_flag_bad_outputs():
    assert workloads.conservation_problem(10, 4, 5, 1) is None
    dropped = workloads.conservation_problem(10, 4, 4, 1)
    assert "conservation" in dropped
    assert workloads.episode_problems(1.0, 2.0, {"policy_loss": 0.1}, None) == []
    assert workloads.episode_problems(1.0, 2.0, {"policy_loss": math.nan}, None)
    assert workloads.episode_problems(1.0, math.inf, {}, None)
    assert workloads.episode_problems(math.nan, 2.0, {}, None)
    assert workloads.episode_problems(1.0, 2.0, {}, dropped) == [dropped]
