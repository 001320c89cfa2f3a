"""Multi-seed experiment aggregation.

RL training curves are noisy; the paper's Fig. 7 shades variance across
runs.  This module repeats train/evaluate pipelines over several seeds
and reports mean +- std for both the training curves and the final
evaluation metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.agents.base import AgentSystem
from repro.env.tsc_env import TrafficSignalEnv
from repro.errors import ConfigError
from repro.eval.harness import ExperimentScale, make_experiment

SeededAgentFactory = Callable[[TrafficSignalEnv, int], AgentSystem]
"""Builds an agent bound to the environment, seeded per run."""


@dataclass
class SeedRun:
    """One seed's outcome."""

    seed: int
    wait_curve: np.ndarray
    eval_travel_time: float
    completion_rate: float


@dataclass
class MultiSeedResult:
    """Aggregate over seeds for one model / pattern combination."""

    model: str
    pattern: int
    runs: list[SeedRun] = field(default_factory=list)

    @property
    def curve_mean(self) -> np.ndarray:
        return np.mean([run.wait_curve for run in self.runs], axis=0)

    @property
    def curve_std(self) -> np.ndarray:
        return np.std([run.wait_curve for run in self.runs], axis=0)

    @property
    def travel_time_mean(self) -> float:
        return float(np.mean([run.eval_travel_time for run in self.runs]))

    @property
    def travel_time_std(self) -> float:
        return float(np.std([run.eval_travel_time for run in self.runs]))

    @property
    def completion_mean(self) -> float:
        return float(np.mean([run.completion_rate for run in self.runs]))

    def summary(self) -> str:
        return (
            f"{self.model} on pattern {self.pattern} over {len(self.runs)} seeds: "
            f"travel time {self.travel_time_mean:.1f} +- {self.travel_time_std:.1f} s, "
            f"completion {self.completion_mean:.0%}"
        )


def run_multiseed(
    scale: ExperimentScale,
    factory: SeededAgentFactory,
    model_name: str,
    seeds: list[int],
    train_pattern: int = 1,
    eval_pattern: int | None = None,
    workers: int = 0,
    timeout_s: float | None = None,
    telemetry=None,
    engine: str = "object",
    scenario=None,
    batched_policy: bool = False,
    shared_across_replicas: bool = False,
) -> MultiSeedResult:
    """Train/evaluate the same configuration under several seeds.

    ``factory(env, seed)`` builds a fresh agent per run; per-seed
    variation covers network init, exploration noise, and demand
    randomisation (via the experiment seed).

    ``workers > 1`` distributes seeds over forked worker processes.
    Each seed's run is fully self-contained (its own experiment, env,
    agent and RNG streams), so the result is identical to the serial
    run for any worker count — only wall-clock changes.  ``timeout_s``
    bounds the parallel phase: a hung worker is terminated and surfaced
    as a :class:`repro.errors.SimulationError` naming its seeds instead
    of blocking the sweep forever.

    ``engine`` picks how seeds share engines, not which simulator runs
    them.  The default (``"object"``, a historical name) gives every seed
    its own env, run serially or in forked workers; each env steps its
    own one-replica SoA engine, ``EnvConfig``'s default.
    ``engine="soa"`` instead routes all seeds through one batched
    structure-of-arrays engine in this process (one replica per seed,
    see :mod:`repro.eval.batched`); results are bit-identical to the
    per-seed path.  ``workers`` is ignored in that mode.

    ``telemetry`` (a :class:`repro.obs.telemetry.Telemetry`) records one
    ``multiseed_seed`` event per run plus aggregate gauges.  Events are
    emitted *after* the runs complete, in the parent process, so the
    sink composes with forked workers and cannot perturb any run.

    ``scenario`` (anything :func:`repro.scenarios.resolve_scenario`
    accepts) replaces the pattern-based grid experiment with a
    scenario-spec experiment; ``train_pattern``/``eval_pattern`` are
    then ignored for demand (the spec defines it) but still label the
    result.

    ``batched_policy`` (``engine="soa"`` only) additionally batches the
    *policy* side: all seeds' PairUpLight systems act through one
    :class:`repro.agents.pairuplight.batched.BatchedPolicyGroup` per
    tick.  Default (independent) mode stays bit-exact with the serial
    path; ``shared_across_replicas`` trains one shared policy on all
    seeds.  Incompatible agent types raise :class:`ConfigError`.
    """
    from repro.perf.parallel import parallel_map

    if not seeds:
        raise ConfigError("need at least one seed")
    if engine not in ("object", "soa"):
        raise ConfigError(f"engine must be 'object' or 'soa', got {engine!r}")
    if batched_policy and engine != "soa":
        raise ConfigError("batched_policy requires engine='soa'")
    if scenario is not None:
        # Resolve once so every seed shares one compiled network and a
        # file/zoo reference is not re-read per seed.
        from repro.scenarios.spec import resolve_scenario

        scenario = resolve_scenario(scenario)
    eval_pattern = train_pattern if eval_pattern is None else eval_pattern
    result = MultiSeedResult(model=model_name, pattern=eval_pattern)

    if engine == "soa":
        result.runs.extend(
            _run_seeds_batched(
                scale,
                factory,
                seeds,
                train_pattern,
                eval_pattern,
                scenario,
                batched_policy=batched_policy,
                shared_across_replicas=shared_across_replicas,
            )
        )
        _emit_telemetry(result, telemetry, model_name, eval_pattern)
        return result

    def run_one_seed(seed: int) -> SeedRun:
        return _run_seeds_batched(
            scale, factory, [seed], train_pattern, eval_pattern, scenario
        )[0]

    result.runs.extend(
        parallel_map(run_one_seed, seeds, workers=workers, timeout_s=timeout_s)
    )
    _emit_telemetry(result, telemetry, model_name, eval_pattern)
    return result


def _run_seeds_batched(
    scale: ExperimentScale,
    factory: SeededAgentFactory,
    seeds: list[int],
    train_pattern: int,
    eval_pattern: int,
    scenario=None,
    batched_policy: bool = False,
    shared_across_replicas: bool = False,
) -> list[SeedRun]:
    """All ``seeds`` in one process, in lockstep over one batched SoA
    engine (one replica per seed); a single seed is the per-seed run.

    Each seed gets its own experiment, envs and agent; its episode seeds,
    NaN guard and ``SimulationError`` containment are the serial
    runner's, so the results do not depend on how seeds are grouped.
    """
    from repro.eval.batched import evaluate_lockstep, train_lockstep

    experiments = [
        make_experiment(scale, seed=seed, scenario=scenario) for seed in seeds
    ]
    train_envs = [exp.train_env(train_pattern) for exp in experiments]
    agents = [
        factory(env, seed) for env, seed in zip(train_envs, seeds)
    ]
    histories = train_lockstep(
        agents,
        train_envs,
        scale.train_episodes,
        seeds,
        batched_policy=batched_policy,
        shared_across_replicas=shared_across_replicas,
        nan_guard=True,
        max_episode_failures=None,
    )
    eval_envs = [exp.eval_env(eval_pattern) for exp in experiments]
    evaluations = evaluate_lockstep(
        agents,
        eval_envs,
        scale.eval_episodes,
        [seed + 900 for seed in seeds],
        batched_policy=batched_policy,
        shared_across_replicas=shared_across_replicas,
    )
    return [
        SeedRun(
            seed=seed,
            wait_curve=history.wait_curve,
            eval_travel_time=evaluation.average_travel_time,
            completion_rate=evaluation.completion_rate,
        )
        for seed, history, evaluation in zip(seeds, histories, evaluations)
    ]


def _emit_telemetry(
    result: MultiSeedResult, telemetry, model_name: str, eval_pattern: int
) -> None:
    if telemetry is None:
        return
    for run in result.runs:
        telemetry.events.emit(
            "multiseed_seed",
            model=model_name,
            pattern=eval_pattern,
            seed=run.seed,
            eval_travel_time=float(run.eval_travel_time),
            completion_rate=float(run.completion_rate),
            episodes=int(run.wait_curve.size),
        )
        telemetry.metrics.observe(
            "multiseed.eval_travel_time", run.eval_travel_time
        )
    telemetry.metrics.gauge("multiseed.travel_time_mean", result.travel_time_mean)
    telemetry.metrics.gauge("multiseed.travel_time_std", result.travel_time_std)
    telemetry.metrics.count("multiseed.runs", len(result.runs))
