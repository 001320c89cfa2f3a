"""Single-process batched multiseed runs over one SoA engine.

``run_multiseed(..., engine="soa")`` used to have exactly two speed
options: serial seeds, or fork-parallel workers (``perf/parallel.py``).
This module adds the third: all B seeds' environments share **one**
:class:`repro.sim.soa.SoAEngine` whose batch axis holds one replica per
seed, and every env advances in lockstep inside a single process.

Equivalence contract: each seed's agent, RNG streams, observations,
rewards, and episode metrics are identical to the serial run — the SoA
engine is lockstep bit-exact with the object engine (see
``tests/sim/test_soa_lockstep.py``) and the per-seed agents never
interact, so batching only changes wall-clock.  Drain-mode evaluation
episodes can end at different ticks per replica; a finished replica's
metrics are captured at its done step and the shared engine simply keeps
stepping its (no longer observed) replica until the slowest one drains.
"""

from __future__ import annotations

import time

import numpy as np

from repro.env.tsc_env import StepResult, TrafficSignalEnv, request_actions
from repro.errors import ConfigError
from repro.perf.timers import TIMERS
from repro.rl.runner import (
    EpisodeLog,
    EvaluationResult,
    TrainingHistory,
)
from repro.sim.soa import SoAEngine


def _phase_counts(env: TrafficSignalEnv) -> dict[str, int]:
    return {node_id: plan.num_phases for node_id, plan in env.phase_plans.items()}


class LockstepEnvGroup:
    """B :class:`TrafficSignalEnv`s over one shared batched SoA engine.

    All member envs must agree on network structure, phase plans, and the
    engine-relevant config fields (``delta_t``, ``yellow_time``,
    ``saturation_rate``, ``startup_lost_time``); what differs per env is
    its demand seed (and agent).  ``reset_all`` builds a fresh engine
    with one replica per env; ``step_all`` applies every env's actions,
    advances the whole batch one ``delta_t``, and finishes each env's
    step exactly as ``TrafficSignalEnv.step`` would.
    """

    def __init__(self, envs: list[TrafficSignalEnv]) -> None:
        if not envs:
            raise ConfigError("LockstepEnvGroup needs at least one env")
        head = envs[0].config
        for env in envs[1:]:
            cfg = env.config
            if (
                cfg.delta_t != head.delta_t
                or cfg.yellow_time != head.yellow_time
                or cfg.saturation_rate != head.saturation_rate
                or cfg.startup_lost_time != head.startup_lost_time
            ):
                raise ConfigError(
                    "lockstep envs must share delta_t/yellow_time/"
                    "saturation_rate/startup_lost_time"
                )
            if _phase_counts(env) != _phase_counts(envs[0]):
                raise ConfigError("lockstep envs must share phase plans")
        self.envs = envs
        self.engine: SoAEngine | None = None
        #: Vectorized cross-replica step finisher (see
        #: :mod:`repro.eval.batched_obs`); ``None`` means every step runs
        #: the reference per-env ``_finish_step`` loop.
        self.extractor = None

    def reset_all(self, seeds: list[int]) -> list[dict[str, np.ndarray]]:
        """Start a fresh episode in every env, batched in one engine."""
        if len(seeds) != len(self.envs):
            raise ConfigError("need one seed per env")
        demands = [
            env._fresh_demand(seed) for env, seed in zip(self.envs, seeds)
        ]
        head = self.envs[0]
        self.engine = SoAEngine(
            head.network,
            demands,
            head.phase_plans,
            yellow_time=head.config.yellow_time,
            saturation_rate=head.config.saturation_rate,
            startup_lost_time=head.config.startup_lost_time,
        )
        for b, (env, seed) in enumerate(zip(self.envs, seeds)):
            env._episode_count += 1
            env._adopt_sim(self.engine.view(b), seed)
        # Detector suites were rebuilt by _adopt_sim, so the extractor is
        # rebuilt too; ineligible configurations (fault-injecting
        # detectors, heterogeneous layouts) get None and fall back to the
        # bit-identical per-env path.
        from repro.eval.batched_obs import BatchedStepExtractor

        self.extractor = BatchedStepExtractor.maybe_build(self.envs, self.engine)
        if self.extractor is not None:
            return self.extractor.observe()
        return [env._observe_all() for env in self.envs]

    def step_all(
        self, actions: list[dict[str, int] | None]
    ) -> list[StepResult | None]:
        """One lockstep decision interval for the whole group.

        ``actions[b] is None`` marks env ``b`` as already done (drain
        mode): no phases are requested for it and no result is built —
        its replica still advances with the batch, unobserved.
        """
        if self.engine is None:
            raise ConfigError("call reset_all() before step_all()")
        with TIMERS.section("env_step/apply"):
            request_actions(self.engine, self.envs, actions)
        with TIMERS.section("env_step/engine"):
            self.engine.step(self.envs[0].config.delta_t)
        with TIMERS.section("env_step/extract"):
            if self.extractor is not None:
                return self.extractor.finish_all(
                    [acts is not None for acts in actions]
                )
            return [
                env._finish_step() if acts is not None else None
                for env, acts in zip(self.envs, actions)
            ]

def train_lockstep(
    agents: list,
    envs: list[TrafficSignalEnv],
    episodes: int,
    seeds: list[int],
    batched_policy: bool = False,
    shared_across_replicas: bool = False,
) -> list[TrainingHistory]:
    """Train B (agent, env) pairs batched over one engine.

    Mirrors ``rl.runner.train``'s core loop (fixed-horizon episodes,
    per-episode ``end_episode`` updates) for every pair at once; seed
    ``b`` runs episode ``e`` with episode seed ``seeds[b] + e``, exactly
    like the serial runner.

    ``batched_policy=True`` drives the group through
    :class:`repro.agents.pairuplight.batched.BatchedPolicyGroup`
    (PairUpLight systems only; raises :class:`ConfigError` otherwise).
    The default independent mode is bit-exact with the per-agent path;
    ``shared_across_replicas=True`` instead trains the first system's
    parameters on all B seeds with one ``(B·M)`` forward per tick and one
    combined PPO update.

    Timing: ``duration_s`` is the per-seed share of the group's
    wall-clock (group time / B, the amortized per-seed cost comparable
    against serial histories); the whole-group wall-clock is recorded
    once per seed in ``group_duration_s``.
    """
    group = LockstepEnvGroup(envs)
    policy = None
    if batched_policy:
        from repro.agents.pairuplight.batched import BatchedPolicyGroup

        policy = BatchedPolicyGroup(
            agents, group, shared_across_replicas=shared_across_replicas
        )
    histories = [TrainingHistory(agent_name=agent.name) for agent in agents]
    for episode in range(episodes):
        started = time.perf_counter()
        observations = group.reset_all([seed + episode for seed in seeds])
        if policy is not None:
            policy.begin_episode_all(True)
        else:
            for agent, env in zip(agents, envs):
                agent.begin_episode(env, True)
        wait_samples: list[list[float]] = [[] for _ in envs]
        total_rewards = [0.0] * len(envs)
        done = False
        while not done:
            with TIMERS.section("forward"):
                if policy is not None:
                    actions = policy.act_all(observations, True)
                else:
                    actions = [
                        agent.act(obs, env, True)
                        for agent, env, obs in zip(agents, envs, observations)
                    ]
            with TIMERS.section("env_step"):
                results = group.step_all(actions)
            if policy is not None:
                policy.observe_all(results)
            for b, result in enumerate(results):
                if policy is None:
                    agents[b].observe(result, envs[b])
                observations[b] = result.observations
                wait_samples[b].append(result.info["average_wait"])
                total_rewards[b] += float(sum(result.rewards.values()))
            # drain=False: every env shares the horizon, so dones agree.
            done = results[0].done
        duration = time.perf_counter() - started
        with TIMERS.section("update"):
            if policy is not None:
                stats_list = policy.end_episode_all(True)
            else:
                stats_list = [
                    agent.end_episode(env, training=True)
                    for agent, env in zip(agents, envs)
                ]
        for b in range(len(envs)):
            histories[b].episodes.append(
                EpisodeLog(
                    episode=episode,
                    avg_wait=float(np.mean(wait_samples[b]))
                    if wait_samples[b]
                    else 0.0,
                    total_reward=total_rewards[b],
                    duration_s=duration / len(envs),
                    update_stats=stats_list[b],
                    group_duration_s=duration,
                )
            )
    return histories


def evaluate_lockstep(
    agents: list,
    envs: list[TrafficSignalEnv],
    episodes: int,
    seeds: list[int],
    batched_policy: bool = False,
    shared_across_replicas: bool = False,
) -> list[EvaluationResult]:
    """Evaluate B (agent, env) pairs batched; envs may be drain-mode.

    Mirrors ``rl.runner.evaluate`` per pair: greedy policies, one
    travel-time sample per episode, NaN-excluded aggregation.  A replica
    that drains early has its final info captured at its done step and
    then coasts inside the shared engine until the batch finishes.

    ``batched_policy``/``shared_across_replicas`` select the same policy
    drivers as :func:`train_lockstep`.
    """
    group = LockstepEnvGroup(envs)
    policy = None
    if batched_policy:
        from repro.agents.pairuplight.batched import BatchedPolicyGroup

        policy = BatchedPolicyGroup(
            agents, group, shared_across_replicas=shared_across_replicas
        )
    B = len(envs)
    travel_times: list[list[float]] = [[] for _ in range(B)]
    waits: list[list[float]] = [[] for _ in range(B)]
    finished = [0] * B
    created = [0] * B
    for episode in range(episodes):
        observations = group.reset_all([seed + episode for seed in seeds])
        if policy is not None:
            policy.begin_episode_all(False)
        else:
            for agent, env in zip(agents, envs):
                agent.begin_episode(env, False)
        wait_samples: list[list[float]] = [[] for _ in range(B)]
        infos: list[dict] = [{} for _ in range(B)]
        live = [True] * B
        while any(live):
            with TIMERS.section("forward"):
                if policy is not None:
                    actions = policy.act_all(observations, False, live=live)
                else:
                    actions = [
                        agents[b].act(observations[b], envs[b], False)
                        if live[b]
                        else None
                        for b in range(B)
                    ]
            with TIMERS.section("env_step"):
                results = group.step_all(actions)
            for b in range(B):
                result = results[b]
                if result is None:
                    continue
                observations[b] = result.observations
                wait_samples[b].append(result.info["average_wait"])
                infos[b] = result.info
                if result.done:
                    live[b] = False
        if policy is not None:
            policy.end_episode_all(False)
        else:
            for b in range(B):
                agents[b].end_episode(envs[b], training=False)
        for b in range(B):
            travel_times[b].append(
                infos[b].get("average_travel_time", float("nan"))
            )
            waits[b].append(
                float(np.mean(wait_samples[b])) if wait_samples[b] else 0.0
            )
            finished[b] += infos[b].get("finished_vehicles", 0)
            created[b] += infos[b].get("total_created", 0)
    out = []
    for b in range(B):
        samples = np.asarray(travel_times[b], dtype=np.float64)
        invalid = int(np.count_nonzero(np.isnan(samples)))
        average_tt = (
            float(np.nanmean(samples)) if invalid < len(samples) else float("nan")
        )
        out.append(
            EvaluationResult(
                agent_name=agents[b].name,
                average_travel_time=average_tt,
                average_wait=float(np.mean(waits[b])),
                finished_vehicles=finished[b],
                total_created=created[b],
                episodes=episodes,
                invalid_episodes=invalid,
            )
        )
    return out
