"""The episode loops: every training and evaluation run goes through here.

A :class:`LockstepEnvGroup` steps B :class:`TrafficSignalEnv`s together;
with B > 1 they share **one** :class:`repro.sim.soa.SoAEngine` with one
replica per env.  A single env is the B=1 group, which runs the env's own
``reset``/``step`` and so keeps its engine (the reference ``Simulation``
included) and its serial speed.  :func:`train_lockstep` and
:func:`evaluate_lockstep` are the only training and evaluation loops;
``rl.runner`` calls them with one env.

Equivalence contract: each seed's agent, RNG streams, observations,
rewards and episode metrics are identical to its B=1 run — the SoA
engine is lockstep bit-exact with the object engine
(``tests/sim/test_soa_lockstep.py``) and the per-seed agents never
interact, so batching only changes wall-clock.  A replica whose episode
ends early (drain mode) has its metrics captured at its done step and
coasts, unobserved, in the shared engine until the slowest one is done.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import TYPE_CHECKING

import numpy as np

from repro.agents.base import AgentGroup, AgentSystem
from repro.env.tsc_env import StepResult, TrafficSignalEnv, request_actions
from repro.errors import CheckpointError, ConfigError, SimulationError
from repro.perf.timers import TIMERS
from repro.rl.checkpoint import (
    load_training_checkpoint,
    save_training_checkpoint,
)
from repro.rl.runner import (
    EpisodeLog,
    EvaluationResult,
    TrainingHistory,
)
from repro.sim.soa import SoAEngine

if TYPE_CHECKING:  # runtime import is lazy; telemetry is opt-in
    from repro.obs.telemetry import Telemetry


def _phase_counts(env: TrafficSignalEnv) -> dict[str, int]:
    return {node_id: plan.num_phases for node_id, plan in env.phase_plans.items()}


class LockstepEnvGroup:
    """B :class:`TrafficSignalEnv`s stepped together.

    With B > 1 the envs share one batched SoA engine, so all must be
    configured with ``engine="soa"`` and agree on network, phase plans,
    ``delta_t`` and the engine settings; what differs per env is its
    demand seed (and agent).  ``reset_all`` builds a fresh engine with
    one replica per env; ``step_all`` applies every env's actions,
    advances the batch one ``delta_t`` and finishes each env's step
    exactly as ``TrafficSignalEnv.step`` would.  A one-env group calls
    the env's own ``reset`` and ``step``.
    """

    def __init__(self, envs: list[TrafficSignalEnv]) -> None:
        if not envs:
            raise ConfigError("LockstepEnvGroup needs at least one env")
        sharing = envs if len(envs) > 1 else []  # one env keeps its own engine
        for env in sharing:
            if env.config.engine != "soa":
                raise ConfigError(
                    "lockstep envs share one SoA engine, but an env is "
                    f"configured with engine={env.config.engine!r}"
                )
            if (env.config.delta_t, env._engine_options()) != (
                envs[0].config.delta_t, envs[0]._engine_options()
            ):
                raise ConfigError(
                    "lockstep envs must share delta_t/yellow_time/"
                    "saturation_rate/startup_lost_time"
                )
            if _phase_counts(env) != _phase_counts(envs[0]):
                raise ConfigError("lockstep envs must share phase plans")
        self.envs = envs
        #: The shared engine of a B > 1 group (a one-env group leaves it
        #: to the env).
        self.engine: SoAEngine | None = None
        #: Vectorized cross-replica step finisher (see
        #: :mod:`repro.eval.batched_obs`); ``None`` means every step runs
        #: the reference per-env ``_finish_step`` loop.
        self.extractor = None

    def reset_all(self, seeds: list[int | None]) -> list[dict[str, np.ndarray]]:
        """Start a fresh episode in every env, batched in one engine."""
        if len(seeds) != len(self.envs):
            raise ConfigError("need one seed per env")
        if len(self.envs) == 1:
            env = self.envs[0]
            observations = env.reset(seed=seeds[0])
            self.extractor = env._extractor
            return [observations]
        demands = [
            env._fresh_demand(seed) for env, seed in zip(self.envs, seeds)
        ]
        head = self.envs[0]
        self.engine = SoAEngine(
            head.network, demands, head.phase_plans, **head._engine_options()
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
        if len(self.envs) == 1:
            return [None if actions[0] is None else self.envs[0].step(actions[0])]
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


def policy_driver(
    agents: list, group: LockstepEnvGroup, batched_policy=False, shared_across_replicas=False
):
    """The policy driver of ``agents`` over ``group``: one pass per agent,
    or (``batched_policy``) a :class:`BatchedPolicyGroup`."""
    if not batched_policy:
        return AgentGroup(agents, group.envs)
    from repro.agents.pairuplight.batched import BatchedPolicyGroup

    return BatchedPolicyGroup(
        agents, group, shared_across_replicas=shared_across_replicas
    )


def run_episodes(
    group: LockstepEnvGroup, policy, seeds: list[int | None], training: bool
) -> list[tuple[float, float, dict]]:
    """One episode in every env of ``group``, each until its own done.

    Returns ``(avg_wait, total_reward, final_info)`` per env.  Training
    episodes feed every transition to ``policy.observe_all``; the
    end-of-episode update is the caller's.
    """
    B = len(group.envs)
    observations = group.reset_all(seeds)
    policy.begin_episode_all(training)
    wait_samples: list[list[float]] = [[] for _ in range(B)]
    total_rewards = [0.0] * B
    infos: list[dict] = [{} for _ in range(B)]
    live = [True] * B
    while any(live):
        with TIMERS.section("forward"):
            actions = policy.act_all(observations, training, live=live)
        with TIMERS.section("env_step"):
            results = group.step_all(actions)
        if training:
            policy.observe_all(results)
        for b, result in enumerate(results):
            if result is None:
                continue
            observations[b] = result.observations
            wait_samples[b].append(result.info["average_wait"])
            total_rewards[b] += float(sum(result.rewards.values()))
            infos[b] = result.info
            live[b] = not result.done
    return [
        (float(np.mean(waits)) if waits else 0.0, reward, info)
        for waits, reward, info in zip(wait_samples, total_rewards, infos)
    ]


class _Replicas(AgentSystem):
    """Independent learners as one checkpoint subject: learner ``b``'s
    arrays are stored under ``"{b}."`` in one atomic archive."""

    def __init__(self, agents: list) -> None:
        self.agents = agents
        self.name = agents[0].name

    def _checkpoint_modules(self) -> dict:
        return {str(b): agent for b, agent in enumerate(self.agents)}

    def training_state(self) -> dict[str, np.ndarray]:
        return {
            f"{b}.{key}": value
            for b, agent in enumerate(self.agents)
            for key, value in agent.training_state().items()
        }

    def load_training_state(self, state: dict[str, np.ndarray]) -> None:
        for b, agent in enumerate(self.agents):
            prefix = f"{b}."
            agent.load_training_state(
                {k[len(prefix):]: v for k, v in state.items() if k.startswith(prefix)}
            )


def _restore(agent, snapshot: tuple[dict, dict]) -> None:
    """Roll ``agent`` back to a ``(state_dict, training_state)`` snapshot."""
    weights, training = snapshot
    if weights:
        agent.load_state_dict(weights)
    if training:
        agent.load_training_state(training)


def _episode_is_finite(agent, episodes: list[tuple[float, float, dict]]) -> bool:
    """NaN/divergence guard: the episode metrics and update diagnostics
    of every replica ``agent`` learns from, and its resulting weights,
    must all be finite."""
    numbers = [
        value
        for avg_wait, total_reward, stats in episodes
        for value in (avg_wait, total_reward, *stats.values())
        if isinstance(value, (int, float))
    ]
    return bool(np.isfinite(numbers).all()) and all(
        np.isfinite(array).all() for array in agent.state_dict().values()
    )


def _checkpoint_meta(histories: list[TrainingHistory], next_episode: int, seeds) -> dict:
    replicas = [
        {
            "history": [asdict(log) for log in history.episodes],
            "aborted_episodes": history.aborted_episodes,
            "rolled_back_episodes": history.rolled_back_episodes,
        }
        for history in histories
    ]
    return {"next_episode": next_episode, "seeds": list(seeds), "replicas": replicas}


def _resume(path: str, subject, histories: list[TrainingHistory]) -> int:
    """Load a checkpoint into ``subject`` and ``histories``; returns the
    episode to continue from.  A checkpoint without ``"replicas"`` holds
    one env's history at its top level."""
    meta = load_training_checkpoint(path, subject)
    replicas = meta.get("replicas", [meta])
    if len(replicas) != len(histories):
        raise CheckpointError(
            f"checkpoint {path} holds {len(replicas)} replicas, not {len(histories)}"
        )
    for history, saved in zip(histories, replicas):
        history.episodes = [EpisodeLog(**log) for log in saved.get("history", [])]
        history.aborted_episodes = list(saved.get("aborted_episodes", []))
        history.rolled_back_episodes = list(saved.get("rolled_back_episodes", []))
    return int(meta.get("next_episode", len(histories[0].episodes)))


def train_lockstep(
    agents: list,
    envs: list[TrafficSignalEnv],
    episodes: int,
    seeds: list[int],
    batched_policy: bool = False,
    shared_across_replicas: bool = False,
    *,
    log_every: int = 0,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 1,
    resume_from: str | None = None,
    nan_guard: bool = False,
    max_episode_failures: int | None = 0,
    telemetry: "Telemetry | None" = None,
) -> list[TrainingHistory]:
    """Train B (agent, env) pairs in lockstep; the one training loop.

    Pair ``b`` runs episode ``e`` with demand seed ``seeds[b] + e`` until
    its own done, then the agents' ``end_episode`` updates run, so every
    pair trains exactly as it would alone.  ``batched_policy=True``
    drives PairUpLight systems through
    :class:`repro.agents.pairuplight.batched.BatchedPolicyGroup`:
    independent mode is bit-exact with the per-agent path, while
    ``shared_across_replicas=True`` trains the first system (the
    *master*) on all B seeds with one ``(B·M)`` forward per tick and one
    combined PPO update (fixed-horizon envs with one horizon only).

    Crash safety (``rl.runner.train`` turns the guard and containment
    on; here the defaults raise and keep no snapshot):

    * ``checkpoint_dir`` — an atomic checkpoint (weights, optimizer, RNG
      streams, histories) every ``checkpoint_every`` episodes, which
      ``resume_from`` continues bit for bit.  Independent mode saves
      every replica's agent; shared mode the master, whose RNG is the
      only stream it draws.
    * ``nan_guard`` — a learner (each replica's agent, or the master for
      all replicas) whose episode metrics, update diagnostics or weights
      are not finite is rolled back to its last good state, and the
      episode recorded in its replicas' ``rolled_back_episodes``.
    * a ``SimulationError`` aborts the group episode for every replica
      (``aborted_episodes``); after ``max_episode_failures`` of them
      (``None`` = no limit) it propagates.
    * ``telemetry`` (B=1 only: its events carry no replica id) only
      *reads* run state, so an instrumented run is bit-exact.

    ``duration_s`` is the per-seed share (group time / B) of the group
    episode's wall-clock, update included; ``group_duration_s`` is all.
    """
    B = len(envs)
    group = LockstepEnvGroup(envs)
    policy = policy_driver(agents, group, batched_policy, shared_across_replicas)
    horizons = {(env.config.drain, env.config.horizon_ticks) for env in envs}
    if policy.shared and horizons != {(False, envs[0].config.horizon_ticks)}:
        raise ConfigError(
            "shared_across_replicas training needs fixed-horizon envs "
            "(drain=False) with one horizon_ticks"
        )
    if telemetry is not None:
        if B != 1:
            raise ConfigError("telemetry records one env's run; B must be 1")
        envs[0].attach_telemetry(telemetry)
        agents[0].attach_telemetry(telemetry)
    # Each learner's update, rollback and checkpoint entry cover exactly
    # the replicas it owns.
    learners = [policy.master] if policy.shared else list(agents)
    owners = [range(B)] if policy.shared else [[b] for b in range(B)]
    subject = learners[0] if len(learners) == 1 else _Replicas(learners)
    histories = [TrainingHistory(agent_name=agent.name) for agent in agents]
    start_episode = 0
    if resume_from is not None:
        start_episode = _resume(resume_from, subject, histories)
    snapshots = [(l.state_dict(), l.training_state()) for l in learners if nan_guard]
    failures = 0
    for episode in range(start_episode, episodes):
        started = time.perf_counter()
        if telemetry is not None:
            telemetry.episode_begin(episode, seeds[0] + episode)
        try:
            outcomes = run_episodes(group, policy, [s + episode for s in seeds], True)
            with TIMERS.section("update"):
                stats = policy.end_episode_all(True)
        except SimulationError as error:
            failures += 1
            for history in histories:
                history.aborted_episodes.append(episode)
            if telemetry is not None:
                telemetry.episode_aborted(episode, str(error))
            if max_episode_failures is not None and failures > max_episode_failures:
                raise
            if log_every:
                print(f"[{agents[0].name}] episode {episode + 1} aborted: {error}")
            continue
        duration = time.perf_counter() - started
        rolled_back: set[int] = set()
        for l, snapshot in enumerate(snapshots):
            learner, owned = learners[l], owners[l]
            if _episode_is_finite(learner, [(*outcomes[b][:2], stats[b]) for b in owned]):
                snapshots[l] = (learner.state_dict(), learner.training_state())
            else:
                _restore(learner, snapshot)
                rolled_back.update(owned)
        for b, history in enumerate(histories):
            avg_wait, total_reward, _ = outcomes[b]
            label = agents[b].name if B == 1 else f"{agents[b].name}/{b}"
            if b in rolled_back:
                history.rolled_back_episodes.append(episode)
                if telemetry is not None:
                    telemetry.nan_rollback(episode)
                if log_every:
                    print(f"[{label}] episode {episode + 1} diverged; "
                          "rolled back to last good state")
                continue
            history.episodes.append(
                EpisodeLog(episode, avg_wait, total_reward, duration / B, stats[b], duration)
            )
            if telemetry is not None:
                telemetry.episode_end(episode, avg_wait, total_reward, duration)
                telemetry.update_stats(episode, stats[b])
            if log_every and (episode + 1) % log_every == 0:
                print(f"[{label}] episode {episode + 1}/{episodes} "
                      f"avg_wait={avg_wait:.2f}s reward={total_reward:.1f}")
        if checkpoint_dir is not None and (
            (episode + 1) % max(1, checkpoint_every) == 0 or episode == episodes - 1
        ):
            meta = _checkpoint_meta(histories, episode + 1, seeds)
            save_training_checkpoint(checkpoint_dir, subject, meta)
            if telemetry is not None:
                telemetry.checkpoint_written(episode + 1, checkpoint_dir)
    return histories


def evaluate_lockstep(
    agents: list,
    envs: list[TrafficSignalEnv],
    episodes: int,
    seeds: list[int],
    batched_policy: bool = False,
    shared_across_replicas: bool = False,
) -> list[EvaluationResult]:
    """Evaluate B (agent, env) pairs in lockstep; the one evaluation loop.

    Greedy policies (``batched_policy``/``shared_across_replicas`` as in
    :func:`train_lockstep`), one travel-time sample per episode (envs
    should be in drain mode).  An episode with no finished vehicles has
    no sample: it is counted in ``invalid_episodes`` and left out of the
    mean instead of poisoning it with NaN.
    """
    group = LockstepEnvGroup(envs)
    policy = policy_driver(agents, group, batched_policy, shared_across_replicas)
    runs: list[list[tuple[float, float, dict]]] = [[] for _ in envs]
    for episode in range(episodes):
        outcomes = run_episodes(group, policy, [s + episode for s in seeds], False)
        policy.end_episode_all(False)
        for run, outcome in zip(runs, outcomes):
            run.append(outcome)
    out = []
    for agent, run in zip(agents, runs):
        infos = [info for _, _, info in run]
        samples = np.asarray(
            [info.get("average_travel_time", np.nan) for info in infos], dtype=np.float64
        )
        invalid = int(np.count_nonzero(np.isnan(samples)))
        out.append(
            EvaluationResult(
                agent_name=agent.name,
                average_travel_time=(
                    float(np.nanmean(samples)) if invalid < len(samples) else float("nan")
                ),
                average_wait=float(np.mean([avg_wait for avg_wait, _, _ in run])),
                finished_vehicles=sum(info.get("finished_vehicles", 0) for info in infos),
                total_created=sum(info.get("total_created", 0) for info in infos),
                episodes=episodes,
                invalid_episodes=invalid,
            )
        )
    return out
