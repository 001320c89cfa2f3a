"""Training and evaluation of one agent system on one env.

The experiment protocols of Section VI: :func:`train` runs N training
episodes and records each one's average waiting time (the y-axis of
Figs. 7, 8 and 10); :func:`evaluate` runs drain-mode episodes with
greedy policies and reports average travel time (Tables II / III).

Both are one-env (B=1) calls into the episode loops of
:mod:`repro.eval.batched`, which every B shares.  :func:`train` is
**crash-safe** there: atomic checkpoints with bit-exact resume, a NaN
guard that rolls a poisoned update back, and ``SimulationError``
containment that aborts only the offending episode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.agents.base import AgentSystem
from repro.env.tsc_env import TrafficSignalEnv

if TYPE_CHECKING:  # runtime import is lazy; telemetry is opt-in
    from repro.obs.telemetry import Telemetry


@dataclass
class EpisodeLog:
    """Diagnostics of one training episode."""

    episode: int
    avg_wait: float
    total_reward: float
    duration_s: float
    update_stats: dict = field(default_factory=dict)
    #: Wall-clock of the whole lockstep *group* episode (B seeds sharing
    #: one engine), update included.  ``duration_s`` is the amortized
    #: per-seed share (group time / B), keeping per-seed throughput
    #: comparisons honest; at B=1 the two are equal.
    group_duration_s: float = 0.0


@dataclass
class TrainingHistory:
    """Complete record of a training run."""

    agent_name: str
    episodes: list[EpisodeLog] = field(default_factory=list)
    #: Episodes whose simulation raised ``SimulationError`` and was contained.
    aborted_episodes: list[int] = field(default_factory=list)
    #: Episodes whose update was non-finite and rolled back by the guard.
    rolled_back_episodes: list[int] = field(default_factory=list)

    @property
    def wait_curve(self) -> np.ndarray:
        """Per-episode average waiting time (Fig. 7/8/10 series)."""
        return np.asarray([log.avg_wait for log in self.episodes])

    @property
    def reward_curve(self) -> np.ndarray:
        return np.asarray([log.total_reward for log in self.episodes])

    def best_episode(self) -> EpisodeLog:
        return min(self.episodes, key=lambda log: log.avg_wait)

    def smoothed_wait_curve(self, window: int = 10) -> np.ndarray:
        """Moving average of the wait curve (how the figures are drawn)."""
        curve = self.wait_curve
        if window <= 1 or len(curve) < 2:
            return curve
        kernel = np.ones(min(window, len(curve))) / min(window, len(curve))
        return np.convolve(curve, kernel, mode="valid")


def run_episode(
    agent: AgentSystem,
    env: TrafficSignalEnv,
    training: bool,
    seed: int | None = None,
) -> tuple[float, float, dict]:
    """Run one full episode; returns (avg_wait, total_reward, final_info)."""
    from repro.eval.batched import LockstepEnvGroup, policy_driver, run_episodes

    group = LockstepEnvGroup([env])
    return run_episodes(group, policy_driver([agent], group), [seed], training)[0]


def train(
    agent: AgentSystem,
    env: TrafficSignalEnv,
    episodes: int,
    seed: int = 0,
    log_every: int = 0,
    *,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 1,
    resume_from: str | None = None,
    nan_guard: bool = True,
    max_episode_failures: int | None = None,
    telemetry: "Telemetry | None" = None,
) -> TrainingHistory:
    """Train ``agent`` for ``episodes`` episodes on ``env``: the one-env
    :func:`repro.eval.batched.train_lockstep` run, with the NaN guard and
    ``SimulationError`` containment on by default.  See there for the
    checkpoint, resume, guard, containment and telemetry options."""
    from repro.eval.batched import train_lockstep

    return train_lockstep(
        [agent], [env], episodes, [seed], log_every=log_every,
        checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
        resume_from=resume_from, nan_guard=nan_guard,
        max_episode_failures=max_episode_failures, telemetry=telemetry,
    )[0]


def train_with_eval(
    agent: AgentSystem,
    train_env: TrafficSignalEnv,
    eval_env: TrafficSignalEnv,
    episodes: int,
    eval_every: int,
    seed: int = 0,
    eval_episodes: int = 1,
) -> tuple[TrainingHistory, list[tuple[int, "EvaluationResult"]]]:
    """Train with periodic drain-mode evaluations.

    Every ``eval_every`` episodes (and once more at the end) the agent is
    frozen and evaluated greedily on ``eval_env``, to show
    *generalisation* progress, not just the training curve.  Returns
    ``(history, [(episode, evaluation), ...])``.
    """
    from repro.eval.batched import train_lockstep

    if eval_every <= 0:
        raise ValueError("eval_every must be positive")
    history = TrainingHistory(agent_name=agent.name)
    checkpoints: list[tuple[int, EvaluationResult]] = []
    for start in range(0, episodes, eval_every):
        stop = min(start + eval_every, episodes)
        stretch = train_lockstep([agent], [train_env], stop - start, [seed + start])[0]
        for log in stretch.episodes:
            log.episode += start
        history.episodes += stretch.episodes
        result = evaluate(agent, eval_env, episodes=eval_episodes, seed=seed + 10_000)
        checkpoints.append((stop - 1, result))
    return history, checkpoints


@dataclass
class EvaluationResult:
    """Outcome of a drain-mode evaluation run."""

    agent_name: str
    average_travel_time: float
    average_wait: float
    finished_vehicles: int
    total_created: int
    episodes: int
    #: Episodes that produced no travel-time sample (e.g. a drain-mode
    #: episode where no vehicle finished); excluded from the mean.
    invalid_episodes: int = 0

    @property
    def completion_rate(self) -> float:
        if self.total_created == 0:
            return 1.0
        return self.finished_vehicles / self.total_created


def evaluate(
    agent: AgentSystem,
    env: TrafficSignalEnv,
    episodes: int = 1,
    seed: int = 10_000,
) -> EvaluationResult:
    """Evaluate with greedy policies; env should be in drain mode.  The
    one-env :func:`repro.eval.batched.evaluate_lockstep` run."""
    from repro.eval.batched import evaluate_lockstep

    return evaluate_lockstep([agent], [env], episodes, [seed])[0]
