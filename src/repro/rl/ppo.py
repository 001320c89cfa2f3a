"""Proximal Policy Optimization with a clipped surrogate objective.

This implements the paper's backbone update (Section III-B2, Eq. 4, and
Algorithm 1 lines 26-29): K epochs of minibatched clipped-surrogate
policy updates plus value regression against GAE reward-to-go targets,
with an entropy bonus for exploration.

Because the actor and critic are recurrent (LSTM) and hidden states start
at zero each episode, the minibatch unit is an *agent sequence*: a
minibatch selects a subset of agents and re-runs their full episode
forward pass.  The concrete forward pass lives in the agent
(``PairUpLightSystem``, whose no-communication, local-critic preset is
SingleAgentRL) and is supplied as an ``evaluate`` callable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.nn.module import Parameter
from repro.nn.optim import Optimizer, clip_grad_norm
from repro.nn.tensor import Tensor
from repro.perf.timers import TIMERS


def _mean(values: list[float]) -> float:
    """Mean of minibatch diagnostics; 0.0 when no minibatch ran.

    ``cfg.epochs`` mutated to 0 after construction, or a ``target_kl``
    stop before the first minibatch, leaves the lists empty — ``np.mean``
    would emit a RuntimeWarning and return NaN.
    """
    if not values:
        return 0.0
    return float(np.mean(values))


@dataclass
class PPOConfig:
    """Hyperparameters of the PPO update."""

    clip_eps: float = 0.2
    epochs: int = 4
    minibatch_agents: int = 8
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    max_grad_norm: float = 0.5
    gamma: float = 0.95
    lam: float = 0.95
    target_kl: float | None = 0.05
    normalize_advantages: bool = True
    #: Optional PPO2-style value clipping: the value loss is the max of
    #: the unclipped error and the error of a prediction clipped to within
    #: ``value_clip_eps`` of the rollout-time value estimate.  ``None``
    #: disables clipping (plain MSE, the default).
    value_clip_eps: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.clip_eps < 1.0:
            raise ConfigError("clip_eps must lie in (0, 1)")
        if self.epochs <= 0 or self.minibatch_agents <= 0:
            raise ConfigError("epochs and minibatch_agents must be positive")
        if self.value_clip_eps is not None and self.value_clip_eps <= 0:
            raise ConfigError("value_clip_eps must be positive when set")


EvaluateFn = Callable[[np.ndarray], tuple[Tensor, Tensor, Tensor]]
"""Re-evaluates a minibatch of agent sequences.

Given an array of agent indices, returns ``(new_logprobs, entropies,
values)``, each a Tensor of shape ``(T, M)`` where ``M`` is the number of
selected agents.
"""


@dataclass
class PPOStats:
    """Diagnostics of one :meth:`PPOUpdater.update` call."""

    policy_loss: float
    value_loss: float
    entropy: float
    approx_kl: float
    clip_fraction: float
    epochs_run: int


class PPOUpdater:
    """Runs the clipped-surrogate update over stored rollouts."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        optimizers: Sequence[Optimizer],
        config: PPOConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.parameters = list(parameters)
        self.optimizers = list(optimizers)
        if not self.optimizers:
            raise ConfigError("PPO needs at least one optimizer")
        self.config = config or PPOConfig()
        self._rng = rng or np.random.default_rng(0)

    def update(
        self,
        evaluate: EvaluateFn,
        old_logprobs: np.ndarray,
        advantages: np.ndarray,
        returns: np.ndarray,
        old_values: np.ndarray | None = None,
    ) -> PPOStats:
        """Run K epochs of minibatched PPO.

        ``old_logprobs`` / ``advantages`` / ``returns`` are ``(T, N)``
        arrays over the episode steps and the N agents.  ``old_values``
        (same shape) is required when ``value_clip_eps`` is configured.
        """
        cfg = self.config
        old_logprobs = np.asarray(old_logprobs, dtype=np.float64)
        advantages = np.asarray(advantages, dtype=np.float64)
        returns = np.asarray(returns, dtype=np.float64)
        if old_logprobs.shape != advantages.shape or advantages.shape != returns.shape:
            raise ConfigError("old_logprobs / advantages / returns shapes differ")
        if cfg.value_clip_eps is not None:
            if old_values is None:
                raise ConfigError("value_clip_eps requires old_values")
            old_values = np.asarray(old_values, dtype=np.float64)
            if old_values.shape != returns.shape:
                raise ConfigError("old_values shape mismatch")
        num_agents = old_logprobs.shape[1]
        if cfg.normalize_advantages:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

        policy_losses: list[float] = []
        value_losses: list[float] = []
        entropies: list[float] = []
        kls: list[float] = []
        clip_fracs: list[float] = []
        epochs_run = 0
        stop = False
        for _ in range(cfg.epochs):
            if stop:
                break
            epochs_run += 1
            order = self._rng.permutation(num_agents)
            with TIMERS.section("update/epoch"):
                for start in range(0, num_agents, cfg.minibatch_agents):
                    batch = order[start : start + cfg.minibatch_agents]
                    stop = self._minibatch_step(
                        evaluate,
                        batch,
                        old_logprobs,
                        advantages,
                        returns,
                        old_values,
                        policy_losses,
                        value_losses,
                        entropies,
                        kls,
                        clip_fracs,
                    )
                    if stop:
                        break
        return PPOStats(
            policy_loss=_mean(policy_losses),
            value_loss=_mean(value_losses),
            entropy=_mean(entropies),
            approx_kl=_mean(kls),
            clip_fraction=_mean(clip_fracs),
            epochs_run=epochs_run,
        )

    def _minibatch_step(
        self,
        evaluate: EvaluateFn,
        batch: np.ndarray,
        old_logprobs: np.ndarray,
        advantages: np.ndarray,
        returns: np.ndarray,
        old_values: np.ndarray | None,
        policy_losses: list[float],
        value_losses: list[float],
        entropies: list[float],
        kls: list[float],
        clip_fracs: list[float],
    ) -> bool:
        """One minibatch forward/backward/step; returns the KL-stop flag.

        ``update/minibatch`` times the whole step; the nested
        ``update/evaluate`` (sequence re-evaluation plus loss),
        ``update/backward`` and ``update/step`` (gradient clipping and
        the optimizer steps) sections attribute it.
        """
        cfg = self.config
        with TIMERS.section("update/minibatch"):
            with TIMERS.section("update/evaluate"):
                new_logprobs, entropy, values = evaluate(batch)
                adv = Tensor(advantages[:, batch])
                ratio = (new_logprobs - Tensor(old_logprobs[:, batch])).exp()
                surrogate1 = ratio * adv
                surrogate2 = ratio.clip(1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * adv
                policy_loss = -surrogate1.minimum(surrogate2).mean()
                entropy_bonus = entropy.mean()
                target = Tensor(returns[:, batch])
                value_error = values - target
                value_loss = value_error * value_error
                if cfg.value_clip_eps is not None:
                    anchor = Tensor(old_values[:, batch])
                    clipped = anchor + (values - anchor).clip(
                        -cfg.value_clip_eps, cfg.value_clip_eps
                    )
                    clipped_error = clipped - target
                    value_loss = value_loss.maximum(clipped_error * clipped_error)
                value_loss = value_loss.mean()
                total = (
                    policy_loss
                    + cfg.value_coef * value_loss
                    - cfg.entropy_coef * entropy_bonus
                )
            with TIMERS.section("update/backward"):
                for optimizer in self.optimizers:
                    optimizer.zero_grad()
                total.backward()
            with TIMERS.section("update/step"):
                clip_grad_norm(self.parameters, cfg.max_grad_norm)
                for optimizer in self.optimizers:
                    optimizer.step()

            log_ratio = new_logprobs.data - old_logprobs[:, batch]
            approx_kl = float(np.mean(np.exp(log_ratio) - 1.0 - log_ratio))
            policy_losses.append(float(policy_loss.data))
            value_losses.append(float(value_loss.data))
            entropies.append(float(entropy_bonus.data))
            kls.append(approx_kl)
            clip_fracs.append(
                float(np.mean(np.abs(ratio.data - 1.0) > cfg.clip_eps))
            )
            return cfg.target_kl is not None and approx_kl > 1.5 * cfg.target_kl
