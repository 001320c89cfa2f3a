"""What does the learned message encode?

The paper shows that a single 32-bit message suffices, but not *what*
the channel learns to say.  This module probes a trained PairUpLight
system: it runs greedy episodes, records every agent's outgoing message
alongside observable traffic quantities at the sender, and reports the
correlations — a direct check that a congestion-describing protocol
emerged rather than a constant or noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.agents.base import AgentSystem
from repro.agents.pairuplight.agent import PairUpLightSystem
from repro.env.tsc_env import TrafficSignalEnv
from repro.errors import ConfigError
from repro.rl.runner import evaluate


@dataclass
class MessageLog:
    """Per-step probe records across one or more greedy episodes."""

    messages: list[float] = field(default_factory=list)  # first message element
    congestion: list[float] = field(default_factory=list)  # sender congestion
    pressure: list[float] = field(default_factory=list)  # sender |pressure| sum
    actions: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.messages)


class _MessageProbe(AgentSystem):
    """Acts as ``agent`` and records each step's outgoing messages."""

    def __init__(self, agent: PairUpLightSystem, log: MessageLog) -> None:
        self.agent = agent
        self.log = log
        self.name = agent.name

    def begin_episode(self, env: TrafficSignalEnv, training: bool) -> None:
        self.agent.begin_episode(env, training)

    def act(self, observations, env: TrafficSignalEnv, training: bool) -> dict:
        actions = self.agent.act(observations, env, training)
        # After act(), the board holds this step's outgoing messages.
        for agent_id in self.agent.agent_ids:
            message = self.agent.board.read(agent_id)
            self.log.messages.append(float(message[0]))
            self.log.congestion.append(env.congestion_score(agent_id))
            self.log.pressure.append(float(np.abs(env.link_pressures(agent_id)).sum()))
            self.log.actions.append(int(actions[agent_id]))
        return actions


def probe_messages(
    agent: PairUpLightSystem,
    env: TrafficSignalEnv,
    episodes: int = 1,
    seed: int = 0,
) -> MessageLog:
    """Run greedy episodes and record (message, sender state) pairs."""
    if episodes <= 0:
        raise ConfigError("episodes must be positive")
    log = MessageLog()
    evaluate(_MessageProbe(agent, log), env, episodes=episodes, seed=seed)
    return log


@dataclass(frozen=True)
class MessageReport:
    """Summary statistics of a message probe."""

    samples: int
    message_mean: float
    message_std: float
    congestion_correlation: float
    pressure_correlation: float

    @property
    def is_informative(self) -> bool:
        """A protocol emerged: messages vary and track sender state."""
        return self.message_std > 1e-4 and (
            abs(self.congestion_correlation) > 0.1
            or abs(self.pressure_correlation) > 0.1
        )

    def formatted(self) -> str:
        return (
            f"message probe over {self.samples} samples:\n"
            f"  message mean {self.message_mean:.4f}, std {self.message_std:.4f}\n"
            f"  corr(message, sender congestion) = {self.congestion_correlation:+.3f}\n"
            f"  corr(message, sender |pressure|) = {self.pressure_correlation:+.3f}\n"
            f"  informative protocol: {self.is_informative}"
        )


def _safe_corr(a: np.ndarray, b: np.ndarray) -> float:
    if a.std() < 1e-12 or b.std() < 1e-12:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def analyse(log: MessageLog) -> MessageReport:
    """Correlation summary of a probe log."""
    if len(log) == 0:
        raise ConfigError("message log is empty")
    messages = np.asarray(log.messages)
    congestion = np.asarray(log.congestion)
    pressure = np.asarray(log.pressure)
    return MessageReport(
        samples=len(log),
        message_mean=float(messages.mean()),
        message_std=float(messages.std()),
        congestion_correlation=_safe_corr(messages, congestion),
        pressure_correlation=_safe_corr(messages, pressure),
    )
