"""Agent-system interface and shared checkpoint plumbing.

An *agent system* controls every signalized intersection in the
environment at once (one logical policy per intersection, possibly with
shared parameters or inter-agent communication).  The episode loops
(:mod:`repro.eval.batched`, behind :mod:`repro.rl.runner`) drive any
implementation of this interface through an :class:`AgentGroup`, which
keeps Fixedtime, MA2C, CoLight and PairUpLight (whose
``communicate=False, centralized_critic=False`` preset is SingleAgentRL)
interchangeable in experiments.
"""

from __future__ import annotations

import numpy as np

from repro.env.tsc_env import StepResult, TrafficSignalEnv
from repro.errors import CheckpointError
from repro.nn.serialization import atomic_savez, read_archive


class AgentSystem:
    """Base class for all controllers (learning or not)."""

    #: Human-readable name used in experiment tables.
    name: str = "base"

    def begin_episode(self, env: TrafficSignalEnv, training: bool) -> None:
        """Reset per-episode state (hidden states, messages, buffers)."""

    def act(
        self,
        observations: dict[str, np.ndarray],
        env: TrafficSignalEnv,
        training: bool,
    ) -> dict[str, int]:
        """Choose a phase index for every agent."""
        raise NotImplementedError

    def observe(self, result: StepResult, env: TrafficSignalEnv) -> None:
        """Record a transition during training (no-op for static agents)."""

    def end_episode(self, env: TrafficSignalEnv, training: bool) -> dict:
        """Run learning updates at episode end; returns diagnostics."""
        return {}

    # ------------------------------------------------------------------
    # Introspection used by the communication-overhead analysis
    # ------------------------------------------------------------------
    def communication_bits_per_step(self, env: TrafficSignalEnv) -> int:
        """Bits of information received from *other* intersections per
        agent per decision step during execution (Table IV)."""
        return 0

    # ------------------------------------------------------------------
    # Telemetry (opt-in; see repro.obs)
    # ------------------------------------------------------------------
    def attach_telemetry(self, telemetry) -> None:
        """Give the system a :class:`repro.obs.telemetry.Telemetry` sink.

        The default is a no-op; wrappers that own their own fault
        schedules (e.g. :class:`repro.faults.controller.ControllerFaultWrapper`)
        override this to route activation events into the sink.
        """

    # ------------------------------------------------------------------
    # Checkpointing (default implementation over named networks)
    # ------------------------------------------------------------------
    def _checkpoint_modules(self) -> dict:
        """Named networks to persist; override in learning systems."""
        return {}

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat weight map over all :meth:`_checkpoint_modules` networks."""
        state: dict[str, np.ndarray] = {}
        for module_name, module in self._checkpoint_modules().items():
            for name, value in module.state_dict().items():
                state[f"{module_name}.{name}"] = value
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`state_dict`."""
        for module_name, module in self._checkpoint_modules().items():
            prefix = f"{module_name}."
            module.load_state_dict(
                {
                    key[len(prefix):]: value
                    for key, value in state.items()
                    if key.startswith(prefix)
                }
            )

    def save(self, path) -> None:
        """Persist all network weights to an ``.npz`` archive atomically."""
        state = self.state_dict()
        if not state:
            raise ValueError(f"{self.name} has no weights to save")
        atomic_savez(path, state)

    def load(self, path) -> None:
        """Load weights written by :meth:`save`.

        Unreadable archives and key/shape mismatches raise
        :class:`repro.errors.CheckpointError`.
        """
        state = read_archive(path)
        try:
            self.load_state_dict(state)
        except (KeyError, ValueError) as error:
            raise CheckpointError(
                f"checkpoint does not match {self.name}: {error}"
            ) from error

    # ------------------------------------------------------------------
    # Training-state capture (crash-safe resume; see
    # repro.eval.batched.train_lockstep)
    # ------------------------------------------------------------------
    def training_state(self) -> dict[str, np.ndarray]:
        """Arrays beyond the weights needed to resume training exactly
        (optimizer moments, RNG streams).  Static agents have none."""
        return {}

    def load_training_state(self, state: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`training_state`."""
        if state:
            raise CheckpointError(
                f"{self.name} cannot restore training state "
                f"(unexpected keys {sorted(state)[:4]}...)"
            )


class AgentGroup:
    """B agent systems over B envs, one policy pass per agent: the policy
    interface of the episode loops in :mod:`repro.eval.batched`.

    :class:`repro.agents.pairuplight.batched.BatchedPolicyGroup` extends
    it with batched passes.  ``None`` marks a finished env (no action,
    no result).
    """

    #: Whether one learner (the *master*) trains on every env's episode.
    shared = False

    def __init__(self, agents: list, envs: list[TrafficSignalEnv]) -> None:
        self.agents = agents
        self.envs = envs

    def begin_episode_all(self, training: bool) -> None:
        for agent, env in zip(self.agents, self.envs):
            agent.begin_episode(env, training)

    def act_all(
        self, observations: list, training: bool, live: list[bool]
    ) -> list[dict[str, int] | None]:
        return [
            agent.act(obs, env, training) if alive else None
            for agent, env, obs, alive in zip(
                self.agents, self.envs, observations, live
            )
        ]

    def observe_all(self, results: list[StepResult | None]) -> None:
        for agent, env, result in zip(self.agents, self.envs, results):
            if result is not None:
                agent.observe(result, env)

    def end_episode_all(self, training: bool) -> list[dict]:
        return [
            agent.end_episode(env, training=training)
            for agent, env in zip(self.agents, self.envs)
        ]
