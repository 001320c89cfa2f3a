"""The PairUpLight agent system (paper Section V, Algorithm 1).

Combines the coordinated actor (local observation + one incoming
message -> phase distribution + outgoing message), the noisy-logistic
message channel, upstream-congestion partner selection, and the
centralized two-hop critic, all trained with PPO + GAE under CTDE with
optional parameter sharing.

Execution-time information flow per decision step ``t``:

1. every agent reads the regularized message its partner posted at
   ``t - 1`` (zero at episode start — Algorithm 1 line 4),
2. the actor consumes ``(o_t, m_hat_{t-1})`` and produces phase logits
   and a raw outgoing message mean,
3. the channel regularizes the outgoing message and posts it for step
   ``t + 1``.

The critic runs only during training (CTDE): its value estimates are
stored during rollout and re-evaluated during the PPO epochs.

With parameter sharing (homogeneous grids) the agents form a batch
dimension through one shared actor/critic pair, which keeps both acting
and the PPO re-evaluation fully vectorised; heterogeneous networks fall
back to per-agent networks (paper Section V-A).

Without communication the actor has no message input or head, and no
message is routed, drawn or posted.  The paper's SingleAgentRL baseline
(Section VI-B: one PPO policy over local observations, applied to every
intersection) is the ``communicate=False, centralized_critic=False``
preset, named "SingleAgent"; ``communicate=False`` alone is the
"PairUpLight-NoComm" ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.agents.base import AgentSystem
from repro.agents.pairuplight.actor import CoordinatedActor
from repro.agents.pairuplight.critic import CentralizedCritic, CriticFeatureBuilder
from repro.agents.pairuplight.messaging import (
    FaultyMessageChannel,
    MessageBoard,
    MessageRegularizer,
    MessageRouter,
    ResilientMessageReader,
)
from repro.env.tsc_env import StepResult, TrafficSignalEnv
from repro.errors import ConfigError
from repro.nn import functional as F
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, lstm_sequence, no_grad, stack
from repro.rl.buffer import RolloutBuffer
from repro.rl.gae import compute_gae
from repro.rl.ppo import PPOConfig, PPOUpdater

#: Bits on the wire per transmitted message element (32-bit value,
#: Table IV's accounting unit).
BITS_PER_MESSAGE_ELEMENT = 32


@dataclass
class PairUpLightConfig:
    """Hyperparameters of the full PairUpLight system."""

    message_dim: int = 1
    hidden_size: int = 64
    sigma: float = 0.25
    epsilon: float = 0.05
    lr: float = 1e-3
    parameter_sharing: bool = True
    communicate: bool = True
    #: Partner-selection strategy (see messaging.select_partner):
    #: "upstream" (paper), "self", "random", or "fixed".
    partner_strategy: str = "upstream"
    #: Whether the critic sees one-/two-hop neighbour pressures (paper)
    #: or only the local observation (ablation).
    centralized_critic: bool = True
    #: Graceful degradation under message loss: reuse the last received
    #: message with staleness decay, then self-pair.  Disable for the
    #: no-fallback ablation (lost messages read as zeros).
    degrade_on_loss: bool = True
    #: Attenuation applied per step of staleness to a reused message.
    message_decay: float = 0.5
    #: Staleness (consecutive losses) beyond which the agent self-pairs.
    max_staleness: int = 3
    ppo: PPOConfig = field(default_factory=PPOConfig)

    def __post_init__(self) -> None:
        if self.message_dim <= 0:
            raise ConfigError("message_dim must be positive")
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError("epsilon must lie in [0, 1)")
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")
        if self.partner_strategy not in ("upstream", "self", "random", "fixed"):
            raise ConfigError(f"unknown partner strategy {self.partner_strategy!r}")
        if not 0.0 <= self.message_decay <= 1.0:
            raise ConfigError("message_decay must lie in [0, 1]")
        if self.max_staleness < 0:
            raise ConfigError("max_staleness must be non-negative")


class PairUpLightSystem(AgentSystem):
    """Controller for every intersection using the PairUpLight model."""

    name = "PairUpLight"

    def __init__(
        self,
        env: TrafficSignalEnv,
        config: PairUpLightConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.config = config or PairUpLightConfig()
        if not self.config.communicate:
            self.name = (
                "PairUpLight-NoComm" if self.config.centralized_critic else "SingleAgent"
            )
        self._rng = np.random.default_rng(seed)
        self.agent_ids = list(env.agent_ids)
        self.num_agents = len(self.agent_ids)
        self.feature_builder = CriticFeatureBuilder(
            env, centralized=self.config.centralized_critic
        )
        cfg = self.config

        if cfg.parameter_sharing and not env.homogeneous:
            raise ConfigError(
                "parameter sharing requires homogeneous intersections; "
                "set parameter_sharing=False for this network"
            )
        net_rng = np.random.default_rng(seed + 1)
        message_width = cfg.message_dim if cfg.communicate else 0
        if cfg.parameter_sharing:
            obs_dim = env.observation_spaces[self.agent_ids[0]].dim
            num_phases = env.action_spaces[self.agent_ids[0]].n
            feat_dim = self.feature_builder.feature_dim(self.agent_ids[0])
            self.shared_actor: CoordinatedActor | None = CoordinatedActor(
                obs_dim,
                num_phases,
                message_width,
                cfg.hidden_size,
                net_rng,
            )
            self.shared_critic: CentralizedCritic | None = CentralizedCritic(
                feat_dim, cfg.hidden_size, net_rng
            )
            self._unique_actors = [self.shared_actor]
            self._unique_critics = [self.shared_critic]
            self.actors = {a: self.shared_actor for a in self.agent_ids}
            self.critics = {a: self.shared_critic for a in self.agent_ids}
        else:
            self.shared_actor = None
            self.shared_critic = None
            self.actors = {}
            self.critics = {}
            for agent_id in self.agent_ids:
                self.actors[agent_id] = CoordinatedActor(
                    env.observation_spaces[agent_id].dim,
                    env.action_spaces[agent_id].n,
                    message_width,
                    cfg.hidden_size,
                    net_rng,
                )
                self.critics[agent_id] = CentralizedCritic(
                    self.feature_builder.feature_dim(agent_id),
                    cfg.hidden_size,
                    net_rng,
                )
            self._unique_actors = [self.actors[a] for a in self.agent_ids]
            self._unique_critics = [self.critics[a] for a in self.agent_ids]

        # Stacking widths are fixed by the network topology — resolve once.
        self._obs_width_cached = max(self.actors[a].obs_dim for a in self.agent_ids)
        self._feat_width_cached = max(
            self.critics[a].feature_dim for a in self.agent_ids
        )
        params = [
            p
            for net in self._unique_actors + self._unique_critics
            for p in net.parameters()
        ]
        self._optimizer = Adam(params, lr=cfg.lr)
        self._ppo = PPOUpdater(
            params, [self._optimizer], cfg.ppo, rng=np.random.default_rng(seed + 2)
        )
        # Saved activations of the grouped trunk kernel, reused across
        # PPO minibatches.
        self._sequence_workspace: dict = {}
        self.regularizer = MessageRegularizer(cfg.sigma, seed=seed + 3)
        self.board = MessageBoard(self.agent_ids, cfg.message_dim)
        self.resilient_reader = ResilientMessageReader(
            self.agent_ids, cfg.message_dim, cfg.message_decay, cfg.max_staleness
        )
        self._channel: FaultyMessageChannel | None = None
        self.router = MessageRouter(
            env,
            self.agent_ids,
            cfg.partner_strategy,
            cfg.message_dim,
            cfg.degrade_on_loss,
        )
        self.buffer = RolloutBuffer()
        # Recurrent state: batched (h, c) arrays in shared mode, per-agent
        # dictionaries otherwise.
        self._actor_state: tuple | dict[str, tuple] | None = None
        self._critic_state: tuple | dict[str, tuple] | None = None
        self._pending: dict | None = None
        self._final_obs: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Episode lifecycle
    # ------------------------------------------------------------------
    def begin_episode(self, env: TrafficSignalEnv, training: bool) -> None:
        self.board.reset()
        self.buffer.clear()
        self._pending = None
        self.resilient_reader.reset()
        # Bind to the environment's fault schedule (if any): message
        # faults are injected on the read path, between board and actor.
        schedule = getattr(env, "fault_schedule", None)
        if schedule is not None and schedule.config.any_message_faults:
            self._channel = FaultyMessageChannel(
                schedule,
                self.agent_ids,
                self.config.message_dim,
                clock=lambda: env.sim.time if env.sim is not None else None,
            )
        else:
            self._channel = None
        if self.config.parameter_sharing:
            self._actor_state = self.shared_actor.initial_state(self.num_agents)
            self._critic_state = self.shared_critic.initial_state(self.num_agents)
        else:
            self._actor_state = {
                a: self.actors[a].initial_state(1) for a in self.agent_ids
            }
            self._critic_state = {
                a: self.critics[a].initial_state(1) for a in self.agent_ids
            }

    # ------------------------------------------------------------------
    # Acting
    # ------------------------------------------------------------------
    def _read_incoming(self, env: TrafficSignalEnv) -> np.ndarray | None:
        """Gather each agent's incoming message (previous-step postings);
        ``None`` without communication.

        The B=1 case of the batched group's routing: when the env's step
        extractor has this tick's congestion row, partners are picked on
        arrays and read with one gather; otherwise (fault-injecting
        detectors) the per-agent reference selects them.  When the
        environment injects communication faults the read goes through
        the lossy channel; a lost message is then resolved by the
        resilient reader (staleness-decayed reuse, then self-pairing) or
        — for the no-fallback ablation — read as zeros.
        """
        cfg = self.config
        if not cfg.communicate:
            return None
        incoming = np.zeros((self.num_agents, cfg.message_dim))
        congestion = env.congestion_rows()
        if congestion is None:
            self.router.route_reference(
                env,
                incoming,
                self.board,
                self._channel,
                self.resilient_reader,
                self._rng,
            )
        else:
            self.router.route(
                incoming[None],
                self.board.messages[None],
                congestion,
                _ROW0,
                self._rng,
                [self._channel],
                [self.resilient_reader],
            )
        return incoming

    def _sample_actions(
        self, probs_rows: np.ndarray | list[np.ndarray], training: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Epsilon-greedy / categorical sampling (Algorithm 1 lines 13-14).

        Greedy selection over an ``(M, A)`` matrix is one ``argmax``;
        sampling keeps its per-agent RNG draw order.
        """
        cfg = self.config
        if not training and isinstance(probs_rows, np.ndarray):
            actions = probs_rows.argmax(axis=1)
            picked = probs_rows[np.arange(len(actions)), actions].tolist()
            # math.log per row: the per-agent path's exact values.
            logprobs = np.asarray([math.log(max(p, 1e-12)) for p in picked])
            return actions, logprobs
        actions = np.zeros(len(probs_rows), dtype=np.int64)
        logprobs = np.zeros(len(probs_rows))
        for index, probs in enumerate(probs_rows):
            if training and self._rng.random() < cfg.epsilon:
                action = int(self._rng.integers(len(probs)))
            elif training:
                action = F.categorical_sample(probs, self._rng)
            else:
                action = int(np.argmax(probs))
            actions[index] = action
            logprobs[index] = math.log(max(probs[action], 1e-12))
        return actions, logprobs

    def act(
        self,
        observations: dict[str, np.ndarray],
        env: TrafficSignalEnv,
        training: bool,
    ) -> dict[str, int]:
        return self._act_impl(observations, env, training)

    def _act_impl(
        self,
        observations: dict[str, np.ndarray],
        env: TrafficSignalEnv,
        training: bool,
        critic_feats: np.ndarray | None = None,
    ) -> dict[str, int]:
        """Body of :meth:`act`.

        ``critic_feats`` (``(num_agents, feat_width)``) lets the batched
        lockstep path pass in pre-assembled critic features; the values
        are identical to what :class:`CriticFeatureBuilder` would build
        from ``observations``, so the default per-agent assembly below is
        the reference the batched path is tested against.
        """
        cfg = self.config
        incoming = self._read_incoming(env)
        obs_rows = [observations[a] for a in self.agent_ids]

        # Acting only ever reads ``.data`` from these forwards — PPO
        # re-evaluates the stored transitions at update time — so skip
        # graph construction entirely.
        with no_grad():
            if cfg.parameter_sharing:
                obs = np.stack(obs_rows)
                logits_t, msg_mean_t, new_state = self.shared_actor(
                    obs, incoming, self._actor_state
                )
                self._actor_state = (new_state[0].detach(), new_state[1].detach())
                logits = logits_t.data
                msg_means = msg_mean_t.data if cfg.communicate else None
            else:
                logits_rows = []
                msg_rows = []
                for index, agent_id in enumerate(self.agent_ids):
                    logit, msg_mean, new_state = self.actors[agent_id](
                        obs_rows[index].reshape(1, -1),
                        None if incoming is None else incoming[index].reshape(1, -1),
                        self._actor_state[agent_id],
                    )
                    self._actor_state[agent_id] = (
                        new_state[0].detach(),
                        new_state[1].detach(),
                    )
                    logits_rows.append(logit.data[0])
                    if cfg.communicate:
                        msg_rows.append(msg_mean.data[0])
                logits = logits_rows
                msg_means = np.stack(msg_rows) if cfg.communicate else None

        if isinstance(logits, np.ndarray):
            probs = softmax_rows(logits)
        else:  # per-agent networks: rows may differ in width
            probs = [_softmax_1d(np.asarray(row)) for row in logits]
        actions, logprobs = self._sample_actions(probs, training)
        if cfg.communicate:
            m_hat, raw_msg, msg_logprobs = self.regularizer.transmit(msg_means, training)
            logprobs = logprobs + msg_logprobs
            self.board.post_rows(m_hat)

        if training:
            if critic_feats is None:
                critic_feats = np.stack(
                    [
                        _pad(self.feature_builder.build(a, observations[a]), self._feat_width())
                        for a in self.agent_ids
                    ]
                )
            values = self._critic_values(critic_feats, advance_state=True)
            self._pending = {
                "obs": np.stack([_pad(o, self._obs_width()) for o in obs_rows]),
                "action": actions,
                "logprob": logprobs,
                "value": values,
                "critic_feat": critic_feats,
            }
            if cfg.communicate:
                self._pending.update(msg_in=incoming, raw_msg=raw_msg)
        return {
            agent_id: int(actions[index])
            for index, agent_id in enumerate(self.agent_ids)
        }

    def _obs_width(self) -> int:
        return self._obs_width_cached

    def _feat_width(self) -> int:
        return self._feat_width_cached

    def _critic_values(self, feats: np.ndarray, advance_state: bool) -> np.ndarray:
        """Critic forward over all agents; optionally updates LSTM state.

        Rollout-only (GAE targets come from stored values; the update
        re-evaluates through the graph), so runs without autograd.
        """
        with no_grad():
            return self._critic_values_inner(feats, advance_state)

    def _critic_values_inner(self, feats: np.ndarray, advance_state: bool) -> np.ndarray:
        if self.config.parameter_sharing:
            values_t, new_state = self.shared_critic(feats, self._critic_state)
            if advance_state:
                self._critic_state = (new_state[0].detach(), new_state[1].detach())
            return values_t.data.copy()
        values = np.zeros(self.num_agents)
        for index, agent_id in enumerate(self.agent_ids):
            critic = self.critics[agent_id]
            value_t, new_state = critic(
                feats[index, : critic.feature_dim].reshape(1, -1),
                self._critic_state[agent_id],
            )
            if advance_state:
                self._critic_state[agent_id] = (
                    new_state[0].detach(),
                    new_state[1].detach(),
                )
            values[index] = float(value_t.data[0])
        return values

    def observe(self, result: StepResult, env: TrafficSignalEnv) -> None:
        if self._pending is None:
            return
        rewards = np.asarray(
            [result.rewards[a] for a in self.agent_ids], dtype=np.float64
        )
        self.buffer.add(rewards=rewards, **self._pending)
        self._pending = None
        self._final_obs = {a: result.observations[a] for a in self.agent_ids}

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def end_episode(self, env: TrafficSignalEnv, training: bool) -> dict:
        if not training or len(self.buffer) == 0:
            return {}
        data = self.buffer.stacked()
        final_feats = np.stack(
            [
                _pad(self.feature_builder.build(a, self._final_obs[a]), self._feat_width())
                for a in self.agent_ids
            ]
        )
        bootstrap = self._critic_values(final_feats, advance_state=False)
        advantages, returns = compute_gae(
            data["rewards"],
            data["value"],
            bootstrap,
            gamma=self.config.ppo.gamma,
            lam=self.config.ppo.lam,
        )
        stats = self._ppo.update(
            lambda batch: self._evaluate(data, batch),
            data["logprob"],
            advantages,
            returns,
            old_values=data["value"],
        )
        self.buffer.clear()
        return {
            "policy_loss": stats.policy_loss,
            "value_loss": stats.value_loss,
            "entropy": stats.entropy,
            "approx_kl": stats.approx_kl,
            "clip_fraction": stats.clip_fraction,
        }

    def _evaluate(
        self, data: dict[str, np.ndarray], batch: np.ndarray
    ) -> tuple[Tensor, Tensor, Tensor]:
        """PPO re-evaluation over stored sequences (see module docstring)."""
        if self.config.parameter_sharing:
            return self._evaluate_shared(data, batch)
        columns = [self._evaluate_single(data, int(index)) for index in batch]
        logprobs = stack([c[0] for c in columns], axis=1)
        entropies = stack([c[1] for c in columns], axis=1)
        values = stack([c[2] for c in columns], axis=1)
        return logprobs, entropies, values

    def _evaluate_shared(
        self, data: dict[str, np.ndarray], batch: np.ndarray
    ) -> tuple[Tensor, Tensor, Tensor]:
        cfg = self.config
        horizon = data["obs"].shape[0]
        actor = self.shared_actor
        critic = self.shared_critic
        batch = np.asarray(batch, dtype=np.int64)
        # Only the LSTM trunks are inherently sequential.  Both run over
        # the whole (horizon, batch) sequence in one grouped kernel call —
        # one time loop, one trunk node for both networks.  Every head
        # (policy, message, value, log-softmax, entropy, gather) runs ONCE
        # over the stacked (horizon, batch, hidden) states.  All head ops
        # operate position-wise / reduce along the last axis only, so the
        # result is element-for-element identical to the per-step
        # formulation.
        obs_seq = data["obs"][:, batch]
        msg_seq = data["msg_in"][:, batch] if cfg.communicate else None
        feat_seq = data["critic_feat"][:, batch]
        actor_seq, critic_seq = lstm_sequence(
            actor.sequence_trunk(obs_seq, msg_seq),
            critic.sequence_trunk(feat_seq),
            workspace=self._sequence_workspace,
        )
        logits = actor.policy_head(actor_seq)
        log_probs = F.log_softmax(logits)
        probs = F.softmax(logits)
        step_logprobs = F.gather(log_probs, data["action"][:, batch])
        if cfg.communicate:
            msg_mean = actor.message_head(actor_seq)
            step_logprobs = step_logprobs + _gaussian_logprob(
                data["raw_msg"][:, batch], msg_mean, cfg.sigma
            )
        entropies = F.entropy(probs)
        values = critic.value_head(critic_seq).reshape(horizon, len(batch))
        return step_logprobs, entropies, values

    def _evaluate_single(
        self, data: dict[str, np.ndarray], index: int
    ) -> tuple[Tensor, Tensor, Tensor]:
        cfg = self.config
        agent_id = self.agent_ids[index]
        actor = self.actors[agent_id]
        critic = self.critics[agent_id]
        horizon = data["obs"].shape[0]
        a_state = actor.initial_state(1)
        c_state = critic.initial_state(1)
        logprob_steps: list[Tensor] = []
        entropy_steps: list[Tensor] = []
        value_steps: list[Tensor] = []
        for t in range(horizon):
            obs = data["obs"][t, index, : actor.obs_dim].reshape(1, -1)
            msg_in = (
                data["msg_in"][t, index].reshape(1, -1) if cfg.communicate else None
            )
            logits, msg_mean, a_state = actor(obs, msg_in, a_state)
            log_probs = F.log_softmax(logits)
            probs = F.softmax(logits)
            step_logprob = F.gather(log_probs, data["action"][t, index : index + 1])
            if cfg.communicate:
                raw = data["raw_msg"][t, index].reshape(1, -1)
                step_logprob = step_logprob + _gaussian_logprob(raw, msg_mean, cfg.sigma)
            logprob_steps.append(step_logprob[0])
            entropy_steps.append(F.entropy(probs)[0])
            feat = data["critic_feat"][t, index, : critic.feature_dim].reshape(1, -1)
            value, c_state = critic(feat, c_state)
            value_steps.append(value[0])
        return (
            stack(logprob_steps, axis=0),
            stack(entropy_steps, axis=0),
            stack(value_steps, axis=0),
        )

    # ------------------------------------------------------------------
    # Checkpointing (see AgentSystem.save / AgentSystem.load)
    # ------------------------------------------------------------------
    def training_state(self) -> dict[str, np.ndarray]:
        """Optimizer moments plus every RNG stream, so a resumed run
        continues the exact random sequence of the uninterrupted one."""
        from repro.rl.checkpoint import pack_rng

        state = {
            f"optim.{name}": value
            for name, value in self._optimizer.state_dict().items()
        }
        state["rng.agent"] = pack_rng(self._rng)
        state["rng.regularizer"] = pack_rng(self.regularizer._rng)
        state["rng.ppo"] = pack_rng(self._ppo._rng)
        return state

    def load_training_state(self, state: dict[str, np.ndarray]) -> None:
        from repro.rl.checkpoint import unpack_rng

        optim_state = {
            name[len("optim.") :]: value
            for name, value in state.items()
            if name.startswith("optim.")
        }
        self._optimizer.load_state_dict(optim_state)
        unpack_rng(self._rng, state["rng.agent"])
        unpack_rng(self.regularizer._rng, state["rng.regularizer"])
        unpack_rng(self._ppo._rng, state["rng.ppo"])

    def _checkpoint_modules(self) -> dict:
        if self.config.parameter_sharing:
            return {"actor": self.shared_actor, "critic": self.shared_critic}
        modules: dict = {}
        for agent_id in self.agent_ids:
            modules[f"actor.{agent_id}"] = self.actors[agent_id]
            modules[f"critic.{agent_id}"] = self.critics[agent_id]
        return modules

    # ------------------------------------------------------------------
    def communication_bits_per_step(self, env: TrafficSignalEnv) -> int:
        """One message of ``message_dim`` 32-bit elements from one neighbour."""
        if not self.config.communicate:
            return 0
        return self.config.message_dim * BITS_PER_MESSAGE_ELEMENT


def _softmax_1d(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_softmax_1d` of an ``(N, A)`` matrix, bit for bit."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


#: The live rows of a serial system routing as a one-replica batch.
_ROW0 = np.zeros(1, dtype=np.intp)


def _pad(vector: np.ndarray, width: int) -> np.ndarray:
    """Zero-pad a 1-D vector to ``width`` (heterogeneous stacking)."""
    if vector.shape[0] == width:
        return vector
    padded = np.zeros(width)
    padded[: vector.shape[0]] = vector
    return padded


def _gaussian_logprob(raw: np.ndarray, mean: Tensor, sigma: float) -> Tensor:
    """Differentiable Gaussian log-density of stored draws w.r.t. ``mean``."""
    raw_t = Tensor(np.asarray(raw, dtype=np.float64))
    diff = (raw_t - mean) * (1.0 / sigma)
    per_dim = diff * diff * -0.5 - (math.log(sigma) + 0.5 * math.log(2 * math.pi))
    return per_dim.sum(axis=-1)
