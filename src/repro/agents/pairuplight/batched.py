"""Cross-replica batched policy driver for lockstep training.

``train_lockstep`` batches B replicas' *simulation* into one SoA engine,
but by default still runs B separate policy passes per tick
(:class:`repro.agents.base.AgentGroup`).  This module drives all
replicas' PairUpLight systems together:

* **independent mode** (default) — every seed keeps its own parameters
  and RNG streams, exactly as the serial runner trains them.  The group
  feeds each system pre-assembled critic features (built vectorized for
  all replicas from the batched extractor's pressure matrix) through
  ``PairUpLightSystem._act_impl``; everything else runs the unchanged
  per-system code, so results stay bit-exact with ``rl.runner.train``.

* **shared mode** (``shared_across_replicas=True``) — the common
  train-one-policy-on-B-seeds workload.  One actor/critic pair (the
  first system's) runs a single ``(B·M, ·)`` forward per tick through
  the fused ``lstm_trunk`` kernels with batched ``(h, c)`` state,
  messages are routed through per-replica boards (no cross-replica
  leakage), rollouts accumulate into ``(T, B·M, ·)`` buffers, and one
  PPO update runs over the combined batch.  There is no serial oracle
  for this regime; it is a new, deterministic-in-seed training mode.
  Whenever the batched step extractor is engaged, partner selection
  and message routing run on ``(B, M)`` arrays (see :meth:`_route`);
  the per-agent loop remains as the reference for the fallback path.
"""

from __future__ import annotations

import numpy as np

from repro.agents.base import AgentGroup
from repro.agents.pairuplight.agent import PairUpLightSystem, _pad, softmax_rows
from repro.agents.pairuplight.messaging import (  # noqa: F401 (select_partner:
    # re-exported as the per-agent reference the array path is pinned to)
    FaultyMessageChannel,
    MessageBoard,
    ResilientMessageReader,
    select_partner,
)
from repro.env.tsc_env import StepResult, TrafficSignalEnv
from repro.errors import ConfigError
from repro.nn.tensor import no_grad
from repro.perf.timers import TIMERS
from repro.rl.buffer import RolloutBuffer
from repro.rl.gae import compute_gae


class BatchedPolicyGroup(AgentGroup):
    """Drives B PairUpLight systems over a :class:`LockstepEnvGroup`."""

    def __init__(
        self,
        agents: list,
        env_group,
        shared_across_replicas: bool = False,
    ) -> None:
        for agent in agents:
            if not isinstance(agent, PairUpLightSystem):
                raise ConfigError(
                    "the batched policy path requires PairUpLightSystem "
                    f"agents; got {type(agent).__name__} "
                    f"({getattr(agent, 'name', '?')}) — drop --batched-policy "
                    "for this model"
                )
        head = agents[0]
        for agent in agents[1:]:
            if agent.agent_ids != head.agent_ids:
                raise ConfigError(
                    "batched policy agents must share the agent-id layout"
                )
        super().__init__(agents, env_group.envs)
        self.group = env_group
        self.B = len(agents)
        self.agent_ids = list(head.agent_ids)
        self.M = len(self.agent_ids)
        self.shared = bool(shared_across_replicas)
        if self.shared:
            if not head.config.parameter_sharing:
                raise ConfigError(
                    "shared_across_replicas requires parameter_sharing=True"
                )
            self.master = head
            self._buffer = RolloutBuffer()
            # Every replica's board is a slice of one (B, M, D) block, so
            # routing reads all of them with one gather.
            self._messages = np.zeros((self.B, self.M, head.config.message_dim))
            self._boards = [
                MessageBoard(self.agent_ids, head.config.message_dim, messages)
                for messages in self._messages
            ]
            self._readers = [
                ResilientMessageReader(
                    self.agent_ids,
                    head.config.message_dim,
                    head.config.message_decay,
                    head.config.max_staleness,
                )
                for _ in range(self.B)
            ]
            self._channels: list[FaultyMessageChannel | None] = [None] * self.B
            self._actor_state = None
            self._critic_state = None
            self._pending: dict | None = None
            self._final_obs: np.ndarray | None = None
        self._init_feat_maps(head)

    # ------------------------------------------------------------------
    # Vectorized critic-feature assembly (both modes)
    # ------------------------------------------------------------------
    def _init_feat_maps(self, head: PairUpLightSystem) -> None:
        """Static gather maps turning the extractor's pressure matrix
        into the exact ``CriticFeatureBuilder.build`` layout."""
        self._feats_vectorized = False
        builder = head.feature_builder
        if not builder.centralized:
            return
        agent_pos = {a: i for i, a in enumerate(self.agent_ids)}
        h1_widths = {len(builder._one_hop[a]) for a in self.agent_ids}
        h2_widths = {len(builder._two_hop[a]) for a in self.agent_ids}
        obs_dims = {
            head.actors[a].obs_dim for a in self.agent_ids
        }
        if len(h1_widths) != 1 or len(h2_widths) != 1 or len(obs_dims) != 1:
            return
        self._h1 = h1_widths.pop()
        self._h2 = h2_widths.pop()
        self._obs_dim = obs_dims.pop()
        h1_idx = np.zeros((self.M, self._h1), dtype=np.intp)
        h1_mask = np.zeros((self.M, self._h1), dtype=bool)
        h2_idx = np.zeros((self.M, self._h2), dtype=np.intp)
        h2_mask = np.zeros((self.M, self._h2), dtype=bool)
        for m, node_id in enumerate(self.agent_ids):
            for j, neighbour in enumerate(builder._one_hop[node_id]):
                if neighbour is not None:
                    h1_idx[m, j] = agent_pos[neighbour]
                    h1_mask[m, j] = True
            for j, neighbour in enumerate(builder._two_hop[node_id]):
                if neighbour is not None:
                    h2_idx[m, j] = agent_pos[neighbour]
                    h2_mask[m, j] = True
        self._h1_idx, self._h1_mask = h1_idx, h1_mask
        self._h2_idx, self._h2_mask = h2_idx, h2_mask
        self._feat_width = head._feat_width()
        # The reference builder zero-pads absent one-hop neighbours with
        # DEFAULT_APPROACH_SLOTS-wide blocks; the vectorized gather fills
        # every block from the (M, num_slots) pressure matrix, so both
        # widths must coincide.
        from repro.env.observation import DEFAULT_APPROACH_SLOTS

        slot_widths = {
            len(self.envs[0].obs_builder._slots[a]) for a in self.agent_ids
        }
        self._feats_vectorized = (
            slot_widths == {DEFAULT_APPROACH_SLOTS}
            and self._feat_width
            == self._obs_dim + self._h1 * DEFAULT_APPROACH_SLOTS + self._h2
        )

    def _assemble_feats(self) -> np.ndarray | None:
        """``(B, M, feat_width)`` critic features for the current tick,
        or ``None`` when the extractor's pressures are unavailable (first
        tick of an episode, fallback extraction) — callers then use the
        per-agent reference builder."""
        extractor = getattr(self.group, "extractor", None)
        if not self._feats_vectorized or extractor is None:
            return None
        press = extractor.pressures
        obs = extractor.observations
        if press is None or obs is None:
            return None
        num_slots = press.shape[-1]
        feats = np.zeros((self.B, self.M, self._feat_width))
        feats[..., : self._obs_dim] = obs
        one_hop = np.where(
            self._h1_mask[..., None], press[:, self._h1_idx, :], 0.0
        )
        feats[
            ..., self._obs_dim : self._obs_dim + self._h1 * num_slots
        ] = one_hop.reshape(self.B, self.M, self._h1 * num_slots)
        sums = press.sum(axis=-1)
        feats[..., self._obs_dim + self._h1 * num_slots :] = np.where(
            self._h2_mask, sums[:, self._h2_idx], 0.0
        )
        return feats

    def _reference_feats(self, b: int, observations: dict) -> np.ndarray:
        """Per-agent fallback, identical to the in-system assembly."""
        agent = self.agents[b]
        width = self.master._feat_width() if self.shared else agent._feat_width()
        return np.stack(
            [
                _pad(agent.feature_builder.build(a, observations[a]), width)
                for a in self.agent_ids
            ]
        )

    # ------------------------------------------------------------------
    # Episode lifecycle
    # ------------------------------------------------------------------
    def begin_episode_all(self, training: bool) -> None:
        if not self.shared:
            return super().begin_episode_all(training)
        master = self.master
        self._buffer.clear()
        self._pending = None
        self._final_obs = None
        for b, env in enumerate(self.envs):
            self._boards[b].reset()
            self._readers[b].reset()
            schedule = getattr(env, "fault_schedule", None)
            if schedule is not None and schedule.config.any_message_faults:
                self._channels[b] = FaultyMessageChannel(
                    schedule,
                    self.agent_ids,
                    master.config.message_dim,
                    clock=lambda env=env: (
                        env.sim.time if env.sim is not None else None
                    ),
                )
            else:
                self._channels[b] = None
        flat = self.B * self.M
        self._actor_state = master.shared_actor.initial_state(flat)
        self._critic_state = master.shared_critic.initial_state(flat)

    # ------------------------------------------------------------------
    # Acting
    # ------------------------------------------------------------------
    def act_all(
        self,
        observations: list[dict[str, np.ndarray]],
        training: bool,
        live: list[bool] | None = None,
    ) -> list[dict[str, int] | None]:
        live = [True] * self.B if live is None else live
        if self.shared:
            return self._act_shared(observations, training, live)
        feats = self._assemble_feats() if training else None
        actions: list[dict[str, int] | None] = []
        for b, (agent, env) in enumerate(zip(self.agents, self.envs)):
            if not live[b]:
                actions.append(None)
                continue
            critic_feats = feats[b] if feats is not None else None
            actions.append(
                agent._act_impl(
                    observations[b], env, training, critic_feats=critic_feats
                )
            )
        return actions

    def _act_shared(
        self,
        observations: list[dict[str, np.ndarray]],
        training: bool,
        live: list[bool],
    ) -> list[dict[str, int] | None]:
        master = self.master
        cfg = master.config
        B, M = self.B, self.M
        flat = B * M
        incoming = msg_flat = None
        if cfg.communicate:
            incoming = np.zeros((B, M, cfg.message_dim))
            with TIMERS.section("act/route"):
                self._route(incoming, live)
            msg_flat = incoming.reshape(flat, cfg.message_dim)

        with TIMERS.section("act/forward"):
            obs_mat = np.asarray(
                [
                    [observations[b][a] for a in self.agent_ids]
                    for b in range(B)
                ],
                dtype=np.float64,
            )
            with no_grad():
                logits_t, msg_mean_t, new_state = master.shared_actor(
                    obs_mat.reshape(flat, -1), msg_flat, self._actor_state
                )
                self._actor_state = (new_state[0].detach(), new_state[1].detach())
                logits = np.asarray(logits_t.data)
            if training:
                # The critic draws no randomness, so evaluating it before
                # sampling leaves every RNG stream where it was.
                feats = self._assemble_feats()
                if feats is None:
                    feats = np.stack(
                        [self._reference_feats(b, observations[b]) for b in range(B)]
                    )
                feats_flat = feats.reshape(flat, -1)
                with no_grad():
                    values_t, new_c = master.shared_critic(
                        feats_flat, self._critic_state
                    )
                    self._critic_state = (new_c[0].detach(), new_c[1].detach())

        with TIMERS.section("act/sample"):
            probs = softmax_rows(logits)
            actions_flat, logprobs = self._sample_flat(probs, training)
            if cfg.communicate:
                m_hat, raw_msg, msg_logprobs = master.regularizer.transmit(
                    msg_mean_t.data, training
                )
                logprobs = logprobs + msg_logprobs
                # Post every replica's messages (live or not) in one write.
                self._messages[...] = m_hat.reshape(B, M, cfg.message_dim)

        if training:
            self._pending = {
                "obs": obs_mat.reshape(flat, -1),
                "action": actions_flat,
                "logprob": logprobs,
                "value": values_t.data.copy(),
                "critic_feat": feats_flat,
            }
            if cfg.communicate:
                self._pending.update(msg_in=msg_flat, raw_msg=raw_msg)
        return [
            dict(zip(self.agent_ids, row)) if live[b] else None
            for b, row in enumerate(actions_flat.reshape(B, M).tolist())
        ]

    def _route(self, incoming: np.ndarray, live: list[bool]) -> None:
        """Fill ``incoming`` (``(B, M, D)``) with each live agent's
        message from its partner's board; drained replicas stay zero.

        With the batched extractor's congestion matrix, the master's
        :class:`MessageRouter` picks partners for every replica at once
        and reads them with one gather (the serial system routes through
        the same code at B=1).  Without the extractor (fault-injecting
        detectors, whose every read draws RNG) the per-agent
        :func:`select_partner` loop is the reference.
        """
        master = self.master
        router = master.router
        extractor = getattr(self.group, "extractor", None)
        if extractor is None:
            for b in range(self.B):
                if live[b]:  # drained replica: no detector reads
                    router.route_reference(
                        self.envs[b],
                        incoming[b],
                        self._boards[b],
                        self._channels[b],
                        self._readers[b],
                        master._rng,
                    )
            return
        router.route(
            incoming,
            self._messages,
            extractor.congestion,
            np.flatnonzero(live),
            master._rng,
            self._channels,
            self._readers,
        )

    def _sample_flat(
        self, probs: np.ndarray, training: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized epsilon-greedy / categorical sampling over all
        replicas, consuming the master RNG in flat row order."""
        flat, num_actions = probs.shape
        if not training:
            actions = np.argmax(probs, axis=1).astype(np.int64)
        else:
            rng = self.master._rng
            explore = rng.random(flat) < self.master.config.epsilon
            randoms = rng.integers(0, num_actions, size=flat)
            u = rng.random(flat)
            cum = np.cumsum(probs, axis=1)
            categorical = np.minimum(
                (cum < u[:, None] * cum[:, -1:]).sum(axis=1), num_actions - 1
            )
            actions = np.where(explore, randoms, categorical).astype(np.int64)
        logprobs = np.log(
            np.maximum(probs[np.arange(flat), actions], 1e-12)
        )
        return actions, logprobs

    # ------------------------------------------------------------------
    # Observation / learning
    # ------------------------------------------------------------------
    def observe_all(
        self, results: list[StepResult | None]
    ) -> None:
        if not self.shared:
            return super().observe_all(results)
        if self._pending is None:
            return
        rewards = np.asarray(
            [
                result.rewards[a]
                for result in results
                for a in self.agent_ids
            ],
            dtype=np.float64,
        )
        self._buffer.add(rewards=rewards, **self._pending)
        self._pending = None
        self._final_obs = [
            {a: result.observations[a] for a in self.agent_ids}
            for result in results
        ]

    def end_episode_all(self, training: bool) -> list[dict]:
        if not self.shared:
            return super().end_episode_all(training)
        master = self.master
        if not training or len(self._buffer) == 0:
            return [{} for _ in range(self.B)]
        data = self._buffer.stacked()
        final_feats = np.concatenate(
            [
                self._reference_feats(b, self._final_obs[b])
                for b in range(self.B)
            ]
        )
        with no_grad():
            bootstrap_t, _ = master.shared_critic(
                final_feats, self._critic_state
            )
        advantages, returns = compute_gae(
            data["rewards"],
            data["value"],
            bootstrap_t.data.copy(),
            gamma=master.config.ppo.gamma,
            lam=master.config.ppo.lam,
        )
        stats = master._ppo.update(
            lambda batch: master._evaluate(data, batch),
            data["logprob"],
            advantages,
            returns,
            old_values=data["value"],
        )
        self._buffer.clear()
        shared_stats = {
            "policy_loss": stats.policy_loss,
            "value_loss": stats.value_loss,
            "entropy": stats.entropy,
            "approx_kl": stats.approx_kl,
            "clip_fraction": stats.clip_fraction,
        }
        # One combined update; every seed's history records the same stats.
        return [dict(shared_stats) for _ in range(self.B)]
