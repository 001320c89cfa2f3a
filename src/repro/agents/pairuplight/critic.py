"""Centralized critic network and its neighbourhood feature builder
(paper Fig. 5, lower half; Eq. 9).

The critic sees a broader slice of the network than the actor: its input
concatenates the agent's local observation with link-level pressures of
its one-hop neighbours and intersection-level pressures of its two-hop
neighbours, zero-padded at grid edges so every intersection produces the
same feature layout ("padding technique", Section V-B).  The critic is
only used during centralized training — never at execution time.
"""

from __future__ import annotations

import math

import numpy as np

from repro.env.observation import DEFAULT_APPROACH_SLOTS
from repro.env.tsc_env import TrafficSignalEnv
from repro.nn.linear import Linear
from repro.nn.lstm import LSTMCell
from repro.nn.module import Module
from repro.nn.tensor import Tensor, lstm_trunk

#: Feature slots for one-hop neighbours (N/E/S/W of a grid interior node).
ONE_HOP_SLOTS = 4
#: Feature slots for two-hop neighbours (straight x4 + diagonal x4).
TWO_HOP_SLOTS = 8


def _bearing(env: TrafficSignalEnv, from_node: str, to_node: str) -> float:
    a = env.network.nodes[from_node]
    b = env.network.nodes[to_node]
    return math.degrees(math.atan2(b.x - a.x, b.y - a.y)) % 360.0


class CriticFeatureBuilder:
    """Builds the centralized critic's input vector for each agent.

    With ``centralized=False`` the builder degrades to local-only features
    (the critic-centralisation ablation): the value function then sees
    exactly what the actor sees.
    """

    def __init__(self, env: TrafficSignalEnv, centralized: bool = True) -> None:
        self.env = env
        self.centralized = centralized
        # Neighbour slot assignments are static; compute once.
        self._one_hop: dict[str, list[str | None]] = {}
        self._two_hop: dict[str, list[str | None]] = {}
        for node_id in env.agent_ids:
            self._one_hop[node_id] = self._assign_slots(
                node_id, env.neighbours(node_id), ONE_HOP_SLOTS
            )
            self._two_hop[node_id] = self._assign_slots(
                node_id, env.two_hop_neighbours(node_id), TWO_HOP_SLOTS
            )

    def _assign_slots(
        self, node_id: str, neighbours: list[str], num_slots: int
    ) -> list[str | None]:
        slots: list[str | None] = [None] * max(num_slots, len(neighbours))
        ordered = sorted(neighbours, key=lambda n: _bearing(self.env, node_id, n))
        width = 360.0 / num_slots
        unplaced = []
        for neighbour in ordered:
            index = int(
                ((_bearing(self.env, node_id, neighbour) + width / 2) % 360.0) // width
            )
            if index < len(slots) and slots[index] is None:
                slots[index] = neighbour
            else:
                unplaced.append(neighbour)
        for neighbour in unplaced:
            slots[slots.index(None)] = neighbour
        return slots

    def feature_dim(self, node_id: str) -> int:
        local = self.env.observation_spaces[node_id].dim
        if not self.centralized:
            return local
        one_hop = len(self._one_hop[node_id]) * DEFAULT_APPROACH_SLOTS
        two_hop = len(self._two_hop[node_id])
        return local + one_hop + two_hop

    def build(self, node_id: str, local_obs: np.ndarray) -> np.ndarray:
        """Feature vector: local obs + 1-hop link pressures + 2-hop scalars."""
        if not self.centralized:
            return np.asarray(local_obs, dtype=np.float64)
        env = self.env
        features = [np.asarray(local_obs, dtype=np.float64)]
        for neighbour in self._one_hop[node_id]:
            if neighbour is None:
                features.append(np.zeros(DEFAULT_APPROACH_SLOTS))
            else:
                features.append(env.link_pressures(neighbour))
        two_hop = [
            0.0 if neighbour is None else env.link_pressures(neighbour).sum()
            for neighbour in self._two_hop[node_id]
        ]
        features.append(np.asarray(two_hop, dtype=np.float64))
        return np.concatenate(features)


class CentralizedCritic(Module):
    """Recurrent value network V(s, h; w) over the extended features."""

    def __init__(
        self,
        feature_dim: int,
        hidden_size: int = 64,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.feature_dim = feature_dim
        self.hidden_size = hidden_size
        self._trunk_workspace: dict = {}
        self.encoder = Linear(feature_dim, hidden_size, rng)
        self.lstm = LSTMCell(hidden_size, hidden_size, rng)
        self.value_head = Linear(hidden_size, 1, rng, gain=1.0)

    def initial_state(self, batch: int = 1) -> tuple[np.ndarray, np.ndarray]:
        return self.lstm.initial_state(batch)

    def step_hidden(
        self, features: Tensor | np.ndarray, state: tuple
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Recurrent trunk only: encode features and advance the LSTM.

        Returns ``(hidden, new_state)``; the value head is position-wise
        and can be applied once to a stacked hidden sequence.
        """
        h_prev, c_prev = state
        h_new, c_new = lstm_trunk(
            Tensor.ensure(features),
            h_prev,
            c_prev,
            self.encoder.weight,
            self.encoder.bias,
            self.lstm.weight,
            self.lstm.bias,
            workspace=self._trunk_workspace,
        )
        return h_new, (h_new, c_new)

    def sequence_trunk(self, feature_seq: Tensor | np.ndarray) -> tuple:
        """This network's :func:`repro.nn.tensor.lstm_sequence` trunk over
        a whole ``(horizon, batch, features)`` sequence; see
        :meth:`CoordinatedActor.sequence_trunk`."""
        return (
            Tensor.ensure(feature_seq),
            self.encoder.weight,
            self.encoder.bias,
            self.lstm.weight,
            self.lstm.bias,
        )

    def forward(
        self, features: Tensor | np.ndarray, state: tuple
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """One value step: returns ``(values (batch,), new_state)``."""
        hidden, new_state = self.step_hidden(features, state)
        value = self.value_head(hidden)
        return value.reshape(value.shape[0]), new_state
