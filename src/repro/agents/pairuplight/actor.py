"""Coordinated actor network (paper Fig. 5, upper half; Eq. 8).

Input: local observation (Eq. 5) concatenated with the incoming message
from the communication partner.  Body: dense layer -> tanh -> LSTM.
Heads: a phase-logit head (the action probability distribution) and a
message head (the raw outgoing message mean).  With ``message_dim=0``
(no communication) the actor has neither the message input nor the
message head: it is the SingleAgentRL baseline's local policy.
"""

from __future__ import annotations

import numpy as np

from repro.nn.linear import Linear
from repro.nn.lstm import LSTMCell
from repro.nn.module import Module
from repro.nn.tensor import Tensor, concat, lstm_trunk


class CoordinatedActor(Module):
    """PairUpLight's recurrent communicating policy network."""

    def __init__(
        self,
        obs_dim: int,
        num_phases: int,
        message_dim: int = 1,
        hidden_size: int = 64,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.obs_dim = obs_dim
        self.num_phases = num_phases
        self.message_dim = message_dim
        self.hidden_size = hidden_size
        self._trunk_workspace: dict = {}
        self.encoder = Linear(obs_dim + message_dim, hidden_size, rng)
        self.lstm = LSTMCell(hidden_size, hidden_size, rng)
        # Small-gain heads: near-uniform initial policy, near-zero messages.
        self.policy_head = Linear(hidden_size, num_phases, rng, gain=0.01)
        self.message_head = (
            Linear(hidden_size, message_dim, rng, gain=0.01) if message_dim else None
        )

    def initial_state(self, batch: int = 1) -> tuple[np.ndarray, np.ndarray]:
        return self.lstm.initial_state(batch)

    def _inputs(self, obs, incoming_message) -> Tensor:
        """The encoder input: ``obs``, joined by the incoming message
        unless the actor has no message input."""
        obs = Tensor.ensure(obs)
        if not self.message_dim:
            return obs
        return concat([obs, Tensor.ensure(incoming_message)], axis=-1)

    def step_hidden(
        self,
        obs: Tensor | np.ndarray,
        incoming_message: Tensor | np.ndarray | None,
        state: tuple,
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Recurrent trunk only: encode the inputs and advance the LSTM.

        Returns ``(hidden, new_state)``.  The policy/message heads are
        position-wise, so a whole sequence's hidden states (see
        :meth:`sequence_trunk`) can go through each head once as a
        stacked ``(horizon, batch, hidden)`` tensor.
        """
        h_prev, c_prev = state
        h_new, c_new = lstm_trunk(
            self._inputs(obs, incoming_message),
            h_prev,
            c_prev,
            self.encoder.weight,
            self.encoder.bias,
            self.lstm.weight,
            self.lstm.bias,
            workspace=self._trunk_workspace,
        )
        return h_new, (h_new, c_new)

    def sequence_trunk(
        self,
        obs_seq: Tensor | np.ndarray,
        incoming_seq: Tensor | np.ndarray | None,
    ) -> tuple:
        """This network's trunk over a whole ``(horizon, batch, ·)``
        sequence, as one :func:`repro.nn.tensor.lstm_sequence` trunk
        ``(x, enc_weight, enc_bias, weight, bias)``."""
        return (
            self._inputs(obs_seq, incoming_seq),
            self.encoder.weight,
            self.encoder.bias,
            self.lstm.weight,
            self.lstm.bias,
        )

    def forward(
        self,
        obs: Tensor | np.ndarray,
        incoming_message: Tensor | np.ndarray | None,
        state: tuple,
    ) -> tuple[Tensor, Tensor | None, tuple[Tensor, Tensor]]:
        """One decision step.

        Parameters
        ----------
        obs:
            ``(batch, obs_dim)`` local observations.
        incoming_message:
            ``(batch, message_dim)`` regularized messages from partners;
            ignored (pass ``None``) when ``message_dim`` is 0.
        state:
            LSTM ``(h, c)``.

        Returns
        -------
        ``(logits, message_mean, new_state)``; ``message_mean`` is
        ``None`` without a message head.
        """
        hidden, new_state = self.step_hidden(obs, incoming_message, state)
        # Policy head first: the graph's node order fixes the order in
        # which the heads' gradients accumulate into ``hidden``.
        logits = self.policy_head(hidden)
        message_mean = None if self.message_head is None else self.message_head(hidden)
        return logits, message_mean, new_state
