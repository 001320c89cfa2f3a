"""LSTM cell used by the PairUpLight actor and critic.

Both networks in Fig. 5 of the paper carry a recurrent hidden state
(`h_{t,pi}` for the actor, `h_{t,V}` for the critic); this module provides
the single-step cell those networks need, and holds its parameters.  The
cell itself only steps.  Whole sequences are run by the PPO update: the
networks hand their trunks (``CoordinatedActor.sequence_trunk`` /
``CentralizedCritic.sequence_trunk``: input, encoder and this cell's
weights) to the grouped whole-sequence kernel
:func:`repro.nn.tensor.lstm_sequence`, actor and critic in one call.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import initialize
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, lstm_cell


class LSTMCell(Module):
    """Standard LSTM cell with a fused gate projection.

    Gates are computed as ``[i, f, g, o] = [x, h] @ W + b`` with the forget
    bias initialized to 1.0 (standard trick for gradient flow early in
    training).

    The step runs through the single-kernel
    :func:`repro.nn.tensor.lstm_cell` op — two graph nodes and a
    hand-derived backward with per-cell buffer reuse — bit-exact in
    forward values and accumulated gradients with the ~15-node composed
    op chain (the test suite keeps that chain as its oracle).
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator,
        init: str = "orthogonal",
    ) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("LSTMCell sizes must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self._workspace: dict = {}
        self.weight = Parameter(
            initialize(init, (input_size + hidden_size, 4 * hidden_size), rng, gain=1.0)
        )
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget-gate bias
        self.bias = Parameter(bias)

    def initial_state(self, batch: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Zero ``(h, c)`` arrays for a fresh episode (Algorithm 1, line 4)."""
        return (
            np.zeros((batch, self.hidden_size)),
            np.zeros((batch, self.hidden_size)),
        )

    def forward(
        self,
        x: Tensor,
        state: tuple[Tensor | np.ndarray, Tensor | np.ndarray],
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """One recurrent step.

        Parameters
        ----------
        x:
            ``(batch, input_size)`` input.
        state:
            ``(h, c)`` pair, each ``(batch, hidden_size)``.

        Returns
        -------
        ``(h_new, (h_new, c_new))`` — hidden output plus the new state.
        """
        x = Tensor.ensure(x)
        h_prev = Tensor.ensure(state[0])
        c_prev = Tensor.ensure(state[1])
        if x.shape[-1] != self.input_size:
            raise ValueError(f"LSTMCell expected input {self.input_size}, got {x.shape[-1]}")
        h_new, c_new = lstm_cell(
            x, h_prev, c_prev, self.weight, self.bias, workspace=self._workspace
        )
        return h_new, (h_new, c_new)
