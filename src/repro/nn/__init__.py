"""Neural-network substrate: numpy autograd, layers, and optimizers.

This package replaces PyTorch for the reproduction (see DESIGN.md section
2).  Public surface:

* :class:`~repro.nn.tensor.Tensor` — autograd array.
* :class:`~repro.nn.module.Module` / :class:`~repro.nn.module.Parameter`.
* Layers — :class:`~repro.nn.linear.Linear`, :class:`~repro.nn.linear.MLP`,
  :class:`~repro.nn.lstm.LSTMCell`,
  :class:`~repro.nn.attention.GraphAttention`.
* Optimizers — :class:`~repro.nn.optim.Adam`, :class:`~repro.nn.optim.SGD`,
  :class:`~repro.nn.optim.RMSProp`.
* :mod:`~repro.nn.functional` — softmax / losses / sampling helpers.
"""

from repro.nn import functional
from repro.nn.attention import GraphAttention
from repro.nn.initializers import initialize
from repro.nn.linear import MLP, Linear, ReLU, Sigmoid, Tanh
from repro.nn.lstm import LSTMCell
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.optim import SGD, Adam, Optimizer, RMSProp, clip_grad_norm
from repro.nn.serialization import (
    atomic_savez,
    load_state,
    read_archive,
    save_state,
    validate_finite_state,
)
from repro.nn.tensor import (
    Tensor,
    affine,
    concat,
    lstm_cell,
    lstm_sequence,
    lstm_trunk,
    no_grad,
    stack,
    where,
)

__all__ = [
    "Adam",
    "GraphAttention",
    "LSTMCell",
    "Linear",
    "MLP",
    "Module",
    "Optimizer",
    "Parameter",
    "RMSProp",
    "ReLU",
    "SGD",
    "Sequential",
    "Sigmoid",
    "Tanh",
    "Tensor",
    "affine",
    "atomic_savez",
    "clip_grad_norm",
    "concat",
    "functional",
    "initialize",
    "load_state",
    "lstm_cell",
    "lstm_sequence",
    "lstm_trunk",
    "no_grad",
    "read_archive",
    "save_state",
    "stack",
    "validate_finite_state",
    "where",
]
