"""Dense layers and elementwise activation modules."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import initialize
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, affine


class Linear(Module):
    """Affine transform ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input / output widths.
    rng:
        Random generator used for weight initialization (determinism is a
        project-wide requirement; layers never touch global numpy state).
    init:
        Name of the initialization scheme (see :mod:`repro.nn.initializers`).
    gain:
        Initialization gain; PPO convention is ``sqrt(2)`` for hidden layers
        and small gains (0.01) for policy output heads.
    bias:
        Whether to learn an additive bias.

    The forward is the single-node :func:`repro.nn.tensor.affine` op,
    bit-exact with the composed matmul + add pair in forwards and
    gradients.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        init: str = "orthogonal",
        gain: float = float(np.sqrt(2.0)),
        bias: bool = True,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear sizes must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(initialize(init, (in_features, out_features), rng, gain))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = Tensor.ensure(x)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected last dim {self.in_features}, got {x.shape[-1]}"
            )
        return affine(x, self.weight, self.bias)


class Tanh(Module):
    """Elementwise hyperbolic-tangent activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return Tensor.ensure(x).tanh()


class ReLU(Module):
    """Elementwise rectified-linear activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return Tensor.ensure(x).relu()


class Sigmoid(Module):
    """Elementwise logistic activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return Tensor.ensure(x).sigmoid()


class MLP(Module):
    """Multi-layer perceptron with a configurable activation.

    ``hidden`` lists the hidden widths; the output layer gets its own
    ``out_gain`` (policy heads typically use a small gain so that the
    initial policy is near-uniform).
    """

    def __init__(
        self,
        in_features: int,
        hidden: list[int],
        out_features: int,
        rng: np.random.Generator,
        activation: str = "tanh",
        init: str = "orthogonal",
        out_gain: float = 1.0,
    ) -> None:
        super().__init__()
        if activation not in ("tanh", "relu"):
            raise ValueError(f"unsupported activation {activation!r}")
        self.activation = activation
        widths = [in_features] + list(hidden)
        self.hidden_layers = []
        for index, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            layer = Linear(fan_in, fan_out, rng, init=init)
            setattr(self, f"hidden{index}", layer)
            self.hidden_layers.append(layer)
        self.output = Linear(widths[-1], out_features, rng, init=init, gain=out_gain)

    def forward(self, x: Tensor) -> Tensor:
        h = Tensor.ensure(x)
        for layer in self.hidden_layers:
            h = layer(h)
            h = h.tanh() if self.activation == "tanh" else h.relu()
        return self.output(h)
