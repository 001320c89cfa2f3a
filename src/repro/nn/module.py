"""Module / Parameter abstractions for :mod:`repro.nn`.

Mirrors the familiar ``torch.nn.Module`` contract at the scale this project
needs: parameter registration through attribute assignment, recursive
``parameters()`` / ``state_dict()`` traversal, and ``zero_grad``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is always trainable.

    Its data must be C-ordered (``ValueError`` otherwise).  Loading,
    copying, Polyak averaging and every optimizer step keep that order,
    so it is checked here once.
    """

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)
        if not self.data.flags.c_contiguous:
            raise ValueError("Parameter data must be C-ordered (row-major)")


class Module:
    """Base class for neural-network components.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically for optimization and
    serialization.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its children."""
        for param in self._parameters.values():
            yield param
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter array keyed by dotted path."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict`.

        All-or-nothing: every key and shape is validated before the
        first parameter is assigned, so a mismatched state dict can
        never leave the module half-loaded.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        staged: dict[str, np.ndarray] = {}
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"expected {param.data.shape}, got {value.shape}"
                )
            staged[name] = value
        for name, param in own.items():
            param.data = staged[name].copy(order="C")

    def copy_from(self, other: "Module") -> None:
        """Hard-copy parameters from a structurally identical module."""
        self.load_state_dict(other.state_dict())

    def soft_update_from(self, other: "Module", tau: float) -> None:
        """Polyak-average parameters from ``other``: ``p = tau*q + (1-tau)*p``."""
        own = dict(self.named_parameters())
        for name, source in other.named_parameters():
            own[name].data = tau * source.data + (1.0 - tau) * own[name].data

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = list(modules)
        for index, module in enumerate(modules):
            setattr(self, f"layer{index}", module)

    def forward(self, x):
        for module in self.layers:
            x = module(x)
        return x
