"""Weight initialization schemes.

The paper (Algorithm 1, line 2) initializes both the policy and the critic
with *orthogonal* initialization, the standard choice for PPO.  Xavier and
He initializers are provided for the baselines (CoLight's GAT stack, MA2C's
actor-critic heads).

Every scheme returns a C-ordered (row-major) array, the order
:class:`repro.nn.module.Parameter` requires: a GEMM's rounding depends on
its operands' memory order, so one order for every weight keeps a trained
run and a run resumed from a checkpoint bit-identical.
"""

from __future__ import annotations

import numpy as np


def orthogonal(shape: tuple[int, int], gain: float, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal matrix initialization (Saxe et al., 2014).

    For non-square shapes the semi-orthogonal factor from a QR
    decomposition of a Gaussian matrix is used.  A weight wider than it
    is tall is the transpose of that factor; it is copied into C order
    here, so every orthogonal weight is C-ordered whatever its shape.
    """
    if len(shape) != 2:
        raise ValueError("orthogonal init requires a 2-D shape")
    rows, cols = shape
    flat = rng.normal(size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    # Sign correction makes the distribution uniform over orthogonal matrices.
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(gain * q[:rows, :cols])


def xavier_uniform(shape: tuple[int, int], gain: float, rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    fan_in, fan_out = shape
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def he_normal(shape: tuple[int, int], gain: float, rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming normal initialization (for ReLU stacks)."""
    fan_in = shape[0]
    std = gain * np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


_SCHEMES = {
    "orthogonal": orthogonal,
    "xavier": xavier_uniform,
    "he": he_normal,
}


def initialize(
    scheme: str,
    shape: tuple[int, int],
    rng: np.random.Generator,
    gain: float = 1.0,
) -> np.ndarray:
    """Dispatch to a named initialization scheme."""
    try:
        fn = _SCHEMES[scheme]
    except KeyError:
        raise ValueError(f"unknown init scheme {scheme!r}; expected one of {sorted(_SCHEMES)}")
    return fn(shape, gain, rng)
