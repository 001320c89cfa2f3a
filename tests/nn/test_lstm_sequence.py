"""Oracle tests for the whole-sequence trunk kernel ``lstm_sequence``.

The oracle is the per-step :func:`lstm_trunk` unroll from a zero state
followed by :func:`stack`.  The kernel must match it bit for bit: the
forward hidden states and every accumulated parameter gradient, with a
downstream head consuming the stacked output so the head gradient
``dH`` is routed into every step.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn.tensor as tensor_mod
from repro.nn.tensor import Tensor, affine, lstm_sequence, lstm_trunk, no_grad, stack

FEATURES, ENCODED, HIDDEN = 5, 4, 3


def _params() -> list[np.ndarray]:
    rng = np.random.default_rng(0)
    shapes = [
        (FEATURES, ENCODED),
        (ENCODED,),
        (ENCODED + HIDDEN, 4 * HIDDEN),
        (4 * HIDDEN,),
    ]
    return [rng.standard_normal(shape) * 0.5 for shape in shapes]


def _inputs(steps: int, rows: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((steps, rows, FEATURES))


def _head_loss(hidden: Tensor) -> Tensor:
    """A downstream head over the stacked states: affine, tanh, sum."""
    weight = Tensor(np.linspace(-1.0, 1.0, HIDDEN * 2).reshape(HIDDEN, 2))
    out = affine(hidden, weight).tanh()
    return (out * out).sum()


def _oracle(xs, params: list[Tensor], workspace: dict) -> Tensor:
    """Per-step ``lstm_trunk`` unroll from a zero state, then ``stack``."""
    rows = xs.shape[1]
    h = np.zeros((rows, HIDDEN))
    c = np.zeros((rows, HIDDEN))
    hidden = []
    for t in range(xs.shape[0]):
        h, c = lstm_trunk(xs[t], h, c, *params, workspace=workspace)
        hidden.append(h)
    return stack(hidden, axis=0)


def _run(xs: np.ndarray, kernel: bool, workspace: dict):
    params = [Tensor(p, requires_grad=True) for p in _params()]
    if kernel:
        hidden = lstm_sequence(xs, *params, workspace=workspace)
    else:
        hidden = _oracle(xs, params, workspace)
    _head_loss(hidden).backward()
    return hidden.data, [p.grad for p in params]


def _assert_same(got, want):
    hidden_got, grads_got = got
    hidden_want, grads_want = want
    assert np.array_equal(hidden_got, hidden_want)
    assert len(grads_got) == len(grads_want) == 4
    for grad_got, grad_want in zip(grads_got, grads_want):
        assert grad_got is not None
        assert np.array_equal(grad_got, grad_want)


@pytest.mark.parametrize("steps", [1, 5])
@pytest.mark.parametrize("rows", [1, 3])
def test_matches_per_step_unroll_bit_exact(steps, rows):
    xs = _inputs(steps, rows, seed=10 * steps + rows)
    _assert_same(_run(xs, True, {}), _run(xs, False, {}))


def test_ragged_second_call_through_same_workspace():
    workspace: dict = {}
    oracle_ws: dict = {}
    for rows, seed in ((3, 1), (2, 2), (3, 3)):
        xs = _inputs(4, rows, seed)
        _assert_same(_run(xs, True, workspace), _run(xs, False, oracle_ws))


def test_input_gradient_matches_unroll():
    xs = _inputs(4, 2, seed=7)
    x_seq = Tensor(xs.copy(), requires_grad=True)
    params = [Tensor(p, requires_grad=True) for p in _params()]
    _head_loss(lstm_sequence(x_seq, *params)).backward()
    x_steps = Tensor(xs.copy(), requires_grad=True)
    params = [Tensor(p, requires_grad=True) for p in _params()]
    _head_loss(_oracle(x_steps, params, {})).backward()
    assert np.array_equal(x_seq.grad, x_steps.grad)


def test_records_one_node():
    """The whole sequence is one node whose parents are all leaves."""
    params = [Tensor(p, requires_grad=True) for p in _params()]
    hidden = lstm_sequence(_inputs(6, 2, seed=4), *params)
    assert hidden.requires_grad
    assert hidden.shape == (6, 2, HIDDEN)
    assert tensor_mod._TAPE[-1]() is hidden
    assert all(parent._backward is None for parent in hidden._parents)


def test_no_grad_records_nothing():
    params = [Tensor(p, requires_grad=True) for p in _params()]
    xs = _inputs(5, 3, seed=5)
    before = len(tensor_mod._TAPE)
    with no_grad():
        hidden = lstm_sequence(xs, *params)
    assert len(tensor_mod._TAPE) == before
    assert not hidden.requires_grad
    assert hidden._backward is None and hidden._parents == ()
    assert np.array_equal(hidden.data, _run(xs, True, {})[0])


def test_rejects_non_sequence_input():
    with pytest.raises(ValueError):
        lstm_sequence(np.zeros((3, FEATURES)), *_params())
