"""Oracle tests for the grouped whole-sequence trunk kernel ``lstm_sequence``.

Two oracles, each run once per trunk from a zero state, with a
downstream head consuming the stacked output so the head gradient
``dH`` is routed into every step:

* the per-step :func:`lstm_trunk` unroll followed by :func:`stack`.
  The kernel matches it bit for bit in the hidden states, the input
  gradient and the two bias gradients (each bias sums its per-step
  gradients in tape order);
* the whole-sequence oracle ``helpers.composed_lstm_sequence``, which
  keeps every value as a per-step chain but forms each weight gradient
  as one GEMM over the ``T·N`` rows in time order, as the kernel does.
  The kernel matches it bit for bit in the encoder and LSTM weight
  gradients.  Against the unroll, which accumulates ``T`` per-step
  GEMMs, those two agree only to reduction-order rounding, within the
  forward-error bound checked by the property test at the end.

The single-trunk tests come first; the production-shape and grouped
(G = 2 and 3) tests follow.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.tensor as tensor_mod
from helpers import composed_lstm_sequence
from repro.nn.initializers import orthogonal
from repro.nn.tensor import Tensor, affine, lstm_sequence, lstm_trunk, no_grad, stack

FEATURES, ENCODED, HIDDEN = 5, 4, 3

#: Positions of the encoder and LSTM weights in a trunk's parameter list
#: ``[enc_weight, enc_bias, weight, bias]``: their gradients are compared
#: with the whole-sequence oracle, the biases' with the unroll.
WEIGHTS = (0, 2)


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


def _run(xs: np.ndarray, mode: str, workspace: dict):
    """Hidden states and parameter gradients of one trunk through the
    ``"kernel"``, the ``"unroll"`` or the whole-``"sequence"`` oracle."""
    params = [Tensor(p, requires_grad=True) for p in _params()]
    if mode == "kernel":
        (hidden,) = lstm_sequence((xs, *params), workspace=workspace)
    elif mode == "unroll":
        hidden = _oracle(xs, params, workspace)
    else:
        (hidden,) = composed_lstm_sequence((xs, *params))
    _head_loss(hidden).backward()
    return hidden.data, [p.grad for p in params]


def _assert_same(got, unroll, sequence):
    """Hidden states and bias gradients equal the unroll's, weight
    gradients the whole-sequence oracle's."""
    hidden_got, grads_got = got
    assert np.array_equal(hidden_got, unroll[0])
    assert len(grads_got) == len(unroll[1]) == len(sequence[1]) == 4
    for k, grad_got in enumerate(grads_got):
        want = sequence[1][k] if k in WEIGHTS else unroll[1][k]
        assert grad_got is not None
        assert np.array_equal(grad_got, want)


@pytest.mark.parametrize("steps", [1, 5])
@pytest.mark.parametrize("rows", [1, 3])
def test_matches_per_step_unroll_bit_exact(steps, rows):
    xs = _inputs(steps, rows, seed=10 * steps + rows)
    _assert_same(
        _run(xs, "kernel", {}), _run(xs, "unroll", {}), _run(xs, "sequence", {})
    )


def test_sequence_oracle_differs_from_unroll_only_in_weights():
    """The whole-sequence oracle is the unroll in every value and in the
    bias gradients; its weight gradients sum the same products in
    another order."""
    xs = _inputs(6, 3, seed=11)
    sequence = _run(xs, "sequence", {})
    unroll = _run(xs, "unroll", {})
    assert np.array_equal(sequence[0], unroll[0])
    for k, (got, want) in enumerate(zip(sequence[1], unroll[1])):
        if k in WEIGHTS:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
        else:
            assert np.array_equal(got, want)


def test_ragged_second_call_through_same_workspace():
    workspace: dict = {}
    oracle_ws: dict = {}
    for rows, seed in ((3, 1), (2, 2), (3, 3)):
        xs = _inputs(4, rows, seed)
        _assert_same(
            _run(xs, "kernel", workspace),
            _run(xs, "unroll", oracle_ws),
            _run(xs, "sequence", {}),
        )


def test_input_gradient_matches_unroll():
    xs = _inputs(4, 2, seed=7)
    x_seq = Tensor(xs.copy(), requires_grad=True)
    params = [Tensor(p, requires_grad=True) for p in _params()]
    _head_loss(lstm_sequence((x_seq, *params))[0]).backward()
    x_steps = Tensor(xs.copy(), requires_grad=True)
    params = [Tensor(p, requires_grad=True) for p in _params()]
    _head_loss(_oracle(x_steps, params, {})).backward()
    assert np.array_equal(x_seq.grad, x_steps.grad)


def test_records_one_node():
    """The whole sequence is one node whose parents are all leaves."""
    params = [Tensor(p, requires_grad=True) for p in _params()]
    (hidden,) = lstm_sequence((_inputs(6, 2, seed=4), *params))
    assert hidden.requires_grad
    assert hidden.shape == (6, 2, HIDDEN)
    assert tensor_mod._TAPE[-1]() is hidden
    assert all(parent._backward is None for parent in hidden._parents)


def test_no_grad_records_nothing():
    params = [Tensor(p, requires_grad=True) for p in _params()]
    xs = _inputs(5, 3, seed=5)
    before = len(tensor_mod._TAPE)
    with no_grad():
        (hidden,) = lstm_sequence((xs, *params))
    assert len(tensor_mod._TAPE) == before
    assert not hidden.requires_grad
    assert hidden._backward is None and hidden._parents == ()
    assert np.array_equal(hidden.data, _run(xs, "kernel", {})[0])


def test_rejects_non_sequence_input():
    with pytest.raises(ValueError):
        lstm_sequence((np.zeros((3, FEATURES)), *_params()))


# ----------------------------------------------------------------------
# Production shapes and grouped trunks
# ----------------------------------------------------------------------
#: The PairUpLight trunks: E = H = 64, one 60-decision episode, actor
#: input 8 + 1 (observation + message), critic input 32.
PROD_E = PROD_H = 64
PROD_T = 60


def _trunk_params(features: int, seed: int, orthogonal_init: bool) -> list[np.ndarray]:
    """Encoder and LSTM parameters for one trunk, all C-ordered as every
    ``Parameter`` is.  ``orthogonal_init`` draws the weights with the
    production initializer (the LSTM weight is wider than it is tall);
    otherwise they are scaled Gaussians."""
    rng = np.random.default_rng(seed)
    if orthogonal_init:
        enc_weight = orthogonal((features, PROD_E), float(np.sqrt(2.0)), rng)
        weight = orthogonal((PROD_E + PROD_H, 4 * PROD_H), 1.0, rng)
    else:
        enc_weight = rng.standard_normal((features, PROD_E)) * 0.3
        weight = rng.standard_normal((PROD_E + PROD_H, 4 * PROD_H)) * 0.2
    params = [
        enc_weight,
        rng.standard_normal(PROD_E) * 0.1,
        weight,
        rng.standard_normal(4 * PROD_H) * 0.1,
    ]
    assert all(p.flags.c_contiguous for p in params)
    return params


def _prod_inputs(features: int, rows: int, seed: int) -> np.ndarray:
    """A ``(T, rows, features)`` minibatch gathered from a wider rollout
    buffer, as ``data[:, batch]`` hands it to the kernel (not contiguous)."""
    rng = np.random.default_rng(seed)
    rollout = rng.standard_normal((PROD_T, 36, features))
    return rollout[:, rng.permutation(36)[:rows]]


def _unroll(x: Tensor, params: list[Tensor]) -> Tensor:
    rows = x.shape[1]
    h = np.zeros((rows, PROD_H))
    c = np.zeros((rows, PROD_H))
    hidden = []
    for t in range(x.shape[0]):
        h, c = lstm_trunk(x[t], h, c, *params, workspace={})
        hidden.append(h)
    return stack(hidden, axis=0)


def _grouped_loss(hiddens) -> Tensor:
    """Distinct downstream heads per trunk, summed into one loss."""
    total = None
    for g, hidden in enumerate(hiddens):
        weight = Tensor(np.linspace(-1.0, 1.0 + g, PROD_H * 3).reshape(PROD_H, 3))
        out = affine(hidden, weight).tanh()
        loss = (out * out).sum()
        total = loss if total is None else total + loss
    return total


def _run_group(specs, mode: str, workspace: dict | None = None):
    """Run trunks ``specs`` = [(x, params)] through the ``"kernel"``, the
    per-trunk ``"unroll"`` or the whole-``"sequence"`` oracle; return
    (hidden, param grads, input grad) per trunk."""
    xs = [Tensor(x.copy(), requires_grad=True) for x, _ in specs]
    params = [[Tensor(p.copy(), requires_grad=True) for p in ps] for _, ps in specs]
    trunks = [(x, *p) for x, p in zip(xs, params)]
    if mode == "kernel":
        hiddens = lstm_sequence(*trunks, workspace=workspace)
    elif mode == "unroll":
        hiddens = [_unroll(x, p) for x, p in zip(xs, params)]
    else:
        hiddens = composed_lstm_sequence(*trunks)
    _grouped_loss(hiddens).backward()
    return [
        (h.data, [p.grad for p in ps], x.grad)
        for h, ps, x in zip(hiddens, params, xs)
    ]


def _assert_bits(got, want):
    """Equal shapes and bytes: bit-exact, signed zeros included."""
    assert got is not None and want is not None
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _assert_group_bits(got, specs, workspace: dict | None = None):
    """Hidden states, input and bias gradients equal the unroll's bytes,
    weight gradients the whole-sequence oracle's."""
    unroll = _run_group(specs, "unroll")
    sequence = _run_group(specs, "sequence")
    assert len(got) == len(unroll) == len(sequence)
    for (h_got, grads_got, dx_got), (h_want, grads_want, dx_want), seq in zip(
        got, unroll, sequence
    ):
        _assert_bits(h_got, h_want)
        assert len(grads_got) == len(grads_want) == 4
        for k, grad_got in enumerate(grads_got):
            _assert_bits(grad_got, seq[1][k] if k in WEIGHTS else grads_want[k])
        _assert_bits(dx_got, dx_want)


@pytest.mark.parametrize("orthogonal_init", [True, False])
@pytest.mark.parametrize("rows", [8, 5])
@pytest.mark.parametrize("features", [9, 32])
def test_production_shapes_bit_exact(features, rows, orthogonal_init):
    specs = [
        (
            _prod_inputs(features, rows, seed=rows),
            _trunk_params(features, 1, orthogonal_init),
        )
    ]
    _assert_group_bits(_run_group(specs, "kernel", {}), specs)


@pytest.mark.parametrize("orthogonal_init", [True, False])
@pytest.mark.parametrize("rows", [8, 5])
def test_grouped_actor_critic_bit_exact(rows, orthogonal_init):
    specs = [
        (_prod_inputs(9, rows, seed=2), _trunk_params(9, 3, orthogonal_init)),
        (_prod_inputs(32, rows, seed=4), _trunk_params(32, 5, orthogonal_init)),
    ]
    _assert_group_bits(_run_group(specs, "kernel", {}), specs)


def test_grouped_ragged_minibatches_share_a_workspace():
    workspace: dict = {}
    for rows in (8, 3, 8, 1):
        specs = [
            (_prod_inputs(9, rows, seed=rows), _trunk_params(9, 6, True)),
            (_prod_inputs(32, rows, seed=rows + 1), _trunk_params(32, 7, True)),
        ]
        _assert_group_bits(_run_group(specs, "kernel", workspace), specs)


def test_three_trunks_ragged_minibatches_share_a_workspace():
    """G = 3, three input widths: with more than one trunk each weight
    gradient reads its trunk's rows from a contiguous copy."""
    workspace: dict = {}
    for rows in (8, 3, 1):
        specs = [
            (_prod_inputs(9, rows, seed=rows), _trunk_params(9, 10, True)),
            (_prod_inputs(32, rows, seed=rows + 1), _trunk_params(32, 11, True)),
            (_prod_inputs(5, rows, seed=rows + 2), _trunk_params(5, 12, False)),
        ]
        _assert_group_bits(_run_group(specs, "kernel", workspace), specs)


def test_workspace_footprint_at_production_shapes():
    """A grad-enabled call and its backward leave no more workspace bytes
    than the group-major layout before gate-major storage did: saved
    inputs, gates and cell states, the stacked parameters and the
    per-step scratch."""
    groups, steps, rows, enc, hs = 2, PROD_T, 8, PROD_E, PROD_H
    width = enc + hs
    saved = (
        groups * (steps + 1) * rows * width  # encoder outputs and h
        + groups * steps * rows * 4 * hs  # gate activations
        + (2 * steps + 1) * groups * rows * hs  # c_0..c_T and tanh(c)
        + groups * (width * 4 * hs + 4 * hs)  # stacked weights and biases
        + groups * rows * (4 * hs + 2 * hs)  # one step's gates, tanh(g), i*g
    )
    backward = (
        groups * steps * rows * enc  # encoder pre-activation gradients
        + groups * rows * (4 * hs + width + 5 * hs)  # one step's scratch
    )
    specs = [
        (_prod_inputs(9, rows, seed=1), _trunk_params(9, 1, True)),
        (_prod_inputs(32, rows, seed=2), _trunk_params(32, 2, True)),
    ]
    workspace: dict = {}
    hiddens = lstm_sequence(
        *[(x, *[Tensor(p, requires_grad=True) for p in ps]) for x, ps in specs],
        workspace=workspace,
    )

    def nbytes() -> int:
        return sum(v.nbytes for v in workspace.values() if isinstance(v, np.ndarray))

    assert nbytes() <= 8 * saved
    _grouped_loss(hiddens).backward()
    assert nbytes() <= 8 * (saved + backward)


def test_grouped_records_one_kernel_node_and_taps():
    """G = 2: one kernel node over every leaf, then one tap per further trunk."""
    trunks = [
        (_inputs(6, 2, seed=1), *[Tensor(p, requires_grad=True) for p in _params()]),
        (_inputs(6, 2, seed=2), *[Tensor(p, requires_grad=True) for p in _params()]),
    ]
    first, second = lstm_sequence(*trunks)
    assert first.shape == second.shape == (6, 2, HIDDEN)
    assert tensor_mod._TAPE[-2]() is first
    assert tensor_mod._TAPE[-1]() is second
    assert len(first._parents) == 10
    assert all(parent._backward is None for parent in first._parents)
    assert second._parents == (first,)


def test_grouped_no_grad_records_nothing():
    trunks = [
        (_inputs(5, 3, seed=5), *_params()),
        (_inputs(5, 3, seed=6), *_params()),
    ]
    before = len(tensor_mod._TAPE)
    workspace: dict = {}
    with no_grad():
        hiddens = lstm_sequence(*trunks, workspace=workspace)
    assert len(tensor_mod._TAPE) == before
    assert workspace == {}
    for hidden, (xs, *_) in zip(hiddens, trunks):
        assert not hidden.requires_grad
        assert hidden._backward is None and hidden._parents == ()
        assert np.array_equal(hidden.data, _run(xs, "kernel", {})[0])


def test_grouped_unused_trunk_accumulates_nothing():
    """Only the second trunk feeds the loss: the first trunk's parameters
    get no gradient; the second's biases match its unroll and its
    weights the whole-sequence oracle."""
    specs = [
        (_prod_inputs(9, 4, seed=8), _trunk_params(9, 8, True)),
        (_prod_inputs(32, 4, seed=9), _trunk_params(32, 9, True)),
    ]
    params = [[Tensor(p, requires_grad=True) for p in ps] for _, ps in specs]
    _, second = lstm_sequence(*[(x, *p) for (x, _), p in zip(specs, params)])
    _grouped_loss([second]).backward()
    assert all(p.grad is None for p in params[0])
    unroll = [Tensor(p, requires_grad=True) for p in specs[1][1]]
    _grouped_loss([_unroll(Tensor(specs[1][0]), unroll)]).backward()
    sequence = [Tensor(p, requires_grad=True) for p in specs[1][1]]
    _grouped_loss(composed_lstm_sequence((specs[1][0], *sequence))).backward()
    for k, got in enumerate(params[1]):
        want = sequence[k] if k in WEIGHTS else unroll[k]
        _assert_bits(got.grad, want.grad)


def test_workspace_reuse_before_backward_raises():
    workspace: dict = {}
    params = [Tensor(p, requires_grad=True) for p in _params()]
    (stale,) = lstm_sequence((_inputs(3, 2, seed=1), *params), workspace=workspace)
    lstm_sequence((_inputs(3, 2, seed=2), *params), workspace=workspace)
    with pytest.raises(RuntimeError):
        _head_loss(stale).backward()


def _mismatched_trunks():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 2, FEATURES))
    base = _params()
    wider_encoder = [
        rng.standard_normal((FEATURES, ENCODED + 1)),
        np.zeros(ENCODED + 1),
        rng.standard_normal((ENCODED + 1 + HIDDEN, 4 * HIDDEN)),
        np.zeros(4 * HIDDEN),
    ]
    wider_hidden = [
        base[0],
        base[1],
        rng.standard_normal((ENCODED + HIDDEN + 1, 4 * (HIDDEN + 1))),
        np.zeros(4 * (HIDDEN + 1)),
    ]
    return {
        "encoder width": [(x, *base), (x, *wider_encoder)],
        "hidden size": [(x, *base), (x, *wider_hidden)],
        "steps": [(x, *base), (x[:3], *base)],
        "rows": [(x, *base), (x[:, :1], *base)],
        "no trunks": [],
        "short trunk": [(x, *base[:3])],
        # Biases that broadcast in the forward, and an encoder that does
        # not fit the input width.
        "scalar bias": [(x, base[0], base[1], base[2], np.zeros(1))],
        "scalar encoder bias": [(x, base[0], np.zeros(1), base[2], base[3])],
        "encoder rows": [(x[..., :-1], *base)],
    }


@pytest.mark.parametrize("case", sorted(_mismatched_trunks()))
def test_rejects_mismatched_trunks(case):
    with pytest.raises(ValueError):
        lstm_sequence(*_mismatched_trunks()[case])


def test_second_backward_through_the_kernel_raises():
    params = [Tensor(p, requires_grad=True) for p in _params()]
    (hidden,) = lstm_sequence((_inputs(3, 2, seed=3), *params), workspace={})
    loss = _head_loss(hidden)
    loss.backward()
    with pytest.raises(RuntimeError):
        loss.backward()


# ----------------------------------------------------------------------
# Weight gradients against the unroll: reduction-order rounding only
# ----------------------------------------------------------------------
_U = np.finfo(np.float64).eps / 2


def _gamma(n: int) -> float:
    """Higham's ``γ_n = n·u / (1 - n·u)``, u the unit roundoff."""
    return n * _U / (1.0 - n * _U)


def _weight_gradient_magnitudes(x, params, workspace: dict, g: int, hidden):
    """``Σ|input|·|dpre|`` over the ``T·N`` rows for trunk ``g``'s encoder
    and LSTM weight, read after the backward: the kernel leaves each
    step's gate and encoder pre-activation gradients in its ``seq_act``
    (as ``(T, G, N, 4H)``) and ``seq_d_enc`` buffers."""
    enc_weight, enc_bias = params[:2]
    steps, rows = x.shape[:2]
    encoded = np.tanh(x @ enc_weight + enc_bias)
    h_prev = np.concatenate([np.zeros((1, *hidden.shape[1:])), hidden[:-1]])
    xh = np.concatenate([encoded, h_prev], axis=-1).reshape(steps * rows, -1)
    groups = workspace["seq_act"].shape[2]
    dpre = workspace["seq_act"].reshape(steps, groups, rows, -1)[:, g]
    dpre = dpre.reshape(steps * rows, -1)
    dpre_enc = workspace["seq_d_enc"][g].reshape(steps * rows, -1)
    x_rows = x.reshape(steps * rows, -1)
    return np.abs(x_rows).T @ np.abs(dpre_enc), np.abs(xh).T @ np.abs(dpre)


@settings(max_examples=30, deadline=None)
@given(
    steps=st.integers(1, 12),
    row_counts=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    features=st.lists(st.integers(1, 7), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_weight_gradients_within_forward_error_of_unroll(
    steps, row_counts, features, seed
):
    """Both weight gradients sum the same ``T·N`` products per element,
    the kernel in one GEMM and the unroll over ``T`` per-step GEMMs.
    Each sum is within ``γ_{T·N}·Σ|input|·|dpre|`` of the exact one, so
    the two are within twice that of each other.  ``G`` is 1 to 3
    trunks of distinct widths, run over ragged row counts through one
    workspace."""
    rng = np.random.default_rng(seed)
    workspace: dict = {}
    for rows in row_counts:
        specs = [
            (
                rng.standard_normal((steps, rows, width)),
                [
                    rng.standard_normal((width, ENCODED)) * 0.5,
                    rng.standard_normal(ENCODED) * 0.5,
                    rng.standard_normal((ENCODED + HIDDEN, 4 * HIDDEN)) * 0.5,
                    rng.standard_normal(4 * HIDDEN) * 0.5,
                ],
            )
            for width in features
        ]
        kernel = [[Tensor(p, requires_grad=True) for p in ps] for _, ps in specs]
        unroll = [[Tensor(p, requires_grad=True) for p in ps] for _, ps in specs]
        hiddens = lstm_sequence(
            *[(x, *ps) for (x, _), ps in zip(specs, kernel)], workspace=workspace
        )
        sum(_head_loss(h) for h in hiddens).backward()
        sum(_head_loss(_oracle(x, ps, {})) for (x, _), ps in zip(specs, unroll)).backward()
        bound = 2.0 * _gamma(steps * rows)
        for g, ((x, params), got, want) in enumerate(zip(specs, kernel, unroll)):
            magnitudes = _weight_gradient_magnitudes(
                x, params, workspace, g, hiddens[g].data
            )
            for k, magnitude in zip(WEIGHTS, magnitudes):
                assert np.all(np.abs(got[k].grad - want[k].grad) <= bound * magnitude)
            # The biases stay bit-exact.
            for k in (1, 3):
                assert np.array_equal(got[k].grad, want[k].grad)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 70),
    groups=st.integers(1, 3),
    width=st.integers(1, 40),
    reverse=st.booleans(),
)
def test_sum_steps_adds_in_index_order(seed, steps, groups, width, reverse):
    """One reduce over the step axis is the tape's step-by-step sum, also
    for the reversed (negative-stride) views the kernel passes in."""
    per_step = np.random.default_rng(seed).normal(size=(steps, groups, width))
    if reverse:
        per_step = per_step[::-1]
    want = per_step[0].copy()
    for term in per_step[1:]:
        want += term
    assert np.array_equal(tensor_mod._sum_steps(per_step), want)
