"""Finite-difference gradient checks for the fused kernels and a sample
of the composed ops they replace (tentpole correctness bar, PR 5).

Everything runs on tiny shapes so the whole module finishes in seconds;
the ``gradcheck`` marker lets CI select or report the suite explicitly.
"""

from __future__ import annotations

import numpy as np
import pytest

from gradcheck import gradcheck
from repro.nn import functional as F
from repro.nn.tensor import Tensor, affine, lstm_cell, lstm_sequence, lstm_trunk

TOL = 1e-6

pytestmark = pytest.mark.gradcheck


def _rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape) * 0.5


class TestFusedOps:
    def test_affine(self):
        x = _rand((3, 4), 1)
        w = _rand((4, 2), 2)
        b = _rand((2,), 3)
        assert gradcheck(lambda *t: affine(*t), [x, w, b]) <= TOL

    def test_affine_3d_input(self):
        x = _rand((2, 3, 4), 4)
        w = _rand((4, 2), 5)
        b = _rand((2,), 6)
        assert gradcheck(lambda *t: affine(*t), [x, w, b]) <= TOL

    def test_lstm_cell_all_operands(self):
        x = _rand((2, 3), 7)
        h = _rand((2, 4), 8)
        c = _rand((2, 4), 9)
        w = _rand((7, 16), 10)
        b = _rand((16,), 11)
        assert gradcheck(lambda *t: lstm_cell(*t), [x, h, c, w, b]) <= TOL

    def test_lstm_cell_two_step_chain(self):
        """Grads flow through h AND c across a chained double step."""
        x = _rand((2, 3), 12)
        h = _rand((2, 4), 13)
        c = _rand((2, 4), 14)
        w = _rand((7, 16), 15)
        b = _rand((16,), 16)

        def chain(x_t, h_t, c_t, w_t, b_t):
            h1, c1 = lstm_cell(x_t, h_t, c_t, w_t, b_t)
            xh = x_t * 0.5
            return lstm_cell(xh, h1, c1, w_t, b_t)

        assert gradcheck(chain, [x, h, c, w, b]) <= TOL

    def test_lstm_trunk(self):
        x = _rand((2, 5), 17)
        h = _rand((2, 4), 18)
        c = _rand((2, 4), 19)
        we = _rand((5, 4), 20)
        be = _rand((4,), 21)
        w = _rand((8, 16), 22)
        b = _rand((16,), 23)
        assert gradcheck(lambda *t: lstm_trunk(*t), [x, h, c, we, be, w, b]) <= TOL

    def test_lstm_sequence(self):
        """Whole-sequence BPTT: grads flow through h and c across steps."""
        x = _rand((3, 2, 5), 24)
        we = _rand((5, 4), 25)
        be = _rand((4,), 26)
        w = _rand((8, 16), 27)
        b = _rand((16,), 28)
        assert gradcheck(lambda *t: lstm_sequence(t)[0], [x, we, be, w, b]) <= TOL


class TestComposedOpSample:
    def test_matmul_add_tanh(self):
        x = _rand((3, 4), 30)
        w = _rand((4, 3), 31)
        b = _rand((3,), 32)
        assert gradcheck(lambda a, c, d: ((a @ c) + d).tanh(), [x, w, b]) <= TOL

    def test_sigmoid_mul(self):
        a = _rand((3, 3), 33)
        b = _rand((3, 3), 34)
        assert gradcheck(lambda u, v: u.sigmoid() * v, [a, b]) <= TOL

    def test_log_softmax_gather(self):
        logits = _rand((4, 3), 35)
        actions = np.array([0, 2, 1, 2])
        assert (
            gradcheck(lambda t: F.gather(F.log_softmax(t), actions), [logits]) <= TOL
        )

    def test_gather_3d(self):
        logits = _rand((2, 3, 4), 36)
        actions = np.array([[0, 3, 1], [2, 2, 0]])
        assert (
            gradcheck(lambda t: F.gather(F.log_softmax(t), actions), [logits]) <= TOL
        )

    def test_entropy(self):
        logits = _rand((3, 4), 37)
        assert gradcheck(lambda t: F.entropy(F.softmax(t)), [logits]) <= TOL

    def test_concat_slice_sum(self):
        a = _rand((2, 3), 38)
        b = _rand((2, 2), 39)

        def fn(u, v):
            from repro.nn.tensor import concat

            joined = concat([u, v], axis=-1)
            return (joined * joined).sum(axis=0)

        assert gradcheck(fn, [a, b]) <= TOL

    def test_stack_reduce(self):
        a = _rand((2, 2), 40)
        b = _rand((2, 2), 41)

        def fn(u, v):
            from repro.nn.tensor import stack

            return stack([u.tanh(), v.exp()], axis=0).mean()

        assert gradcheck(fn, [a, b]) <= TOL
