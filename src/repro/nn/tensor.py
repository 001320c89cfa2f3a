"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of :mod:`repro.nn`, the neural-network
substrate used by every learning agent in the repository.  It implements a
small but complete autograd engine: a :class:`Tensor` wraps a numpy array
and records the operations applied to it on a flat, append-order **tape**;
:meth:`Tensor.backward` replays the tape in reverse, accumulating
gradients.  Because an operand always exists before its consumer, reverse
creation order is a valid reverse topological order, so backward is a
plain list scan — no recursion, no visited sets, no per-call sort.

The operation set is deliberately scoped to what the PairUpLight models
need — dense layers, LSTM cells, graph attention, softmax policies and the
PPO / A2C / DQN losses — rather than being a general-purpose framework.
All arithmetic supports numpy-style broadcasting; gradients are
"unbroadcast" (summed) back to the operand shapes.

Four fused kernels complement the generic op set, each with a
hand-derived backward:

* :func:`affine` — ``x @ W + b`` as one node;
* :func:`lstm_cell` — a full LSTM step (four gates plus the state
  update) as two nodes;
* :func:`lstm_trunk` — one encoder→tanh→LSTM step as two nodes, the
  recurrent trunk of the PairUpLight actor and critic when acting;
* :func:`lstm_sequence` — G such trunks (each with its own ``(T, N,
  D_g)`` input and parameters) unrolled over the whole sequence from a
  zero state in one time loop, recorded as one kernel node plus a
  gradient tap per further trunk; its backward runs one BPTT loop for
  all of them.  The PPO update re-evaluates stored rollouts with it,
  actor and critic together: one trunk node per minibatch for both
  networks.

The first three are bit-exact with the composed op sequences they
replace, in forward values *and* accumulated gradients.
:func:`lstm_sequence` equals a per-trunk :func:`lstm_trunk` unroll byte
for byte in its hidden states, input gradient and bias gradients; it
forms each weight gradient as one GEMM over the whole sequence, so
those agree with the unroll to reduction-order rounding and equal a
whole-sequence oracle that forms the same GEMM.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence[float]]


_FLOAT64 = np.dtype(np.float64)

#: Global graph-construction switch; see :class:`no_grad`.
_grad_enabled = True

#: Flat gradient tape: weak references to every op node, in creation
#: order.  Weak references let finished graphs (e.g. a previous
#: minibatch's loss) disappear as soon as user code drops them, without
#: any explicit free; :func:`_compact_tape` trims the dead entries.
_TAPE: list = []

#: Tape length that triggers compaction on append.  Grows to twice the
#: live node count so steady-state workloads compact rarely.
_tape_limit = 4096

#: Backward generation counter.  Each :meth:`Tensor.backward` call gets a
#: fresh epoch; gradient accumulation stamps the receiving node, and the
#: tape scan only fires closures stamped with the current epoch.  Nodes
#: belonging to other (stale or concurrent) graphs are skipped, exactly
#: as the old topological walk never visited them.
_backward_epoch = 0


def _compact_tape() -> None:
    """Drop dead weak references; adapt the compaction threshold."""
    global _tape_limit
    _TAPE[:] = [ref for ref in _TAPE if ref() is not None]
    _tape_limit = max(4096, 2 * len(_TAPE))


class no_grad:
    """Context manager disabling autograd graph construction.

    Values are computed exactly as usual, but no parents or backward
    closures are recorded and every op output has
    ``requires_grad=False``.  Use around rollout/inference forwards
    whose outputs are only ever read as ``.data``.  Re-entrant.
    """

    __slots__ = ("_previous",)

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._previous = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc_info) -> bool:
        global _grad_enabled
        _grad_enabled = self._previous
        return False


def _as_array(value: ArrayLike) -> np.ndarray:
    """Coerce ``value`` to a float64 numpy array.

    Already-float64 arrays pass through without a copy; python floats
    (the scalar constants sprinkled through every loss expression) take
    a direct construction path.
    """
    if type(value) is np.ndarray:
        if value.dtype is _FLOAT64 or value.dtype == _FLOAT64:
            return value
        return value.astype(np.float64)
    if type(value) is float:
        return np.array(value)
    return np.asarray(value, dtype=np.float64)


def _is_basic_index(key) -> bool:
    """True when ``key`` uses only ints/slices (no fancy index arrays).

    Basic indexing never visits the same element twice, so the gradient
    scatter can use ``+=`` instead of ``np.add.at``.
    """
    if isinstance(key, tuple):
        return all(
            isinstance(k, (int, np.integer, slice)) or k is Ellipsis or k is None
            for k in key
        )
    return isinstance(key, (int, np.integer, slice)) or key is Ellipsis or key is None


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting can (a) prepend dimensions and (b) stretch size-1
    dimensions; the corresponding gradient operation sums over the added or
    stretched axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended dimensions.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over stretched (size-1) dimensions.
    axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _stable_sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic with a single exp, into ``out`` if given.

    With ``e = exp(-min(|x|, 500))`` this is ``max(e, [x >= 0]) / (1 + e)``:
    ``e <= 1`` when ``x >= 0``, so the numerator is 1 and the value is the
    textbook ``1/(1+exp(-x))``; ``e > 0`` when ``x < 0``, so it is ``e`` and
    the value is ``exp(x)/(1+exp(x))``.  It equals the two-branch form
    bit for bit, NaN and the clamp included, without a mask.  ``out``
    may alias ``x``.  Shared by :meth:`Tensor.sigmoid` and the fused LSTM
    kernels so every path is bit-identical.
    """
    nonneg = x >= 0
    e = np.abs(x, out=out)
    np.minimum(e, 500.0, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    np.maximum(e, nonneg, out=e)
    return np.divide(e, d, out=e)


class Tensor:
    """A numpy array with gradient tracking.

    Parameters
    ----------
    data:
        Array contents; coerced to ``float64``.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_grad_epoch",
        "__weakref__",
    )

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_epoch = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _from_op(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        # Op outputs are produced by numpy arithmetic on float64 arrays,
        # so skip __init__'s coercion; only 0-d results (numpy scalars)
        # need re-wrapping.
        if type(data) is not np.ndarray:
            data = np.asarray(data, dtype=np.float64)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._grad_epoch = 0
        if not _grad_enabled:
            requires = False
        elif isinstance(parents, tuple):
            requires = any(p.requires_grad for p in parents)
        else:
            parents = tuple(parents)
            requires = any(p.requires_grad for p in parents)
        out.requires_grad = requires
        if requires:
            out._parents = parents
            out._backward = backward
            _TAPE.append(weakref.ref(out))
            if len(_TAPE) > _tape_limit:
                _compact_tape()
        else:
            out._parents = ()
            out._backward = None
        return out

    @staticmethod
    def ensure(value: Union["Tensor", ArrayLike]) -> "Tensor":
        """Wrap ``value`` in a constant Tensor unless it already is one."""
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new Tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor.ensure(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return Tensor._from_op(out_data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._from_op(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self.__add__(Tensor.ensure(other).__neg__())

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor.ensure(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor.ensure(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return Tensor._from_op(out_data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor.ensure(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.data.shape)
                )

        return Tensor._from_op(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor.ensure(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor ** only supports scalar exponents")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._from_op(out_data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor.ensure(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data).reshape(self.shape))
                else:
                    g = grad @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad).reshape(other.shape))
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor._from_op(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._from_op(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._from_op(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._from_op(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = _stable_sigmoid(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._from_op(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._from_op(out_data, (self,), backward)

    def leaky_relu(self, slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, slope * self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.where(mask, 1.0, slope))

        return Tensor._from_op(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return Tensor._from_op(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is passed through only inside the window."""
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._from_op(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor._from_op(np.asarray(out_data), (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = self.data == expanded
            # Split gradient evenly among tied maxima.
            mask = mask / mask.sum(axis=axis, keepdims=True)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis % self.data.ndim)
            self._accumulate(np.broadcast_to(g, self.data.shape) * mask)

        return Tensor._from_op(np.asarray(out_data), (self,), backward)

    def minimum(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor.ensure(other)
        take_self = self.data <= other.data
        out_data = np.where(take_self, self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * take_self, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * ~take_self, other.data.shape))

        return Tensor._from_op(out_data, (self, other), backward)

    def maximum(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor.ensure(other)
        take_self = self.data >= other.data
        out_data = np.where(take_self, self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * take_self, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * ~take_self, other.data.shape))

        return Tensor._from_op(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._from_op(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else tuple(reversed(range(self.data.ndim)))
        out_data = self.data.transpose(axes_tuple)
        inverse = np.argsort(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._from_op(out_data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]
        basic = _is_basic_index(key)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                if basic:
                    # Basic indexing selects unique positions, so a plain
                    # in-place add avoids np.add.at's slow buffered path.
                    full[key] += grad
                else:
                    np.add.at(full, key, grad)
                self._accumulate(full)

        return Tensor._from_op(np.asarray(out_data), (self,), backward)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        self._grad_epoch = _backward_epoch
        if self.grad is None:
            # Copy: the incoming gradient may be shared with other nodes.
            self.grad = np.array(grad, dtype=np.float64)
        else:
            # self.grad is always our private copy — add in place.
            self.grad += grad

    def backward(self, grad: ArrayLike | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (appropriate for scalar losses).

        The pass is a reverse scan of the global tape: seeding this
        tensor stamps it with a fresh epoch, every closure stamps the
        parents it accumulates into, and only nodes carrying the current
        epoch fire.  A consumer always sits later on the tape than its
        operands, so each node's gradient is complete when reached.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)

        global _backward_epoch
        _backward_epoch += 1
        epoch = _backward_epoch
        self._accumulate(grad)
        for ref in reversed(_TAPE):
            node = ref()
            if node is None or node._grad_epoch != epoch:
                continue
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [Tensor.ensure(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    return Tensor._from_op(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [Tensor.ensure(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slices = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, slices):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._from_op(out_data, tensors, backward)


def where(condition: ArrayLike, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select ``a`` where ``condition`` else ``b``."""
    condition = np.asarray(condition, dtype=bool)
    a = Tensor.ensure(a)
    b = Tensor.ensure(b)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * condition, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * ~condition, b.data.shape))

    return Tensor._from_op(out_data, (a, b), backward)


# ----------------------------------------------------------------------
# Fused kernels
# ----------------------------------------------------------------------
def _ws_buffer(workspace: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """Fetch (or allocate) a float64 scratch array from ``workspace``.

    Buffers are keyed by name and reallocated only when the requested
    shape changes (e.g. a ragged final minibatch); backward closures run
    sequentially and :meth:`Tensor._accumulate` copies on first use, so
    reuse across closures is safe.
    """
    buf = workspace.get(key)
    if buf is None or buf.shape != shape:
        buf = np.empty(shape)
        workspace[key] = buf
    return buf


def affine(
    x: Union[Tensor, ArrayLike],
    weight: Union[Tensor, ArrayLike],
    bias: Union[Tensor, ArrayLike, None] = None,
) -> Tensor:
    """Fused ``x @ weight + bias`` as a single graph node.

    Bit-exact with the composed ``(x @ w) + b`` op pair in both the
    forward values and the gradients accumulated into ``x``, ``weight``
    and ``bias`` — it replays the same numpy expressions the composed
    backward closures would, just without the intermediate matmul node.
    """
    x = Tensor.ensure(x)
    weight = Tensor.ensure(weight)
    out_data = x.data @ weight.data
    if bias is not None:
        bias = Tensor.ensure(bias)
        out_data = out_data + bias.data
        parents: tuple[Tensor, ...] = (x, weight, bias)
    else:
        parents = (x, weight)

    def backward(grad: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.data.shape))
        if x.requires_grad:
            if weight.data.ndim == 1:
                x._accumulate(np.outer(grad, weight.data).reshape(x.shape))
            else:
                g = grad @ np.swapaxes(weight.data, -1, -2)
                x._accumulate(_unbroadcast(g, x.data.shape))
        if weight.requires_grad:
            if x.data.ndim == 1:
                weight._accumulate(np.outer(x.data, grad).reshape(weight.shape))
            else:
                g = np.swapaxes(x.data, -1, -2) @ grad
                weight._accumulate(_unbroadcast(g, weight.data.shape))

    return Tensor._from_op(out_data, parents, backward)


def lstm_cell(
    x: Union[Tensor, ArrayLike],
    h_prev: Union[Tensor, ArrayLike],
    c_prev: Union[Tensor, ArrayLike],
    weight: Union[Tensor, ArrayLike],
    bias: Union[Tensor, ArrayLike],
    workspace: dict | None = None,
) -> tuple[Tensor, Tensor]:
    """Fused LSTM step: four gates plus the state update in one kernel.

    Computes ``[i, f, g, o] = [x, h_prev] @ weight + bias`` (gate layout
    matching :class:`repro.nn.lstm.LSTMCell`), then
    ``c = sigmoid(f) * c_prev + sigmoid(i) * tanh(g)`` and
    ``h = sigmoid(o) * tanh(c)``, returning ``(h_new, c_new)``.

    The graph records two nodes instead of ~15: ``c_new`` carries the
    hand-derived backward over all five operands, and ``h_new`` is a
    lightweight tap whose closure stashes the incoming ``dh`` (tagged
    with the current backward epoch, so a stale stash from an earlier
    pass is never reused) and routes the ``dh * o * (1 - tanh(c)^2)``
    term into ``c_new``.  ``h_new`` is created after ``c_new``, so the
    reverse tape scan always fires the tap first.  Every floating-point
    expression mirrors the grouping of the composed op chain, making the
    fused path bit-exact in forwards *and* accumulated gradients.

    ``workspace`` (a plain dict, e.g. one per ``LSTMCell``) enables
    buffer reuse across steps/minibatches for the backward temporaries;
    omit it to allocate per call.
    """
    x = Tensor.ensure(x)
    h_prev = Tensor.ensure(h_prev)
    c_prev = Tensor.ensure(c_prev)
    weight = Tensor.ensure(weight)
    bias = Tensor.ensure(bias)
    if x.data.ndim != 2:
        raise ValueError("lstm_cell expects (batch, features) inputs")
    in_size = x.data.shape[-1]
    hs = c_prev.data.shape[-1]
    ws = workspace if workspace is not None else {}

    xh = np.concatenate([x.data, h_prev.data], axis=-1)
    gates = _ws_buffer(ws, "gates", (xh.shape[0], 4 * hs))
    np.matmul(xh, weight.data, out=gates)
    gates += bias.data
    # Activations are captured by the closures, so they must be fresh
    # arrays; only the pre-activation buffer above is recycled.
    # i and f are adjacent in the gate layout; one sigmoid call over the
    # joint slice is elementwise, hence bit-identical to two calls.
    if_gates = _stable_sigmoid(gates[:, 0 * hs : 2 * hs])
    i_gate = if_gates[:, :hs]
    f_gate = if_gates[:, hs:]
    g_gate = np.tanh(gates[:, 2 * hs : 3 * hs])
    o_gate = _stable_sigmoid(gates[:, 3 * hs : 4 * hs])

    c_data = f_gate * c_prev.data + i_gate * g_gate
    tanh_c = np.tanh(c_data)
    h_data = o_gate * tanh_c

    # (epoch, dh) from the tap node; consulted by cell_backward.
    stash: list = [0, None]

    def cell_backward(dc: np.ndarray) -> None:
        dh = stash[1] if stash[0] == _backward_epoch else None
        dpre = _ws_buffer(ws, "dpre", (dc.shape[0], 4 * hs))
        s = _ws_buffer(ws, "scratch", dc.shape)
        di = dpre[:, 0 * hs : 1 * hs]
        df = dpre[:, 1 * hs : 2 * hs]
        dg = dpre[:, 2 * hs : 3 * hs]
        do = dpre[:, 3 * hs : 4 * hs]
        np.multiply(dc, g_gate, out=di)
        di *= i_gate
        np.subtract(1.0, i_gate, out=s)
        di *= s
        np.multiply(dc, c_prev.data, out=df)
        df *= f_gate
        np.subtract(1.0, f_gate, out=s)
        df *= s
        np.multiply(dc, i_gate, out=dg)
        np.multiply(g_gate, g_gate, out=s)
        np.subtract(1.0, s, out=s)
        dg *= s
        if dh is None:
            do[:] = 0.0
        else:
            np.multiply(dh, tanh_c, out=do)
            do *= o_gate
            np.subtract(1.0, o_gate, out=s)
            do *= s
        # The composed path scatters each gate grad into a zeroed array
        # (``full[sl] += g``), which flushes negative zeros; match it.
        dpre += 0.0
        if weight.requires_grad:
            dw = _ws_buffer(ws, "dw", weight.data.shape)
            np.matmul(xh.T, dpre, out=dw)
            weight._accumulate(dw)
        if bias.requires_grad:
            db = _ws_buffer(ws, "db", bias.data.shape)
            np.sum(dpre, axis=0, out=db)
            bias._accumulate(db)
        if x.requires_grad or h_prev.requires_grad:
            dxh = _ws_buffer(ws, "dxh", xh.shape)
            np.matmul(dpre, weight.data.T, out=dxh)
            if x.requires_grad:
                x._accumulate(dxh[:, :in_size])
            if h_prev.requires_grad:
                h_prev._accumulate(dxh[:, in_size:])
        if c_prev.requires_grad:
            np.multiply(dc, f_gate, out=s)
            c_prev._accumulate(s)

    c_new = Tensor._from_op(c_data, (x, h_prev, c_prev, weight, bias), cell_backward)

    def tap_backward(dh: np.ndarray) -> None:
        stash[0] = _backward_epoch
        stash[1] = dh
        if c_new.requires_grad:
            t = _ws_buffer(ws, "tap", dh.shape)
            u = _ws_buffer(ws, "tap2", dh.shape)
            np.multiply(dh, o_gate, out=t)
            np.multiply(tanh_c, tanh_c, out=u)
            np.subtract(1.0, u, out=u)
            t *= u
            c_new._accumulate(t)

    h_new = Tensor._from_op(h_data, (c_new,), tap_backward)
    return h_new, c_new


def lstm_trunk(
    x: Union[Tensor, ArrayLike],
    h_prev: Union[Tensor, ArrayLike],
    c_prev: Union[Tensor, ArrayLike],
    enc_weight: Union[Tensor, ArrayLike],
    enc_bias: Union[Tensor, ArrayLike],
    weight: Union[Tensor, ArrayLike],
    bias: Union[Tensor, ArrayLike],
    workspace: dict | None = None,
) -> tuple[Tensor, Tensor]:
    """Fused recurrent trunk step: ``tanh(x @ We + be)`` into an LSTM cell.

    One graph node (plus the ``h`` tap) per step instead of the four
    that :func:`affine` + ``tanh`` + :func:`lstm_cell` would record, or
    the ~18 of the fully composed chain.  The backward replays exactly
    the numpy expressions the composed closures would run — dense
    backward included — so the trunk is bit-exact with both in forwards
    and accumulated gradients.  See :func:`lstm_cell` for the stash/tap
    mechanics; this op shares them verbatim.
    """
    x = Tensor.ensure(x)
    h_prev = Tensor.ensure(h_prev)
    c_prev = Tensor.ensure(c_prev)
    enc_weight = Tensor.ensure(enc_weight)
    enc_bias = Tensor.ensure(enc_bias)
    weight = Tensor.ensure(weight)
    bias = Tensor.ensure(bias)
    if x.data.ndim != 2:
        raise ValueError("lstm_trunk expects (batch, features) inputs")
    hs = c_prev.data.shape[-1]
    enc_out = enc_weight.data.shape[-1]
    ws = workspace if workspace is not None else {}

    pre = _ws_buffer(ws, "enc_pre", (x.data.shape[0], enc_out))
    np.matmul(x.data, enc_weight.data, out=pre)
    pre += enc_bias.data
    # Fresh arrays below are captured by the closures (see lstm_cell).
    encoded = np.tanh(pre)
    xh = np.concatenate([encoded, h_prev.data], axis=-1)
    gates = _ws_buffer(ws, "gates", (xh.shape[0], 4 * hs))
    np.matmul(xh, weight.data, out=gates)
    gates += bias.data
    if_gates = _stable_sigmoid(gates[:, 0 * hs : 2 * hs])
    i_gate = if_gates[:, :hs]
    f_gate = if_gates[:, hs:]
    g_gate = np.tanh(gates[:, 2 * hs : 3 * hs])
    o_gate = _stable_sigmoid(gates[:, 3 * hs : 4 * hs])

    c_data = f_gate * c_prev.data + i_gate * g_gate
    tanh_c = np.tanh(c_data)
    h_data = o_gate * tanh_c

    stash: list = [0, None]

    def trunk_backward(dc: np.ndarray) -> None:
        dh = stash[1] if stash[0] == _backward_epoch else None
        dpre = _ws_buffer(ws, "dpre", (dc.shape[0], 4 * hs))
        s = _ws_buffer(ws, "scratch", dc.shape)
        di = dpre[:, 0 * hs : 1 * hs]
        df = dpre[:, 1 * hs : 2 * hs]
        dg = dpre[:, 2 * hs : 3 * hs]
        do = dpre[:, 3 * hs : 4 * hs]
        np.multiply(dc, g_gate, out=di)
        di *= i_gate
        np.subtract(1.0, i_gate, out=s)
        di *= s
        np.multiply(dc, c_prev.data, out=df)
        df *= f_gate
        np.subtract(1.0, f_gate, out=s)
        df *= s
        np.multiply(dc, i_gate, out=dg)
        np.multiply(g_gate, g_gate, out=s)
        np.subtract(1.0, s, out=s)
        dg *= s
        if dh is None:
            do[:] = 0.0
        else:
            np.multiply(dh, tanh_c, out=do)
            do *= o_gate
            np.subtract(1.0, o_gate, out=s)
            do *= s
        dpre += 0.0
        if weight.requires_grad:
            dw = _ws_buffer(ws, "dw", weight.data.shape)
            np.matmul(xh.T, dpre, out=dw)
            weight._accumulate(dw)
        if bias.requires_grad:
            db = _ws_buffer(ws, "db", bias.data.shape)
            np.sum(dpre, axis=0, out=db)
            bias._accumulate(db)
        dxh = _ws_buffer(ws, "dxh", xh.shape)
        np.matmul(dpre, weight.data.T, out=dxh)
        if h_prev.requires_grad:
            h_prev._accumulate(dxh[:, enc_out:])
        if c_prev.requires_grad:
            np.multiply(dc, f_gate, out=s)
            c_prev._accumulate(s)
        # Encoder tail: replay the composed tanh + affine backwards.
        de = dxh[:, :enc_out]
        dpre_enc = _ws_buffer(ws, "dpre_enc", de.shape)
        np.multiply(encoded, encoded, out=dpre_enc)
        np.subtract(1.0, dpre_enc, out=dpre_enc)
        dpre_enc *= de
        if enc_bias.requires_grad:
            dbe = _ws_buffer(ws, "dbe", enc_bias.data.shape)
            np.sum(dpre_enc, axis=0, out=dbe)
            enc_bias._accumulate(dbe)
        if x.requires_grad:
            dx = _ws_buffer(ws, "dx", x.data.shape)
            np.matmul(dpre_enc, enc_weight.data.T, out=dx)
            x._accumulate(dx)
        if enc_weight.requires_grad:
            dwe = _ws_buffer(ws, "dwe", enc_weight.data.shape)
            np.matmul(x.data.T, dpre_enc, out=dwe)
            enc_weight._accumulate(dwe)

    c_new = Tensor._from_op(
        c_data,
        (x, h_prev, c_prev, enc_weight, enc_bias, weight, bias),
        trunk_backward,
    )

    def tap_backward(dh: np.ndarray) -> None:
        stash[0] = _backward_epoch
        stash[1] = dh
        if c_new.requires_grad:
            t = _ws_buffer(ws, "tap", dh.shape)
            u = _ws_buffer(ws, "tap2", dh.shape)
            np.multiply(dh, o_gate, out=t)
            np.multiply(tanh_c, tanh_c, out=u)
            np.subtract(1.0, u, out=u)
            t *= u
            c_new._accumulate(t)

    h_new = Tensor._from_op(h_data, (c_new,), tap_backward)
    return h_new, c_new


def _sum_steps(per_step: np.ndarray) -> np.ndarray:
    """Sum ``per_step`` over its leading axis in index order, exactly as
    a tape accumulates one gradient per step.

    On a C-contiguous array whose rows hold more than one element, a
    leading-axis reduce adds whole rows in index order; the copy also
    fixes the order of a reversed (negative-stride) view.  One-element
    rows would make it a contiguous 1-D reduce, which numpy sums
    pairwise, so those keep the step-by-step adds.
    """
    if per_step[0].size == 1:
        total = per_step[0].copy()
        for term in per_step[1:]:
            total += term
        return total
    return np.add.reduce(np.ascontiguousarray(per_step), axis=0)


def lstm_sequence(*trunks: tuple, workspace: dict | None = None) -> tuple[Tensor, ...]:
    """Grouped whole-sequence recurrent trunks in one time loop.

    Each trunk is a tuple ``(x, enc_weight, enc_bias, weight, bias)``:
    a ``(T, N, D_g)`` input sequence and the parameters of one
    :func:`lstm_trunk` (encoder, tanh, LSTM cell).  Trunks may differ in
    input width ``D_g`` but must share ``T``, ``N``, the encoder width
    ``E`` and the hidden size ``H``; every trunk's shapes must agree
    (``enc_weight`` is ``(D_g, E)``, ``enc_bias`` ``(E,)``, ``weight``
    ``(E + H, 4H)``, ``bias`` ``(4H,)``), or ``ValueError`` is raised.
    Every LSTM starts from a zero ``(h, c)`` state (Algorithm 1, line 4);
    the call returns one ``(T, N, H)`` hidden-state tensor per trunk, in
    order.  A single trunk is simply the ``G = 1`` case.

    The forward runs each trunk's encoder over the whole sequence before
    the loop; each step then does one stacked ``(G, N, E + H) @
    (G, E + H, 4H)`` gate matmul and one gate/cell chain over
    ``(G, N, ·)``, writing ``h`` straight into the next step's input
    slot.  The graph gets one kernel node (the first trunk's output,
    whose parents are every trunk's leaves) plus one lightweight tap per
    further trunk, which stashes its incoming gradient for the kernel's
    backward (the :func:`lstm_cell` stash/tap pattern).

    The saved gate activations are stored gate-major and time-major,
    ``(T, 4, G, N, H)``, so each step's i/f/g/o gates are contiguous
    ``(G, N, H)`` blocks and every elementwise call of the forward and
    the backward runs on whole blocks.  The step GEMM still writes one
    contiguous ``(G, N, 4H)`` block; the bias add is the one transposing
    write into the step's gate-major slot.  The layout changes no value:
    every element goes through the same operations in the same order.

    The backward runs BPTT over all trunks at once in reverse step
    order; the loop keeps only the recurrence (gate derivatives and
    ``dxh = dpre @ W^T``).  Each step computes its gate derivatives into
    a small gate-major scratch block, then one write flushes negative
    zeros and stores them interleaved, as that step's ``(G, N, 4H)``
    ``dpre``, over the step's saved activations, which are dead by then.
    After the loop, each trunk's LSTM weight gradient is one ``xh^T @
    dpre`` GEMM over its ``T·N`` rows in time order, and its encoder
    weight gradient likewise ``x^T @ dpre_enc``.  The saved inputs are
    group-major, ``(G, T, N, ·)``, so each trunk's rows are a view (``x``
    too, when the caller's input is contiguous); with ``G = 1`` the
    ``dpre`` rows are one as well, and with more trunks each trunk's
    rows are copied into the saved cell-state buffer, also dead by then,
    so ``dpre`` needs no buffer of its own.  The bias sums and the rest
    of the encoder tail (tanh', ``dx``) also run once over the whole
    sequence.  Trunks whose output received no gradient accumulate
    nothing.

    The numerical contract: hidden states, the input gradient and the
    bias gradients are bit-exact with a per-step :func:`lstm_trunk`
    unroll of each trunk followed by :func:`stack` (each step replays
    the same numpy expressions, and each bias's per-step gradients are
    summed in tape order, ``t = T - 1`` first).  The two weight
    gradients reduce over all ``T·N`` rows in one GEMM instead of ``T``
    accumulated ones, so they agree with the unroll to reduction-order
    rounding and bit for bit with a whole-sequence oracle that forms the
    same GEMM (``tests/helpers.composed_lstm_sequence``).  The kernel
    stacks the LSTM weights C-ordered; a GEMM's rounding depends on its
    operands' memory order, so the contract covers C-ordered weights,
    the only order a :class:`repro.nn.module.Parameter` holds.

    Saved activations live in ``workspace`` buffers reused across calls
    (one dict per caller, e.g. per PPO updater), so a graph is
    backpropagated at most once and before the next grad-enabled call
    through the same workspace; anything else raises ``RuntimeError``.
    Calls under :class:`no_grad` use private buffers.
    """
    if not trunks:
        raise ValueError("lstm_sequence needs at least one trunk")
    trunks = tuple(tuple(Tensor.ensure(v) for v in trunk) for trunk in trunks)
    if any(len(trunk) != 5 for trunk in trunks):
        raise ValueError(
            "lstm_sequence trunks are (x, enc_weight, enc_bias, weight, bias)"
        )
    first_x, first_enc, _, first_w, _ = trunks[0]
    if first_x.data.ndim != 3:
        raise ValueError("lstm_sequence expects (steps, batch, features) inputs")
    steps, rows = first_x.data.shape[:2]
    enc_out = first_enc.data.shape[-1]
    hs = first_w.data.shape[-1] // 4
    width = enc_out + hs
    for x, enc_weight, enc_bias, weight, bias in trunks:
        if x.data.ndim != 3 or x.data.shape[:2] != (steps, rows):
            raise ValueError("lstm_sequence trunks need one (steps, batch) shape")
        if enc_weight.data.shape[-1] != enc_out or weight.data.shape != (width, 4 * hs):
            raise ValueError(
                "lstm_sequence trunks need one encoder width and hidden size"
            )
        # Broadcasting would accept a (1,) bias in the forward and then
        # accumulate a full-width gradient into it.
        if (
            enc_weight.data.shape != (x.data.shape[-1], enc_out)
            or enc_bias.data.shape != (enc_out,)
            or bias.data.shape != (4 * hs,)
        ):
            raise ValueError("lstm_sequence trunk parameters have the wrong shape")
    groups = len(trunks)
    # A no-grad call saves nothing for a backward, so it must not
    # overwrite the buffers a pending graph saved.
    ws = workspace if workspace is not None and _grad_enabled else {}
    owner = object()
    ws["seq_owner"] = owner

    # xh is group-major, so each trunk's (T·N, E + H) rows are one
    # contiguous view for the weight-gradient GEMMs.  xh[:, t] is step
    # t's LSTM input [encoded_t, h_{t-1}]; h_t lands in xh[:, t + 1], so
    # the hidden states are xh[:, 1:, :, E:].  act holds the gate
    # activations gate-major and time-major, (T, 4, G, N, H): each step's
    # i/f/g/o gates are contiguous (G, N, H) blocks, on which elementwise
    # work runs about three times as fast as on a strided gate slice of a
    # (G, N, 4H) row.  One buffer holds c_0..c_T, then tanh(c_1)..tanh(c_T).
    xh = _ws_buffer(ws, "seq_xh", (groups, steps + 1, rows, width))
    act = _ws_buffer(ws, "seq_act", (steps, 4, groups, rows, hs))
    cell_tanh = _ws_buffer(ws, "seq_cell", (2 * steps + 1, groups, rows, hs))
    cell, tanh_c = cell_tanh[: steps + 1], cell_tanh[steps + 1 :]
    # Stacked C-ordered, the order every Parameter has, so each step's
    # GEMM rounds as lstm_trunk's ``xh @ weight`` does.  The bias is
    # stacked gate-major, as act is.
    w = _ws_buffer(ws, "seq_w", (groups, width, 4 * hs))
    b = _ws_buffer(ws, "seq_b", (4, groups, 1, hs))
    for g, (x, enc_weight, enc_bias, weight, bias) in enumerate(trunks):
        # Batched over steps: one (N, D) @ (D, E) GEMM per step, as in
        # lstm_trunk.
        encoded = xh[g, :steps, :, :enc_out]
        np.matmul(x.data, enc_weight.data, out=encoded)
        encoded += enc_bias.data
        np.tanh(encoded, out=encoded)
        w[g] = weight.data
        b[:, g, 0] = bias.data.reshape(4, hs)
    xh[:, 0, :, enc_out:] = 0.0
    cell[0] = 0.0
    # Each step's GEMM writes one contiguous (G, N, 4H) block; the bias
    # add is the one transposing write into the step's gate-major slot.
    gates = _ws_buffer(ws, "seq_gates", (groups, rows, 4 * hs))
    gates_by_gate = gates.reshape(groups, rows, 4, hs).transpose(2, 0, 1, 3)
    g_act = _ws_buffer(ws, "seq_g_act", (groups, rows, hs))
    ig = _ws_buffer(ws, "seq_ig", (groups, rows, hs))
    for t in range(steps):
        np.matmul(xh[:, t], w, out=gates)
        step = act[t]
        np.add(gates_by_gate, b, out=step)
        i_gate, f_gate, g_gate, o_gate = step
        # tanh for g, sigmoid (elementwise, so one in-place call over all
        # four) for the rest.
        np.tanh(g_gate, out=g_act)
        _stable_sigmoid(step, out=step)
        g_gate[...] = g_act
        c = cell[t + 1]
        np.multiply(f_gate, cell[t], out=c)
        np.multiply(i_gate, g_act, out=ig)
        c += ig
        np.tanh(c, out=tanh_c[t])
        np.multiply(o_gate, tanh_c[t], out=xh[:, t + 1, :, enc_out:])
    hidden = np.ascontiguousarray(xh[:, 1:, :, enc_out:])

    # Per-trunk (epoch, dH) handed over by the kernel node and the taps;
    # ``woken`` marks an epoch in which only taps received a gradient.
    stash: list = [None] * groups
    woken = [0]

    def sequence_backward(d_first: np.ndarray) -> None:
        if ws.get("seq_owner") is not owner:
            raise RuntimeError(
                "lstm_sequence workspace reused by another call before backward"
            )
        epoch = _backward_epoch
        if woken[0] != epoch:
            stash[0] = (epoch, d_first)
        # The loop overwrites the saved activations, the encoder tail
        # the saved inputs.
        ws["seq_owner"] = None
        live = [g for g in range(groups) if stash[g] is not None and stash[g][0] == epoch]
        d_hidden = [
            stash[g][1] if g in live else np.zeros((steps, rows, hs))
            for g in range(groups)
        ]

        d_enc = _ws_buffer(ws, "seq_d_enc", (groups, steps, rows, enc_out))
        # Gate derivatives, gate-major like act; their interleaved
        # (G, N, 4H) view is the order dpre is stored in.
        d_gates = _ws_buffer(ws, "seq_d_gates", (4, groups, rows, hs))
        d_interleaved = d_gates.transpose(1, 2, 0, 3)
        di, df, dg, do = d_gates
        dxh = _ws_buffer(ws, "seq_dxh", (groups, rows, width))
        dh = _ws_buffer(ws, "seq_dh", (groups, rows, hs))
        dc_buf = _ws_buffer(ws, "seq_dc", (groups, rows, hs))
        tap = _ws_buffer(ws, "seq_tap", (groups, rows, hs))
        # The forward's gate block is dead: it holds each step's
        # 1 - tanh(c)^2, then its gate derivative factors, 1 - gate
        # (i, f, o) and 1 - g^2.
        factors = gates.reshape(4, groups, rows, hs)
        u = factors[2]
        # After its step, act[t]'s bytes hold dpre_t as (G, N, 4H).
        dpre = act.reshape(steps, groups, rows, 4 * hs)
        w_t = w.transpose(0, 2, 1)
        dh_rec = dc_rec = None
        for t in range(steps - 1, -1, -1):
            step = act[t]
            i_gate, f_gate, g_gate, o_gate = step
            tanh_ct = tanh_c[t]
            for g in range(groups):
                if dh_rec is None:
                    dh[g] = d_hidden[g][t]
                else:
                    np.add(d_hidden[g][t], dh_rec[g], out=dh[g])
            # h tap: dh * o * (1 - tanh(c)^2) routed into dc.
            np.multiply(dh, o_gate, out=tap)
            np.multiply(tanh_ct, tanh_ct, out=u)
            np.subtract(1.0, u, out=u)
            tap *= u
            dc = tap if dc_rec is None else np.add(dc_rec, tap, out=tap)
            np.multiply(dc, g_gate, out=di)
            np.multiply(dc, cell[t], out=df)
            np.multiply(dc, i_gate, out=dg)
            np.multiply(dh, tanh_ct, out=do)
            # Sigmoid' = gate * (1 - gate) for i, f, o; tanh' = 1 - g^2.
            d_gates[:2] *= step[:2]
            do *= o_gate
            np.subtract(1.0, step, out=factors)
            np.multiply(g_gate, g_gate, out=factors[2])
            np.subtract(1.0, factors[2], out=factors[2])
            d_gates *= factors
            if t > 0:
                dc_rec = np.multiply(dc, f_gate, out=dc_buf)
            # The composed path scatters each gate grad into a zeroed
            # array, which flushes negative zeros; the same write stores
            # dpre_t interleaved over the step's now-dead activations.
            np.add(d_interleaved, 0.0, out=step.reshape(groups, rows, 4, hs))
            np.matmul(dpre[t], w_t, out=dxh)
            d_enc[:, t] = dxh[..., :enc_out]
            dh_rec = dxh[..., enc_out:]

        # Weight gradients first: the encoder tail below overwrites the
        # saved inputs.  Reverse trunk order, as G separate calls' nodes
        # would fire.
        for g in reversed(live):
            weight = trunks[g][3]
            if weight.requires_grad:
                xh_rows = xh[g, :steps].reshape(steps * rows, width)
                if groups == 1:
                    dpre_rows = dpre.reshape(steps * rows, 4 * hs)
                else:
                    # The GEMM wants the trunk's rows contiguous.  The
                    # dead cell buffer holds (2T + 1)·G·N·H values, at
                    # least the 4T·N·H needed once G >= 2.
                    dpre_rows = cell_tanh.reshape(-1)[: steps * rows * 4 * hs]
                    dpre_rows = dpre_rows.reshape(steps, rows, 4 * hs)
                    dpre_rows[...] = dpre[:, g]
                    dpre_rows = dpre_rows.reshape(steps * rows, 4 * hs)
                weight._accumulate(np.matmul(xh_rows.T, dpre_rows))
        # Bias row sums reduce like lstm_trunk's ``np.sum(axis=0)``, and
        # _sum_steps adds them in tape order.
        db = _sum_steps(np.add.reduce(dpre, axis=2)[::-1])
        # tanh' = 1 - encoded^2, computed in place over the saved inputs;
        # d_enc then becomes the encoder pre-activation gradient.
        tanh_grad = xh[:, :steps, :, :enc_out]
        np.multiply(tanh_grad, tanh_grad, out=tanh_grad)
        np.subtract(1.0, tanh_grad, out=tanh_grad)
        d_enc *= tanh_grad
        dbe = _sum_steps(np.add.reduce(d_enc, axis=2).transpose(1, 0, 2)[::-1])
        for g in reversed(live):
            x, enc_weight, enc_bias, _, bias = trunks[g]
            if bias.requires_grad:
                bias._accumulate(db[g])
            if enc_bias.requires_grad:
                enc_bias._accumulate(dbe[g])
            if x.requires_grad:
                x._accumulate(np.matmul(d_enc[g], enc_weight.data.T))
            if enc_weight.requires_grad:
                x_rows = x.data.reshape(steps * rows, -1)
                d_rows = d_enc[g].reshape(steps * rows, enc_out)
                enc_weight._accumulate(np.matmul(x_rows.T, d_rows))

    leaves = tuple(v for trunk in trunks for v in trunk)
    kernel = Tensor._from_op(hidden[0], leaves, sequence_backward)
    outputs = [kernel]

    def make_tap(g: int) -> Callable[[np.ndarray], None]:
        def tap_backward(grad: np.ndarray) -> None:
            stash[g] = (_backward_epoch, grad)
            if kernel._grad_epoch != _backward_epoch:
                # The kernel's own output got no gradient: wake it so
                # the shared backward runs, and tell it so.
                woken[0] = _backward_epoch
                kernel._accumulate(np.zeros(kernel.data.shape))

        return tap_backward

    for g in range(1, groups):
        outputs.append(Tensor._from_op(hidden[g], (kernel,), make_tap(g)))
    return tuple(outputs)
