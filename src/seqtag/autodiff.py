"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy array. Every derived tensor records its parent
tensors and a closure that pushes the output adjoint back to them (a
dynamic tape). ``backward()`` on a scalar loss replays the closures in
reverse topological order, accumulating adjoints over all paths.

Conventions:
  * everything is float64, row-major;
  * finite checks: every op checks its output in ``make_node`` and
    raises ``NumericError`` naming the op, except ``reshape``, whose
    values are its checked input's; fused ops (a whole
    bidirectional layer or character BiLSTM and ``softmax_nll`` in
    ``network``, ``crf_log_z`` and ``crf_nll`` in ``crf``) are one node
    each and may check intermediates too, e.g. the stacked
    pre-activations; ``backward()`` checks each node's adjoint before
    pushing it to the parents;
  * ``recorded`` is the one recording rule (grad enabled and a parent
    requiring grad); a node no tape records keeps no backward closure,
    so its op may skip keeping what only a backward pass would read;
  * one body per op kind: ``_elementwise`` for the activations and
    ``_broadcasting`` for ``add``/``mul``; ``getitem`` has one scatter
    rule, ``np.add.at`` for every key, so repeated indices add one by one;
  * parameters are leaf tensors created with ``parameter()``; their
    ``grad`` persists across graphs and must be reset by the caller;
    ``backward()`` keeps only the leaves' adjoints and frees each
    intermediate node's once that node has pushed it to its parents;
  * dropout multiplies by a precomputed mask, so it needs no dedicated
    op: a ``mul`` node for word and task dropout, and inside the
    recurrent node for the RNN sites.

The finite-difference gradient check, and the small ops that only the
tests and the composed references use (``power``, ``exp``,
``softmax``, sums, means and ``logsumexp``), live with the tests
(``tests/gradcheck.py``).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from seqtag.exceptions import NumericError, ShapeError

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording, e.g. for prediction passes."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def check_finite(data: np.ndarray, op: str, scope: str = "") -> None:
    """Raise ``NumericError`` naming ``op``, and the parameter ``scope``
    it ran in if given, unless every value of ``data`` is finite."""
    if not np.isfinite(data).all():
        where = f" in '{scope}'" if scope else ""
        raise NumericError(f"non-finite value produced by op '{op}'{where}")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward", "_backward_run")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        check_finite(arr, "leaf")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._backward_run = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(op={self.op}, shape={self.data.shape})"

    # -- graph bookkeeping -------------------------------------------------

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Run reverse-mode accumulation from this scalar node."""
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.data.shape}")
        if self._backward_run:
            raise NumericError("repeated backward on the same loss without rebuilding the graph")
        self._backward_run = True

        order = _toposort(self)
        self._accum(np.ones_like(self.data))
        for node in reversed(order):
            g = node.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite adjoint at op '{node.op}'")
            if node._backward is not None:
                node._backward(g)
                node.grad = None  # no caller reads an intermediate node's adjoint

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(other, mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ShapeError("tensor/tensor division is not part of the op set")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)


def parameter(data) -> Tensor:
    """A trainable leaf tensor."""
    t = Tensor(data, requires_grad=True)
    t.op = "param"
    return t


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative post-order DFS; recursion would overflow on long sequences.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def recorded(parents: Iterable[Tensor]) -> tuple[Tensor, ...]:
    """The recording rule: the parents that the tape records for a node,
    those that require grad, or none while grad is disabled."""
    if not _GRAD_ENABLED:
        return ()
    return tuple(p for p in parents if p.requires_grad)


def make_node(
    data: np.ndarray, parents: Iterable[Tensor], backward: Callable, op: str, check: bool = True
) -> Tensor:
    if check:
        check_finite(data, op)
    parents = recorded(parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.op = op
    out._backward_run = False
    out.requires_grad = bool(parents)
    out._parents = parents
    out._backward = backward if parents else None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Collapse the adjoint of a broadcast result back onto `shape`.
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- arithmetic --------------------------------------------------------------


def _broadcasting(a, b, forward: Callable, adjoint: Callable, op: str) -> Tensor:
    # `adjoint(g, other)` is an operand's adjoint before unbroadcasting,
    # given the other operand's values.
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = forward(a.data, b.data)
    except ValueError as err:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from err

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(adjoint(g, b.data), a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(adjoint(g, a.data), b.data.shape))

    return make_node(data, (a, b), backward, op)


def add(a, b) -> Tensor:
    return _broadcasting(a, b, np.add, lambda g, other: g, "add")


def mul(a, b) -> Tensor:
    return _broadcasting(a, b, np.multiply, lambda g, other: g * other, "mul")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

    return make_node(data, (a, b), backward, "matmul")


# -- elementwise nonlinearities ----------------------------------------------


def _elementwise(a, forward: Callable, adjoint: Callable, op: str) -> Tensor:
    # `adjoint(g, x, y)` is the input's adjoint, given the input x and output y.
    a = as_tensor(a)
    data = forward(a.data)

    def backward(g):
        a._accum(adjoint(g, a.data, data))

    return make_node(data, (a,), backward, op)


def sigmoid(a) -> Tensor:
    # tanh-based form saturates instead of overflowing exp()
    return _elementwise(
        a, lambda x: 0.5 * (1.0 + np.tanh(0.5 * x)), lambda g, x, y: g * y * (1.0 - y), "sigmoid"
    )


def tanh(a) -> Tensor:
    return _elementwise(a, np.tanh, lambda g, x, y: g * (1.0 - y * y), "tanh")


def relu(a) -> Tensor:
    return _elementwise(a, lambda x: np.maximum(x, 0.0), lambda g, x, y: g * (x > 0.0), "relu")


# -- structural ops -----------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        a._accum(g.reshape(a.shape))

    return make_node(a.data.reshape(shape), (a,), backward, "reshape", check=False)


def getitem(a: Tensor, key) -> Tensor:
    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, key, g)  # repeated indices add up, one by one

    return make_node(np.array(a.data[key], dtype=np.float64), (a,), backward, "getitem")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of zero tensors")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as err:
        raise ShapeError("concat: incompatible shapes") from err
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, offsets, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accum(piece)

    return make_node(data, tensors, backward, "concat")
