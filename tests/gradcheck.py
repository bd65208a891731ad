"""Test-only autodiff helpers: the small ops that only the tests and
the composed references use (``power``, ``exp``, ``softmax``,
``tsum``, ``tmean`` and ``logsumexp``), and a finite-difference
gradient check."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from seqtag import autodiff as ad
from seqtag.autodiff import Tensor


def power(a, exponent) -> Tensor:
    a = ad.as_tensor(a)
    exponent = float(exponent)
    data = a.data ** exponent

    def backward(g):
        if a.requires_grad:
            a._accum(g * exponent * a.data ** (exponent - 1.0))

    return ad.make_node(data, (a,), backward, "pow")


def exp(a) -> Tensor:
    a = ad.as_tensor(a)
    with np.errstate(over="ignore"):
        data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a._accum(g * data)

    return ad.make_node(data, (a,), backward, "exp")


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = ad.as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accum(np.broadcast_to(g, a.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a._accum(np.broadcast_to(gg, a.data.shape).copy())

    return ad.make_node(np.asarray(data, dtype=np.float64), (a,), backward, "sum")


def tmean(a: Tensor, axis=None) -> Tensor:
    a = ad.as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return ad.mul(tsum(a, axis), 1.0 / count)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = ad.as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            inner = (g * data).sum(axis=axis, keepdims=True)
            a._accum(data * (g - inner))

    return ad.make_node(data, (a,), backward, "softmax")


def logsumexp(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """log(sum(exp(a))) with the max-subtraction trick."""
    a = ad.as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    shifted = np.exp(a.data - m)
    total = shifted.sum(axis=axis, keepdims=True)
    data_keep = m + np.log(total)
    soft = shifted / total  # softmax(a) along axis, keepdims layout
    if keepdims:
        data = data_keep
    elif axis is None:
        data = data_keep.reshape(())
    else:
        data = np.squeeze(data_keep, axis=axis)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accum(soft * g)
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a._accum(soft * gg)

    return ad.make_node(np.asarray(data, dtype=np.float64), (a,), backward, "logsumexp")


def check_gradients(build_loss: Callable[[], Tensor], params: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    ``build_loss`` must rebuild the graph from the current parameter data
    each call. Returns the maximum relative error
    ``|a - n| / max(|a|, |n|, 1e-8)`` over all parameter components.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    for p in params:
        p.grad = None
    loss = build_loss()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.ravel()
        ana_flat = ana.ravel()
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            f_plus = float(build_loss().data)
            flat[i] = saved - eps
            f_minus = float(build_loss().data)
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(ana_flat[i] - numeric) / max(abs(ana_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
