"""Linear-chain CRF: sequence negative log-likelihood and Viterbi.

Scores are per-sequence normalized. A path through labels y_1..y_T
scores sum_t logits[t, y_t] + sum_t transitions[y_{t-1}, y_t]
+ begin[y_1] + end[y_T]; the partition function is computed by the
forward algorithm in log space (log-sum-exp with max subtraction) as a
single tape node, whose backward pass uses the beta recursion and the
resulting marginals. The training loss, log Z minus the gold path's
score, is that same node given the gold path: its backward pass takes
the gold path's indicators off the marginals. Only first-order
dependencies are modeled.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from seqtag import autodiff as ad
from seqtag.autodiff import Tensor
from seqtag.exceptions import ShapeError


def crf_log_z(
    logits: Tensor,
    transitions: Tensor,
    begin: Tensor,
    end: Tensor,
    gold: Sequence[int] | None = None,
) -> Tensor:
    """Log partition function via the forward algorithm, as one tape
    node. Its backward pass runs the beta recursion and pushes the
    unary and pairwise marginals to the inputs. With a ``gold`` path
    the node returns log Z - score(gold), and the backward pass takes
    the gold path's indicators off the marginals."""
    x, trans = logits.data, transitions.data
    T, L = x.shape
    alphas = np.empty((T, L))
    alphas[0] = x[0] + begin.data
    for t in range(1, T):
        scores = alphas[t - 1][:, None] + trans  # [src, dst]
        m = scores.max(axis=0)
        alphas[t] = (m + np.log(np.exp(scores - m).sum(axis=0))) + x[t]
    final = alphas[T - 1] + end.data
    m = final.max()
    log_z = m + np.log(np.exp(final - m).sum())
    out = log_z
    if gold is not None:
        steps = np.arange(T)
        src, dst = gold[:-1], gold[1:]
        score = x[steps, gold].sum() + begin.data[gold[0]] + end.data[gold[-1]]
        if T > 1:
            score = score + trans[src, dst].sum()
        out = log_z - score

    def backward(g):
        betas = np.empty((T, L))
        betas[T - 1] = end.data
        for t in range(T - 1, 0, -1):
            scores = trans + (x[t] + betas[t])  # [src, dst]
            m = scores.max(axis=1)
            betas[t - 1] = m + np.log(np.exp(scores - m[:, None]).sum(axis=1))
        unary = g * np.exp(alphas + betas - log_z)
        # begin, end and transitions may already hold earlier sentences'
        # gradients: adding the marginals first and taking the gold
        # indicators off after gives the sums of log Z and a separately
        # differentiated path score, bit for bit
        if begin.requires_grad:
            begin._accum(unary[0])
            if gold is not None:
                begin.grad[gold[0]] -= g
        if end.requires_grad:
            end._accum(unary[T - 1])
            if gold is not None:
                end.grad[gold[-1]] -= g
        if transitions.requires_grad and T > 1:
            pairs = alphas[:-1, :, None] + trans + (x[1:] + betas[1:])[:, None, :]
            transitions._accum(g * np.exp(pairs - log_z).sum(axis=0))
            if gold is not None:
                np.subtract.at(transitions.grad, (src, dst), g)
        if logits.requires_grad:
            if gold is not None:
                unary[steps, gold] -= g
            logits._accum(unary)

    parents = (logits, transitions, begin, end)
    op = "crf_log_z" if gold is None else "crf_nll"
    return ad.make_node(np.asarray(out, dtype=np.float64), parents, backward, op)


def crf_nll(
    logits: Tensor, transitions: Tensor, begin: Tensor, end: Tensor, gold: Sequence[int]
) -> Tensor:
    """Sequence negative log-likelihood, log Z - score(gold), as one
    ``crf_log_z`` node."""
    T = logits.shape[0]
    if T < 1:
        raise ShapeError("CRF needs at least one token")
    gold = np.asarray(gold, dtype=np.intp)
    if gold.size != T:
        raise ShapeError(f"path length {gold.size} != sequence length {T}")
    return crf_log_z(logits, transitions, begin, end, gold)


def crf_viterbi(
    logits: np.ndarray, transitions: np.ndarray, begin: np.ndarray, end: np.ndarray
) -> list[int]:
    """Best-scoring label path.

    Ties break toward the smallest label index at every backtrack step
    (np.argmax picks the first maximum), so decoding is deterministic.
    Each step's best score is ``scores.max``, the very element that
    ``argmax`` picks.
    """
    T, L = logits.shape
    if T < 1:
        raise ShapeError("CRF needs at least one token")
    delta = logits[0] + begin
    back = np.zeros((T, L), dtype=np.intp)
    for t in range(1, T):
        scores = delta[:, None] + transitions  # [src, dst]
        scores.argmax(axis=0, out=back[t])
        delta = scores.max(axis=0)
        delta += logits[t]
    delta = delta + end
    path = [int(delta.argmax())]
    for row in back.tolist()[:0:-1]:
        path.append(row[path[-1]])
    path.reverse()
    return path
