"""Linear-chain CRF: sequence negative log-likelihood and Viterbi.

Scores are per-sequence normalized. A path through labels y_1..y_T
scores sum_t logits[t, y_t] + sum_t transitions[y_{t-1}, y_t]
+ begin[y_1] + end[y_T]; the partition function is computed by the
forward algorithm in log space (log-sum-exp with max subtraction) as a
single tape node, whose backward pass uses the beta recursion and the
resulting marginals. Only first-order dependencies are modeled.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from seqtag import autodiff as ad
from seqtag.autodiff import Tensor
from seqtag.exceptions import ShapeError


def crf_score(
    logits: Tensor, transitions: Tensor, begin: Tensor, end: Tensor, path: Sequence[int]
) -> Tensor:
    """Unnormalized score of one label path."""
    path = np.asarray(path, dtype=np.intp)
    T = logits.shape[0]
    if path.size != T:
        raise ShapeError(f"path length {path.size} != sequence length {T}")
    score = logits[np.arange(T), path].sum() + begin[int(path[0])] + end[int(path[-1])]
    if T > 1:
        score = score + transitions[path[:-1], path[1:]].sum()
    return score


def crf_log_z(logits: Tensor, transitions: Tensor, begin: Tensor, end: Tensor) -> Tensor:
    """Log partition function via the forward algorithm, as one tape
    node. Its backward pass runs the beta recursion and pushes the
    unary and pairwise marginals to the inputs."""
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

    def backward(g):
        betas = np.empty((T, L))
        betas[T - 1] = end.data
        for t in range(T - 1, 0, -1):
            scores = trans + (x[t] + betas[t])  # [src, dst]
            m = scores.max(axis=1)
            betas[t - 1] = m + np.log(np.exp(scores - m[:, None]).sum(axis=1))
        unary = g * np.exp(alphas + betas - log_z)
        if logits.requires_grad:
            logits._accum(unary)
        if begin.requires_grad:
            begin._accum(unary[0])
        if end.requires_grad:
            end._accum(unary[T - 1])
        if transitions.requires_grad and T > 1:
            pairs = alphas[:-1, :, None] + trans + (x[1:] + betas[1:])[:, None, :]
            transitions._accum(g * np.exp(pairs - log_z).sum(axis=0))

    parents = (logits, transitions, begin, end)
    return ad.make_node(np.asarray(log_z, dtype=np.float64), parents, backward, "crf_log_z")


def crf_nll(
    logits: Tensor, transitions: Tensor, begin: Tensor, end: Tensor, gold: Sequence[int]
) -> Tensor:
    """Sequence negative log-likelihood: log Z - score(gold)."""
    if logits.shape[0] < 1:
        raise ShapeError("CRF needs at least one token")
    return crf_log_z(logits, transitions, begin, end) - crf_score(
        logits, transitions, begin, end, gold
    )


def crf_viterbi(
    logits: np.ndarray, transitions: np.ndarray, begin: np.ndarray, end: np.ndarray
) -> list[int]:
    """Best-scoring label path.

    Ties break toward the smallest label index at every backtrack step
    (np.argmax picks the first maximum), so decoding is deterministic.
    """
    T, L = logits.shape
    if T < 1:
        raise ShapeError("CRF needs at least one token")
    delta = logits[0] + begin
    back = np.zeros((T, L), dtype=np.intp)
    for t in range(1, T):
        scores = delta[:, None] + transitions  # [src, dst]
        back[t] = np.argmax(scores, axis=0)
        delta = scores[back[t], np.arange(L)] + logits[t]
    delta = delta + end
    path = [int(np.argmax(delta))]
    for t in range(T - 1, 0, -1):
        path.append(int(back[t][path[-1]]))
    path.reverse()
    return path
