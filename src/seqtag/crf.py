"""Linear-chain CRF: sequence negative log-likelihood and Viterbi.

Scores are per-sequence normalized. A path through labels y_1..y_T
scores sum_t logits[t, y_t] + sum_t transitions[y_{t-1}, y_t]
+ begin[y_1] + end[y_T]; the partition function is computed by the
forward algorithm in log space (log-sum-exp with max subtraction) as a
single tape node, whose backward pass uses the beta recursion and the
resulting marginals. The training loss, log Z minus the gold path's
score, is that same node given the gold path: its backward pass takes
the gold path's indicators off the marginals. A training batch of
sequences is one node too, both recursions running over all sequences
at once. Only first-order dependencies are modeled.
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
    lengths: Sequence[int] | None = None,
) -> Tensor:
    """Log partition function via the forward algorithm, as one tape
    node. Its backward pass runs the beta recursion and pushes the
    unary and pairwise marginals to the inputs. With a ``gold`` path
    the node returns log Z - score(gold), and the backward pass takes
    the gold path's indicators off the marginals.

    With ``lengths``, the rows of ``logits`` (and ``gold``) hold several
    sequences one after another; both recursions run over all of them
    at once, each sequence starting and ending at its own length, and
    the node returns the mean over the sequences."""
    x, trans = logits.data, transitions.data
    N, L = x.shape
    lengths = np.array([N] if lengths is None else lengths, dtype=np.intp)
    B, T = lengths.size, int(lengths.max())
    real = np.arange(T) < lengths[:, None]  # (B, T)
    firsts = np.cumsum(lengths) - lengths
    X = np.zeros((B, T, L))
    X[real] = x
    X = X.transpose(1, 0, 2)  # time-major (T, B, L)
    alphas = np.empty((T, B, L))
    alphas[0] = X[0] + begin.data
    for t in range(1, T):
        scores = alphas[t - 1][:, :, None] + trans  # [b, src, dst]
        m = scores.max(axis=1)
        alphas[t] = (m + np.log(np.exp(scores - m[:, None, :]).sum(axis=1))) + X[t]
    final = alphas[lengths - 1, np.arange(B)] + end.data
    m = final.max(axis=1)
    log_z = m + np.log(np.exp(final - m[:, None]).sum(axis=1))
    outs = list(log_z)
    if gold is not None:
        gold = np.asarray(gold, dtype=np.intp)
        picked = x[np.arange(N), gold]
        for b, (a, n) in enumerate(zip(firsts, lengths)):
            path = gold[a : a + n]
            score = picked[a : a + n].sum() + begin.data[path[0]] + end.data[path[-1]]
            if n > 1:
                score = score + trans[path[:-1], path[1:]].sum()
            outs[b] = log_z[b] - score
    out = sum(outs[1:], start=outs[0]) * (1.0 / B)

    def backward(g):
        g = g * (1.0 / B)  # each sequence's share
        seq = np.repeat(np.arange(B), lengths)  # the sequence of each row
        lasts = firsts + lengths - 1
        inner = np.flatnonzero(seq[:-1] == seq[1:])  # rows followed by a row of their sequence
        betas = np.empty((T, B, L))
        betas[T - 1] = end.data
        for t in range(T - 1, 0, -1):
            scores = trans + (X[t] + betas[t])[:, None, :]  # [b, src, dst]
            m = scores.max(axis=2)
            step = m + np.log(np.exp(scores - m[..., None]).sum(axis=2))
            betas[t - 1] = np.where((t < lengths)[:, None], step, end.data)
        # the real steps' alphas and betas as rows in sequence order
        A = alphas.transpose(1, 0, 2)[real]
        Bt = betas.transpose(1, 0, 2)[real]
        unary = g * np.exp(A + Bt - log_z[seq, None])
        # begin, end and transitions may already hold earlier sentences'
        # gradients: adding the marginals first and taking the gold
        # indicators off after gives the sums of log Z and a separately
        # differentiated path score, bit for bit
        if begin.requires_grad:
            begin._accum(unary[firsts].sum(axis=0))
            if gold is not None:
                np.subtract.at(begin.grad, gold[firsts], g)
        if end.requires_grad:
            end._accum(unary[lasts].sum(axis=0))
            if gold is not None:
                np.subtract.at(end.grad, gold[lasts], g)
        if transitions.requires_grad and inner.size:
            pairs = A[inner, :, None] + trans + (x[inner + 1] + Bt[inner + 1])[:, None, :]
            transitions._accum(g * np.exp(pairs - log_z[seq[inner], None, None]).sum(axis=0))
            if gold is not None:
                np.subtract.at(transitions.grad, (gold[inner], gold[inner + 1]), g)
        if logits.requires_grad:
            if gold is not None:
                unary[np.arange(N), gold] -= g
            logits._accum(unary)

    parents = (logits, transitions, begin, end)
    op = "crf_log_z" if gold is None else "crf_nll"
    return ad.make_node(np.asarray(out, dtype=np.float64), parents, backward, op)


def crf_nll(
    logits: Tensor,
    transitions: Tensor,
    begin: Tensor,
    end: Tensor,
    gold: Sequence[int],
    lengths: Sequence[int] | None = None,
) -> Tensor:
    """Sequence negative log-likelihood, log Z - score(gold), as one
    ``crf_log_z`` node; with ``lengths``, the mean over the sequences
    whose rows ``logits`` and ``gold`` hold one after another."""
    N = logits.shape[0]
    gold = np.asarray(gold, dtype=np.intp)
    if gold.size != N:
        raise ShapeError(f"path length {gold.size} != sequence length {N}")
    if N < 1 or (lengths is not None and (min(lengths) < 1 or sum(lengths) != N)):
        raise ShapeError("CRF needs at least one token per sequence")
    return crf_log_z(logits, transitions, begin, end, gold, lengths)


def crf_viterbi(
    logits: np.ndarray, transitions: np.ndarray, begin: np.ndarray, end: np.ndarray
) -> list[int]:
    """Best-scoring label path.

    Ties break toward the smallest label index at every backtrack step
    (np.argmax picks the first maximum), so decoding is deterministic.
    Each step's best score is ``scores.max``, the very element that
    ``argmax`` picks. No tokens have the empty path.
    """
    T, L = logits.shape
    if T < 1:
        return []
    delta = logits[0] + begin
    back = np.zeros((T, L), dtype=np.intp)
    for b, lg in zip(back[1:], logits[1:]):
        scores = delta[:, None] + transitions  # [src, dst]
        scores.argmax(axis=0, out=b)
        delta = scores.max(axis=0)
        delta += lg
    delta = delta + end
    path = [int(delta.argmax())]
    for row in back.tolist()[:0:-1]:
        path.append(row[path[-1]])
    path.reverse()
    return path
