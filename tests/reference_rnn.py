"""Per-step reference implementations of the fused ops.

Each time step of each direction is built from elementary tape ops, one
node per arithmetic operation, exactly as the network was assembled
before the recurrent layers, the CRF forward algorithm and the task
losses became single fused nodes. The fused ops in ``seqtag.network``
and ``seqtag.crf`` are tested against these.
"""

from __future__ import annotations

import numpy as np

from seqtag import autodiff as ad
from seqtag.autodiff import Tensor
from seqtag.crf import crf_log_z


def initial_state(params) -> tuple[Tensor, ...]:
    h0 = Tensor(np.zeros((1, params.hidden)))
    if params.kind == "lstm":
        return (h0, Tensor(np.zeros((1, params.hidden))))
    return (h0,)


def cell_step(kind, x: Tensor, state, params):
    """One recurrent step; returns (output, new state)."""
    h = state[0]
    n = params.hidden
    if kind == "simple":
        new_h = ad.tanh(x @ params.W + h @ params.U + params.b)
        return new_h, (new_h,)
    if kind == "lstm":
        c = state[1]
        z = x @ params.W + h @ params.U + params.b
        i = ad.sigmoid(z[:, 0:n])
        f = ad.sigmoid(z[:, n : 2 * n])
        o = ad.sigmoid(z[:, 2 * n : 3 * n])
        c_hat = ad.tanh(z[:, 3 * n : 4 * n])
        new_c = f * c + i * c_hat
        new_h = o * ad.tanh(new_c)
        return new_h, (new_h, new_c)
    g = x @ params.W + h @ params.U + params.b
    z = ad.sigmoid(g[:, 0:n])
    r = ad.sigmoid(g[:, n : 2 * n])
    h_hat = ad.tanh(x @ params.Wc + (r * h) @ params.Uc + params.bc)
    new_h = (1.0 - z) * h + z * h_hat
    return new_h, (new_h,)


def _masked(t: Tensor, mask) -> Tensor:
    return t if mask is None else t * Tensor(mask)


def no_masks(site, t):
    return None


def run_direction(inputs: Tensor, cell, order, masks=no_masks):
    """Per-step outputs of one direction over (T, k) inputs, visiting
    steps in ``order``. ``masks(site, t)`` returns the keep mask of a
    dropout site ("input", "state", "output") at step t, or None."""
    T = inputs.shape[0]
    outs = [None] * T
    state = initial_state(cell)
    for t in order:
        x = _masked(inputs[t : t + 1, :], masks("input", t))
        h_prev = _masked(state[0], masks("state", t))
        out, state = cell_step(cell.kind, x, (h_prev, *state[1:]), cell)
        outs[t] = _masked(out, masks("output", t))
    return outs


class StepMasks:
    """Inverted-dropout keep masks drawn step by step, in visiting order,
    input then state then output within a step; variational mode draws
    each site once and reuses it."""

    def __init__(self, rng, dropout, k, hidden):
        self.rng = rng
        self.sites = {
            "input": (dropout.rnn_input, k),
            "state": (dropout.rnn_state, hidden),
            "output": (dropout.rnn_output, hidden),
        }
        self.variational = dropout.variational
        self.held = {}

    def __call__(self, site, t):
        p, width = self.sites[site]
        if p <= 0.0:
            return None
        if self.variational and site in self.held:
            mask = self.held[site]
        else:
            mask = (self.rng.random((1, width)) >= p).astype(np.float64) / (1.0 - p)
            self.held[site] = mask
        return mask


def bidirectional_reference(inputs: Tensor, fwd, bwd, dropout=None, rng=None):
    """(T, 2*hidden) outputs; with ``dropout`` and ``rng``, masks are
    drawn forward direction first, then backward."""
    T = inputs.shape[0]
    k = inputs.shape[1]
    halves = []
    for cell, order in ((fwd, range(T)), (bwd, reversed(range(T)))):
        masks = no_masks if dropout is None else StepMasks(rng, dropout, k, cell.hidden)
        halves.append(run_direction(inputs, cell, order, masks))
    rows = [ad.concat([halves[0][t], halves[1][t]], axis=1) for t in range(T)]
    return ad.concat(rows, axis=0)


def char_features_reference(char_idss, table: Tensor, fwd, bwd) -> Tensor:
    """Word by word: final forward and backward states over the
    characters, (n_words, 2*hidden); empty words give zeros."""
    feats = []
    for ids in char_idss:
        if len(ids) == 0:
            feats.append(Tensor(np.zeros((1, 2 * fwd.hidden))))
            continue
        rows = table[np.asarray(ids, dtype=np.intp)]
        T = rows.shape[0]
        out_f = run_direction(rows, fwd, range(T))[T - 1]
        out_b = run_direction(rows, bwd, reversed(range(T)))[0]
        feats.append(ad.concat([out_f, out_b], axis=1))
    return ad.concat(feats, axis=0)


def crf_log_z_reference(logits: Tensor, transitions: Tensor, begin: Tensor, end: Tensor):
    """Forward algorithm with one logsumexp node per step."""
    T, L = logits.shape
    alpha = logits[0:1, :] + begin.reshape(1, L)
    for t in range(1, T):
        scores = alpha.reshape(L, 1) + transitions
        alpha = ad.logsumexp(scores, axis=0, keepdims=True) + logits[t : t + 1, :]
    return ad.logsumexp(alpha + end.reshape(1, L))


def crf_score_reference(logits: Tensor, transitions: Tensor, begin: Tensor, end: Tensor, path):
    """Unnormalized score of one label path, from getitem and sum nodes."""
    path = np.asarray(path, dtype=np.intp)
    T = logits.shape[0]
    score = logits[np.arange(T), path].sum() + begin[int(path[0])] + end[int(path[-1])]
    if T > 1:
        score = score + transitions[path[:-1], path[1:]].sum()
    return score


def crf_nll_reference(logits: Tensor, transitions: Tensor, begin: Tensor, end: Tensor, gold):
    """log Z - score(gold) as a fused log-Z node minus the composed score."""
    return crf_log_z(logits, transitions, begin, end) - crf_score_reference(
        logits, transitions, begin, end, gold
    )


def softmax_nll_reference(logits: Tensor, gold) -> Tensor:
    """Mean negative log softmax probability from logsumexp, getitem and
    mean nodes."""
    gold = np.asarray(gold, dtype=np.intp)
    log_sm = logits - ad.logsumexp(logits, axis=1, keepdims=True)
    picked = log_sm[np.arange(gold.size), gold]
    return -picked.mean()
