"""Per-step reference implementations of the fused ops.

Each time step of each direction is built from elementary tape ops, one
node per arithmetic operation, exactly as the network was assembled
before the recurrent layers, the CRF forward algorithm and the task
losses became single fused nodes. The fused ops in ``seqtag.network``
and ``seqtag.crf`` are tested against these. The single-direction
recurrent node that preceded the fused bidirectional one is kept at the
end, with the two layers built from it.
"""

from __future__ import annotations

import functools

import numpy as np

from seqtag import autodiff as ad
from seqtag.autodiff import Tensor
from seqtag.corpus import PAD_INDEX
from seqtag.crf import crf_log_z
from seqtag.exceptions import ShapeError
from seqtag.network import _dropout_masks

from gradcheck import logsumexp, tmean, tsum


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
    alpha = logits[0:1, :] + ad.reshape(begin, (1, L))
    for t in range(1, T):
        scores = ad.reshape(alpha, (L, 1)) + transitions
        alpha = logsumexp(scores, axis=0, keepdims=True) + logits[t : t + 1, :]
    return logsumexp(alpha + ad.reshape(end, (1, L)))


def crf_score_reference(logits: Tensor, transitions: Tensor, begin: Tensor, end: Tensor, path):
    """Unnormalized score of one label path, from getitem and sum nodes."""
    path = np.asarray(path, dtype=np.intp)
    T = logits.shape[0]
    score = tsum(logits[np.arange(T), path]) + begin[int(path[0])] + end[int(path[-1])]
    if T > 1:
        score = score + tsum(transitions[path[:-1], path[1:]])
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
    log_sm = logits - logsumexp(logits, axis=1, keepdims=True)
    picked = log_sm[np.arange(gold.size), gold]
    return -tmean(picked)


# -- one fused node per direction ----------------------------------------------------
#
# The single-direction kernel as it was before both directions of a layer
# stepped in one loop, and the two layers built from it: two calls, the
# dropout masks as separate multiplication nodes and a concat. The fused
# layers must equal these bit for bit.


@functools.cache
def _lstm_halves(hidden: int) -> np.ndarray:
    """Column factors of an LSTM's pre-activations: 0.5 for the sigmoid
    gates i, f, o and 1.0 for the candidate. Cached, so read-only."""
    halves = np.repeat([0.5, 1.0], [3 * hidden, hidden])
    halves.flags.writeable = False
    return halves


def _previous(steps: np.ndarray, reverse: bool) -> np.ndarray:
    """Time-major stacked states shifted by one step in processing
    order: what each step received, zeros at the first step."""
    prev = np.zeros_like(steps)
    if reverse:
        prev[:-1] = steps[1:]
    else:
        prev[1:] = steps[:-1]
    return prev


def recurrent_reference(
    x: Tensor,
    cell: CellParams,
    mask: np.ndarray | None = None,
    state_mask: np.ndarray | None = None,
    reverse: bool = False,
) -> Tensor:
    """One direction of a recurrent layer over whole sequences, as one
    tape node named ``rnn/<kind>``.

    ``x`` is a padded (B, T, k) batch, or one (T, k) sequence. ``mask``
    (B, T) marks the real steps; on a padded step the state carries
    over unchanged, so the last processed step holds each row's final
    state. ``state_mask`` (broadcastable to (B, T, H), indexed by input
    time) multiplies the incoming hidden state at each step: recurrent
    dropout. ``reverse`` runs t = T-1 .. 0. Returns every step's hidden
    state in input time order, (B, T, H) or (T, H).

    The forward pass is one ``x @ W`` GEMM (plus ``x @ Wc`` for GRU) and
    a loop over ``h @ U``; the stacked pre-activations are checked for
    non-finite values once. A sigmoid gate is computed as
    ``0.5 * (1 + tanh(z / 2))``: its columns of ``x @ W``, U and b are
    halved once per call (exact in binary floating point), so one
    ``tanh`` covers all gates of a step and the stored pre-activations
    of those columns are ``z / 2``. The backward pass is one reverse
    BPTT loop followed by one GEMM each for the weight and input
    adjoints.
    """
    kind, H = cell.kind, cell.hidden
    op = f"rnn/{kind}"
    if x.data.shape[-1] != cell.W.shape[0]:
        raise ShapeError(f"cell input dim {x.data.shape[-1]} != weight dim {cell.W.shape[0]}")
    # internally time-major: row t of every stacked array is step t, of
    # shape (B, .) for a batch and (.) for a single sequence
    if x.data.ndim == 3:
        B, T, k = x.data.shape
        lead = (B,)
        Xt = x.data.transpose(1, 0, 2).reshape(T * B, k)
    else:
        (T, k), B, lead = x.data.shape, 1, ()
        Xt = x.data
    U, b = cell.U.data, cell.b.data[0]
    XW = (Xt @ cell.W.data).reshape(T, *lead, U.shape[1])
    if kind != "simple":
        half = 0.5 if kind == "gru" else _lstm_halves(H)
        XW *= half
        U, b = U * half, b * half
    SM = None
    if state_mask is not None:
        SM = np.broadcast_to(state_mask, (B, T, H)).transpose(1, 0, 2).reshape(T, *lead, H)
    keep = drop = None
    if mask is not None:
        keep = np.asarray(mask, dtype=bool).reshape(B, T).T.reshape(T, *lead, 1)
        drop = ~keep
    order = range(T - 1, -1, -1) if reverse else range(T)

    Z = np.empty_like(XW)  # gate pre-activations (halved for the sigmoid gates)
    OUT = np.empty((T, *lead, H))
    ACT = OUT if kind == "simple" else np.empty_like(XW)  # gate activations
    if kind == "lstm":
        C = np.empty_like(OUT)  # cell states
        TC = np.empty_like(OUT)  # tanh of the new cell state
        SIG = ACT[..., : 3 * H]
        I, F, O, GC = (ACT[..., j * H : (j + 1) * H] for j in range(4))
    elif kind == "gru":
        XWc = (Xt @ cell.Wc.data).reshape(T, *lead, H)
        Uc, bc = cell.Uc.data, cell.bc.data[0]
        A = np.empty_like(OUT)  # candidate pre-activations
        HH = np.empty_like(OUT)  # candidate states
        ZG, R = ACT[..., :H], ACT[..., H:]
    h = np.zeros(OUT.shape[1:])
    c = np.zeros(OUT.shape[1:])
    for t in order:
        hm = h if SM is None else h * SM[t]
        z = np.matmul(hm, U, out=Z[t])
        z += XW[t]
        z += b
        new_h = act = np.tanh(z, out=ACT[t])
        if kind == "lstm":
            sig = SIG[t]
            sig += 1.0
            sig *= 0.5
            new_c = np.multiply(F[t], c, out=C[t])
            new_c += I[t] * GC[t]
            new_h = np.multiply(O[t], np.tanh(new_c, out=TC[t]), out=OUT[t])
        elif kind == "gru":
            act += 1.0
            act *= 0.5
            zg = ZG[t]
            a = np.matmul(R[t] * hm, Uc, out=A[t])
            a += XWc[t]
            a += bc
            new_h = np.subtract(1.0, zg, out=OUT[t])
            new_h *= hm
            new_h += zg * np.tanh(a, out=HH[t])
        if keep is not None:
            np.copyto(new_h, h, where=drop[t])
            if kind == "lstm":
                np.copyto(new_c, c, where=drop[t])
        h = new_h
        if kind == "lstm":
            c = new_c
    ad.check_finite(Z, op)
    if kind == "gru":
        ad.check_finite(A, op)

    def backward(g_out):
        dOUT = g_out.transpose(1, 0, 2) if lead else g_out
        HM = _previous(OUT, reverse)
        if SM is not None:
            HM *= SM
        # per-step factors of the BPTT recursion, computed for all steps at once
        if kind == "simple":
            D = 1.0 - ACT * ACT  # ACT is OUT: a padded step's factor is masked below
        elif kind == "lstm":
            slope = SIG * (1.0 - SIG)
            COEF = np.empty((T, *lead, 4, H))  # gate adjoints per unit of dc (o: per unit of dh)
            COEF[..., 0, :] = GC * slope[..., :H]
            COEF[..., 1, :] = _previous(C, reverse) * slope[..., H : 2 * H]
            COEF[..., 2, :] = TC * slope[..., 2 * H :]
            COEF[..., 3, :] = I * (1.0 - GC * GC)
            DTC = O * (1.0 - TC * TC)
        else:
            DA = ZG * (1.0 - HH * HH)
            DZG = (HH - HM) * (ZG * (1.0 - ZG))
            DR = HM * (R * (1.0 - R))
            KEEP_H = 1.0 - ZG
            dA = np.empty_like(OUT)
        U = cell.U.data  # not halved: dZ is the adjoint of the full pre-activations
        dZ = np.empty_like(Z)
        dh = np.zeros(OUT.shape[1:])
        dc = np.zeros(OUT.shape[1:])
        for t in reversed(order):
            dh += dOUT[t]
            dz = dZ[t]
            if kind == "simple":
                np.multiply(dh, D[t], out=dz)
            elif kind == "lstm":
                dcn = dh * DTC[t]
                dcn += dc
                dz4 = dz.reshape(*lead, 4, H)
                np.multiply(dcn[..., None, :], COEF[t], out=dz4)
                np.multiply(dh, COEF[t, ..., 2, :], out=dz4[..., 2, :])
                dc = dcn * F[t] if keep is None else np.where(keep[t], dcn * F[t], dc)
            else:
                da = np.multiply(dh, DA[t], out=dA[t])
                if keep is not None:
                    da *= keep[t]
                drh = da @ Uc.T
                np.multiply(dh, DZG[t], out=dz[..., :H])
                np.multiply(drh, DR[t], out=dz[..., H:])
            if keep is not None:
                dz *= keep[t]
            dhm = dz @ U.T
            if kind == "gru":
                dhm += dh * KEEP_H[t]
                dhm += drh * R[t]
            if SM is not None:
                dhm *= SM[t]
            dh = dhm if keep is None else np.where(keep[t], dhm, dh)

        # (pre-activation adjoints, the states they multiply, W, U, b)
        blocks = [(dZ.reshape(T * B, -1), HM, cell.W, cell.U, cell.b)]
        if kind == "gru":
            blocks.append((dA.reshape(T * B, H), R * HM, cell.Wc, cell.Uc, cell.bc))
        for d, states, W, U_, b_ in blocks:
            if W.requires_grad:
                W._accum(Xt.T @ d)
            if U_.requires_grad:
                U_._accum(states.reshape(T * B, H).T @ d)
            if b_.requires_grad:
                b_._accum(d.sum(axis=0, keepdims=True))
        if x.requires_grad:
            dX = sum(d @ W.data.T for d, _, W, _, _ in blocks)
            x._accum(dX.reshape(T, B, k).transpose(1, 0, 2) if lead else dX)

    out = np.ascontiguousarray(OUT.transpose(1, 0, 2)) if lead else OUT
    return ad.make_node(out, (x, *(t for _, t in cell.tensors())), backward, op)


def bidirectional_two_calls(inputs, fwd, bwd, dropout, training, rng=None, mask=None) -> Tensor:
    """``network.bidirectional_layer`` as two single-direction nodes."""
    halves = []
    for cell, reverse in ((fwd, False), (bwd, True)):
        in_mask, state_mask, out_mask = (
            _dropout_masks(rng, dropout, inputs.shape, cell.hidden, reverse)
            if training
            else (None, None, None)
        )
        x = inputs if in_mask is None else inputs * Tensor(in_mask)
        out = recurrent_reference(x, cell, mask=mask, state_mask=state_mask, reverse=reverse)
        halves.append(out if out_mask is None else out * Tensor(out_mask))
    return ad.concat(halves, axis=-1)


def char_features_two_calls(char_idss, table: Tensor, fwd, bwd) -> Tensor:
    """``network.char_features`` as two single-direction nodes."""
    lengths = np.array([len(ids) for ids in char_idss], dtype=np.intp)
    T = int(lengths.max(initial=0))
    if T == 0:
        return Tensor(np.zeros((len(lengths), 2 * fwd.hidden)))
    mask = np.arange(T) < lengths[:, None]
    ids = np.full(mask.shape, PAD_INDEX, dtype=np.intp)
    ids[mask] = [i for word in char_idss for i in word]
    rows = table[ids]
    out_f = recurrent_reference(rows, fwd, mask=mask)
    out_b = recurrent_reference(rows, bwd, mask=mask, reverse=True)
    return ad.concat([out_f[:, -1, :], out_b[:, 0, :]], axis=1)
