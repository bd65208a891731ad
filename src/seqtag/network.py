"""The multi-task tagging network.

One embedding layer (optionally concatenated with character BiLSTM
features) feeds a stack of shared bidirectional recurrent layers; every
task terminates at a configurable shared layer, runs through optional
private feed-forward layers, a projection, and ends in a softmax or CRF
head. All five dropout sites (word, RNN input/state/output, task) use
inverted scaling, so evaluation passes need no rescaling.

Each bidirectional layer is one fused tape node (``recurrent``) whose
directions step together in one loop, with the layer's RNN dropout
masks applied inside; each direction reads a row from its own first or
last real step, so padded steps come last and no real step reads one
(none is masked). ``Model.forward`` is the one forward graph, for
training and evaluation: it looks up a batch's sentences of surfaces and
runs each shared layer over them as one padded (B, T, k) batch with a
length mask (None when no row is padded), into a store that the tasks
of a batch may share and that only it writes; the character BiLSTM is
one node over all words, or its rows come from one lookup per
evaluation pass (``Model.char_rows``). Training adds one loss node over
the real tokens' rows (``softmax_nll`` here, ``crf.crf_nll`` for a CRF
head); evaluation runs each sentence as a batch of one
(``Model.predict_labels``: ``forward`` and a decode). Finite checks
happen once per fused node, on its stacked gate pre-activations and on
its output, and per adjoint in the backward pass; the remaining
elementary ops check their own outputs. A recurrent node keeps its
per-step activations only when the tape records it, for its backward
pass.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from seqtag import autodiff as ad
from seqtag import crf
from seqtag.autodiff import Tensor
from seqtag.config import DropoutConfig, NetworkConfig, TaskSpec
from seqtag.corpus import PAD_INDEX, UNK_INDEX, Sentence, Vocabulary
from seqtag.exceptions import ConfigError, ShapeError

# keyed by config.ACTIVATION_KINDS
ACTIVATIONS = {"tanh": ad.tanh, "sigmoid": ad.sigmoid, "relu": ad.relu, "identity": lambda t: t}
CHAR_PASS_CHARS = 1024  # padded characters (words x longest) in a pass of Model.char_rows


# -- recurrent cells --------------------------------------------------------------


@dataclass
class CellParams:
    kind: str
    hidden: int
    W: Tensor  # input weights; gru: gates z,r only
    U: Tensor
    b: Tensor
    Wc: Tensor | None = None  # gru candidate weights
    Uc: Tensor | None = None
    bc: Tensor | None = None

    def tensors(self) -> list[tuple[str, Tensor]]:
        named = [("W", self.W), ("U", self.U), ("b", self.b)]
        if self.kind == "gru":
            named += [("Wc", self.Wc), ("Uc", self.Uc), ("bc", self.bc)]
        return named


def init_cell(
    kind: str, in_dim: int, hidden: int, rng: np.random.Generator | None
) -> CellParams:
    if kind == "gru":
        W = _glorot(rng, in_dim, 2 * hidden)
        U = _glorot(rng, hidden, 2 * hidden)
        b = ad.parameter(np.zeros((1, 2 * hidden)))
        Wc = _glorot(rng, in_dim, hidden)
        Uc = _glorot(rng, hidden, hidden)
        bc = ad.parameter(np.zeros((1, hidden)))
        return CellParams(kind, hidden, W, U, b, Wc, Uc, bc)
    gates = 4 if kind == "lstm" else 1
    W = _glorot(rng, in_dim, gates * hidden)
    U = _glorot(rng, hidden, gates * hidden)
    bias = np.zeros((1, gates * hidden))
    if kind == "lstm":
        bias[0, hidden : 2 * hidden] = 1.0  # forget gate opens at start
    return CellParams(kind, hidden, W, U, ad.parameter(bias))


def _uniform(rng: np.random.Generator | None, bound: float, size) -> np.ndarray:
    """Draws from U(-bound, bound); zeros, and no draws, without a
    generator (a model whose every tensor a checkpoint overwrites). Every
    size a configuration sets reaches numpy first here."""
    try:
        return np.zeros(size) if rng is None else rng.uniform(-bound, bound, size=size)
    except (ValueError, MemoryError) as err:  # numpy refused the shape
        raise ConfigError(f"cannot allocate the network's parameters: {err}") from err


def _glorot(rng: np.random.Generator | None, fan_in: int, fan_out: int) -> Tensor:
    return ad.parameter(_uniform(rng, np.sqrt(6.0 / (fan_in + fan_out)), (fan_in, fan_out)))


# -- fused recurrence ---------------------------------------------------------------


@functools.cache
def _lstm_halves(hidden: int) -> np.ndarray:
    """Column factors of an LSTM's pre-activations: 0.5 for the sigmoid
    gates i, f, o and 1.0 for the candidate. Cached, so read-only."""
    halves = np.repeat([0.5, 1.0], [3 * hidden, hidden])
    halves.flags.writeable = False
    return halves


def _previous(steps: np.ndarray) -> np.ndarray:
    """Step-major stacked states shifted by one step: what each step
    received, zeros at the first step."""
    prev = np.zeros_like(steps)
    prev[1:] = steps[:-1]
    return prev


def recurrent(
    x: Tensor,
    cells: Sequence[CellParams],
    reverse: Sequence[bool],
    mask: np.ndarray | None = None,
    masks: Sequence[tuple] | None = None,
    final: bool = False,
) -> Tensor:
    """The directions of a recurrent layer over whole sequences, as one
    tape node named ``rnn/<kind>``; the cells share kind and size.

    ``x`` is a padded (B, T, k) batch read by every direction; ``mask``
    (B, T) marks each row's real steps, its first n (None when no row is
    padded). Direction d runs ``cells[d]`` from a zero state over t = 0
    .. n-1, or t = n-1 .. 0 if ``reverse[d]``, then on over the padded
    steps, which no real step reads: padded inputs change no real output
    and get zero adjoints, and the states at padded positions are for
    consumers to ignore. ``masks[d]`` holds direction d's dropout keep
    masks (input, state, output), each None or indexed by input time: the
    input mask multiplies ``x``, the state mask (broadcastable to (B, T,
    H)) the incoming hidden state of each step, the output mask the
    returned states. Returns the directions' hidden states concatenated
    per step in input time order, (B, T, D*H); with ``final``, each row's
    state after its last real step (zeros for an empty row), (B, D*H).

    Internally every array is step-major with a direction axis, (T, D,
    B, .): step s reads time s, or if reversed time n-1-s while s < n and
    s after (``back``, its own inverse). One loop steps all directions
    together: ``h @ U`` is one stacked ``np.matmul`` per step, which
    makes one BLAS call per direction. The forward pass is one ``x @ W``
    GEMM per direction (plus ``x @ Wc`` for GRU); the stacked
    pre-activations are checked for non-finite values once, and a
    failed check names the layer of a registered cell (``shared/2``,
    ``char_lstm``) next to the op. A sigmoid
    gate is computed as ``0.5 * (1 + tanh(z / 2))``: its columns of ``x @
    W``, U and b are halved once per call (exact in binary floating
    point), so one ``tanh`` covers all gates of a step and the stored
    pre-activations of those columns are ``z / 2``; the activations are
    stored gate-major, (gates, D, B, H) per step. Activations (and LSTM
    cell states, GRU candidates) are kept for all T steps only when the
    tape records the node (``autodiff.recorded``, the rule ``make_node``
    applies too); otherwise every step reuses one step's buffers. The
    backward pass is one reverse BPTT loop over all directions followed,
    per direction, by one GEMM each for the weight and input adjoints;
    the input adjoints are added to ``x`` direction by direction.
    """
    kind, H, D = cells[0].kind, cells[0].hidden, len(cells)
    op, name = f"rnn/{kind}", cells[0].W.op  # a registered cell's: "shared/2/fwd/W"
    scope = name.rsplit("/", 2)[0] if name.count("/") >= 2 else ""  # its layer, "shared/2"
    for cell in cells:
        if x.data.shape[-1] != cell.W.shape[0]:
            raise ShapeError(f"cell input dim {x.data.shape[-1]} != weight dim {cell.W.shape[0]}")
    B, T, k = x.data.shape
    masks = masks or [(None, None, None)] * D
    back = slice(None, None, -1)  # a reversed direction's step order
    if mask is not None:
        lengths = np.count_nonzero(np.reshape(mask, (B, T)), axis=1)
        t = np.arange(T)[:, None]
        back = (np.where(t < lengths, lengths - 1 - t, t), np.arange(B))

    def steps(a: np.ndarray, d: int) -> np.ndarray:
        """Direction d's time-major (T, B, .) array in its step order, and back."""
        return a[back] if reverse[d] else a

    def time_rows(in_mask: np.ndarray | None) -> np.ndarray:
        xd = x.data if in_mask is None else x.data * in_mask
        return xd.transpose(1, 0, 2).reshape(T * B, k)

    # per direction: its time-major (T*B, k) input rows, shared by the
    # directions without input dropout, and x @ W
    plain = time_rows(None) if any(m[0] is None for m in masks) else None
    Xts = [plain if in_mask is None else time_rows(in_mask) for in_mask, _, _ in masks]
    G = cells[0].U.shape[1]
    XW = np.empty((T, D, B, G))
    for d, cell in enumerate(cells):
        XW[:, d] = steps((Xts[d] @ cell.W.data).reshape(T, B, G), d)
    U = np.array([cell.U.data for cell in cells])
    b = np.array([cell.b.data for cell in cells])  # (D, 1, G)
    if kind != "simple":
        half = 0.5 if kind == "gru" else _lstm_halves(H)
        XW *= half
        U, b = U * half, b * half
    SM = [None] * T  # per step: the state masks, if any direction has them
    state_dropout = any(state_mask is not None for _, state_mask, _ in masks)
    if state_dropout:
        SM = np.ones((T, D, B, H))
        for d, (_, state_mask, _) in enumerate(masks):
            if state_mask is not None:
                SM[:, d] = steps(np.broadcast_to(state_mask, (B, T, H)).transpose(1, 0, 2), d)

    Z = np.empty_like(XW)  # gate pre-activations (halved for the sigmoid gates)
    OUT = np.empty((T, D, B, H))
    # activation buffers: all T steps for a recorded node's backward pass,
    # else one step's, whose views every step reuses
    parents = ad.recorded((x, *(t for cell in cells for _, t in cell.tensors())))
    n = T if parents else 1
    per_step = zip if parents else lambda *bufs: itertools.repeat(tuple(a[0] for a in bufs))
    more = [None] * T  # per step: the views only the kind's own arithmetic reads
    if kind != "simple":
        ACT = np.empty((n, G // H, D, B, H))  # gate activations, gate-major
        # Z and ACT as (D, B, gates, H): tanh reads Z and writes ACT's gate blocks
        Zg, ACTg = Z.reshape(T, D, B, G // H, H), ACT.transpose(0, 2, 3, 1, 4)
    if kind == "lstm":
        C = np.empty((n, D, B, H))  # cell states
        TC = np.empty_like(C)  # tanh of the new cell state
        more = zip(Zg, per_step(ACTg, *ACT.transpose(1, 0, 2, 3, 4), ACT[:, :3], C, TC))
    elif kind == "gru":
        XWc = np.empty_like(OUT)
        for d, cell in enumerate(cells):
            XWc[:, d] = steps((Xts[d] @ cell.Wc.data).reshape(T, B, H), d)
        Uc = np.array([cell.Uc.data for cell in cells])
        bc = np.array([cell.bc.data for cell in cells])
        A = np.empty_like(OUT)  # candidate pre-activations
        HH = np.empty((n, D, B, H))  # candidate states
        more = zip(Zg, XWc, A, per_step(ACTg, ACT, HH))
    h = c = np.zeros(OUT.shape[1:])
    for z, xw, out, sm, step in zip(Z, XW, OUT, SM, more):
        hm = h if sm is None else h * sm
        np.matmul(hm, U, out=z)
        z += xw
        z += b
        if kind == "simple":
            h = np.tanh(z, out=out)
        elif kind == "lstm":
            zt, (at, i, f, o, gc, sig, c_out, tc) = step
            np.tanh(zt, out=at)
            sig += 1.0
            sig *= 0.5
            c = np.multiply(f, c, out=c_out)
            c += i * gc
            h = np.multiply(o, np.tanh(c, out=tc), out=out)
        else:
            zt, xwc, a, (at, act, hh) = step
            np.tanh(zt, out=at)
            act += 1.0
            act *= 0.5
            zg, r = act
            np.matmul(r * hm, Uc, out=a)
            a += xwc
            a += bc
            h = np.subtract(1.0, zg, out=out)
            h *= hm
            h += zg * np.tanh(a, out=hh)
    ad.check_finite(Z, op, scope)
    if kind == "gru":
        ad.check_finite(A, op, scope)
    if final:  # each row's last real step, and the rows without one
        ends = np.full(B, T - 1) if mask is None else lengths - 1
        last, empty = (ends, slice(None), np.arange(B)), (ends < 0)[:, None, None]

    def backward(g_out):
        if final:
            dOUT = np.zeros_like(OUT)
            dOUT[last] = np.where(empty, 0.0, g_out.reshape(B, D, H))
        else:
            dOUT = np.empty_like(OUT)
            for d, (_, _, out_mask) in enumerate(masks):
                g = g_out[..., d * H : (d + 1) * H]
                if out_mask is not None:
                    g = g * out_mask
                dOUT[:, d] = steps(g.transpose(1, 0, 2), d)
        HM = _previous(OUT)
        if state_dropout:
            HM *= SM
        # per-step factors of the BPTT recursion, computed for all steps at
        # once, and reversed: the loop below runs from the last step
        if kind == "simple":
            more = (1.0 - OUT * OUT)[::-1]
        elif kind == "lstm":
            # gate adjoints per unit of dc (o: per unit of dh); step s below
            # turns COEF[s] into its gate adjoints, so COEF also serves as dZ
            I, F, O, GC = ACT.transpose(1, 0, 2, 3, 4)
            COEF = np.empty((T, D, B, 4, H))
            COEF[..., 0, :] = GC * (I * (1.0 - I))
            COEF[..., 1, :] = _previous(C) * (F * (1.0 - F))
            COEF[..., 2, :] = TC * (O * (1.0 - O))
            COEF[..., 3, :] = I * (1.0 - GC * GC)
            more = zip(COEF[::-1], (O * (1.0 - TC * TC))[::-1], F[::-1])
        else:
            ZG, R = ACT.transpose(1, 0, 2, 3, 4)
            dA = np.empty_like(OUT)
            UcT = Uc.transpose(0, 2, 1)
            RHM = R * HM  # the states the candidate's U multiplies
            DZG = (HH - HM) * (ZG * (1.0 - ZG))
            factors = (ZG * (1.0 - HH * HH), dA, DZG, HM * (R * (1.0 - R)), 1.0 - ZG, R)
            more = zip(*(a[::-1] for a in factors))
        # not halved: dZ is the adjoint of the full pre-activations
        UT = np.array([cell.U.data for cell in cells]).transpose(0, 2, 1)
        # Z's shape; Z itself is not kept for the backward pass
        dZ = COEF.reshape(T, D, B, 4 * H) if kind == "lstm" else np.empty((T, D, B, G))
        dh, dc = np.zeros(OUT.shape[1:]), np.zeros(OUT.shape[1:])
        for dout, dz, sm, step in zip(dOUT[::-1], dZ[::-1], SM[::-1], more):
            dh += dout
            if kind == "simple":
                np.multiply(dh, step, out=dz)
            elif kind == "lstm":
                coef, dtc, f = step
                dcn = dh * dtc
                dcn += dc
                o = dh * coef[..., 2, :]
                coef *= dcn[..., None, :]
                coef[..., 2, :] = o
                dc = dcn * f
            else:
                da_h, da, dzg, dr, one_minus_z, r = step
                np.multiply(dh, da_h, out=da)
                drh = np.matmul(da, UcT)
                np.multiply(dh, dzg, out=dz[..., :H])
                np.multiply(drh, dr, out=dz[..., H:])
            dhm = np.matmul(dz, UT)
            if kind == "gru":
                dhm += dh * one_minus_z
                dhm += drh * r
            if sm is not None:
                dhm *= sm
            dh = dhm

        for d, (cell, (in_mask, _, _)) in enumerate(zip(cells, masks)):

            def rows(a: np.ndarray) -> np.ndarray:
                """Direction d's slice of a stacked array as time-major rows."""
                return np.ascontiguousarray(steps(a[:, d], d)).reshape(T * B, -1)

            # (pre-activation adjoints, the states they multiply, W, U, b)
            blocks = [(rows(dZ), rows(HM), cell.W, cell.U, cell.b)]
            if kind == "gru":
                blocks.append((rows(dA), rows(RHM), cell.Wc, cell.Uc, cell.bc))
            for dd, states, W, U_, b_ in blocks:
                if W.requires_grad:
                    W._accum(Xts[d].T @ dd)
                if U_.requires_grad:
                    U_._accum(states.T @ dd)
                if b_.requires_grad:
                    b_._accum(dd.sum(axis=0, keepdims=True))
            if x.requires_grad:
                dX = sum(dd @ W.data.T for dd, _, W, _, _ in blocks)
                dX = dX.reshape(T, B, k).transpose(1, 0, 2)
                x._accum(dX if in_mask is None else dX * in_mask)

    if final:
        out = np.where(empty, 0.0, OUT[last]).reshape(B, D * H)
    else:
        halves = []
        for d, (_, _, out_mask) in enumerate(masks):
            y = steps(OUT[:, d], d).transpose(1, 0, 2)
            halves.append(y if out_mask is None else y * out_mask)
        out = np.concatenate(halves, axis=-1)
    ad.check_finite(out, op, scope)
    return ad.make_node(out, parents, backward, op, check=False)


# -- layers ------------------------------------------------------------------------


def pad_ids(seqs: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray | None]:
    """The id sequences ``seqs`` as one (B, T) array, padded with
    ``PAD_INDEX`` to the longest, and the (B, T) mask of their real
    steps; the mask is None when no row is padded."""
    lengths = [len(seq) for seq in seqs]
    T = max(lengths, default=0)
    flat = [i for seq in seqs for i in seq]
    if min(lengths, default=T) == T:
        return np.array(flat, dtype=np.intp).reshape(len(seqs), T), None
    mask = np.arange(T) < np.array(lengths)[:, None]
    ids = np.full(mask.shape, PAD_INDEX, dtype=np.intp)
    ids[mask] = flat
    return ids, mask


def embed_sentence(
    word_ids,
    table: Tensor,
    word_dropout: float,
    training: bool,
    rng: np.random.Generator | None = None,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Look up word vectors, one row per id of a padded (B, T) batch of
    ids; during training, independently zero each row with the
    word-dropout probability (kept rows are rescaled). The draws cover
    the ids that ``mask`` marks real (all without one), in row-major
    order: a batch draws for its real tokens in sentence order."""
    ids = np.asarray(word_ids, dtype=np.intp)
    rows = table[ids]
    if training and word_dropout > 0.0:
        real = np.ones(ids.shape, dtype=bool) if mask is None else mask
        draws = np.zeros(ids.shape)
        draws[real] = rng.random(np.count_nonzero(real))
        keep = (draws >= word_dropout).astype(np.float64)
        if word_dropout < 1.0:
            keep = keep / (1.0 - word_dropout)
        rows = rows * Tensor(keep[..., None])
    return rows


def char_features(
    char_idss: Sequence[Sequence[int]],
    table: Tensor,
    fwd: CellParams,
    bwd: CellParams,
) -> Tensor:
    """Per word, the concatenated final forward/backward LSTM states
    over its characters, shape (n_words, 2*hidden). All words run as one
    padded batch; the backward direction reads each word from its last
    character. Empty words yield zeros."""
    ids, mask = pad_ids(char_idss)
    if ids.shape[1] == 0:
        return Tensor(np.zeros((len(ids), 2 * fwd.hidden)))
    return recurrent(table[ids], (fwd, bwd), (False, True), mask=mask, final=True)


def _dropout_masks(rng, dropout: DropoutConfig, shape, hidden: int, reverse: bool):
    """Input (B, ., k), state (B, ., hidden) and output (B, ., hidden)
    keep masks of one direction over a padded (B, T, k) batch of
    ``shape``, rows in input time order; None where the site is off.
    The draws run sequence by sequence, site by site within a draw: one
    draw for all steps when variational, else one per step of the padded
    length T. Time t takes draw t, or T-1-t when ``reverse``: flipped
    over T, not a row's length n, so the reversed step s < n of a row of
    n real steps, which reads time n-1-s, takes draw T-n+s."""
    B, T, k = shape
    sites = ((dropout.rnn_input, k), (dropout.rnn_state, hidden), (dropout.rnn_output, hidden))
    width = sum(w for p, w in sites if p > 0.0)
    if width == 0:
        return None, None, None
    draws = rng.random((B, 1 if dropout.variational else T, width))
    if reverse:
        draws = draws[..., ::-1, :]
    masks, col = [], 0
    for p, w in sites:
        mask = None
        if p > 0.0:
            mask = (draws[..., col : col + w] >= p).astype(np.float64) / (1.0 - p)
            col += w
        masks.append(mask)
    return masks


def bidirectional_layer(
    inputs: Tensor,
    fwd: CellParams,
    bwd: CellParams,
    dropout: DropoutConfig,
    training: bool,
    rng: np.random.Generator | None = None,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Run both directions over a padded (B, T, k) batch whose real steps
    ``mask`` (B, T) marks (None: no row is padded), and concatenate per
    step into (B, T, 2*hidden). RNN input/state/output dropout applies
    inside; variational mode reuses one mask per sequence and
    direction."""
    masks = None
    if training:
        masks = [
            _dropout_masks(rng, dropout, inputs.shape, cell.hidden, reverse)
            for cell, reverse in ((fwd, False), (bwd, True))
        ]
    return recurrent(inputs, (fwd, bwd), (False, True), mask=mask, masks=masks)


@dataclass
class TaskParams:
    spec: TaskSpec
    private: list[Tensor]
    proj_W: Tensor
    proj_b: Tensor
    transitions: Tensor | None = None
    begin: Tensor | None = None
    end: Tensor | None = None


def task_head_forward(
    layer_outputs: Sequence[Tensor],
    task: TaskParams,
    training: bool,
    rng: np.random.Generator | None = None,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Per-token logits for one task: termination layer output through
    the private layers and the affine projection; task dropout is
    applied to the projection output, before the classifier. The
    padded (B, T, .) outputs give their real steps, which ``mask``
    marks, as (N, .) rows in sentence order."""
    x = pack(layer_outputs[task.spec.termination_layer - 1], mask)
    for spec, weight in zip(task.spec.private_layers, task.private):
        x = ACTIVATIONS[spec.activation](x @ weight)
    logits = x @ task.proj_W + task.proj_b
    if training and task.spec.dropout > 0.0:
        keep = (rng.random(logits.shape) >= task.spec.dropout).astype(np.float64)
        logits = logits * Tensor(keep / (1.0 - task.spec.dropout))
    return logits


def softmax_nll(
    logits: Tensor, gold: Sequence[int], lengths: Sequence[int] | None = None
) -> Tensor:
    """Mean over tokens of the negative log softmax probability, as one
    tape node; its backward pass pushes g * (softmax - one_hot) / n.
    With ``lengths``, the rows hold several sentences one after another
    and the node is the mean over sentences of their losses, each
    sentence's rows scaled by g / (B * n_b)."""
    gold = np.asarray(gold, dtype=np.intp)
    n = gold.size
    if n != logits.shape[0]:
        raise ShapeError(f"{n} gold labels for {logits.shape[0]} tokens")
    lengths = [n] if lengths is None else lengths
    x = logits.data
    rows = np.arange(n)
    m = x.max(axis=1, keepdims=True)
    shifted = np.exp(x - m)
    total = shifted.sum(axis=1, keepdims=True)
    picked = x[rows, gold] - (m + np.log(total))[:, 0]
    ends = np.cumsum(lengths)
    losses = [-(picked[e - l : e].sum() * (1.0 / l)) for e, l in zip(ends, lengths)]
    loss = sum(losses[1:], start=losses[0]) * (1.0 / len(lengths))

    def backward(g):
        share = g * (1.0 / len(lengths))
        scale = np.repeat([share * (1.0 / l) for l in lengths], lengths)[:, None]
        grad = (shifted / total) * scale
        grad[rows, gold] -= scale[:, 0]
        logits._accum(grad)

    return ad.make_node(np.asarray(loss, dtype=np.float64), (logits,), backward, "softmax_nll")


def pack(x: Tensor, mask: np.ndarray | None) -> Tensor:
    """The rows of a padded (B, T, k) batch at the steps ``mask`` (B, T)
    marks (all without one), as (N, k) in sentence order; the pads get
    no gradient."""
    if mask is None:
        return ad.reshape(x, (-1, x.shape[-1]))

    def backward(g):
        grad = np.zeros_like(x.data)
        grad[mask] = g
        x._accum(grad)

    return ad.make_node(x.data[mask], (x,), backward, "pack")


def unpack(x: Tensor, mask: np.ndarray | None, shape: tuple[int, int]) -> Tensor:
    """(N, k) rows in sentence order as a padded batch of ``shape`` (B,
    T) with zeros at the steps ``mask`` leaves out; inverse of ``pack``."""
    if mask is None:
        return ad.reshape(x, (*shape, x.shape[-1]))
    out = np.zeros((*shape, x.shape[-1]))
    out[mask] = x.data
    return ad.make_node(out, (x,), lambda g: x._accum(g[mask]), "unpack")


# -- the assembled model -------------------------------------------------------------


class Model:
    """All parameters plus the vocabulary and configuration.

    Parameters live in a name -> Tensor registry whose insertion order
    is also the initialization draw order and the checkpoint payload
    order. Without a generator (``rng`` None) nothing is drawn and the
    tensors start at zero, for a checkpoint load that overwrites them.
    """

    def __init__(
        self,
        config: NetworkConfig,
        vocab: Vocabulary,
        rng: np.random.Generator | None,
        word_vectors: np.ndarray | None = None,
    ):
        for task in config.tasks:  # filled from the data after the config was checked
            if not task.labels:
                raise ConfigError(f"task {task.name!r} has an empty label inventory")
        self.config = config
        self.vocab = vocab
        self.params: dict[str, Tensor] = {}
        self._cells: list[tuple[CellParams, CellParams]] = []
        self._char_cells: tuple[CellParams, CellParams] | None = None
        self._tasks: dict[str, TaskParams] = {}
        self._build(rng, word_vectors)

    # registry helpers

    def _register(self, name: str, tensor: Tensor) -> Tensor:
        tensor.op = name
        self.params[name] = tensor
        return tensor

    def _register_cell(self, prefix: str, cell: CellParams) -> CellParams:
        for suffix, tensor in cell.tensors():
            self._register(f"{prefix}/{suffix}", tensor)
        return cell

    def _build(self, rng: np.random.Generator | None, word_vectors: np.ndarray | None) -> None:
        config = self.config
        n_words = self.vocab.word_count
        if word_vectors is not None:
            if word_vectors.shape != (n_words, config.word_dim):
                raise ShapeError(
                    f"word matrix {word_vectors.shape} does not match vocabulary "
                    f"({n_words} x {config.word_dim})"
                )
            table = word_vectors.astype(np.float64).copy()
            table[UNK_INDEX] = _uniform(rng, 0.05, config.word_dim)
            table[PAD_INDEX] = 0.0
        else:
            table = _uniform(rng, 0.05, (n_words, config.word_dim))
            table[PAD_INDEX] = 0.0
        self._register(
            "embed/word", ad.parameter(table) if config.fine_tune_embeddings else Tensor(table)
        )

        total_dim = config.word_dim
        if config.char.enabled:
            n_chars = len(self.vocab.char_index)
            char_table = _uniform(rng, 0.05, (n_chars, config.char.embedding_dim))
            char_table[PAD_INDEX] = 0.0
            self._register("embed/char", ad.parameter(char_table))
            fwd = init_cell("lstm", config.char.embedding_dim, config.char.hidden, rng)
            bwd = init_cell("lstm", config.char.embedding_dim, config.char.hidden, rng)
            self._char_cells = (
                self._register_cell("char_lstm/fwd", fwd),
                self._register_cell("char_lstm/bwd", bwd),
            )
            total_dim += 2 * config.char.hidden

        in_dim = total_dim
        for i, hidden in enumerate(config.shared_layers, start=1):
            if i > 1:
                in_dim = 2 * config.shared_layers[i - 2]
                if config.use_shortcuts:
                    in_dim += total_dim
            fwd = init_cell(config.cell, in_dim, hidden, rng)
            bwd = init_cell(config.cell, in_dim, hidden, rng)
            self._cells.append(
                (
                    self._register_cell(f"shared/{i}/fwd", fwd),
                    self._register_cell(f"shared/{i}/bwd", bwd),
                )
            )

        for task in config.tasks:
            width = 2 * config.shared_layers[task.termination_layer - 1]
            private = []
            for j, layer in enumerate(task.private_layers, start=1):
                weight = _glorot(rng, width, layer.units)
                private.append(self._register(f"task/{task.name}/private/{j}/W", weight))
                width = layer.units
            n_labels = len(task.labels)
            proj_W = self._register(f"task/{task.name}/proj/W", _glorot(rng, width, n_labels))
            proj_b = self._register(
                f"task/{task.name}/proj/b", ad.parameter(np.zeros((1, n_labels)))
            )
            params = TaskParams(spec=task, private=private, proj_W=proj_W, proj_b=proj_b)
            if task.head == "crf":
                params.transitions = self._register(
                    f"task/{task.name}/crf/transitions",
                    ad.parameter(np.zeros((n_labels, n_labels))),
                )
                params.begin = self._register(
                    f"task/{task.name}/crf/begin", ad.parameter(np.zeros(n_labels))
                )
                params.end = self._register(
                    f"task/{task.name}/crf/end", ad.parameter(np.zeros(n_labels))
                )
            self._tasks[task.name] = params

    # -- forward -------------------------------------------------------------------

    def forward(
        self, task_name: str, sentences, training: bool, rng=None, shared=None, chars=None
    ) -> Tensor:
        """Logits of one task for a batch of sentences of surfaces, one row
        per real token in sentence order: the padded (B, T) word ids
        (``Vocabulary.lookup_word``) and character features (one BiLSTM
        node over all words, or the rows of a :meth:`char_rows` lookup
        ``chars`` as one constant array), each shared layer up to the
        task's termination layer once over (B, T, k) with the length mask
        (None when no row is padded; with shortcuts, layers above the first
        also read the word representations), and the task head. ``shared``
        is an optional store for the batch that the caller owns, ``[mask,
        embedded, layer 1 output, ...]``: a call reuses what it holds
        (reading ``sentences`` and ``chars`` only while it is empty) and
        appends the layers it lacks, so the tasks of a batch embed it and
        run each shared layer once."""
        task = self._tasks[task_name]
        shared = [] if shared is None else shared
        if not shared:
            ids, mask = pad_ids([[self.vocab.lookup_word(w) for w in s] for s in sentences])
            word = self.params["embed/word"]
            emb = embed_sentence(ids, word, self.config.dropout.word, training, rng, mask)
            if self.config.char.enabled:
                if chars is None:
                    words = [self.vocab.char_ids(w) for s in sentences for w in s]
                    feats = char_features(words, self.params["embed/char"], *self._char_cells)
                    feats = unpack(feats, mask, ids.shape)
                else:  # rows of a char_rows lookup as one constant array, zeros at the pads
                    pads = [np.zeros(2 * self.config.char.hidden)] * ids.shape[1]
                    rows = [[chars[w] for w in s] + pads[len(s) :] for s in sentences]
                    feats = np.array(rows).reshape(*ids.shape, 2 * self.config.char.hidden)
                emb = ad.concat([emb, feats], axis=-1)
            shared += [mask, emb]
        mask, embedded = shared[0], shared[1]
        for fwd, bwd in self._cells[len(shared) - 2 : task.spec.termination_layer]:
            inputs = shared[-1]
            if len(shared) > 2 and self.config.use_shortcuts:
                inputs = ad.concat([inputs, embedded], axis=-1)
            shared.append(
                bidirectional_layer(inputs, fwd, bwd, self.config.dropout, training, rng, mask)
            )
        return task_head_forward(shared[2:], task, training, rng, mask=mask)

    def batch_loss(self, task_name: str, sentences, labels, training=True, rng=None) -> Tensor:
        """Mean loss of one task over a batch of sentences and their gold
        labels, as the corpus holds them: one loss node on :meth:`forward`."""
        task = self._tasks[task_name]
        logits = self.forward(task_name, sentences, training, rng)
        index = {label: i for i, label in enumerate(task.spec.labels)}
        gold = [index[label] for tags in labels for label in tags]
        lengths = [len(s) for s in sentences]
        if task.spec.head == "crf":
            return crf.crf_nll(logits, task.transitions, task.begin, task.end, gold, lengths)
        return softmax_nll(logits, gold, lengths)

    def char_rows(self, sentences: Iterable[Sentence]) -> dict[str, np.ndarray]:
        """No-grad char BiLSTM rows of the distinct words, by surface ({}
        without chars). Sorted by (length, surface), they run longest first
        in passes of at most ``CHAR_PASS_CHARS`` padded characters."""
        if not self.config.char.enabled:
            return {}
        words = sorted({w for sentence in sentences for w in sentence}, key=lambda w: (len(w), w))
        rows, table, (fwd, bwd) = {}, self.params["embed/char"], self._char_cells
        with ad.no_grad():
            while words:
                n = max(1, CHAR_PASS_CHARS // max(1, len(words[-1])))  # a longer word alone
                chunk, words = words[-n:], words[:-n]
                feats = char_features([self.vocab.char_ids(w) for w in chunk], table, fwd, bwd)
                rows.update(zip(chunk, feats.data))
        return rows

    def predict_labels(
        self, task_name: str, sentence: Sentence, shared=None, chars=None
    ) -> list[str]:
        """Labels of one task for one sentence, a batch of one: Viterbi
        for a CRF head, else the best label per token. ``shared`` and
        ``chars`` as in :meth:`forward`."""
        with ad.no_grad():
            logits = self.forward(task_name, [sentence], False, shared=shared, chars=chars).data
        task = self._tasks[task_name]
        if task.spec.head == "crf":
            ids = crf.crf_viterbi(logits, task.transitions.data, task.begin.data, task.end.data)
        else:
            ids = np.argmax(logits, axis=1).tolist()
        return [task.spec.labels[i] for i in ids]  # the vocabulary's order, by label id

    # -- parameter bookkeeping --------------------------------------------------------

    def trainable(self) -> dict[str, Tensor]:
        return {name: t for name, t in self.params.items() if t.requires_grad}

    def zero_grads(self) -> None:
        for tensor in self.params.values():
            tensor.grad = None
