import contextlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqtag import autodiff as ad
from seqtag.autodiff import Tensor
from seqtag.checkpoint import load_model, save_model
from seqtag.cli import main
from seqtag.corpus import Vocabulary, parse_conll
from seqtag.exceptions import ConfigError
from seqtag.config import CharConfig, DropoutConfig, NetworkConfig, PrivateLayerSpec, TaskSpec
from seqtag.network import (
    Model,
    bidirectional_layer,
    char_features,
    embed_sentence,
    init_cell,
    recurrent,
    softmax_nll,
)
from seqtag import network
from seqtag.exceptions import NumericError, ShapeError

from conftest import random_word_corpus, two_task_model
from gradcheck import check_gradients, power, softmax, tsum
from reference_rnn import (
    bidirectional_reference,
    bidirectional_two_calls,
    cell_step,
    char_features_reference,
    char_features_two_calls,
    initial_state,
    recurrent_reference,
    run_direction,
    softmax_nll_reference,
)
from test_crf import batch_loss_and_grads, random_gold


def zero_cell(kind, in_dim, hidden):
    cell = init_cell(kind, in_dim, hidden, np.random.default_rng(0))
    for _, t in cell.tensors():
        t.data[...] = 0.0
    return cell


def small_vocab(words=("a", "b", "c")):
    vocab = Vocabulary()
    for w in words:
        vocab.add_word(w)
        for ch in w:
            vocab.add_char(ch)
    return vocab


def tiny_config(**kw):
    defaults = dict(
        cell="lstm",
        shared_layers=[3],
        use_shortcuts=False,
        char=CharConfig(enabled=False),
        dropout=DropoutConfig(),
        tasks=[TaskSpec(name="t", labels=["A", "B", "O"])],
        word_dim=4,
    )
    defaults.update(kw)
    return NetworkConfig(**defaults)


# -- config validation -------------------------------------------------------------


def test_layer_count_must_match_max_termination():
    with pytest.raises(ConfigError):
        tiny_config(shared_layers=[3, 3])


def test_termination_beyond_stack_rejected():
    with pytest.raises(ConfigError):
        tiny_config(tasks=[TaskSpec(name="t", labels=["A"], termination_layer=2)])


def test_dropout_probability_range_rejected():
    with pytest.raises(ConfigError):
        tiny_config(dropout=DropoutConfig(word=1.0))


def test_config_json_roundtrip():
    config = tiny_config(
        tasks=[
            TaskSpec(
                name="t",
                labels=["A", "B"],
                head="crf",
                private_layers=[PrivateLayerSpec(units=5)],
                dropout=0.1,
            )
        ]
    )
    clone = NetworkConfig.from_json(config.to_json())
    assert clone == config


@pytest.mark.parametrize(
    "key,value,pattern",
    [
        ("cell", 5, r"^config\.cell: expected str"),
        ("cell", "tree", r"^config\.cell must be one of \['simple', 'lstm', 'gru'\], got 'tree'$"),
        ("shared_layers", [4.5], r"^config\.shared_layers\[0\]: expected int"),
        ("hidden", 8, r"^unknown key config\.hidden"),
    ],
)
def test_config_json_is_checked_like_a_config_file(key, value, pattern):
    payload = tiny_config().to_json()
    payload[key] = value
    with pytest.raises(ConfigError, match=pattern):
        NetworkConfig.from_json(payload)


# -- cells -------------------------------------------------------------------------


def test_lstm_zero_weights_gives_zero_output():
    cell = zero_cell("lstm", 2, 3)
    x = Tensor(np.ones((1, 1, 2)))
    out = recurrent(x, [cell], [False])
    assert np.allclose(out.data, 0.0)
    # gates all sigmoid(0) = 0.5: check via the pre-activation identity
    z = x.data @ cell.W.data + np.zeros((1, 3)) @ cell.U.data
    assert np.allclose(0.5 * (1 + np.tanh(0.5 * z)), 0.5)


def test_gru_zero_weights_gives_zero_output():
    cell = zero_cell("gru", 2, 3)
    out = recurrent(Tensor(np.ones((1, 1, 2))), [cell], [False])
    assert np.allclose(out.data, 0.0)


def test_simple_cell_formula():
    rng = np.random.default_rng(1)
    cell = init_cell("simple", 2, 3, rng)
    x = rng.normal(size=(2, 2))
    out = recurrent(Tensor(x[None]), [cell], [False]).data[0]
    h = np.tanh(x[0:1] @ cell.W.data + cell.b.data)
    want = np.tanh(x[1:2] @ cell.W.data + h @ cell.U.data + cell.b.data)
    assert np.allclose(out[0:1], h)
    assert np.allclose(out[1:2], want)


@pytest.mark.parametrize("kind", ["simple", "lstm", "gru"])
def test_cell_step_gradients(kind):
    rng = np.random.default_rng(2)
    cell = init_cell(kind, 3, 2, rng)
    x = Tensor(rng.normal(size=(1, 1, 3)))
    params = [t for _, t in cell.tensors()]

    def build():
        out = recurrent(x, [cell], [False])
        return tsum(out * out)

    assert check_gradients(build, params) <= 1e-6


def test_lstm_forget_bias_initialized_to_one():
    cell = init_cell("lstm", 2, 4, np.random.default_rng(0))
    assert np.allclose(cell.b.data[0, 4:8], 1.0)
    assert np.allclose(cell.b.data[0, :4], 0.0)


# -- embedding ----------------------------------------------------------------------


def test_embed_no_dropout_is_plain_lookup():
    table = ad.parameter(np.arange(12, dtype=float).reshape(4, 3))
    out = embed_sentence([1, 3], table, 0.0, training=True, rng=np.random.default_rng(0))
    assert np.array_equal(out.data, table.data[[1, 3]])


def test_embed_full_dropout_zeroes_everything():
    table = ad.parameter(np.ones((4, 3)))
    out = embed_sentence([0, 1, 2], table, 1.0, training=True, rng=np.random.default_rng(0))
    assert np.allclose(out.data, 0.0)


def test_embed_dropout_mask_regenerates_from_seed():
    table = ad.parameter(np.ones((6, 3)))
    ids = [1, 2, 3, 4, 5]
    out = embed_sentence(ids, table, 0.5, training=True, rng=np.random.default_rng(99))
    draws = np.random.default_rng(99).random(len(ids))
    keep = (draws >= 0.5).astype(float) / 0.5
    assert np.array_equal(out.data, keep.reshape(-1, 1) * np.ones((5, 3)))


def test_embed_batch_draws_word_dropout_for_real_tokens_in_sentence_order():
    table = ad.parameter(np.arange(1.0, 19.0).reshape(6, 3))
    sentences = [[1, 2, 3], [4], [5, 1]]
    mask = np.array([[True, True, True], [True, False, False], [True, True, False]])
    ids = np.zeros(mask.shape, dtype=np.intp)
    ids[mask] = sum(sentences, [])
    batch = embed_sentence(ids, table, 0.5, True, np.random.default_rng(98), mask)
    flat = embed_sentence(sum(sentences, []), table, 0.5, True, np.random.default_rng(98))
    assert batch.shape == (3, 3, 3)
    assert batch.data[mask].tobytes() == flat.data.tobytes()


def test_embed_eval_ignores_dropout():
    table = ad.parameter(np.ones((4, 3)))
    out = embed_sentence([1, 2], table, 0.9, training=False)
    assert np.allclose(out.data, 1.0)


# -- char features --------------------------------------------------------------------


def test_char_feature_dimension():
    rng = np.random.default_rng(3)
    table = ad.parameter(rng.uniform(-0.05, 0.05, size=(6, 4)))
    fwd = init_cell("lstm", 4, 5, rng)
    bwd = init_cell("lstm", 4, 5, rng)
    for ids in ([2], [2, 3, 4], [5, 5]):
        assert char_features([ids], table, fwd, bwd).shape == (1, 10)
    assert char_features([[2], [2, 3, 4], [], [5, 5]], table, fwd, bwd).shape == (4, 10)


def test_char_empty_word_is_zero_vector():
    rng = np.random.default_rng(4)
    table = ad.parameter(rng.normal(size=(6, 4)))
    fwd = init_cell("lstm", 4, 3, rng)
    bwd = init_cell("lstm", 4, 3, rng)
    assert np.allclose(char_features([[]], table, fwd, bwd).data, 0.0)
    mixed = char_features([[2, 3], [], [4]], table, fwd, bwd).data
    assert np.array_equal(mixed[1], np.zeros(6))
    assert np.all(mixed[[0, 2]] != 0.0)


def test_char_single_char_directions_agree_with_tied_weights():
    rng = np.random.default_rng(5)
    table = ad.parameter(rng.normal(size=(6, 4)))
    fwd = init_cell("lstm", 4, 3, rng)
    bwd = init_cell("lstm", 4, 3, rng)
    for (_, src), (_, dst) in zip(fwd.tensors(), bwd.tensors()):
        dst.data[...] = src.data
    out = char_features([[2]], table, fwd, bwd).data
    assert np.allclose(out[0, :3], out[0, 3:])


def test_char_path_gradient():
    rng = np.random.default_rng(6)
    table = ad.parameter(rng.uniform(-0.5, 0.5, size=(6, 3)))
    fwd = init_cell("lstm", 3, 2, rng)
    bwd = init_cell("lstm", 3, 2, rng)
    params = [table] + [t for _, t in fwd.tensors()] + [t for _, t in bwd.tensors()]

    def build():
        return tsum(power(char_features([[1, 4, 2], [], [3, 5]], table, fwd, bwd), 2))

    assert check_gradients(build, params) <= 1e-6


# -- bidirectional layer ----------------------------------------------------------------


def test_bidi_single_step_concatenates_directions():
    rng = np.random.default_rng(7)
    fwd = init_cell("lstm", 3, 2, rng)
    bwd = init_cell("lstm", 3, 2, rng)
    x = Tensor(rng.normal(size=(1, 3)))
    out = bidirectional_layer(Tensor(x.data[None]), fwd, bwd, DropoutConfig(), training=False)
    f, _ = cell_step("lstm", x, initial_state(fwd), fwd)
    b, _ = cell_step("lstm", x, initial_state(bwd), bwd)
    assert np.allclose(out.data[0], np.concatenate([f.data, b.data], axis=1))


def test_bidi_output_width_is_twice_hidden():
    rng = np.random.default_rng(8)
    for hidden in (1, 3, 5):
        fwd = init_cell("gru", 2, hidden, rng)
        bwd = init_cell("gru", 2, hidden, rng)
        out = bidirectional_layer(
            Tensor(rng.normal(size=(1, 4, 2))), fwd, bwd, DropoutConfig(), training=False
        )
        assert out.shape == (1, 4, 2 * hidden)


def test_bidi_palindrome_with_tied_weights_swaps_halves():
    rng = np.random.default_rng(9)
    fwd = init_cell("lstm", 2, 3, rng)
    bwd = init_cell("lstm", 2, 3, rng)
    for (_, src), (_, dst) in zip(fwd.tensors(), bwd.tensors()):
        dst.data[...] = src.data
    row = rng.normal(size=2)
    mid = rng.normal(size=2)
    x = Tensor(np.stack([row, mid, row])[None])  # palindrome in time
    out = bidirectional_layer(x, fwd, bwd, DropoutConfig(), training=False).data[0]
    T, h = 3, 3
    for t in range(T):
        assert np.allclose(out[t, :h], out[T - 1 - t, h:], atol=1e-12)


def record_recurrent_calls(monkeypatch):
    """Capture, per direction of every fused recurrent call, the inputs
    the direction reads, its state mask and its order."""
    calls = []
    fused = network.recurrent

    def spy(x, cells, reverse, mask=None, masks=None, final=False):
        for d in range(len(cells)):
            in_mask, state_mask, _ = masks[d] if masks else (None, None, None)
            x_d = x.data if in_mask is None else x.data * in_mask
            calls.append({"x": x_d, "state_mask": state_mask, "reverse": reverse[d]})
        return fused(x, cells, reverse, mask, masks, final)

    monkeypatch.setattr(network, "recurrent", spy)
    return calls


def test_variational_state_dropout_reuses_one_mask(monkeypatch):
    rng = np.random.default_rng(10)
    fwd = init_cell("simple", 2, 4, rng)
    bwd = init_cell("simple", 2, 4, rng)
    cfg = DropoutConfig(rnn_state=0.5, variational=True)
    calls = record_recurrent_calls(monkeypatch)
    bidirectional_layer(
        Tensor(rng.normal(size=(1, 5, 2))),
        fwd,
        bwd,
        cfg,
        training=True,
        rng=np.random.default_rng(11),
    )
    assert [call["reverse"] for call in calls] == [False, True]
    for call in calls:
        steps = np.broadcast_to(call["state_mask"], (1, 5, 4))[0]
        assert call["state_mask"].shape == (1, 1, 4)
        for mask in steps:
            assert np.array_equal(mask, steps[0])
    # one draw per direction, each a fresh mask
    assert not np.array_equal(calls[0]["state_mask"], calls[1]["state_mask"])


def test_non_variational_dropout_draws_fresh_masks(monkeypatch):
    rng = np.random.default_rng(12)
    fwd = init_cell("simple", 2, 8, rng)
    bwd = init_cell("simple", 2, 8, rng)
    cfg = DropoutConfig(rnn_input=0.5, rnn_state=0.5, variational=False)
    calls = record_recurrent_calls(monkeypatch)
    bidirectional_layer(
        Tensor(np.ones((1, 6, 2))),
        fwd,
        bwd,
        cfg,
        training=True,
        rng=np.random.default_rng(13),
    )
    for call in calls:
        # the inputs are all ones, so the fused op sees the input masks
        input_masks = call["x"][0]
        state_masks = call["state_mask"][0]
        assert call["state_mask"].shape == (1, 6, 8)
        assert any(not np.array_equal(input_masks[0], m) for m in input_masks[1:])
        assert any(not np.array_equal(state_masks[0], m) for m in state_masks[1:])


# -- fused recurrence against the per-step reference -------------------------------------


def max_rel(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def assert_same_outputs_and_grads(build_fused, build_reference, params, bound=1e-12):
    results = []
    for build in (build_fused, build_reference):
        for p in params:
            p.grad = None
        out = build()
        weights = Tensor(np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape))
        tsum(ad.tanh(out) * weights).backward()
        results.append((out.data.copy(), [p.grad.copy() for p in params]))
    (out_f, grads_f), (out_r, grads_r) = results
    assert max_rel(out_f, out_r) <= bound
    for g_f, g_r in zip(grads_f, grads_r):
        assert max_rel(g_f, g_r) <= bound


def random_cell(kind, in_dim, hidden, rng):
    cell = init_cell(kind, in_dim, hidden, rng)
    for _, t in cell.tensors():
        t.data = rng.uniform(-1.0, 1.0, size=t.data.shape)
    return cell


@pytest.mark.parametrize("kind", ["simple", "lstm", "gru"])
@pytest.mark.parametrize("variational", [None, True, False])
def test_fused_layer_matches_per_step_reference(kind, variational):
    rng = np.random.default_rng(30)
    fwd = random_cell(kind, 3, 4, rng)
    bwd = random_cell(kind, 3, 4, rng)
    inputs = ad.parameter(rng.normal(size=(6, 3)))
    params = [inputs] + [t for _, t in fwd.tensors()] + [t for _, t in bwd.tensors()]
    if variational is None:
        cfg, training = DropoutConfig(), False
    else:
        cfg = DropoutConfig(rnn_input=0.3, rnn_state=0.4, rnn_output=0.2, variational=variational)
        training = True
    fused_rng, reference_rng = np.random.default_rng(31), np.random.default_rng(31)
    batch = lambda: ad.reshape(inputs, (1, 6, 3))  # noqa: E731 - the reference reads (T, k)
    assert_same_outputs_and_grads(
        lambda: bidirectional_layer(batch(), fwd, bwd, cfg, training, np.random.default_rng(31)),
        lambda: bidirectional_reference(
            inputs, fwd, bwd, cfg if training else None, np.random.default_rng(31)
        ),
        params,
    )
    # the masks come from the same draws in the same order
    bidirectional_layer(batch(), fwd, bwd, cfg, training, fused_rng)
    bidirectional_reference(inputs, fwd, bwd, cfg if training else None, reference_rng)
    assert fused_rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("kind", ["simple", "lstm", "gru"])
def test_fused_state_masks_match_per_step_reference(kind):
    rng = np.random.default_rng(32)
    cell = random_cell(kind, 2, 3, rng)
    inputs = ad.parameter(rng.normal(size=(5, 2)))
    state_masks = (rng.random((1, 5, 3)) >= 0.4) / 0.6
    params = [inputs] + [t for _, t in cell.tensors()]

    def state_only(site, t):
        return state_masks[0, t : t + 1] if site == "state" else None

    for reverse in (False, True):
        order = range(4, -1, -1) if reverse else range(5)

        def reference():
            return ad.concat(run_direction(inputs, cell, order, state_only), axis=0)

        assert_same_outputs_and_grads(
            lambda: recurrent(
                ad.reshape(inputs, (1, 5, 2)), [cell], [reverse], masks=[(None, state_masks, None)]
            ),
            reference,
            params,
        )


def test_fused_char_batch_matches_per_step_reference():
    rng = np.random.default_rng(33)
    table = ad.parameter(rng.uniform(-0.8, 0.8, size=(7, 3)))
    fwd = random_cell("lstm", 3, 4, rng)
    bwd = random_cell("lstm", 3, 4, rng)
    words = [[2, 3, 4, 5, 6], [], [4], [6, 2, 2]]
    params = [table] + [t for _, t in fwd.tensors()] + [t for _, t in bwd.tensors()]
    assert_same_outputs_and_grads(
        lambda: char_features(words, table, fwd, bwd),
        lambda: char_features_reference(words, table, fwd, bwd),
        params,
    )


@pytest.mark.parametrize("kind", ["simple", "lstm", "gru"])
def test_fused_recurrent_op_gradients(kind):
    rng = np.random.default_rng(34)
    cell = random_cell(kind, 3, 2, rng)
    x = ad.parameter(rng.normal(size=(3, 4, 3)))
    mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 0, 0]], dtype=bool)
    state_masks = (rng.random((3, 4, 2)) >= 0.3) / 0.7
    params = [x] + [t for _, t in cell.tensors()]
    for reverse in (False, True):

        def build():
            out = recurrent(x, [cell], [reverse], mask=mask, masks=[(None, state_masks, None)])
            return tsum(ad.tanh(out))

        assert check_gradients(build, params) <= 1e-6


@pytest.mark.parametrize("kind", ["simple", "lstm", "gru"])
def test_recurrent_rejects_an_input_width_other_than_its_cells(kind):
    rng = np.random.default_rng(37)
    cells = [random_cell(kind, 3, 2, rng), random_cell(kind, 4, 2, rng)]
    x = Tensor(rng.normal(size=(2, 5, 3)))
    with pytest.raises(ShapeError, match=r"^cell input dim 3 != weight dim 4$"):
        recurrent(x, cells, [False, True])
    with pytest.raises(ShapeError, match=r"^cell input dim 4 != weight dim 3$"):
        recurrent(Tensor(rng.normal(size=(2, 5, 4))), cells[:1], [False])


def test_nonfinite_recurrent_weight_raises_numeric_error():
    config = tiny_config(shared_layers=[3], cell="lstm")
    model = Model(config, small_vocab(), np.random.default_rng(35))
    model.params["shared/1/fwd/U"].data[0, 0] = np.nan
    sentence = ("a", "b")
    with pytest.raises(NumericError, match="rnn/lstm' in 'shared/1'"):
        model.batch_loss("t", [sentence], [("A", "B")], training=False)
    with pytest.raises(NumericError, match="rnn/lstm' in 'shared/1'"):
        model.predict_labels("t", sentence)


def test_overflowing_preactivation_raises_although_tanh_saturates():
    # column 0 is a sigmoid gate of lstm and gru, whose pre-activations run halved
    for kind in ("simple", "lstm", "gru"):
        for columns in (slice(None), slice(0, 1)):
            cell = init_cell(kind, 2, 3, np.random.default_rng(36))
            cell.W.data[:, columns] = 1e308
            x = Tensor(np.full((1, 2, 2), 10.0))
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NumericError, match=f"rnn/{kind}"):
                    recurrent(x, [cell], [False])


@pytest.mark.parametrize("kind", ["simple", "lstm", "gru"])
def test_batch_of_one_equals_the_single_direction_reference(kind):
    """A single sequence runs as a (1, T, k) batch; its node gives, bit
    for bit, the outputs and gradients of the single-direction kernel
    that preceded the fused one."""
    rng = np.random.default_rng(37)
    cell = random_cell(kind, 3, 4, rng)
    inputs = ad.parameter(rng.normal(size=(1, 5, 3)))
    state_masks = (rng.random((1, 5, 4)) >= 0.3) / 0.7
    params = [inputs] + [t for _, t in cell.tensors()]
    for reverse in (False, True):
        fused = outputs_and_grads(
            lambda: recurrent(inputs, [cell], [reverse], masks=[(None, state_masks, None)]),
            params,
            np.random.default_rng(38),
        )
        reference = outputs_and_grads(
            lambda: recurrent_reference(inputs, cell, state_mask=state_masks, reverse=reverse),
            params,
            np.random.default_rng(38),
        )
        assert_bitwise_equal(fused, reference)


# -- both directions in one node against two single-direction nodes ---------------------


def outputs_and_grads(build, params, rng):
    """The output and every parameter's gradient after a backward pass
    from a weighted loss, each parameter starting from a random prior
    gradient, so the order of adding adjoints into a shared input shows."""
    priors = [rng.normal(size=p.data.shape) for p in params]
    for p, prior in zip(params, priors):
        p.grad = prior.copy()
    out = build()
    weights = Tensor(np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape))
    tsum(ad.tanh(out) * weights).backward()
    return out.data.copy(), [p.grad.copy() for p in params]


def assert_bitwise_equal(first, second):
    (out_1, grads_1), (out_2, grads_2) = first, second
    assert np.array_equal(out_1, out_2)
    assert len(grads_1) == len(grads_2)
    for g_1, g_2 in zip(grads_1, grads_2):
        assert np.array_equal(g_1, g_2)


DROPOUT_MODES = {
    "eval": None,
    "variational": DropoutConfig(rnn_input=0.3, rnn_state=0.4, rnn_output=0.2),
    "per-step": DropoutConfig(rnn_input=0.3, rnn_state=0.4, rnn_output=0.2, variational=False),
}


@pytest.mark.parametrize("kind", ["simple", "lstm", "gru"])
@pytest.mark.parametrize("mode", list(DROPOUT_MODES))
def test_fused_layer_bitwise_equals_two_single_direction_calls(kind, mode):
    cfg = DROPOUT_MODES[mode]
    training = cfg is not None
    cfg = cfg or DropoutConfig()
    for T in (1, 2, 7, 20):
        rng = np.random.default_rng(40 + T)
        fwd = random_cell(kind, 5, 6, rng)
        bwd = random_cell(kind, 5, 6, rng)
        inputs = ad.parameter(rng.normal(size=(1, T, 5)))
        params = [inputs] + [t for _, t in fwd.tensors()] + [t for _, t in bwd.tensors()]
        fused_rng, reference_rng = np.random.default_rng(41), np.random.default_rng(41)
        fused = outputs_and_grads(
            lambda: bidirectional_layer(inputs, fwd, bwd, cfg, training, fused_rng),
            params,
            np.random.default_rng(42),
        )
        reference = outputs_and_grads(
            lambda: bidirectional_two_calls(inputs, fwd, bwd, cfg, training, reference_rng),
            params,
            np.random.default_rng(42),
        )
        assert_bitwise_equal(fused, reference)
        assert fused_rng.bit_generator.state == reference_rng.bit_generator.state


def test_fused_char_features_bitwise_equal_two_single_direction_calls():
    rng = np.random.default_rng(43)
    table = ad.parameter(rng.uniform(-0.8, 0.8, size=(9, 4)))
    fwd = random_cell("lstm", 4, 5, rng)
    bwd = random_cell("lstm", 4, 5, rng)
    params = [table] + [t for _, t in fwd.tensors()] + [t for _, t in bwd.tensors()]
    for words in ([[2, 3, 4, 5, 6, 7], [], [4], [8, 2, 2]], [[3]], [[1, 2, 3, 4, 5, 6, 7]] * 3):
        fused = outputs_and_grads(
            lambda: char_features(words, table, fwd, bwd), params, np.random.default_rng(44)
        )
        reference = outputs_and_grads(
            lambda: char_features_two_calls(words, table, fwd, bwd),
            params,
            np.random.default_rng(44),
        )
        assert_bitwise_equal(fused, reference)


def test_reversed_per_step_dropout_draws_are_flipped_over_the_padded_length():
    """Per-step (not variational) RNN dropout draws one row per step of
    the padded length T; the backward direction's draws are flipped over
    T, not over a row's length n, so its step s < n, which reads time
    n-1-s, takes draw T-n+s."""
    B, T, k, H = 2, 4, 3, 5
    n = np.array([4, 2])
    dropout = DropoutConfig(rnn_state=0.5, variational=False)
    keep = (np.random.default_rng(53).random((B, T, H)) >= 0.5) / 0.5
    _, state, _ = network._dropout_masks(np.random.default_rng(53), dropout, (B, T, k), H, True)
    for b in range(B):
        for s in range(n[b]):
            assert np.array_equal(state[b, n[b] - 1 - s], keep[b, T - n[b] + s])
    assert np.array_equal(state[1, 1], keep[1, 2])  # row 1's first step takes draw 2, not 0
    # the recurrence multiplies the state entering the step that reads time t by state[:, t]
    rng = np.random.default_rng(54)
    cell = random_cell("simple", k, H, rng)
    x = rng.normal(size=(B, T, k))
    mask = np.arange(T) < n[:, None]
    out = recurrent(Tensor(x), [cell], [True], mask=mask, masks=[(None, state, None)]).data
    W, U, bias = cell.W.data, cell.U.data, cell.b.data
    for b in range(B):
        h = np.zeros(H)
        for s in range(n[b]):
            t = n[b] - 1 - s
            h = np.tanh((x[b, t] @ W + (h * keep[b, T - n[b] + s]) @ U) + bias[0])
            assert np.allclose(out[b, t], h, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("kind", ["simple", "lstm", "gru"])
@pytest.mark.parametrize("final", [False, True])
@pytest.mark.parametrize("mode", list(DROPOUT_MODES))
def test_padded_steps_are_never_read(kind, final, mode):
    """Large finite garbage at the padded inputs of a masked call leaves
    every real output, final state and parameter gradient equal, and the
    input adjoint at the padded steps exactly 0."""
    rng = np.random.default_rng(49)
    cells = [random_cell(kind, 3, 4, rng), random_cell(kind, 3, 4, rng)]
    mask = np.arange(6) < np.array([6, 2, 4, 1])[:, None]
    clean = rng.normal(size=(4, 6, 3)) * mask[..., None]
    garbage = np.where(mask[..., None], clean, rng.uniform(-1e3, 1e3, size=clean.shape))
    masks = None
    if DROPOUT_MODES[mode] is not None:
        draws = np.random.default_rng(50)
        masks = [
            network._dropout_masks(draws, DROPOUT_MODES[mode], clean.shape, 4, reverse)
            for reverse in (False, True)
        ]
    params = [t for cell in cells for _, t in cell.tensors()]
    results = []
    for data in (clean, garbage):
        x = ad.parameter(data)
        for p in params:
            p.grad = None
        out = recurrent(x, cells, (False, True), mask=mask, masks=masks, final=final)
        cotangent = np.random.default_rng(51).normal(size=out.shape)
        if not final:
            cotangent *= mask[..., None]  # consumers read the real steps only
        tsum(out * Tensor(cotangent)).backward()
        results.append((out.data if final else out.data[mask], x.grad, [p.grad for p in params]))
    (out_clean, dx_clean, grads_clean), (out_garbage, dx_garbage, grads_garbage) = results
    assert np.array_equal(out_clean, out_garbage)
    assert np.array_equal(dx_clean, dx_garbage)
    assert not dx_garbage[~mask].any()
    for g_clean, g_garbage in zip(grads_clean, grads_garbage):
        assert np.array_equal(g_clean, g_garbage)


class _AllocationLog:
    """Stands in for numpy inside ``network``: every ``np.empty`` and
    ``np.empty_like`` there logs the shape it allocates."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, *args, **kwargs):
        out = np.empty(*args, **kwargs)
        self.shapes.append(out.shape)
        return out

    def empty_like(self, *args, **kwargs):
        out = np.empty_like(*args, **kwargs)
        self.shapes.append(out.shape)
        return out


# per kind, the (T, ...) arrays that every call allocates (XW, Z and OUT,
# and for GRU also XWc and A), and those only a recorded call keeps for
# its backward pass (the activations, and LSTM's C and TC or GRU's HH)
FULL_LENGTH = {"simple": (3, 0), "lstm": (3, 3), "gru": (5, 2)}


@pytest.mark.parametrize("kind", ["simple", "lstm", "gru"])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("final", [False, True])
def test_untaped_recurrent_call_bitwise_equals_the_taped_one(kind, masked, final, monkeypatch):
    """Whatever requires grad (the input, the parameters, both or
    nothing) and with grad disabled, the output is bit for bit the taped
    call's. A call that no tape records keeps no closure and allocates
    its activation buffers for one step, not T."""
    T = 7
    rng = np.random.default_rng(53)
    cells = [random_cell(kind, 5, 4, rng), random_cell(kind, 5, 4, rng)]
    params = [t for cell in cells for _, t in cell.tensors()]
    data = rng.normal(size=(3, T, 5))
    mask = np.arange(T) < np.array([7, 3, 0])[:, None] if masked else None
    log = _AllocationLog()
    monkeypatch.setattr(network, "np", log)
    outputs = {}
    for case in ("both", "x", "params", "nothing", "no_grad"):
        x = Tensor(data, requires_grad=case in ("both", "x"))
        for p in params:
            p.requires_grad = case in ("both", "params", "no_grad")
        log.shapes.clear()
        with ad.no_grad() if case == "no_grad" else contextlib.nullcontext():
            out = recurrent(x, cells, (False, True), mask=mask, final=final)
        taped = case in ("both", "x", "params")
        assert out.requires_grad == taped
        assert (out._backward is not None) == taped
        assert out._parents == (tuple(t for t in (x, *params) if t.requires_grad) if taped else ())
        every_call, recorded_only = FULL_LENGTH[kind]
        assert sum(shape[0] == T for shape in log.shapes) == every_call + taped * recorded_only
        outputs[case] = out.data
    for case, out in outputs.items():
        assert np.array_equal(out, outputs["both"]), case


def test_char_features_empty_word_passes_no_gradient():
    rng = np.random.default_rng(52)
    table = ad.parameter(rng.uniform(-0.8, 0.8, size=(7, 3)))
    fwd = random_cell("lstm", 3, 4, rng)
    bwd = random_cell("lstm", 3, 4, rng)
    params = [table] + [t for _, t in fwd.tensors()] + [t for _, t in bwd.tensors()]
    words = [[], [2, 3, 4], [5, 6], []]
    out = char_features(words, table, fwd, bwd)
    cotangent = np.zeros(out.shape)
    cotangent[[0, 3]] = rng.normal(size=(2, out.shape[1]))  # only on the empty words
    tsum(out * Tensor(cotangent)).backward()
    assert not out.data[[0, 3]].any()
    for p in params:
        assert p.grad is not None and not p.grad.any()


@pytest.mark.parametrize("kind", ["simple", "lstm", "gru"])
def test_fused_shortcut_stack_bitwise_equals_two_single_direction_calls(kind, monkeypatch):
    # with shortcuts the word representations feed every layer, so their
    # gradient sums the adjoints of several consumers in tape order
    rng = np.random.default_rng(45)
    cfg = DropoutConfig(rnn_input=0.2, rnn_state=0.3, rnn_output=0.1, variational=False)
    model = stack_model(kind, [4, 3, 5], word_dim=6, shortcuts=True, dropout=cfg)
    layer_params = [t for pair in model._cells for cell in pair for _, t in cell.tensors()]
    for t in layer_params:
        t.data = rng.uniform(-1.0, 1.0, size=t.data.shape)
    embedded = ad.parameter(rng.normal(size=(1, 6, 6)))
    params = [embedded] + layer_params

    def top():
        return run_stack(model, embedded, True, np.random.default_rng(46))[-1]

    fused = outputs_and_grads(top, params, np.random.default_rng(47))
    monkeypatch.setattr(network, "bidirectional_layer", bidirectional_two_calls)
    assert_bitwise_equal(fused, outputs_and_grads(top, params, np.random.default_rng(47)))


def test_each_layer_and_char_bilstm_is_one_tape_node():
    config = tiny_config(
        shared_layers=[3, 4],
        use_shortcuts=True,
        char=CharConfig(enabled=True, embedding_dim=3, hidden=2),
        dropout=DropoutConfig(rnn_input=0.2, rnn_state=0.2, rnn_output=0.2),
        tasks=[TaskSpec(name="t", labels=["A", "B", "O"], termination_layer=2)],
    )
    model = Model(config, small_vocab(("ab", "bca", "c")), np.random.default_rng(48))
    loss = model.batch_loss(
        "t", [("ab", "bca", "c")], [("A", "B", "O")], rng=np.random.default_rng(49)
    )
    nodes, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    rnn = [node for node in nodes if node.op.startswith("rnn/")]
    # the two shared layers, over a batch of one, and the char BiLSTM (2 x 2 units)
    assert sorted(node.data.shape for node in rnn) == [(1, 3, 6), (1, 3, 8), (3, 4)]
    for node in rnn:
        assert node.op == "rnn/lstm"
        assert len(node._parents) == 1 + 2 * 3  # the input, W, U and b per direction


# -- shared stack -----------------------------------------------------------------------


def stack_model(kind, sizes, word_dim, shortcuts, dropout=None, seed=0):
    """One task "t" on the top of a stack of shared layers of ``sizes``."""
    config = tiny_config(
        cell=kind,
        shared_layers=list(sizes),
        use_shortcuts=shortcuts,
        dropout=dropout or DropoutConfig(),
        tasks=[TaskSpec(name="t", labels=["A", "O"], termination_layer=len(sizes))],
        word_dim=word_dim,
    )
    return Model(config, small_vocab(), np.random.default_rng(seed))


def run_stack(model, embedded, training=False, rng=None):
    """The shared layer outputs that ``Model.forward`` appends to a store
    holding only the (unpadded, so maskless) word representations."""
    shared = [None, embedded]
    model.forward("t", None, training, rng, shared=shared)
    assert shared[1] is embedded
    return shared[2:]


def test_stack_widths_without_shortcuts():
    model = stack_model("lstm", [3, 4], word_dim=5, shortcuts=False, seed=14)
    assert model._cells[1][0].W.shape[0] == 6  # 2h of layer below
    emb = Tensor(np.random.default_rng(14).normal(size=(1, 2, 5)))
    assert [o.shape for o in run_stack(model, emb)] == [(1, 2, 6), (1, 2, 8)]


def test_stack_widths_with_shortcuts():
    model = stack_model("lstm", [3, 4], word_dim=5, shortcuts=True, seed=15)
    assert model._cells[1][0].W.shape[0] == 6 + 5  # 2h + word representation
    emb = Tensor(np.random.default_rng(15).normal(size=(1, 2, 5)))
    assert [o.shape for o in run_stack(model, emb)] == [(1, 2, 6), (1, 2, 8)]


def test_single_layer_shortcut_flag_is_noop():
    emb = Tensor(np.random.default_rng(16).normal(size=(1, 3, 4)))
    with_flag = run_stack(stack_model("gru", [3], word_dim=4, shortcuts=True, seed=16), emb)
    without = run_stack(stack_model("gru", [3], word_dim=4, shortcuts=False, seed=16), emb)
    assert np.array_equal(with_flag[0].data, without[0].data)


# -- heads --------------------------------------------------------------------------------


def test_softmax_nll_uniform_logits():
    logits = Tensor(np.zeros((1, 2)))
    assert float(softmax_nll(logits, [0]).data) == pytest.approx(math.log(2.0))
    assert float(softmax_nll(logits, [1]).data) == pytest.approx(math.log(2.0))


def test_softmax_nll_confident_correct():
    logits = Tensor(np.array([[10.0, -10.0]]))
    # -log sigmoid margin: log(1 + e^-20) ~ 2.06e-9
    assert float(softmax_nll(logits, [0]).data) == pytest.approx(2.061e-9, rel=1e-3)


def test_softmax_nll_gradient():
    rng = np.random.default_rng(17)
    logits = ad.parameter(rng.normal(size=(4, 3)))
    assert check_gradients(lambda: softmax_nll(logits, [0, 2, 1, 1]), [logits], eps=1e-5) <= 1e-8


def test_fused_softmax_nll_bitwise_equals_composed_reference():
    rng = np.random.default_rng(18)
    shapes = [(1, 1), (1, 3), (4, 1)]
    shapes += [(int(rng.integers(1, 9)), int(rng.integers(1, 6))) for _ in range(200)]
    for T, L in shapes:
        logits = ad.parameter(rng.normal(size=(T, L)) * 3.0)
        gold = random_gold(rng, T, L)
        results = []
        for fn in (softmax_nll, softmax_nll_reference):
            logits.grad = None
            loss = fn(logits, gold)
            loss.backward()
            results.append((loss.data.tobytes(), logits.grad.tobytes()))
        assert results[0] == results[1], (T, L, gold)


def test_fused_softmax_nll_batch_equals_composed_reference():
    rng = np.random.default_rng(19)
    for _ in range(100):
        L, k = int(rng.integers(1, 6)), 3
        W = rng.normal(size=(k, L))
        sentences = []
        for _ in range(int(rng.integers(1, 5))):
            T = int(rng.integers(1, 9))
            sentences.append((rng.normal(size=(T, k)), random_gold(rng, T, L)))
        fused = batch_loss_and_grads(softmax_nll, sentences, (), W)
        assert fused == batch_loss_and_grads(softmax_nll_reference, sentences, (), W)


def test_softmax_nll_over_several_sentences_is_the_mean_of_their_nodes():
    """With ``lengths`` one node gives, bit for bit, the loss and the
    logits' gradients of one node per sentence summed and divided by
    the sentence count."""
    rng = np.random.default_rng(22)
    for _ in range(100):
        L = int(rng.integers(1, 6))
        lengths = [int(n) for n in rng.integers(1, 9, size=int(rng.integers(1, 5)))]
        golds = [random_gold(rng, n, L) for n in lengths]
        rows = [rng.normal(size=(n, L)) * 3.0 for n in lengths]
        parts = [ad.parameter(x) for x in rows]
        losses = [softmax_nll(x, g) for x, g in zip(parts, golds)]
        summed = sum(losses[1:], start=losses[0])
        summed = summed / float(len(lengths)) if len(lengths) > 1 else summed
        summed.backward()
        logits = ad.parameter(np.concatenate(rows))
        loss = softmax_nll(logits, np.concatenate(golds), lengths)
        loss.backward()
        assert loss.data.tobytes() == summed.data.tobytes()
        assert logits.grad.tobytes() == np.concatenate([p.grad for p in parts]).tobytes()


def test_softmax_nll_over_several_sentences_gradients():
    logits = ad.parameter(np.random.default_rng(23).normal(size=(6, 3)))
    loss = lambda: softmax_nll(logits, [0, 2, 1, 1, 0, 2], [1, 3, 2])  # noqa: E731
    assert check_gradients(loss, [logits], eps=1e-5) <= 1e-8


def test_softmax_nll_is_one_node_over_its_logits():
    logits = ad.parameter(np.random.default_rng(20).normal(size=(3, 4)))
    loss = softmax_nll(logits, [0, 3, 1])
    assert loss._parents == (logits,)
    assert loss.op == "softmax_nll"


def test_model_uniform_distribution_with_zero_projection():
    config = tiny_config()
    model = Model(config, small_vocab(), np.random.default_rng(18))
    model.params["task/t/proj/W"].data[...] = 0.0
    logits = model.forward("t", [("a", "b")], training=False)
    probs = softmax(logits, axis=1).data
    assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)


def test_private_identity_layer_matches_no_private_head():
    vocab = small_vocab()
    rng = np.random.default_rng(19)
    base = Model(tiny_config(), vocab, np.random.default_rng(19))
    with_private = Model(
        tiny_config(
            tasks=[
                TaskSpec(
                    name="t",
                    labels=["A", "B", "O"],
                    private_layers=[PrivateLayerSpec(units=6, activation="identity")],
                )
            ]
        ),
        vocab,
        np.random.default_rng(19),
    )
    with_private.params["task/t/private/1/W"].data[...] = np.eye(6)
    # remaining parameters were drawn in the same order from the same seed
    for name, tensor in base.params.items():
        if name.startswith("task/t/proj"):
            with_private.params[name].data[...] = tensor.data
    a = base.forward("t", [("a", "b")], training=False)
    b = with_private.forward("t", [("a", "b")], training=False)
    assert np.allclose(a.data, b.data, atol=1e-12)


# -- whole model ---------------------------------------------------------------------------


def test_model_train_eval_coincide_without_dropout():
    model = Model(tiny_config(), small_vocab(), np.random.default_rng(20))
    rng = np.random.default_rng(0)
    batch = [("a", "b", "c")]
    train_logits = model.forward("t", batch, training=True, rng=rng)
    eval_logits = model.forward("t", batch, training=False)
    assert np.array_equal(train_logits.data, eval_logits.data)


def test_forward_looks_up_a_surface_then_its_lowercase_then_unk():
    """With chars off, a surface the vocabulary lacks reads its
    lowercase form's row, and failing that the ``<unk>`` row."""
    model = Model(tiny_config(), small_vocab(("the", "a")), np.random.default_rng(22))
    assert "The" not in model.vocab.word_index and "qqq" not in model.vocab.word_index
    with ad.no_grad():
        looked_up = model.forward("t", [("The", "qqq")], training=False).data
        plain = model.forward("t", [("the", "<unk>")], training=False).data
        other = model.forward("t", [("a", "<unk>")], training=False).data
    assert looked_up.tobytes() == plain.tobytes()
    assert other.tobytes() != plain.tobytes()


@pytest.mark.parametrize("head", ["softmax", "crf"])
@pytest.mark.parametrize("char", [False, True], ids=["words", "chars"])
def test_an_empty_sentence_has_no_labels(char, head):
    """An empty sentence runs the network over zero steps, with its own
    char BiLSTM node or a char_rows lookup, and decodes to no labels."""
    config = tiny_config(
        shared_layers=[3, 2],
        use_shortcuts=True,
        char=CharConfig(enabled=char, embedding_dim=3, hidden=2),
        tasks=[TaskSpec(name="t", labels=["A", "B", "O"], termination_layer=2, head=head)],
    )
    model = Model(config, small_vocab(), np.random.default_rng(23))
    assert model.predict_labels("t", ()) == []
    assert model.predict_labels("t", (), chars=model.char_rows([()])) == []
    with ad.no_grad():
        assert model.forward("t", [()], training=False).shape == (0, 3)


def test_model_predicts_known_labels():
    corpus = parse_conll("a\tA\nb\tB\n", 0, {"t": 1})
    vocab = small_vocab()
    vocab.label_index["t"] = {"A": 0, "B": 1, "O": 2}
    model = Model(tiny_config(), vocab, np.random.default_rng(21))
    labels = model.predict_labels("t", corpus.sentences[0])
    assert len(labels) == 2
    assert set(labels) <= {"A", "B", "O"}


def test_task_runs_the_stack_only_up_to_its_termination_layer(monkeypatch):
    config = tiny_config(
        shared_layers=[3, 4],
        dropout=DropoutConfig(rnn_input=0.2, rnn_state=0.2, rnn_output=0.2),
        tasks=[
            TaskSpec(name="low", labels=["A", "O"], termination_layer=1, head="crf"),
            TaskSpec(name="top", labels=["X", "O"], termination_layer=2),
        ],
    )
    model = Model(config, small_vocab(), np.random.default_rng(24))
    sentence = tuple("abc")
    full = []  # the store of the whole stack: [mask, embedded, layer 1, layer 2]
    model.forward("top", [sentence], training=False, shared=full)
    assert len(full) == 4
    read_from_full = network.task_head_forward(full[2:], model._tasks["low"], False, mask=full[0])

    layer_calls = []
    layer = network.bidirectional_layer
    monkeypatch.setattr(
        network, "bidirectional_layer", lambda *a, **kw: layer_calls.append(1) or layer(*a, **kw)
    )
    for task, layers in (("low", 1), ("top", 2)):
        layer_calls.clear()
        model.predict_labels(task, sentence)
        assert len(layer_calls) == layers
        layer_calls.clear()
        labels = model.config.task(task).labels
        gold = [labels[i] for i in (0, 1, 0)]
        model.batch_loss(task, [sentence], [gold], rng=np.random.default_rng(25))
        assert len(layer_calls) == layers
    logits = model.forward("low", [sentence], training=False)
    assert np.array_equal(logits.data, read_from_full.data)


@pytest.mark.parametrize("char", [False, True], ids=["words", "chars"])
@pytest.mark.parametrize("use_shortcuts", [False, True], ids=["plain", "shortcuts"])
@pytest.mark.parametrize("cell", ["lstm", "gru", "simple"])
def test_predict_runs_each_shared_layer_once_per_sentence(
    tmp_path, monkeypatch, cell, use_shortcuts, char
):
    """`seqtag predict` writes, byte for byte, what one plain
    predict_labels call per task gives, for any task order, while each
    sentence is embedded once and runs each shared layer once."""
    char_config = CharConfig(enabled=char, embedding_dim=4, hidden=3)
    model, corpus = two_task_model(cell=cell, use_shortcuts=use_shortcuts, char=char_config)
    checkpoint = tmp_path / "model.ckpt"
    save_model(model, checkpoint)
    model = load_model(checkpoint)
    unseen = ("Zeta", "alpha", "qu!x", "the")
    sentences = [*corpus.sentences, unseen]
    tags = [*corpus.labels["tag"], ("_",) * len(unseen)]
    blocks = [[f"{w}\t{t}" for w, t in zip(s, labels)] for s, labels in zip(sentences, tags)]
    data = tmp_path / "in.conll"
    data.write_text("\n\n".join("\n".join(b) for b in blocks) + "\n", encoding="utf-8")

    calls = {"bidirectional_layer": 0, "char_features": 0}
    for name in calls:
        def spy(*args, _fn=getattr(network, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(network, name, spy)
    for tasks in ("tag,seg", "seg,tag", "tag", "seg"):
        names = tasks.split(",")
        columns = [[model.predict_labels(t, s) for t in names] for s in sentences]
        assert all(len(set(sum((c[k] for c in columns), []))) > 1 for k in range(len(names)))
        expected = "\n\n".join(
            "\n".join("\t".join([line, *(col[i] for col in cols)]) for i, line in enumerate(b))
            for b, cols in zip(blocks, columns)
        )
        for name in calls:
            calls[name] = 0
        out = tmp_path / "out.conll"
        assert main(["predict", "--model", str(checkpoint), "--input", str(data),
                     "--output", str(out), "--tasks", tasks]) == 0
        assert out.read_bytes() == (expected + "\n").encode("utf-8")
        top = max(model.config.task(t).termination_layer for t in names)
        assert calls["bidirectional_layer"] == top * len(sentences)
        # one char pass: the input's distinct words fit in one pass's padded characters
        words = {w for s in sentences for w in s}
        assert len(words) * max(map(len, words)) <= network.CHAR_PASS_CHARS
        assert calls["char_features"] == (1 if char else 0)


CHAR_PASSES = """
import json
from conftest import random_word_corpus, two_task_model
from seqtag import network
from seqtag.config import CharConfig

model, _ = two_task_model(char=CharConfig(enabled=True, embedding_dim=4, hidden=3))
sentences = [*random_word_corpus().sentences, ("a", "t" * 1100)]
passes, char_features = [], network.char_features

def spy(char_idss, *args):
    passes.append((len(char_idss), max(map(len, char_idss))))
    return char_features(char_idss, *args)

network.char_features = spy
print(json.dumps([passes, list(model.char_rows(sentences))]))
"""


def test_char_rows_run_capped_passes_in_one_order_whatever_the_hash_seed():
    """Model.char_rows runs the distinct words sorted by (length,
    surface), not in set order, longest first in passes of at most
    CHAR_PASS_CHARS padded characters; a longer word runs alone."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    runs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", CHAR_PASSES],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    assert runs[0] == runs[1]
    passes, order = runs[0]
    assert len(set(order)) == len(order) == sum(rows for rows, _ in passes)
    assert passes[0] == [1, 1100]
    assert 3 <= len(passes) < len(order) // 10
    assert all(rows * width <= network.CHAR_PASS_CHARS for rows, width in passes[1:])
    widths = [width for _, width in passes]
    assert widths == sorted(widths, reverse=True)


def test_a_model_without_chars_builds_no_char_rows(monkeypatch):
    model, corpus = two_task_model()
    monkeypatch.setattr(network, "char_features", None)  # never called

    def unread():
        raise AssertionError("the sentences were read")
        yield

    assert model.char_rows(unread()) == {}
    sentence = corpus.sentences[0]
    assert len(model.predict_labels("tag", sentence, chars={})) == len(sentence)


def test_shared_store_is_reused_and_extended_in_place():
    model, corpus = two_task_model()
    sentence = corpus.sentences[0]
    shared = []
    assert model.predict_labels("seg", sentence, shared) == model.predict_labels("seg", sentence)
    assert len(shared) == 3  # the mask (None: a batch of one has no pads), embedding, layer 1
    mask, embedded, first = shared
    assert mask is None
    assert model.predict_labels("tag", sentence, shared) == model.predict_labels("tag", sentence)
    assert len(shared) == 4 and shared[1] is embedded and shared[2] is first
    # a filled store: the head alone runs, and the sentence is not read
    assert model.predict_labels("tag", None, shared) == model.predict_labels("tag", sentence)
    plain = model.forward("tag", [sentence], training=False)
    held = list(shared)
    logits = model.forward("tag", None, training=False, shared=shared)  # sentences are not read
    assert len(shared) == 4 and all(now is then for now, then in zip(shared, held))
    assert logits.data.tobytes() == plain.data.tobytes()


def test_frozen_embeddings_not_trainable():
    config = tiny_config(fine_tune_embeddings=False)
    model = Model(config, small_vocab(), np.random.default_rng(23))
    assert "embed/word" not in model.trainable()


def _layer_gradcheck_at_resolution(build_loss, params, eps=1e-5):
    for p in params:
        p.grad = None
    build_loss().backward()
    for p in params:
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat, gflat = p.data.ravel(), grad.ravel()
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            f_plus = float(build_loss().data)
            flat[i] = saved - eps
            f_minus = float(build_loss().data)
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2 * eps)
            a = gflat[i]
            assert abs(a - numeric) <= 1e-9
            if abs(a) >= 1e-4:
                assert abs(a - numeric) / max(abs(a), abs(numeric)) <= 1e-6


def test_composite_op_gradients_ten_seeds():
    # every composite op the model assembles, checked across 10 seeds
    from seqtag.crf import crf_nll

    for seed in range(10):
        rng = np.random.default_rng(seed)

        for kind in ("simple", "lstm", "gru"):
            cell = init_cell(kind, 2, 2, rng)
            for _, t in cell.tensors():
                t.data = rng.uniform(-1.0, 1.0, size=t.data.shape)
            x = Tensor(rng.normal(size=(1, 1, 2)))

            def cell_loss(cell=cell, x=x):
                out = recurrent(x, [cell], [False])
                return tsum(out * out)

            assert check_gradients(cell_loss, [t for _, t in cell.tensors()]) <= 1e-6

        table = ad.parameter(rng.uniform(-0.8, 0.8, size=(5, 2)))
        fwd = init_cell("lstm", 2, 2, rng)
        bwd = init_cell("lstm", 2, 2, rng)

        def char_loss():
            return tsum(power(char_features([[1, 3, 2]], table, fwd, bwd), 2))

        char_params = [table] + [t for _, t in fwd.tensors()] + [t for _, t in bwd.tensors()]
        assert check_gradients(char_loss, char_params) <= 1e-6

        inputs = Tensor(rng.normal(size=(1, 3, 2)))
        bf = init_cell("gru", 2, 2, rng)
        bb = init_cell("gru", 2, 2, rng)
        for cell in (bf, bb):
            for _, t in cell.tensors():
                t.data = rng.uniform(-1.0, 1.0, size=t.data.shape)

        def layer_loss():
            out = bidirectional_layer(inputs, bf, bb, DropoutConfig(), training=False)
            return tsum(ad.tanh(out))

        layer_params = [t for _, t in bf.tensors()] + [t for _, t in bb.tensors()]
        # multi-step recurrence can contain gate components whose true
        # gradient sits below what eps=1e-5 differences resolve; check
        # those at the float64-achievable absolute floor instead
        _layer_gradcheck_at_resolution(layer_loss, layer_params)

        logits = ad.parameter(rng.normal(size=(3, 3)))
        assert check_gradients(lambda: softmax_nll(logits, [0, 2, 1]), [logits]) <= 1e-6

        crf_logits = ad.parameter(rng.normal(size=(3, 2)))
        transitions = ad.parameter(rng.normal(size=(2, 2)))
        begin = ad.parameter(rng.normal(size=2))
        end = ad.parameter(rng.normal(size=2))

        def crf_loss():
            return crf_nll(crf_logits, transitions, begin, end, [1, 0, 1])

        assert check_gradients(crf_loss, [crf_logits, transitions, begin, end]) <= 1e-6
