"""A batch is one padded graph (``Model.forward``): a training batch's
loss and gradients are the mean of its sentences' ones, each sentence's
logits equal its batch-of-one logits, a batch of one is the
single-sentence graph bit for bit, and the pads reach no parameter."""

import numpy as np
import pytest

from seqtag import autodiff as ad
from seqtag import crf, network
from seqtag.corpus import PAD_INDEX
from seqtag.config import (
    CharConfig,
    DropoutConfig,
    NetworkConfig,
    OptimizerConfig,
    PrivateLayerSpec,
    TaskSpec,
    TrainConfig,
)
from seqtag.network import Model
from seqtag.training import train

from conftest import derive_acs_corpus, synthetic_bio_corpus, tensor_digest, vocab_for

ALL_DROPOUT = dict(word=0.1, rnn_input=0.2, rnn_state=0.2, rnn_output=0.2)


def batch_model(
    cell="lstm", char=False, shortcuts=True, dropout=None, head="crf", head_dropout=0.0
):
    """Two tasks on two shared layers: `tag` on layer 2 with a private
    layer, `seg` on layer 1, both with a ``head`` (CRF by default) and
    ``head_dropout``; tensors drawn from N(0, 0.5) so every gradient is
    far from zero."""
    tag = synthetic_bio_corpus(n_sentences=8, seed=0)
    seg = derive_acs_corpus(tag)
    vocab = vocab_for([tag], {"tag": [tag], "seg": [seg]})
    config = NetworkConfig(
        cell=cell,
        shared_layers=[5, 4],
        use_shortcuts=shortcuts,
        char=CharConfig(enabled=char, embedding_dim=4, hidden=3),
        dropout=dropout or DropoutConfig(),
        tasks=[
            TaskSpec(
                name="tag",
                labels=vocab.labels_of("tag"),
                termination_layer=2,
                head=head,
                private_layers=[PrivateLayerSpec(units=4)],
                dropout=head_dropout,
            ),
            TaskSpec(name="seg", labels=vocab.labels_of("seg"), head=head, dropout=head_dropout),
        ],
        word_dim=6,
    )
    rng = np.random.default_rng(0)
    model = Model(config, vocab, rng)
    for tensor in model.params.values():
        tensor.data = rng.normal(scale=0.5, size=tensor.data.shape)
    return model, {"tag": tag, "seg": seg}


def batch_of(corpus, task, indices):
    """The sentences of ``indices`` and their gold labels of ``task``."""
    return [corpus.sentences[i] for i in indices], [corpus.labels[task][i] for i in indices]


def loss_and_grads(model, build):
    model.zero_grads()
    loss = build()
    loss.backward()
    grads = {n: p.grad.copy() for n, p in model.params.items() if p.grad is not None}
    model.zero_grads()
    return float(loss.data), grads


@pytest.mark.parametrize("head", ["crf", "softmax"])
@pytest.mark.parametrize("task", ["tag", "seg"])
@pytest.mark.parametrize("shortcuts", [False, True], ids=["plain", "shortcuts"])
@pytest.mark.parametrize("char", [False, True], ids=["words", "chars"])
@pytest.mark.parametrize("cell", ["lstm", "gru", "simple"])
def test_padded_batch_equals_the_mean_of_its_sentences(cell, char, shortcuts, task, head):
    """With dropout off, the loss and every gradient of one padded batch
    equal the mean over its sentences' single graphs at 1e-12 relative,
    for tasks ending at layer 2 (`tag`) and layer 1 (`seg`)."""
    model, corpora = batch_model(cell=cell, char=char, shortcuts=shortcuts, head=head)
    # lengths 4 to 8 and one of a single token; the longest is not first
    sentences, labels = batch_of(corpora[task], task, [2, 0, 5, 3])
    sentences.insert(1, sentences[0][:1])
    labels.insert(1, labels[0][:1])
    assert len({len(s) for s in sentences}) > 2

    loss, grads = loss_and_grads(model, lambda: model.batch_loss(task, sentences, labels))
    per_sentence = [
        loss_and_grads(model, lambda s=s, g=g: model.batch_loss(task, [s], [g]))
        for s, g in zip(sentences, labels)
    ]
    mean_loss = sum(l for l, _ in per_sentence) / len(sentences)
    assert abs(loss - mean_loss) <= 1e-12 * abs(mean_loss)
    assert set(grads) == set().union(*(g for _, g in per_sentence))
    for name, grad in grads.items():
        mean = sum(g[name] for _, g in per_sentence if name in g) / len(sentences)
        assert np.max(np.abs(grad - mean)) <= 1e-12 * np.max(np.abs(mean)), name


def best_ids(model, task, logits):
    params = model._tasks[task]
    if params.spec.head == "crf":
        return crf.crf_viterbi(
            logits, params.transitions.data, params.begin.data, params.end.data
        )
    return [int(i) for i in np.argmax(logits, axis=1)]


@pytest.mark.parametrize("head", ["crf", "softmax"])
@pytest.mark.parametrize("shortcuts", [False, True], ids=["plain", "shortcuts"])
@pytest.mark.parametrize("char", [False, True], ids=["words", "chars"])
@pytest.mark.parametrize("cell", ["lstm", "gru", "simple"])
def test_one_forward_serves_a_padded_batch_and_a_batch_of_one(cell, char, shortcuts, head):
    """Each sentence's rows of a padded B = 3 forward equal its logits
    as a batch of one at 1e-12 relative and decode to the labels that
    ``predict_labels`` gives it, for tasks ending at layer 2 and layer 1.
    The padded forward reading a ``char_rows`` lookup equals the one
    running the char BiLSTM at 1e-12 relative."""
    model, corpora = batch_model(cell=cell, char=char, shortcuts=shortcuts, head=head)
    for task in ("tag", "seg"):
        sentences, _ = batch_of(corpora[task], task, [2, 0, 3])
        labels = model.config.task(task).labels
        lengths = [len(s) for s in sentences]
        assert len(set(lengths)) == 3 and lengths[0] < max(lengths)
        with ad.no_grad():
            padded = model.forward(task, sentences, training=False).data
            chars = model.char_rows(sentences)
            looked_up = model.forward(task, sentences, training=False, chars=chars).data
        assert padded.shape[0] == sum(lengths)
        assert np.max(np.abs(looked_up - padded)) <= 1e-12 * np.max(np.abs(padded))
        for sentence, rows in zip(sentences, np.split(padded, np.cumsum(lengths)[:-1])):
            with ad.no_grad():
                alone = model.forward(task, [sentence], training=False).data
            assert np.max(np.abs(rows - alone)) <= 1e-12 * np.max(np.abs(alone))
            predicted = model.predict_labels(task, sentence)
            assert [labels[k] for k in best_ids(model, task, rows)] == predicted


@pytest.mark.parametrize("char", [False, True], ids=["words", "chars"])
@pytest.mark.parametrize("cell", ["lstm", "gru", "simple"])
def test_unpadded_batch_without_a_mask_equals_an_all_true_mask(monkeypatch, cell, char):
    """A batch with no padded row runs without a length mask; with an
    all-true mask forced on it (word and character batches alike) its
    logits, loss and gradients are the same bit for bit, dropout on."""
    model, corpora = batch_model(
        cell=cell, char=char, dropout=DropoutConfig(**ALL_DROPOUT), head_dropout=0.1
    )
    sentences, labels = batch_of(corpora["tag"], "tag", [3, 5, 7])
    assert {len(s) for s in sentences} == {4}
    assert network.pad_ids([[model.vocab.lookup_word(w) for w in s] for s in sentences])[1] is None

    def run():
        with ad.no_grad():
            logits = model.forward("tag", sentences, training=False).data
        loss, grads = loss_and_grads(
            model, lambda: model.batch_loss("tag", sentences, labels, rng=np.random.default_rng(3))
        )
        return logits.tobytes(), loss, {n: g.tobytes() for n, g in grads.items()}

    without = run()
    pad_ids = network.pad_ids

    def all_true(seqs):
        ids, mask = pad_ids(seqs)
        return ids, np.ones(ids.shape, dtype=bool) if mask is None else mask

    monkeypatch.setattr(network, "pad_ids", all_true)
    assert run() == without


def test_batch_runs_each_layer_and_the_char_bilstm_once(monkeypatch):
    """One training batch runs each shared layer, the head and the char
    BiLSTM once; the char BiLSTM runs over the batch's distinct words,
    fewer than its tokens."""
    model, corpora = batch_model(char=True)
    sentences, labels = batch_of(corpora["tag"], "tag", [0, 1, 2, 3])
    calls = {"bidirectional_layer": 0, "char_features": 0, "task_head_forward": 0}
    char_words = []
    for name in calls:
        def spy(*args, _fn=getattr(network, name), _name=name, **kwargs):
            calls[_name] += 1
            if _name == "char_features":
                char_words.extend(args[0])
            return _fn(*args, **kwargs)

        monkeypatch.setattr(network, name, spy)
    model.batch_loss("tag", sentences, labels, rng=np.random.default_rng(1)).backward()
    assert calls == {"bidirectional_layer": 2, "char_features": 1, "task_head_forward": 1}
    words = {w for s in sentences for w in s}
    assert sorted(map(tuple, char_words)) == sorted(tuple(model.vocab.char_ids(w)) for w in words)
    assert len(words) < sum(map(len, sentences))


@pytest.mark.parametrize("variational", [True, False])
def test_pad_rows_get_exactly_zero_gradient(variational):
    model, corpora = batch_model(
        char=True, dropout=DropoutConfig(**ALL_DROPOUT, variational=variational), head_dropout=0.1
    )
    model.params["embed/word"].data[PAD_INDEX] = 0.0
    model.params["embed/char"].data[PAD_INDEX] = 0.0
    sentences, labels = batch_of(corpora["tag"], "tag", [0, 1, 2, 3])
    _, grads = loss_and_grads(
        model, lambda: model.batch_loss("tag", sentences, labels, rng=np.random.default_rng(2))
    )
    for table in ("embed/word", "embed/char"):
        assert np.any(grads[table] != 0.0)
        assert np.all(grads[table][PAD_INDEX] == 0.0)


def _train(config_case, batch_size, tmp_path, tasks=("tag", "seg")):
    """Train a two-task model (or its `tag` task alone) for two epochs
    from seed 7 with every dropout site on; return the epoch losses and
    the checkpoint's bytes."""
    cell, char, variational, optimizer, clip = config_case
    tag = synthetic_bio_corpus(n_sentences=7, seed=3)
    seg = derive_acs_corpus(tag)
    vocab = vocab_for([tag], {"tag": [tag], "seg": [seg]})
    specs = [
        TaskSpec(
            name="tag",
            labels=vocab.labels_of("tag"),
            termination_layer=2,
            head="crf",
            dropout=0.1,
            private_layers=[PrivateLayerSpec(units=4)],
        ),
        TaskSpec(name="seg", labels=vocab.labels_of("seg"), termination_layer=1, dropout=0.1),
    ]
    config = NetworkConfig(
        cell=cell,
        shared_layers=[5, 4],
        use_shortcuts=True,
        char=CharConfig(enabled=char, embedding_dim=4, hidden=3),
        dropout=DropoutConfig(**ALL_DROPOUT, variational=variational),
        tasks=[spec for spec in specs if spec.name in tasks],
        word_dim=6,
    )
    tc = TrainConfig(
        epochs=2,
        batch_size=batch_size,
        optimizer=OptimizerConfig(kind=optimizer, learning_rate=0.01),
        clip_norm=clip,
        main_task="tag",
    )
    rng = np.random.default_rng(7)
    model = Model(config, vocab, rng)
    path = tmp_path / f"b{batch_size}.ckpt"
    data = {"tag": tag, "seg": seg}
    result = train(model, {t: data[t] for t in tasks}, {}, tc, rng, checkpoint_path=str(path))
    return [r.task_losses for r in result.records], path.read_bytes()


CASES = {
    "lstm-mtl": ("lstm", False, True, "adam", 1.0),
    "gru-char": ("gru", True, False, "adam", None),
    "simple-char": ("simple", True, True, "sgd", 0.5),
}


PER_SENTENCE_TENSORS = {
    "lstm-mtl": "8f7080be488f89c984d677aa1eef08d3ca43fd2ff13d44640139cb160d667255",
    "gru-char": "8d4dc9eaf72a94845578e7799c1717fd57b2c2f8c1d66399713a0f393bd118a5",
    "simple-char": "e26623a37311fe5380140932d9232f5c40c24057b9ef6e8a5c4f676559f343ea",
}


@pytest.mark.parametrize("case", list(PER_SENTENCE_TENSORS))
def test_batch_size_one_writes_the_per_sentence_checkpoint(tmp_path, case):
    """At batch_size 1 training writes, bit for bit, the tensors of the
    per-sentence graphs that preceded the padded batch (the sha256 of
    their float64 values pinned from those checkpoints): two tasks,
    shortcuts, a private layer, every dropout site, char BiLSTM on and
    off, Adam and SGD, with and without clipping. The two char pins
    were taken again when every token began to gather its char row from
    one run per distinct word: a repeated word's adjoint is now summed
    before its BPTT pass, which moved each tensor by at most 6.5e-16
    relative (max |change| / max |value|)."""
    _train(CASES[case], 1, tmp_path)
    assert tensor_digest(tmp_path / "b1.ckpt") == PER_SENTENCE_TENSORS[case]


@pytest.mark.parametrize("tasks", [("tag", "seg"), ("tag",)], ids=["mtl", "stl"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_same_seed_reruns_at_batch_size_four_are_bitwise_equal(tmp_path, case, tasks):
    """Two runs from the same seed at batch_size 4 write the same epoch
    losses and checkpoint bytes, with two tasks and with one."""
    runs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        runs.append(_train(CASES[case], 4, tmp_path / name, tasks))
    assert runs[0] == runs[1]
