import hashlib
import itertools
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from seqtag import autodiff as ad
from seqtag import crf, experiment, training
from seqtag import files
from seqtag.checkpoint import MAGIC, VERSION, CheckpointError, load_model, save_model
from seqtag.cli import main
from seqtag.corpus import Corpus
from seqtag.exceptions import ConfigError, DataError
from seqtag import network
from seqtag.config import (
    CharConfig,
    DropoutConfig,
    EarlyStoppingConfig,
    EvalConfig,
    NetworkConfig,
    OptimizerConfig,
    PrivateLayerSpec,
    TaskSpec,
    TrainConfig,
)
from seqtag.network import Model
from seqtag.training import (
    AdamOptimizer,
    SgdOptimizer,
    clip_global_norm,
    dev_score,
    global_norm,
    plan_batches,
    subsample,
    train,
)

from conftest import (
    DiskFullFile,
    derive_acs_corpus,
    random_word_corpus,
    reframe_checkpoint,
    small_model,
    synthetic_bio_corpus,
    tensor_digest,
    two_task_model,
    vocab_for,
)
from reference_rnn import bidirectional_two_calls, char_features_two_calls


# -- clipping -----------------------------------------------------------------------


def test_clip_identity_at_threshold():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert global_norm(grads) == pytest.approx(5.0)
    clipped = clip_global_norm(grads, 5.0)
    assert np.array_equal(clipped["a"], [3.0])
    assert np.array_equal(clipped["b"], [4.0])


def test_clip_scales_to_threshold():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped = clip_global_norm(grads, 2.5)
    assert np.allclose(clipped["a"], [1.5])
    assert np.allclose(clipped["b"], [2.0])
    assert global_norm(clipped) == pytest.approx(2.5)


def test_clip_zero_gradients_pass_through():
    grads = {"a": np.zeros(3)}
    clipped = clip_global_norm(grads, 1.0)
    assert np.array_equal(clipped["a"], np.zeros(3))


def test_clip_properties_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        n_tensors = int(rng.integers(1, 4))
        grads = {
            f"g{i}": rng.normal(size=rng.integers(1, 5)) * 10.0 ** float(rng.integers(-2, 3))
            for i in range(n_tensors)
        }
        threshold = float(rng.uniform(0.01, 10.0))
        before = global_norm(grads)
        clipped = clip_global_norm(grads, threshold)
        after = global_norm(clipped)
        assert after <= threshold + 1e-12 or after <= before + 1e-12
        assert after <= max(threshold, before) + 1e-12
        if before <= threshold:
            for name, g in grads.items():
                assert np.array_equal(clipped[name], g)
        elif before > 0:
            # direction preserved: cosine similarity 1
            dot = sum(
                float(np.sum(g * clipped[name])) for name, g in grads.items()
            )
            assert dot / (before * after) == pytest.approx(1.0, abs=1e-12)
            assert after <= threshold + 1e-12


# -- optimizers ----------------------------------------------------------------------


def test_sgd_step():
    theta = ad.parameter(np.array([1.0]))
    SgdOptimizer(0.1).step({"w": theta}, {"w": np.array([2.0])})
    assert np.allclose(theta.data, [0.8])


def test_adam_first_step_magnitude():
    for g in (np.array([0.001]), np.array([5.0]), np.array([-42.0])):
        theta = ad.parameter(np.array([1.0]))
        adam = AdamOptimizer(learning_rate=0.01)
        adam.step({"w": theta}, {"w": g.copy()})
        delta = theta.data - 1.0
        # bias-corrected m/sqrt(v) = sign(g) up to epsilon effects
        assert np.allclose(np.abs(delta), 0.01, rtol=1e-2)
        assert np.sign(delta) == -np.sign(g)


def test_zero_gradient_changes_nothing():
    for opt in (SgdOptimizer(0.5), AdamOptimizer(0.5)):
        theta = ad.parameter(np.array([1.0, -2.0]))
        opt.step({"w": theta}, {"w": np.zeros(2)})
        assert np.array_equal(theta.data, [1.0, -2.0])


# -- train loop ----------------------------------------------------------------------


def scripted_dev_train(monkeypatch, scores, patience, epochs=10):
    corpus = synthetic_bio_corpus(n_sentences=4)
    model, rng = small_model(corpus)
    calls = {"n": 0}

    def fake_dev_score(model_, task, corpus_, metric):
        value = scores[min(calls["n"], len(scores) - 1)]
        calls["n"] += 1
        return value

    monkeypatch.setattr("seqtag.training.dev_score", fake_dev_score)
    config = TrainConfig(
        epochs=epochs,
        batch_size=2,
        optimizer=OptimizerConfig(kind="sgd", learning_rate=0.01),
        early_stopping=EarlyStoppingConfig(task="tag", metric="accuracy", patience=patience),
        main_task="tag",
    )
    result = train(model, {"tag": corpus}, {"tag": corpus}, config, rng)
    return result


def test_early_stopping_patience_rule(monkeypatch):
    result = scripted_dev_train(monkeypatch, [0.5, 0.6, 0.6, 0.6, 0.6], patience=3)
    assert len(result.records) == 5  # stopped after epoch 5
    assert result.best_epoch == 2


def test_strictly_increasing_runs_all_epochs(monkeypatch):
    scores = [0.1 * i for i in range(1, 11)]
    result = scripted_dev_train(monkeypatch, scores, patience=3, epochs=10)
    assert len(result.records) == 10
    assert result.best_epoch == 10


def test_no_early_stopping_runs_exactly_epochs():
    corpus = synthetic_bio_corpus(n_sentences=4)
    model, rng = small_model(corpus)
    config = TrainConfig(epochs=3, batch_size=2, main_task="tag")
    result = train(model, {"tag": corpus}, {}, config, rng)
    assert len(result.records) == 3
    assert result.best_metric is None


def test_determinism_same_seed_same_losses_and_checkpoint(tmp_path):
    corpus = synthetic_bio_corpus(n_sentences=6)

    def run(path):
        model, rng = small_model(corpus, seed=11)
        config = TrainConfig(
            epochs=3,
            batch_size=2,
            optimizer=OptimizerConfig(kind="adam", learning_rate=0.01),
            main_task="tag",
        )
        result = train(model, {"tag": corpus}, {}, config, rng, checkpoint_path=str(path))
        return result

    first = run(tmp_path / "a.ckpt")
    second = run(tmp_path / "b.ckpt")
    for r1, r2 in zip(first.records, second.records):
        for task in r1.task_losses:
            assert abs(r1.task_losses[task] - r2.task_losses[task]) <= 1e-12
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_training_reduces_loss(bio_corpus):
    model, rng = small_model(bio_corpus)
    config = TrainConfig(
        epochs=8,
        batch_size=4,
        optimizer=OptimizerConfig(kind="adam", learning_rate=0.02),
        main_task="tag",
    )
    result = train(model, {"tag": bio_corpus}, {}, config, rng)
    assert result.records[-1].task_losses["tag"] < result.records[0].task_losses["tag"]


def test_lower_task_batch_steps_only_the_parameters_it_reached(monkeypatch):
    """A `seg` batch (termination layer 1) hands the optimizer neither
    the shared layer above it nor the `tag` head, and leaves them as
    they were, Adam state included."""
    corpus = synthetic_bio_corpus(n_sentences=6)
    aux = derive_acs_corpus(corpus)
    vocab = vocab_for([corpus, aux], {"tag": [corpus], "seg": [aux]})

    config = NetworkConfig(
        cell="lstm",
        shared_layers=[6, 6],
        dropout=DropoutConfig(),
        tasks=[
            TaskSpec(name="tag", labels=vocab.labels_of("tag"), termination_layer=2),
            TaskSpec(name="seg", labels=vocab.labels_of("seg"), head="crf"),
        ],
        word_dim=6,
    )
    rng = np.random.default_rng(5)
    model = Model(config, vocab, rng)
    above = [n for n in model.params if n.startswith(("shared/2/", "task/tag/"))]

    tasks = []
    batch_loss = Model.batch_loss

    def spy_loss(self, task_name, *args, **kwargs):
        tasks.append(task_name)
        return batch_loss(self, task_name, *args, **kwargs)

    steps = {"tag": 0, "seg": 0}
    optimizers = []
    adam_step = AdamOptimizer.step

    def spy_step(self, params, grads):
        task = tasks[-1]
        steps[task] += 1
        optimizers.append(self)
        before = {n: params[n].data.tobytes() for n in above}
        adam_step(self, params, grads)
        if task == "seg":
            names = [n for n, _ in grads.items()]
            assert not [n for n in names if n in above]
            assert all(params[n].data.tobytes() == before[n] for n in above)
            assert any(n.startswith("task/seg/") for n in names)
            assert any(n.startswith("shared/1/") for n in names)

    monkeypatch.setattr(Model, "batch_loss", spy_loss)
    monkeypatch.setattr(AdamOptimizer, "step", spy_step)
    train_config = TrainConfig(
        epochs=2,
        batch_size=2,
        optimizer=OptimizerConfig(kind="adam", learning_rate=0.01),
        clip_norm=1.0,
        main_task="tag",
    )
    train(model, {"tag": corpus, "seg": aux}, {}, train_config, rng)

    assert steps == {"tag": 6, "seg": 6}
    assert optimizers[0].state["shared/2/fwd/U"][2] == steps["tag"]
    assert optimizers[0].state["shared/1/fwd/U"][2] == steps["tag"] + steps["seg"]


def test_single_task_training_is_reproducible_as_stl():
    corpus = synthetic_bio_corpus(n_sentences=5)

    def run():
        model, rng = small_model(corpus, seed=21)
        config = TrainConfig(
            epochs=2,
            batch_size=2,
            optimizer=OptimizerConfig(kind="adam", learning_rate=0.01),
            main_task="tag",
        )
        result = train(model, {"tag": corpus}, {}, config, rng)
        return result

    a, b = run(), run()
    for r1, r2 in zip(a.records, b.records):
        assert r1.task_losses == r2.task_losses
    for name in a.model.params:
        assert np.array_equal(a.model.params[name].data, b.model.params[name].data)


def test_mtl_tasks_terminating_at_different_layers():
    corpus = synthetic_bio_corpus(n_sentences=5)
    aux = derive_acs_corpus(corpus)
    vocab = vocab_for([corpus, aux], {"tag": [corpus], "seg": [aux]})

    config = NetworkConfig(
        cell="lstm",
        shared_layers=[5, 4],
        use_shortcuts=True,
        dropout=DropoutConfig(),
        tasks=[
            TaskSpec(name="seg", labels=vocab.labels_of("seg"), termination_layer=1),
            TaskSpec(name="tag", labels=vocab.labels_of("tag"), termination_layer=2, head="crf"),
        ],
        word_dim=6,
    )
    rng = np.random.default_rng(9)
    model = Model(config, vocab, rng)
    tc = TrainConfig(
        epochs=2,
        batch_size=2,
        optimizer=OptimizerConfig(kind="adam", learning_rate=0.01),
        main_task="tag",
    )
    result = train(model, {"tag": corpus, "seg": aux}, {}, tc, rng)
    assert len(result.records) == 2
    assert all(np.isfinite(l) for r in result.records for l in r.task_losses.values())
    sentence = corpus.sentences[0]
    assert len(model.predict_labels("seg", sentence)) == len(sentence)
    assert len(model.predict_labels("tag", sentence)) == len(sentence)


@pytest.mark.parametrize("cell,variational", [("lstm", True), ("gru", False)])
def test_fused_directions_write_the_checkpoint_of_single_direction_calls(
    tmp_path, monkeypatch, cell, variational
):
    # two tasks, shortcuts, the char BiLSTM and every dropout site: the
    # layers whose directions step in one loop train to the same bytes as
    # one node per direction
    corpus = synthetic_bio_corpus(n_sentences=6)
    aux = derive_acs_corpus(corpus)
    vocab = vocab_for([corpus, aux], {"tag": [corpus], "seg": [aux]})
    config = NetworkConfig(
        cell=cell,
        shared_layers=[5, 4],
        use_shortcuts=True,
        char=CharConfig(enabled=True, embedding_dim=4, hidden=3),
        dropout=DropoutConfig(
            word=0.1, rnn_input=0.2, rnn_state=0.2, rnn_output=0.2, variational=variational
        ),
        tasks=[
            TaskSpec(name="seg", labels=vocab.labels_of("seg"), termination_layer=1),
            TaskSpec(name="tag", labels=vocab.labels_of("tag"), termination_layer=2, head="crf"),
        ],
        word_dim=6,
    )
    tc = TrainConfig(
        epochs=2,
        batch_size=2,
        optimizer=OptimizerConfig(kind="adam", learning_rate=0.01),
        main_task="tag",
    )

    def run(path):
        rng = np.random.default_rng(9)
        model = Model(config, vocab, rng)
        return train(model, {"tag": corpus, "seg": aux}, {}, tc, rng, checkpoint_path=str(path))

    fused = run(tmp_path / "fused.ckpt")
    monkeypatch.setattr(network, "bidirectional_layer", bidirectional_two_calls)
    monkeypatch.setattr(network, "char_features", char_features_two_calls)
    reference = run(tmp_path / "reference.ckpt")
    assert [r.task_losses for r in fused.records] == [r.task_losses for r in reference.records]
    assert (tmp_path / "fused.ckpt").read_bytes() == (tmp_path / "reference.ckpt").read_bytes()


def test_missing_train_data_is_config_error():
    corpus = synthetic_bio_corpus(n_sentences=3)
    model, rng = small_model(corpus)
    config = TrainConfig(epochs=1, main_task="tag")
    with pytest.raises(ConfigError):
        train(model, {}, {}, config, rng)


def test_train_rejects_a_training_corpus_without_its_task_labels(monkeypatch):
    """A training corpus without its task's label column is a
    ``DataError`` raised before the first batch runs."""
    corpus = synthetic_bio_corpus(n_sentences=3)
    model, rng = small_model(corpus)
    monkeypatch.setattr(Model, "batch_loss", None)  # never called
    config = TrainConfig(epochs=1, main_task="tag")
    unlabelled = Corpus(corpus.sentences, {"seg": corpus.labels["tag"]})
    with pytest.raises(DataError, match=r"^the training corpus has no gold labels of task 'tag'$"):
        train(model, {"tag": unlabelled}, {}, config, rng)


@pytest.mark.parametrize("head", ["softmax", "crf"])
def test_train_rejects_a_training_corpus_with_an_empty_sentence(monkeypatch, head):
    """An empty training sentence is a ``DataError`` naming its task and
    index, raised before the first batch runs."""
    corpus = synthetic_bio_corpus(n_sentences=3)
    model, rng = small_model(corpus, head=head)
    monkeypatch.setattr(Model, "batch_loss", None)  # never called
    config = TrainConfig(epochs=1, main_task="tag")
    sentences, labels = ((*c[:2], (), c[2]) for c in (corpus.sentences, corpus.labels["tag"]))
    with_empty = Corpus(sentences, {"tag": labels})
    with pytest.raises(DataError, match=r"^training sentence 2 of task 'tag' is empty$"):
        train(model, {"tag": with_empty}, {}, config, rng)


@pytest.mark.parametrize(
    "task, dev, message",
    [
        ("other", {}, "early stopping task 'other' is not declared"),
        ("tag", {}, "early stopping task 'tag' has no dev data"),
    ],
)
def test_train_rejects_an_early_stopping_task_it_cannot_score(task, dev, message):
    """``train`` checks its early-stopping task against the model's tasks
    and the dev data it is given, before the first batch."""
    corpus = synthetic_bio_corpus(n_sentences=3)
    model, rng = small_model(corpus)
    config = TrainConfig(epochs=1, early_stopping=EarlyStoppingConfig(task=task))
    with pytest.raises(ConfigError, match=f"^{message}$"):
        train(model, {"tag": corpus}, dev, config, rng)


def test_subsample_takes_fraction():
    corpus = synthetic_bio_corpus(n_sentences=10)
    rng = np.random.default_rng(0)
    sub = subsample(corpus, 0.3, rng)
    assert len(sub) == 3
    assert subsample(corpus, 1.0, rng) is corpus


# -- the batch plan ----------------------------------------------------------------------


def unsorted_plan(lengths, batch_size, rng):
    """Batches as formed before length grouping: each task's permutation
    cut in order, then the combined list shuffled."""
    batches = []
    for name, sizes in lengths.items():
        order = rng.permutation(len(sizes))
        for i in range(0, len(order), batch_size):
            batches.append((name, [int(j) for j in order[i : i + batch_size]]))
    return [batches[b] for b in rng.permutation(len(batches))]


def random_lengths(seed):
    """Two or three tasks of 1-30 sentences with lengths 1-6, so equal
    lengths are common."""
    rng = np.random.default_rng(seed)
    names = ["tag", "seg", "pos"][: int(rng.integers(2, 4))]
    return {n: rng.integers(1, 7, int(rng.integers(1, 31))).tolist() for n in names}


def longest_steps(plan, lengths):
    return sum(max(lengths[task][j] for j in ids) for task, ids in plan)


PLAN_CASES = [(seed, size) for seed in range(12) for size in (1, 2, 4, 7)]


@pytest.mark.parametrize("seed,size", PLAN_CASES)
def test_plan_holds_every_sentence_once_in_ceil_n_over_b_batches(seed, size):
    lengths = random_lengths(seed)
    plan = plan_batches(lengths, size, np.random.default_rng(seed))
    for task, sizes in lengths.items():
        batches = [ids for name, ids in plan if name == task]
        assert len(batches) == -(-len(sizes) // size)
        assert all(1 <= len(ids) <= size for ids in batches)
        assert sorted(j for ids in batches for j in ids) == list(range(len(sizes)))


@pytest.mark.parametrize("seed", range(12))
def test_plan_at_batch_size_1_is_the_unsorted_plan(seed):
    lengths = random_lengths(seed)
    plan = plan_batches(lengths, 1, np.random.default_rng(seed))
    assert plan == unsorted_plan(lengths, 1, np.random.default_rng(seed))


@pytest.mark.parametrize("seed,size", [(s, b) for s, b in PLAN_CASES if b > 1])
def test_plan_groups_by_length_and_keeps_the_permutation_order_of_ties(seed, size):
    """Undoing the batch shuffle gives each task's batches in cut order;
    concatenated they are the permutation, stable-sorted by length."""
    lengths = random_lengths(seed)
    plan = plan_batches(lengths, size, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    perms = {task: rng.permutation(len(sizes)).tolist() for task, sizes in lengths.items()}
    cut_order = [None] * len(plan)
    for position, b in enumerate(rng.permutation(len(plan))):
        cut_order[b] = plan[position]
    for task, sizes in lengths.items():
        joined = [j for name, ids in cut_order if name == task for j in ids]
        keys = [(sizes[j], perms[task].index(j)) for j in joined]
        assert keys == sorted(keys)


class RecordingRng:
    """A generator that records each call made on it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return getattr(self.rng, name)(*args, **kwargs)

        return call


@pytest.mark.parametrize("seed,size", PLAN_CASES)
def test_plan_draws_exactly_the_unsorted_plans_permutations(seed, size):
    """The same calls in the same order, and the same generator state
    after them (permutations reject draws, so the state alone can miss
    an extra draw)."""
    lengths = random_lengths(seed)
    planned = RecordingRng(np.random.default_rng(seed))
    unsorted = RecordingRng(np.random.default_rng(seed))
    plan_batches(lengths, size, planned)
    unsorted_plan(lengths, size, unsorted)
    assert planned.calls == unsorted.calls
    assert [name for name, *_ in planned.calls] == ["permutation"] * (len(lengths) + 1)
    assert planned.rng.bit_generator.state == unsorted.rng.bit_generator.state


@pytest.mark.parametrize("seed,size", PLAN_CASES)
def test_plan_runs_no_more_steps_than_the_unsorted_plan(seed, size):
    """The sum of each batch's longest sentence is the number of steps
    the epoch's padded graphs run."""
    lengths = random_lengths(seed)
    plan = plan_batches(lengths, size, np.random.default_rng(seed))
    unsorted = unsorted_plan(lengths, size, np.random.default_rng(seed))
    assert longest_steps(plan, lengths) <= longest_steps(unsorted, lengths)


def test_short_batch_takes_the_shortest_sentences():
    """Cutting the sorted sentences with the short batch last would pair
    it with the longest; [1, 5, 5] at B = 2 then runs 10 steps, not 6."""
    lengths = {"tag": [1, 5, 5]}
    plan = plan_batches(lengths, 2, np.random.default_rng(0))
    assert sorted(sorted(lengths["tag"][j] for j in ids) for _, ids in plan) == [[1], [5, 5]]
    assert longest_steps(plan, lengths) == 6


def test_training_batches_follow_the_plan(monkeypatch):
    """Every batch ``train`` runs at B > 1 holds its sentences in
    non-decreasing length order."""
    corpus = synthetic_bio_corpus(n_sentences=10)
    model, rng = small_model(corpus)
    seen = []
    batch_loss = Model.batch_loss

    def record(self, task, sentences, labels, *args, **kwargs):
        seen.append([len(s) for s in sentences])
        return batch_loss(self, task, sentences, labels, *args, **kwargs)

    monkeypatch.setattr(Model, "batch_loss", record)
    train(model, {"tag": corpus}, {}, TrainConfig(epochs=2, batch_size=4, main_task="tag"), rng)
    assert sorted(len(b) for b in seen) == [2, 2, 4, 4, 4, 4]
    assert all(b == sorted(b) for b in seen)
    assert len({length for b in seen for length in b}) > 1


# -- checkpoints ------------------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path, bio_corpus):
    model, _ = small_model(bio_corpus, head="crf")
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    loaded = load_model(path)
    for name, tensor in model.params.items():
        assert np.array_equal(loaded.params[name].data, tensor.data)
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        sentence = tuple(["alpha", "the", "beta", "on"][rng.integers(0, 4)] for _ in range(n))
        assert model.predict_labels("tag", sentence) == loaded.predict_labels("tag", sentence)


INITIAL_TENSORS = {
    ("lstm", False): "d78d2483add807c6b39bca817d501b03a05d29b5da006b543b5b5b3397bd402d",
    ("lstm", True): "09f2a162e8d61c115d0a0db79b89f2ed3ec3b10e4c2281c2f529b1f886f3f7d7",
    ("gru", False): "0bdc5692d19bc3cdf2718a780f049d20ada75750af083b1d1d24695fe0c5d19f",
    ("gru", True): "9332958e808718dbce31024b5b6aba95a4af4dd98d6098471dc4b43d5f049824",
    ("simple", False): "e2c5cd0afcc4673cb78ca0bd0fbb01c4f277b55ff315e66f5e85a9376fac3d1d",
    ("simple", True): "628c3bd71f87fd574baafe91bd59a9f87e88cd8b01d2f12c41bdf6e424cc364c",
}


@pytest.mark.parametrize("cell, vectors", list(INITIAL_TENSORS))
def test_initialization_draws_are_unchanged(tmp_path, cell, vectors):
    """The tensors of a freshly drawn model, char path, shortcuts and a
    private layer included, pinned at the sha256 of their float64 values
    as its checkpoint holds them."""
    tag = synthetic_bio_corpus(n_sentences=8, seed=0)
    vocab = vocab_for([tag], {"tag": [tag], "seg": [derive_acs_corpus(tag)]})
    config = NetworkConfig(
        cell=cell,
        shared_layers=[6, 5],
        use_shortcuts=True,
        char=CharConfig(enabled=True, embedding_dim=4, hidden=3),
        tasks=[
            TaskSpec(
                name="tag",
                labels=vocab.labels_of("tag"),
                termination_layer=2,
                head="crf",
                private_layers=[PrivateLayerSpec(units=4)],
            ),
            TaskSpec(name="seg", labels=vocab.labels_of("seg"), termination_layer=1),
        ],
        word_dim=5,
    )
    word_vectors = np.random.default_rng(1).normal(size=(vocab.word_count, 5)) if vectors else None
    save_model(Model(config, vocab, np.random.default_rng(11), word_vectors), tmp_path / "m.ckpt")
    assert tensor_digest(tmp_path / "m.ckpt") == INITIAL_TENSORS[cell, vectors]


def test_checkpoint_load_draws_no_initialization(tmp_path, monkeypatch):
    model, _ = two_task_model(char=CharConfig(enabled=True))
    save_model(model, tmp_path / "model.ckpt")

    def no_generator(*args, **kwargs):
        raise AssertionError("load_model made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    loaded = load_model(tmp_path / "model.ckpt")
    assert list(loaded.params) == list(model.params)
    for name, tensor in model.params.items():
        assert loaded.params[name].data.tobytes() == tensor.data.tobytes()
    # without a generator every tensor starts at zero, but an LSTM's forget gate bias
    blank = Model(model.config, model.vocab, None)
    for name, tensor in blank.params.items():
        assert tensor.data.shape == model.params[name].data.shape
        nonzero = set(np.unique(tensor.data)) - {0.0}
        assert not nonzero or (name.endswith("/b") and nonzero == {1.0}), name


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, bio_corpus, monkeypatch):
    """A disk that fills up while the checkpoint streams out leaves the
    previous file as it was and no temporary file behind."""
    model, _ = small_model(bio_corpus)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    before = path.read_bytes()
    model.params["task/tag/proj/b"].data += 1.0
    with monkeypatch.context() as patch:
        patch.setattr(files, "open", DiskFullFile, raising=False)
        with pytest.raises(OSError):
            save_model(model, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_rejects_corrupt_magic(tmp_path, bio_corpus):
    model, _ = small_model(bio_corpus)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_model(path)


def test_checkpoint_rejects_truncated_payload(tmp_path, bio_corpus):
    model, _ = small_model(bio_corpus)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(CheckpointError):
        load_model(path)


def saved_checkpoint(tmp_path, bio_corpus):
    """The path of a saved small model's checkpoint and its manifest."""
    model, _ = small_model(bio_corpus)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    manifest, _ = files.read_cache(path, MAGIC, VERSION, "checkpoint")
    return path, manifest


def rewrite_manifest(path, manifest):
    reframe_checkpoint(path, lambda blob, _: json.dumps(manifest).encode())


def test_checkpoint_rejects_registry_mismatch(tmp_path, bio_corpus):
    path, manifest = saved_checkpoint(tmp_path, bio_corpus)
    manifest["tensors"] = manifest["tensors"][:-1]  # drop a tensor entry
    rewrite_manifest(path, manifest)
    with pytest.raises(CheckpointError):
        load_model(path)


def test_checkpoint_rejects_a_reordered_registry(tmp_path, bio_corpus):
    """The registry's order fixes where each tensor sits, so the right
    entries in another order are rejected, naming the first that differs."""
    path, manifest = saved_checkpoint(tmp_path, bio_corpus)
    first, second = manifest["tensors"][:2]
    manifest["tensors"][:2] = [second, first]
    rewrite_manifest(path, manifest)
    with pytest.raises(CheckpointError, match=re.escape(f"malformed tensor entry {second!r}")):
        load_model(path)


def test_checkpoint_rejects_non_utf8_manifest(tmp_path, bio_corpus):
    path, _ = saved_checkpoint(tmp_path, bio_corpus)
    reframe_checkpoint(path, lambda blob, _: blob[:4] + b"\xff" + blob[5:])
    with pytest.raises(CheckpointError, match="corrupt checkpoint manifest"):
        load_model(path)


def test_checkpoint_rejects_invalid_json_manifest(tmp_path, bio_corpus):
    path, _ = saved_checkpoint(tmp_path, bio_corpus)
    reframe_checkpoint(path, lambda blob, _: b"[" + blob[1:])  # the opening brace
    with pytest.raises(CheckpointError, match="corrupt checkpoint manifest"):
        load_model(path)


def test_checkpoint_rejects_missing_manifest_key(tmp_path, bio_corpus):
    path, manifest = saved_checkpoint(tmp_path, bio_corpus)
    del manifest["config"]
    rewrite_manifest(path, manifest)
    with pytest.raises(CheckpointError, match="missing key 'config'"):
        load_model(path)


def test_checkpoint_rejects_wrong_manifest_types(tmp_path, bio_corpus):
    path, manifest = saved_checkpoint(tmp_path, bio_corpus)
    for key, bad in (("tensors", "all"), ("payload_bytes", "12"), ("config", [])):
        rewrite_manifest(path, dict(manifest, **{key: bad}))
        with pytest.raises(CheckpointError, match=key):
            load_model(path)
    broken = json.loads(json.dumps(manifest))
    broken["config"]["shared_layers"] = "many"
    rewrite_manifest(path, broken)
    with pytest.raises(CheckpointError, match="bad config"):
        load_model(path)


def test_checkpoint_rejects_non_finite_tensor(tmp_path, bio_corpus):
    path, manifest = saved_checkpoint(tmp_path, bio_corpus)
    names = [entry["name"] for entry in manifest["tensors"]]
    sizes = [int(np.prod(entry["shape"])) for entry in manifest["tensors"]]
    start = sum(sizes[: names.index("shared/1/fwd/U")])

    def poison(blob, values):
        values[start] = np.nan
        return blob

    reframe_checkpoint(path, poison)
    with pytest.raises(CheckpointError, match="'shared/1/fwd/U' holds non-finite"):
        load_model(path)


def test_checkpoint_rejects_label_maps_that_disagree_with_the_config(tmp_path, bio_corpus):
    path, manifest = saved_checkpoint(tmp_path, bio_corpus)
    extra = json.loads(json.dumps(manifest))
    extra["vocab"]["label_index"]["seg"] = {"O": 0}
    swapped = json.loads(json.dumps(manifest))
    index = swapped["vocab"]["label_index"]["tag"]
    first, second = sorted(index, key=index.get)[:2]
    index[first], index[second] = index[second], index[first]
    for broken in (extra, swapped):
        rewrite_manifest(path, broken)
        with pytest.raises(CheckpointError, match="the label maps disagree with the tasks"):
            load_model(path)


def test_checkpoint_truncations_and_bit_flips_are_rejected(tmp_path, capsys):
    """Every truncation and every single-bit flip of a checkpoint fails
    its load with CheckpointError, and ``seqtag predict`` exits 2 with
    one line on a case of each message. The CRC leaves no flip that
    loads, not even one in a word or char key of the vocabulary, which
    only renames an entry."""
    corpus = Corpus(sentences=(("the", "Fox"),), labels={"tag": (("O", "B-X"),)})
    vocab = vocab_for([corpus], {"tag": [corpus]})
    config = NetworkConfig(
        cell="simple",
        shared_layers=[1],
        tasks=[TaskSpec(name="tag", labels=vocab.labels_of("tag"))],
        word_dim=1,
    )
    path = tmp_path / "model.ckpt"
    save_model(Model(config, vocab, np.random.default_rng(0)), path)
    blob = path.read_bytes()
    data = tmp_path / "plain.conll"
    data.write_text("the\nFox\n", encoding="utf-8")
    flips = (
        blob[:i] + bytes([blob[i] ^ 1 << bit]) + blob[i + 1 :]
        for i in range(len(blob))
        for bit in range(8)
    )
    kinds = {}  # a case of each message, numbers left out
    for damaged in itertools.chain((blob[:n] for n in range(len(blob))), flips):
        path.write_bytes(damaged)
        with pytest.raises(CheckpointError) as caught:
            load_model(path)
        kinds.setdefault(re.sub(r"\d+", "N", str(caught.value)), damaged)
    assert len(kinds) > 1
    capsys.readouterr()
    for damaged in kinds.values():
        path.write_bytes(damaged)
        assert main(["predict", "--model", str(path), "--input", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


V1_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v1.ckpt"
V1_SENTENCES = [
    "and and the delta delta delta delta",
    "on and on and a",
    "omega it a delta delta on",
]
V1_LABELS = {
    "tag": [
        ["O", "I-Y", "O", "I-Y", "O", "I-Y", "O"],
        ["O", "I-Y", "O", "B-Y", "B-Z"],
        ["I-Y", "O", "I-Y", "O", "I-Y", "O"],
    ],
    "seg": [
        ["B-Arg", "B-Arg", "O", "B-Arg", "B-Arg", "B-Arg", "B-Arg"],
        ["B-Arg"] * 5,
        ["B-Arg"] * 6,
    ],
}


def test_version_1_checkpoint_loads_bit_identically():
    """A checkpoint in the format before the CRC, written by that
    format's ``save_model``: a CRF task on shared layer 2 and a softmax
    task on layer 1, shortcuts and the char BiLSTM, every tensor drawn
    from N(0, 1). Its tensors, logits and labels equal the values pinned
    when it was written."""
    model = load_model(V1_CHECKPOINT)
    assert tensor_digest(V1_CHECKPOINT) == (
        "00909d3b4e7de6759d2c8fe3f76b13fe0c5db60a19dc11f759b2f07a4ff282cd"
    )
    sentences = [tuple(line.split()) for line in V1_SENTENCES]
    logits = hashlib.sha256()
    for task in ("tag", "seg"):
        for sentence in sentences:
            logits.update(model.forward(task, [sentence], False).data)
        assert [model.predict_labels(task, s) for s in sentences] == V1_LABELS[task]
    assert logits.hexdigest() == "3a0ddf3490f275a4d1cf08873eb8f80863231b5cc27da0a18b61311f0e56c380"


def test_version_1_registry_must_place_the_tensors_back_to_back(tmp_path):
    """A version 1 entry's offset is the sum of the sizes before it, the
    only layout that format's writer produced; any other is rejected."""
    blob = V1_CHECKPOINT.read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    manifest = json.loads(blob[16 : 16 + length])
    manifest["tensors"][1]["offset"] += 8
    edited = json.dumps(manifest).encode()
    path = tmp_path / "v1.ckpt"
    path.write_bytes(blob[:8] + struct.pack("<Q", len(edited)) + edited + blob[16 + length :])
    with pytest.raises(CheckpointError, match="malformed tensor entry"):
        load_model(path)
    path.write_bytes(blob[:-4])
    with pytest.raises(CheckpointError, match="partial float"):
        load_model(path)


def test_checkpoint_load_gives_every_tensor_a_view_of_one_array(tmp_path):
    model, _ = two_task_model(char=CharConfig(enabled=True))
    save_model(model, tmp_path / "model.ckpt")
    loaded = load_model(tmp_path / "model.ckpt")
    values = loaded.params["embed/word"].data.base
    assert values is not None and all(t.data.base is values for t in loaded.params.values())


def test_dev_score_uses_requested_metric(bio_corpus):
    model, _ = small_model(bio_corpus)
    acc = dev_score(model, "tag", bio_corpus, "accuracy")
    f1 = dev_score(model, "tag", bio_corpus, "f1")
    assert 0.0 <= acc <= 1.0
    assert 0.0 <= f1 <= 1.0


def per_sentence_labels(model, task, corpus):
    """One untaped batch-of-one ``forward`` per sentence, which runs the
    sentence's own char BiLSTM batch, decoded as ``predict_labels`` does."""
    head = model._tasks[task]
    labels = []
    with ad.no_grad():
        for sentence in corpus.sentences:
            logits = model.forward(task, [sentence], training=False).data
            if head.spec.head == "crf":
                trans, begin, end = head.transitions.data, head.begin.data, head.end.data
                ids = crf.crf_viterbi(logits, trans, begin, end)
            else:
                ids = np.argmax(logits, axis=1).tolist()
            labels.append([head.spec.labels[i] for i in ids])
    return labels


def scored_labels(monkeypatch, score):
    """The predicted labels that ``score()`` hands to its metrics, and
    the number of char BiLSTM passes it ran."""
    seen, passes = [], []
    token_prf, metric_report, char_features = (
        training.token_prf, experiment.metric_report, network.char_features
    )

    def keep(metric):
        def spy(results, *args, **kwargs):
            seen.append([r.predicted for r in results])
            return metric(results, *args, **kwargs)

        return spy

    monkeypatch.setattr(training, "token_prf", keep(token_prf))
    monkeypatch.setattr(experiment, "metric_report", keep(metric_report))
    monkeypatch.setattr(
        network, "char_features", lambda *args: passes.append(1) or char_features(*args)
    )
    score()
    monkeypatch.undo()
    (labels,) = seen
    return labels, len(passes)


@pytest.mark.parametrize("cell", ["lstm", "gru", "simple"])
def test_dev_scoring_with_chars_labels_as_one_forward_per_sentence(monkeypatch, cell):
    """dev_score and evaluate_model read each word's char row from one
    lookup built in capped passes; their labels are those of a separate
    batch-of-one forward per sentence, for a CRF and a softmax task."""
    model, _ = two_task_model(cell=cell, char=CharConfig(enabled=True, embedding_dim=8, hidden=8))
    corpus = random_word_corpus()
    for task in ("tag", "seg"):
        expected = per_sentence_labels(model, task, corpus)
        assert len({label for labels in expected for label in labels}) > 1
        for score in (
            lambda: dev_score(model, task, corpus, "accuracy"),
            lambda: experiment.evaluate_model(model, corpus, task, EvalConfig()),
        ):
            labels, passes = scored_labels(monkeypatch, score)
            assert labels == expected
            assert passes >= 2


def test_dev_score_rebuilds_the_char_rows_after_a_parameter_change(monkeypatch):
    """No char row outlives its dev_score call: after an optimizer-like
    change of the char table, the next call labels as a fresh
    per-sentence pass does."""
    model, _ = two_task_model(char=CharConfig(enabled=True, embedding_dim=4, hidden=3))
    corpus = random_word_corpus(n_words=60)
    before, _ = scored_labels(monkeypatch, lambda: dev_score(model, "seg", corpus, "accuracy"))
    table = model.params["embed/char"]
    table.data = np.random.default_rng(4).normal(size=table.data.shape)
    after, _ = scored_labels(monkeypatch, lambda: dev_score(model, "seg", corpus, "accuracy"))
    assert after == per_sentence_labels(model, "seg", corpus)
    assert after != before
