import hashlib
from pathlib import Path

import numpy as np
import pytest

from seqtag import autodiff as ad
from seqtag.checkpoint import CheckpointError, load_model, save_model
from seqtag.corpus import Token
from seqtag.exceptions import ConfigError
from seqtag import network
from seqtag.network import (
    CharConfig,
    DropoutConfig,
    Model,
    NetworkConfig,
    PrivateLayerSpec,
    TaskSpec,
)
from seqtag.training import (
    AdamOptimizer,
    EarlyStoppingConfig,
    OptimizerConfig,
    SgdOptimizer,
    TrainConfig,
    clip_global_norm,
    dev_score,
    global_norm,
    subsample,
    train,
)

from conftest import (
    derive_acs_corpus,
    small_model,
    synthetic_bio_corpus,
    two_task_model,
    vocab_for,
    write_half_then_fail,
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


def test_subsample_takes_fraction():
    corpus = synthetic_bio_corpus(n_sentences=10)
    rng = np.random.default_rng(0)
    sub = subsample(corpus, 0.3, rng)
    assert len(sub) == 3
    assert subsample(corpus, 1.0, rng) is corpus


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
        sentence = tuple(
            Token(surface=["alpha", "the", "beta", "on"][rng.integers(0, 4)], labels={})
            for _ in range(n)
        )
        assert model.predict_labels("tag", sentence) == loaded.predict_labels("tag", sentence)


@pytest.mark.parametrize(
    "cell, vectors, digest",
    [
        ("lstm", False, "13e015adbc15b981b93a218518c3a28d7446b2421c455bf6a1e99da9164c58d2"),
        ("lstm", True, "539f946b2bc544fec4b5ee0ffb941ce8ca1d11620800165f2641c73ffd2b1f82"),
        ("gru", False, "fbdae43163bbf626e84859800555bfd643e3529f2198f615abaf0ce0f73bbac9"),
        ("gru", True, "bdabc06b65dfe220a5d5b980e49d9d4abbe05bb8e7073e76732783dd794e03de"),
        ("simple", False, "aa67a12117c3cb86c928ecf363251d0e057619829a603d1a2a149d807bf293ba"),
        ("simple", True, "62b20f7703c09a23a94adb5f565ab7484179da853e52dcc0743ce12d4a627ea0"),
    ],
)
def test_initialization_draws_are_unchanged(tmp_path, cell, vectors, digest):
    """The checkpoint of a freshly drawn model, char path, shortcuts and
    a private layer included, pinned at its sha256."""
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
    assert hashlib.sha256((tmp_path / "m.ckpt").read_bytes()).hexdigest() == digest


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
    model, _ = small_model(bio_corpus)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    before = path.read_bytes()
    model.params["task/tag/proj/b"].data += 1.0
    with monkeypatch.context() as patch:
        patch.setattr(Path, "write_bytes", write_half_then_fail)
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


def test_checkpoint_rejects_registry_mismatch(tmp_path, bio_corpus):
    import json
    import struct

    model, _ = small_model(bio_corpus)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    blob = path.read_bytes()
    (manifest_len,) = struct.unpack("<Q", blob[8:16])
    manifest = json.loads(blob[16 : 16 + manifest_len].decode())
    manifest["tensors"] = manifest["tensors"][:-1]  # drop a tensor entry
    new_manifest = json.dumps(manifest).encode()
    path.write_bytes(
        blob[:8] + struct.pack("<Q", len(new_manifest)) + new_manifest + blob[16 + manifest_len :]
    )
    with pytest.raises(CheckpointError):
        load_model(path)


def saved_checkpoint(tmp_path, bio_corpus):
    import json
    import struct

    model, _ = small_model(bio_corpus)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    blob = path.read_bytes()
    (manifest_len,) = struct.unpack("<Q", blob[8:16])
    manifest = json.loads(blob[16 : 16 + manifest_len].decode())
    return path, blob, manifest_len, manifest


def rewrite_manifest(path, blob, manifest_len, manifest_bytes):
    import struct

    path.write_bytes(
        blob[:8]
        + struct.pack("<Q", len(manifest_bytes))
        + manifest_bytes
        + blob[16 + manifest_len :]
    )


def test_checkpoint_rejects_non_utf8_manifest(tmp_path, bio_corpus):
    path, blob, manifest_len, _ = saved_checkpoint(tmp_path, bio_corpus)
    corrupt = bytearray(blob)
    corrupt[20] = 0xFF
    path.write_bytes(bytes(corrupt))
    with pytest.raises(CheckpointError, match="corrupt checkpoint manifest"):
        load_model(path)


def test_checkpoint_rejects_invalid_json_manifest(tmp_path, bio_corpus):
    path, blob, manifest_len, _ = saved_checkpoint(tmp_path, bio_corpus)
    corrupt = bytearray(blob)
    corrupt[16] = ord("[")  # the opening brace
    path.write_bytes(bytes(corrupt))
    with pytest.raises(CheckpointError, match="corrupt checkpoint manifest"):
        load_model(path)


def test_checkpoint_rejects_missing_manifest_key(tmp_path, bio_corpus):
    import json

    path, blob, manifest_len, manifest = saved_checkpoint(tmp_path, bio_corpus)
    del manifest["config"]
    rewrite_manifest(path, blob, manifest_len, json.dumps(manifest).encode())
    with pytest.raises(CheckpointError, match="missing key 'config'"):
        load_model(path)


def test_checkpoint_rejects_wrong_manifest_types(tmp_path, bio_corpus):
    import json

    path, blob, manifest_len, manifest = saved_checkpoint(tmp_path, bio_corpus)
    for key, bad in (("tensors", "all"), ("payload_bytes", "12"), ("config", [])):
        broken = dict(manifest, **{key: bad})
        rewrite_manifest(path, blob, manifest_len, json.dumps(broken).encode())
        with pytest.raises(CheckpointError, match=key):
            load_model(path)
    broken = json.loads(json.dumps(manifest))
    broken["config"]["shared_layers"] = "many"
    rewrite_manifest(path, blob, manifest_len, json.dumps(broken).encode())
    with pytest.raises(CheckpointError, match="bad config"):
        load_model(path)


def test_checkpoint_rejects_non_finite_tensor(tmp_path, bio_corpus):
    path, blob, manifest_len, manifest = saved_checkpoint(tmp_path, bio_corpus)
    entry = next(e for e in manifest["tensors"] if e["name"] == "shared/1/fwd/U")
    start = 16 + manifest_len + entry["offset"]
    corrupt = bytearray(blob)
    corrupt[start : start + 8] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(corrupt))
    with pytest.raises(CheckpointError, match="'shared/1/fwd/U' holds non-finite"):
        load_model(path)


def test_checkpoint_rejects_label_maps_that_disagree_with_the_config(tmp_path, bio_corpus):
    import json

    path, blob, manifest_len, manifest = saved_checkpoint(tmp_path, bio_corpus)
    extra = json.loads(json.dumps(manifest))
    extra["vocab"]["label_index"]["seg"] = {"O": 0}
    swapped = json.loads(json.dumps(manifest))
    index = swapped["vocab"]["label_index"]["tag"]
    first, second = sorted(index, key=index.get)[:2]
    index[first], index[second] = index[second], index[first]
    for broken in (extra, swapped):
        rewrite_manifest(path, blob, manifest_len, json.dumps(broken).encode())
        with pytest.raises(CheckpointError, match="the label maps disagree with the tasks"):
            load_model(path)


def test_checkpoint_vocabulary_bit_flips_are_rejected_or_harmless(tmp_path):
    """Every single-bit flip of the manifest's vocabulary either fails the
    load with a data error or leaves a model that predicts every task.
    A flip inside a word or char key can still load: it renames an entry."""
    import json
    import struct

    from seqtag.corpus import Corpus
    from seqtag.exceptions import DataError

    sentence = (Token("the", {"tag": "O", "seg": "O"}), Token("Fox", {"tag": "B-X", "seg": "B"}))
    corpus = Corpus(sentences=(sentence,), tasks=("tag", "seg"))
    vocab = vocab_for([corpus], {"tag": [corpus], "seg": [corpus]})
    config = NetworkConfig(
        cell="gru",
        shared_layers=[2],
        char=CharConfig(enabled=True, embedding_dim=2, hidden=2),
        dropout=DropoutConfig(),
        tasks=[
            TaskSpec(name="tag", labels=vocab.labels_of("tag")),
            TaskSpec(name="seg", labels=vocab.labels_of("seg"), head="crf"),
        ],
        word_dim=2,
    )
    path = tmp_path / "model.ckpt"
    save_model(Model(config, vocab, np.random.default_rng(0)), path)
    blob = path.read_bytes()
    (manifest_len,) = struct.unpack("<Q", blob[8:16])
    vocab_bytes = json.dumps({"vocab": vocab.to_json()})[1:-1].encode("utf-8")
    start = blob.index(vocab_bytes, 16, 16 + manifest_len)
    loaded = rejected = 0
    for i in range(start, start + len(vocab_bytes)):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[i] ^= 1 << bit
            path.write_bytes(bytes(flipped))
            try:
                model = load_model(path)
            except DataError:
                rejected += 1
                continue
            for task in ("tag", "seg"):
                assert len(model.predict_labels(task, sentence)) == 2
            loaded += 1
    assert loaded and rejected


def test_dev_score_uses_requested_metric(bio_corpus):
    model, _ = small_model(bio_corpus)
    acc = dev_score(model, "tag", bio_corpus, "accuracy")
    f1 = dev_score(model, "tag", bio_corpus, "f1")
    assert 0.0 <= acc <= 1.0
    assert 0.0 <= f1 <= 1.0
