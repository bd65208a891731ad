import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqtag import embeddings, experiment
from seqtag.config import EvalConfig, build_run_config
from seqtag.corpus import corpus_to_conll, parse_conll
from seqtag.exceptions import DataError
from seqtag.experiment import (
    ExperimentData,
    evaluate_model,
    metric_report,
    postprocess_labels,
    run_training,
)
from seqtag.metrics import SentenceResult

from conftest import synthetic_bio_corpus, two_task_model


def am_conll():
    rows = [
        ("Since", "O"),
        ("it", "B:P:1:Supp"),
        ("killed", "I:P:1:Supp"),
        ("lives", "I:P:1:Supp"),
        ("tourism", "B:C:⊥:For"),
        ("threatened", "I:C:⊥:For"),
        (".", "O"),
    ]
    return "\n".join(f"{w}\t{l}" for w, l in rows) + "\n"


@pytest.fixture
def embedded_workspace(tmp_path):
    corpus = synthetic_bio_corpus(n_sentences=10, seed=8)
    train = tmp_path / "train.conll"
    train.write_text(corpus_to_conll(corpus), encoding="utf-8")
    words = sorted(corpus.surfaces())
    e1 = tmp_path / "e1.txt"
    e1.write_text("".join(f"{w} 0.1 0.2\n" for w in words + ["extra"]), encoding="utf-8")
    e2 = tmp_path / "e2.txt"
    e2.write_text("".join(f"{w} -0.3\n" for w in words), encoding="utf-8")
    raw = {
        "training": {"epochs": 1, "batch_size": 4, "seed": 0, "main_task": "tag"},
        "tasks": [{"name": "tag", "train": str(train)}],
        "embeddings": {"files": [str(e1), str(e2)]},
        "architecture": {"cell": "simple", "shared_layers": [4]},
    }
    return tmp_path, raw


def test_pretrained_embeddings_intersected_and_pruned(embedded_workspace):
    _, raw = embedded_workspace
    config = build_run_config(raw)
    data = ExperimentData(config)
    # concatenated dimension 2 + 1, "extra" pruned away
    assert config.network.word_dim == 3
    assert "extra" not in data.vocab.word_index
    assert data.word_matrix.shape[1] == 3
    row = data.word_matrix[data.vocab.word_index["alpha"]]
    assert np.allclose(row, [0.1, 0.2, -0.3])


def test_run_training_with_embeddings_persists_pruned_file(embedded_workspace, tmp_path):
    _, raw = embedded_workspace
    config = build_run_config(raw)
    cache = tmp_path / "cache"
    model, result = run_training(config, cache_dir=str(cache))
    assert (cache / "embeddings.pruned.txt").exists()
    assert len(result.records) == 1
    # model predicts with the pretrained dimensionality
    corpus = synthetic_bio_corpus(n_sentences=2, seed=9)
    labels = model.predict_labels("tag", corpus.sentences[0])
    assert len(labels) == len(corpus.sentences[0])


def test_frozen_embedding_rows_unchanged_after_training(embedded_workspace, tmp_path):
    _, raw = embedded_workspace
    raw["embeddings"]["fine_tune"] = False
    raw["training"]["epochs"] = 2
    config = build_run_config(raw)
    data = ExperimentData(config)
    before = data.word_matrix.copy()
    model, _ = run_training(config, data=data)
    after = model.params["embed/word"].data
    # unk row is redrawn at init; all proper word rows stay put
    assert np.array_equal(after[2:], before[2:])


# -- the derived cache of the pruned set --------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """The names of the embedding builds that run, in order: a miss of the
    derived cache calls them as module attributes of ``experiment``."""
    calls = []
    for name in ("build_embedding_set", "prune_embeddings"):

        def spy(*args, _fn=getattr(experiment, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(experiment, name, spy)
    return calls


REBUILD = ["build_embedding_set", "prune_embeddings"]


def snapshot(data):
    emb = data.pruned_embeddings
    return emb.words, emb.matrix.tobytes(), data.word_matrix.tobytes(), data.vocab.word_index


@pytest.mark.parametrize("n_files", [1, 2], ids=["one_file", "two_files"])
def test_a_warm_build_reads_the_pruned_set_back_bit_for_bit(embedded_workspace, builds, n_files):
    tmp_path, raw = embedded_workspace
    raw["embeddings"]["files"] = raw["embeddings"]["files"][:n_files]
    plain = snapshot(ExperimentData(build_run_config(raw)))
    cache = tmp_path / "cache"
    builds.clear()
    cold = ExperimentData(build_run_config(raw), cache_dir=str(cache))
    assert builds == REBUILD
    builds.clear()
    warm = ExperimentData(build_run_config(raw), cache_dir=str(cache))
    assert builds == []
    assert snapshot(cold) == snapshot(warm) == plain
    assert "extra" not in warm.pruned_embeddings.words
    (derived,) = cache.glob("*.pruned")  # one derived file per file list
    assert derived.name.startswith("e1.txt.")
    assert len(list(cache.glob("*.emb"))) == n_files


def test_a_miss_of_the_derived_cache_hashes_each_file_once(embedded_workspace, monkeypatch):
    """The fingerprints that key the derived cache also key the per-file caches."""
    tmp_path, raw = embedded_workspace
    hashed = []
    fingerprint = embeddings.file_fingerprint
    monkeypatch.setattr(embeddings, "file_fingerprint", lambda p: hashed.append(p) or fingerprint(p))
    cache = str(tmp_path / "cache")
    cold = snapshot(ExperimentData(build_run_config(raw), cache_dir=cache))
    assert [p.name for p in hashed] == ["e1.txt", "e2.txt"]
    _keep_the_first_training_sentence(tmp_path)  # a miss with warm .emb caches
    hashed.clear()
    miss = snapshot(ExperimentData(build_run_config(raw), cache_dir=cache))
    assert [p.name for p in hashed] == ["e1.txt", "e2.txt"]
    assert miss == snapshot(ExperimentData(build_run_config(raw)))
    assert cold != miss


def _edit_an_embedding_file_to_the_same_size(tmp_path):
    e1 = tmp_path / "e1.txt"
    text = e1.read_text(encoding="utf-8")
    e1.write_text(text.replace(" 0.2\n", " 0.3\n", 1), encoding="utf-8")
    assert len(e1.read_text(encoding="utf-8")) == len(text)


def _keep_the_first_training_sentence(tmp_path):
    train = tmp_path / "train.conll"
    train.write_text(train.read_text(encoding="utf-8").split("\n\n")[0] + "\n", encoding="utf-8")


def _flip_a_bit_of_the_derived_file(tmp_path):
    (derived,) = (tmp_path / "cache").glob("*.pruned")
    blob = bytearray(derived.read_bytes())
    blob[-1] ^= 0x01
    derived.write_bytes(bytes(blob))


@pytest.mark.parametrize(
    "change",
    [
        _edit_an_embedding_file_to_the_same_size,
        _keep_the_first_training_sentence,
        _flip_a_bit_of_the_derived_file,
    ],
    ids=["embedding_file_of_equal_size", "corpus", "derived_file_crc"],
)
def test_the_derived_cache_is_rebuilt_when_what_it_was_made_from_changes(
    embedded_workspace, builds, change
):
    tmp_path, raw = embedded_workspace
    cache = str(tmp_path / "cache")
    before = snapshot(ExperimentData(build_run_config(raw), cache_dir=cache))
    change(tmp_path)
    builds.clear()
    rebuilt = ExperimentData(build_run_config(raw), cache_dir=cache)
    assert builds == REBUILD
    assert snapshot(rebuilt) == snapshot(ExperimentData(build_run_config(raw)))
    assert (snapshot(rebuilt) == before) == (change is _flip_a_bit_of_the_derived_file)
    builds.clear()
    assert snapshot(ExperimentData(build_run_config(raw), cache_dir=cache)) == snapshot(rebuilt)
    assert builds == []


# -- the stat records that stand in for hashing -------------------------------------


@pytest.fixture
def hashed(monkeypatch):
    """The names of the embedding files hashed for the derived cache, in order."""
    names, fingerprint = [], embeddings.file_fingerprint
    monkeypatch.setattr(
        embeddings, "file_fingerprint", lambda p: names.append(p.name) or fingerprint(p)
    )
    return names


@pytest.fixture
def pruned_writes(monkeypatch):
    """The writes of the derived file, one entry each."""
    writes, write = [], embeddings.write_embedding_cache

    def spy(path, *args):
        if path.suffix == ".pruned":
            writes.append(path.name)
        return write(path, *args)

    monkeypatch.setattr(embeddings, "write_embedding_cache", spy)
    return writes


def _set_the_clock(monkeypatch, tmp_path, seconds):
    """The derived cache's clock reads ``seconds`` after the embedding files' last change."""
    stats = [p.stat() for p in tmp_path.glob("e*.txt")]
    last = max(max(st.st_mtime_ns, st.st_ctime_ns) for st in stats)
    monkeypatch.setattr(embeddings, "time_ns", lambda: last + int(seconds * 1e9))


def test_a_warm_build_with_settled_records_hashes_no_file(
    embedded_workspace, builds, hashed, monkeypatch
):
    monkeypatch.setattr(embeddings, "RACY_WINDOW_NS", 0)
    tmp_path, raw = embedded_workspace
    cache = tmp_path / "cache"
    cold = snapshot(ExperimentData(build_run_config(raw), cache_dir=str(cache)))
    (derived,) = cache.glob("*.pruned")
    _, source = embeddings.read_embedding_cache(derived)
    st = (tmp_path / "e2.txt").stat()
    assert source["stat"][1]["stat"] == [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino]
    hashed.clear()
    builds.clear()
    warm = snapshot(ExperimentData(build_run_config(raw), cache_dir=str(cache)))
    assert hashed == [] and builds == []
    assert warm == cold == snapshot(ExperimentData(build_run_config(raw)))


def _edit_in_place_and_restore_the_mtime(tmp_path):
    e1 = tmp_path / "e1.txt"
    before = e1.stat()
    _edit_an_embedding_file_to_the_same_size(tmp_path)
    os.utime(e1, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = e1.stat()
    assert [after.st_size, after.st_mtime_ns, after.st_ino] == [
        before.st_size,
        before.st_mtime_ns,
        before.st_ino,
    ]
    assert after.st_ctime_ns != before.st_ctime_ns


def _replace_by_a_new_file_of_the_same_size_and_mtime(tmp_path):
    e1, new = tmp_path / "e1.txt", tmp_path / "new.txt"
    before = e1.stat()
    new.write_text(e1.read_text(encoding="utf-8").replace(" 0.2\n", " 0.3\n", 1), encoding="utf-8")
    os.utime(new, ns=(before.st_atime_ns, before.st_mtime_ns))
    os.replace(new, e1)
    after = e1.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert after.st_ino != before.st_ino


@pytest.mark.parametrize(
    "change",
    [_edit_in_place_and_restore_the_mtime, _replace_by_a_new_file_of_the_same_size_and_mtime],
    ids=["new_ctime", "new_inode"],
)
def test_a_settled_record_is_not_trusted_once_the_stat_differs(
    embedded_workspace, builds, hashed, monkeypatch, change
):
    monkeypatch.setattr(embeddings, "RACY_WINDOW_NS", 0)
    tmp_path, raw = embedded_workspace
    cache = str(tmp_path / "cache")
    before = snapshot(ExperimentData(build_run_config(raw), cache_dir=cache))
    change(tmp_path)
    hashed.clear()
    builds.clear()
    rebuilt = snapshot(ExperimentData(build_run_config(raw), cache_dir=cache))
    assert hashed == ["e1.txt"] and builds == REBUILD
    assert before != rebuilt == snapshot(ExperimentData(build_run_config(raw)))


def _drop_the_stat_records(cache):
    (derived,) = cache.glob("*.pruned")
    emb, source = embeddings.read_embedding_cache(derived)
    del source["stat"]
    embeddings.write_embedding_cache(derived, emb, source)


@pytest.mark.parametrize(
    "record",
    [lambda cache: None, _drop_the_stat_records],
    ids=["racy_record", "header_without_records"],
)
def test_a_record_is_hashed_until_a_build_after_the_window_renews_it(
    embedded_workspace, builds, hashed, pruned_writes, monkeypatch, record
):
    tmp_path, raw = embedded_workspace
    cache = tmp_path / "cache"
    _set_the_clock(monkeypatch, tmp_path, 0.01)
    cold = snapshot(ExperimentData(build_run_config(raw), cache_dir=str(cache)))
    record(cache)
    seen = []
    for seconds in (1, 3, 3):  # the window is 2 s
        _set_the_clock(monkeypatch, tmp_path, seconds)
        hashed.clear()
        pruned_writes.clear()
        assert snapshot(ExperimentData(build_run_config(raw), cache_dir=str(cache))) == cold
        seen.append((list(hashed), len(pruned_writes)))
    both = ["e1.txt", "e2.txt"]
    assert seen == [(both, 0), (both, 1), ([], 0)]
    assert builds == REBUILD  # the cold build's only


def test_a_failed_rewrite_still_returns_the_hit(embedded_workspace, builds, monkeypatch):
    tmp_path, raw = embedded_workspace
    cache = str(tmp_path / "cache")
    _set_the_clock(monkeypatch, tmp_path, 0.01)
    cold = snapshot(ExperimentData(build_run_config(raw), cache_dir=cache))
    tried = []

    def read_only(path, *args):
        tried.append(path.suffix)
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

    monkeypatch.setattr(embeddings, "write_embedding_cache", read_only)
    _set_the_clock(monkeypatch, tmp_path, 3)
    builds.clear()
    assert snapshot(ExperimentData(build_run_config(raw), cache_dir=cache)) == cold
    assert builds == [] and tried == [".pruned"]


def test_a_miss_with_settled_records_hashes_and_parses_no_embedding_file(
    embedded_workspace, builds, hashed, monkeypatch
):
    monkeypatch.setattr(embeddings, "RACY_WINDOW_NS", 0)
    tmp_path, raw = embedded_workspace
    cache = str(tmp_path / "cache")
    ExperimentData(build_run_config(raw), cache_dir=cache)
    _keep_the_first_training_sentence(tmp_path)
    parsed, load = [], embeddings.load_embedding_file
    monkeypatch.setattr(embeddings, "load_embedding_file", lambda p: parsed.append(p) or load(p))
    hashed.clear()
    builds.clear()
    miss = snapshot(ExperimentData(build_run_config(raw), cache_dir=cache))
    assert builds == REBUILD and hashed == [] and parsed == []
    assert miss == snapshot(ExperimentData(build_run_config(raw)))


WARM_BUILD = """
import json, sys
from seqtag import experiment
from seqtag.config import build_run_config
pruned, prune = [], experiment.prune_embeddings
experiment.prune_embeddings = lambda *args: pruned.append(1) or prune(*args)
data = experiment.ExperimentData(build_run_config(json.loads(sys.argv[1])), cache_dir=sys.argv[2])
print(json.dumps([bool(pruned), data.pruned_embeddings.words]))
"""


def test_builds_at_different_hash_seeds_share_one_derived_file(embedded_workspace):
    tmp_path, raw = embedded_workspace
    path = str(Path(__file__).resolve().parents[1] / "src")
    cache = tmp_path / "cache"
    runs = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", WARM_BUILD, json.dumps(raw), str(cache)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    assert [rebuilt for rebuilt, _ in runs] == [True, False]
    assert runs[0][1] == runs[1][1] == ExperimentData(build_run_config(raw)).pruned_embeddings.words
    assert len(list(cache.glob("*.pruned"))) == 1


def test_postprocess_labels_variants():
    assert postprocess_labels(["O", "I-X"], "to_begin") == ["O", "B-X"]
    assert postprocess_labels(["O", "I-X"], "to_outside") == ["O", "O"]
    fixed = postprocess_labels(["O", "I:P:1:Supp", "B:C:⊥:For"], "am")
    assert fixed[1] == "B:P:1:Supp"
    assert postprocess_labels(["O"], "none") == ["O"]


def test_metric_report_g2p_strips_symbols():
    results = [
        # aligned gold/pred for one word; prediction differs by one phoneme
        SentenceResult(["E", "g_z", "ε", "t"], ["E", "g_z", "ε", "d"]),
        SentenceResult(["A", "B"], ["A", "B"]),
    ]
    evaluation = EvalConfig(
        metrics=["wacc", "edit_distance_mean", "edit_distance_median"],
        empty_symbol="ε",
        join_symbol="_",
    )
    report = metric_report(results, evaluation, None)
    assert report["wacc"] == pytest.approx(0.5)
    # "E g z t" vs "E g z d": one substitution
    assert report["edit_distance_mean"] == pytest.approx(0.5)
    assert report["edit_distance_median"] == pytest.approx(0.5)


def test_metric_report_makes_one_token_prf_pass(monkeypatch):
    """The four token metrics come from one ``token_prf`` call, with the
    values that call returns."""
    import seqtag.experiment
    import seqtag.metrics
    from seqtag.metrics import token_prf

    results = [
        SentenceResult(["O", "O", "B", "I", "O"], ["O", "B", "B", "O", "O"]),
        SentenceResult(["B", "I"], ["B", "I"]),
    ]
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return token_prf(*args, **kwargs)

    monkeypatch.setattr(seqtag.metrics, "token_prf", spy)
    monkeypatch.setattr(seqtag.experiment, "token_prf", spy)
    names = ["accuracy", "precision", "recall", "f1"]
    report = metric_report(results, EvalConfig(metrics=names), ["B", "I", "O"])
    assert len(calls) == 1
    assert report == {name: token_prf(results, ["B", "I", "O"])[name] for name in names}
    assert len(set(report.values())) == 4  # the fixture tells the four fields apart


def test_evaluate_model_am_metrics_on_fixture(tmp_path):
    from seqtag.corpus import parse_conll

    corpus = parse_conll(am_conll(), 0, {"am": 1})
    raw = {
        "training": {"epochs": 1, "batch_size": 2, "seed": 0, "main_task": "am"},
        "tasks": [{"name": "am", "train": "unused", "head": "softmax"}],
        "architecture": {"cell": "simple", "shared_layers": [4]},
        "embeddings": {"word_dim": 4},
        "evaluation": {"postprocess": "am", "metrics": ["c_f1_50", "r_f1_100"]},
    }
    train_file = tmp_path / "am.conll"
    train_file.write_text(am_conll(), encoding="utf-8")
    raw["tasks"][0]["train"] = str(train_file)
    config = build_run_config(raw)
    model, _ = run_training(config)
    report = evaluate_model(model, corpus, "am", config.evaluation)
    assert set(report.keys()) == {"c_f1_50", "r_f1_100"}
    assert 0.0 <= report["c_f1_50"] <= 1.0


def test_evaluate_model_on_a_corpus_without_the_task_labels_is_data_error():
    """A corpus read without the task's label column has no gold labels
    to score against: a DataError naming the task, not a score of 0."""
    model, corpus = two_task_model()
    unlabeled = parse_conll(corpus_to_conll(corpus, tasks=()), 0, {})
    assert len(unlabeled) == len(corpus)
    for task, data in (("tag", unlabeled), ("seg", corpus)):
        with pytest.raises(DataError, match=f"no gold labels of task '{task}'"):
            evaluate_model(model, data, task, EvalConfig(metrics=["accuracy"]))


def test_search_score_requires_dev_data(embedded_workspace):
    _, raw = embedded_workspace
    config = build_run_config(raw)
    data = ExperimentData(config)
    model, result = run_training(config, data=data)
    from seqtag.exceptions import DataError
    from seqtag.experiment import search_score

    with pytest.raises(DataError):
        search_score(config, result, model, data)
