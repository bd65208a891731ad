import numpy as np
import pytest

from seqtag.config import EvalConfig, build_run_config
from seqtag.corpus import corpus_to_conll
from seqtag.experiment import (
    ExperimentData,
    evaluate_model,
    metric_report,
    postprocess_labels,
    run_training,
)
from seqtag.metrics import SentenceResult

from conftest import synthetic_bio_corpus


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
    evaluation = EvalConfig(empty_symbol="ε", join_symbol="_")
    report = metric_report(
        results, ["wacc", "edit_distance_mean", "edit_distance_median"], evaluation, None
    )
    assert report["wacc"] == pytest.approx(0.5)
    # "E g z t" vs "E g z d": one substitution
    assert report["edit_distance_mean"] == pytest.approx(0.5)
    assert report["edit_distance_median"] == pytest.approx(0.5)


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


def test_search_score_requires_dev_data(embedded_workspace):
    _, raw = embedded_workspace
    config = build_run_config(raw)
    data = ExperimentData(config)
    model, result = run_training(config, data=data)
    from seqtag.exceptions import DataError
    from seqtag.experiment import search_score

    with pytest.raises(DataError):
        search_score(config, result, model, data)
