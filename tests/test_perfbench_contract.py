"""The benchmark wraps the program's public functions at their module
and class attributes. Installing its wrappers here makes a rename or a
removal of a wrapped function fail this suite, not a traced benchmark
run."""

import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers, workloads  # noqa: E402
from perfbench.trace import Patches, Tracer  # noqa: E402

from seqtag import autodiff as ad  # noqa: E402
from seqtag import crf, experiment, training  # noqa: E402
from seqtag.checkpoint import save_model  # noqa: E402
from seqtag.cli import main  # noqa: E402
from seqtag.config import CharConfig, build_run_config  # noqa: E402
from seqtag.corpus import parse_conll  # noqa: E402
from seqtag.embeddings import EmbeddingSet  # noqa: E402

from conftest import two_task_model  # noqa: E402


def test_benchmark_wrappers_install_and_restore():
    patches = Patches()
    tracer = Tracer()
    originals = {}
    try:
        layers.install(tracer, patches)
        workloads.Probe().install(patches)
        for owner, attr, fn in patches._undo:  # the first wrap of an attribute holds its original
            originals.setdefault((id(owner), attr), (owner, attr, fn))
        # the training loss reaches the CRF forward algorithm through the
        # wrapped module attribute, so crf.log_z is measured in training
        params = [ad.parameter(np.zeros(shape)) for shape in ((3, 2), (2, 2), (2,), (2,))]
        crf.crf_nll(*params, [0, 1, 1]).backward()
        # the embeddings.kept_ratio hook takes len() of the offered and the kept set
        emb = EmbeddingSet(["fox", "zebra"], np.zeros((2, 3)))
        experiment.prune_embeddings(emb, [parse_conll("Fox\tX\n", 0, {"t": 1})])
    finally:
        patches.restore()
    assert originals
    assert [s.name for s in tracer.spans].count("crf.log_z") == 1
    assert [s.name for s in tracer.spans].count("embeddings.prune") == 1
    assert (tracer.counters["embeddings.offered"], tracer.counters["embeddings.kept"]) == (2, 1)
    for owner, attr, fn in originals.values():
        assert getattr(owner, attr) is fn, attr


def test_a_cold_build_loads_and_prunes_through_the_wrapped_names_and_a_warm_one_does_not(
    tmp_path,
):
    """embeddings.load_s, embeddings.prune_s and embeddings.kept_ratio
    come from the experiment module's build_embedding_set and
    prune_embeddings: a miss of the derived cache of the pruned set calls
    both once, and a hit neither, inside the experiment.data span."""
    train = tmp_path / "train.conll"
    train.write_text("Fox\tX\njumps\tO\n", encoding="utf-8")
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("fox 1 2\nzebra 3 4\n", encoding="utf-8")
    config = build_run_config(
        {
            "training": {"main_task": "t"},
            "tasks": [{"name": "t", "train": str(train)}],
            "embeddings": {"files": [str(vectors)]},
            "architecture": {"cell": "simple", "shared_layers": [2]},
        }
    )
    counts = []
    for _ in range(2):
        patches, tracer = Patches(), Tracer()
        try:
            layers.install(tracer, patches)
            experiment.ExperimentData(config, cache_dir=str(tmp_path / "cache"))
        finally:
            patches.restore()
        names = [s.name for s in tracer.spans]
        assert names.count("experiment.data") == 1
        spans = [names.count(n) for n in ("embeddings.load", "embeddings.prune")]
        counts.append((*spans, tracer.counters["embeddings.kept"]))
    assert counts == [(1, 1, 1), (0, 0, 0)]  # the one kept word is "fox"


def test_predict_records_one_latency_sample_per_sentence_and_task(tmp_path):
    """perfbench's sentence_ms_* samples are the Model.predict_labels
    calls; a predict path that skipped them would leave none."""
    model, corpus = two_task_model()
    checkpoint = tmp_path / "model.ckpt"
    save_model(model, checkpoint)
    sentences = corpus.sentences[:3]
    data = tmp_path / "in.conll"
    data.write_text("\n\n".join("\n".join(s) for s in sentences) + "\n")
    probe, patches = workloads.Probe(), Patches()
    try:
        probe.install(patches)
        argv = ["predict", "--model", str(checkpoint), "--input", str(data)]
        assert main([*argv, "--output", str(tmp_path / "out.conll")]) == 0
    finally:
        patches.restore()
    assert len(probe.predictions) == len(sentences) * len(model.config.tasks)
    assert len(probe.loads) == 1


def test_dev_score_with_chars_records_one_latency_sample_per_dev_sentence():
    """On the train workloads the sentence_ms_* samples are dev_score's
    Model.predict_labels calls: with the char BiLSTM on, still one per
    dev sentence, though the char rows are built once per call."""
    model, corpus = two_task_model(char=CharConfig(enabled=True, embedding_dim=4, hidden=3))
    probe, patches = workloads.Probe(), Patches()
    try:
        probe.install(patches)
        training.dev_score(model, "tag", corpus, "accuracy")
    finally:
        patches.restore()
    assert len(probe.predictions) == len(corpus.sentences)


def test_the_benchmark_suite_passes():
    """perfbench's own tests, run from the repository root as its README
    says: collected together with this suite their conftest files
    clash, so they run in a process of their own."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
