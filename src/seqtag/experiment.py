"""Wiring between configuration, data, model, training, and metrics.

This module owns the run lifecycle: load and cache corpora, build the
vocabulary and embedding matrix, construct the model from one seeded
PRNG stream, train, and evaluate with the configured metric set and
post-processing variant.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np

from seqtag.config import EvalConfig, RunConfig
from seqtag.corpus import (
    Corpus,
    Vocabulary,
    build_char_index,
    build_label_index,
    load_corpus_cached,
)
from seqtag.embeddings import build_embedding_set, prune_embeddings, save_embedding_file
from seqtag.exceptions import ConfigError, DataError
from seqtag.labels import (
    TO_BEGIN,
    TO_OUTSIDE,
    am_postprocess,
    correct_bio,
    parse_am_sequence,
    parse_bio_sequence,
)
from seqtag.metrics import METRICS, SentenceResult
from seqtag.metrics import token_prf  # noqa: F401 -- perfbench wraps experiment.token_prf
from seqtag.network import Model
from seqtag.training import TrainResult, dev_score, predict_results, subsample, train


def data_key(config: RunConfig) -> tuple:
    """What an ``ExperimentData`` build reads of a run configuration: each
    task's files and columns, and the embedding files. Runs with equal
    keys can share one build; ``train_fraction`` is applied per run."""
    files = tuple(
        (tf.name, tf.train, tf.dev, tf.test, tf.token_column, tf.label_column)
        for tf in config.task_files
    )
    return files, tuple(config.embeddings.files)


class ExperimentData:
    """Loaded corpora plus the artifacts derived from them.

    A build depends only on ``data_key(config)`` and keeps no reference to
    the config; ``configure`` writes what the data determines into a run's
    config.
    """

    def __init__(self, config: RunConfig, cache_dir: str | None = None):
        self.train: dict[str, Corpus] = {}
        self.dev: dict[str, Corpus] = {}
        self.test: dict[str, Corpus] = {}
        splits = (self.train, self.dev, self.test)
        for tf in config.task_files:
            cols = {tf.name: tf.label_column}
            for split, path in zip(splits, (tf.train, tf.dev, tf.test)):
                if path:
                    split[tf.name] = load_corpus_cached(path, tf.token_column, cols, cache_dir)

        all_corpora = [*self.train.values(), *self.dev.values(), *self.test.values()]
        if not all_corpora:
            raise ConfigError("no input files configured")
        self.vocab = Vocabulary()
        self.word_matrix: np.ndarray | None = None
        if config.embeddings.files:
            emb = build_embedding_set(config.embeddings.files, cache_dir)
            emb = prune_embeddings(emb, all_corpora)
            rows = [self.vocab.add_word(word) for word in emb.words]
            self.word_matrix = np.zeros((self.vocab.word_count, emb.dim))
            self.word_matrix[rows] = emb.matrix
            self.pruned_embeddings = emb
        else:
            for corpus in self.train.values():
                for surface in sorted(corpus.surfaces()):
                    self.vocab.add_word(surface)
            self.pruned_embeddings = None
        self.vocab.char_index = build_char_index(all_corpora)

        for tf in config.task_files:
            corpora = [split[tf.name] for split in splits if tf.name in split]
            if not corpora:
                raise ConfigError(f"task {tf.name!r} has no input files")
            self.vocab.label_index[tf.name] = build_label_index(corpora, tf.name)
        self.configure(config)

    def configure(self, config: RunConfig) -> None:
        """Write the embedding dimension and each task's label inventory
        into ``config``, then validate its network."""
        if self.word_matrix is not None:
            config.network.word_dim = self.word_matrix.shape[1]
        for task in config.network.tasks:
            task.labels = self.vocab.labels_of(task.name)
        config.network.validate()

    def save_pruned_embeddings(self, path: str | Path) -> None:
        if self.pruned_embeddings is not None:
            save_embedding_file(self.pruned_embeddings, path)


def build_model(config: RunConfig, data: ExperimentData, rng: np.random.Generator) -> Model:
    return Model(config.network, data.vocab, rng, word_vectors=data.word_matrix)


def run_training(
    config: RunConfig,
    data: ExperimentData | None = None,
    checkpoint_path: str | None = None,
    log: Callable[[str], None] | None = None,
    cache_dir: str | None = None,
) -> tuple[Model, TrainResult]:
    """Set up and train one model from a run configuration.

    One PRNG stream seeded with ``training.seed`` drives, in order:
    parameter initialization, training-fraction subsampling, per-epoch
    shuffling, and dropout masks. A ``data`` passed in may be shared with
    other runs of the same ``data_key``; it is read, never changed.
    """
    if data is None:
        data = ExperimentData(config, cache_dir=cache_dir)
    else:
        data.configure(config)
    if cache_dir is not None and data.pruned_embeddings is not None:
        data.save_pruned_embeddings(Path(cache_dir) / "embeddings.pruned.txt")
    rng = np.random.default_rng(config.training.seed)
    model = build_model(config, data, rng)
    train_corpora = {}
    for tf in config.task_files:
        if tf.name not in data.train:
            raise ConfigError(f"task {tf.name!r} has no training file")
        corpus = data.train[tf.name]
        if tf.train_fraction < 1.0:
            corpus = subsample(corpus, tf.train_fraction, rng)
        train_corpora[tf.name] = corpus
    result = train(
        model,
        train_corpora,
        data.dev,
        config.training,
        rng,
        checkpoint_path=checkpoint_path,
        log=log,
    )
    return model, result


# -- prediction post-processing ------------------------------------------------------


def postprocess_labels(labels: list[str], variant: str) -> list[str]:
    """Apply one repair variant to a predicted label sequence."""
    if variant == "none":
        return list(labels)
    if variant in (TO_OUTSIDE, TO_BEGIN):
        return [l.render() for l in correct_bio(parse_bio_sequence(labels), variant)]
    if variant == "am":
        return [l.render() for l in am_postprocess(parse_am_sequence(labels))]
    raise ConfigError(f"unknown post-processing variant {variant!r}")


def postprocess_results(results: list[SentenceResult], variant: str) -> list[SentenceResult]:
    if variant == "none":
        return results
    return [SentenceResult(s.gold, postprocess_labels(s.predicted, variant)) for s in results]


# -- metric reports ----------------------------------------------------------------------


def metric_report(
    results: list[SentenceResult],
    metrics: list[str],
    evaluation: EvalConfig,
    labels: list[str] | None,
) -> dict[str, float]:
    """The requested metrics over one task's results, computed in table
    order: of two failing metrics, the one ``METRICS`` lists first reports."""
    return {name: f(results, labels, evaluation) for name, f in METRICS.items() if name in metrics}


def evaluate_model(
    model: Model,
    corpus: Corpus,
    task: str,
    evaluation: EvalConfig,
    metrics: list[str] | None = None,
) -> dict[str, float]:
    results = postprocess_results(predict_results(model, task, corpus), evaluation.postprocess)
    names = metrics if metrics is not None else evaluation.metrics
    return metric_report(results, names, evaluation, model.vocab.labels_of(task))


def search_score(config: RunConfig, result: TrainResult, model: Model, data) -> float:
    """Development score a hyper-parameter trial is ranked by."""
    if result.best_metric is not None:
        return result.best_metric
    main = config.training.main_task
    if main not in data.dev:
        raise DataError(
            f"main task {main!r} needs a dev file to score hyper-parameter trials"
        )
    return dev_score(model, main, data.dev[main], "accuracy")
