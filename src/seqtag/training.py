"""Multi-task training: batching, interleaving, clipping, optimizers,
early stopping.

Every epoch, each task contributes all of its batches over its own
shuffled training data, grouped by sentence length when a batch holds
more than one sentence, so that a batch's padded graph runs few steps
(``plan_batches``); the combined (task, batch) list is shuffled again
and processed sequentially. A batch backpropagates only its own
task's loss, and a batch updates the parameters its graph reached: the
shared layers up to the task's termination layer and the task's own
head. A batch is one padded graph (``Model.batch_loss``) over its
sentences and gold labels; its loss is their mean loss. One PRNG
stream (also used for parameter init and dropout masks) drives the
run, which makes it bit-for-bit reproducible from the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from seqtag import autodiff as ad
from seqtag import checkpoint as ckpt
from seqtag.config import OptimizerConfig, TrainConfig
from seqtag.corpus import Corpus
from seqtag.exceptions import ConfigError, DataError, NumericError
from seqtag.metrics import SentenceResult, token_prf
from seqtag.network import Model


# -- gradients ---------------------------------------------------------------------


def global_norm(grads: dict[str, np.ndarray]) -> float:
    """The Euclidean norm of all gradients taken together."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def clip_global_norm(grads: dict[str, np.ndarray], threshold: float) -> dict[str, np.ndarray]:
    """Rescale all gradients when their joint norm exceeds the
    threshold; below it the same dict is returned."""
    norm = global_norm(grads)
    scale = threshold / max(threshold, norm)
    if scale == 1.0:
        return grads
    return {name: g * scale for name, g in grads.items()}


# -- optimizers ---------------------------------------------------------------------


class SgdOptimizer:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, params, grads: dict[str, np.ndarray]) -> None:
        for name, g in grads.items():
            params[name].data -= self.learning_rate * g


class AdamOptimizer:
    """Adam with bias correction; per-parameter state is created on
    first touch, so parameters outside a batch's graph keep their
    state and values untouched."""

    def __init__(self, learning_rate=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.state: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}

    def step(self, params, grads: dict[str, np.ndarray]) -> None:
        for name, g in grads.items():
            m, v, t = self.state.get(name) or (np.zeros_like(g), np.zeros_like(g), 0)
            t += 1
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            params[name].data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
            self.state[name] = (m, v, t)


def make_optimizer(config: OptimizerConfig):
    if config.kind == "sgd":
        return SgdOptimizer(config.learning_rate)
    return AdamOptimizer(config.learning_rate, config.beta1, config.beta2, config.epsilon)


# -- evaluation helpers ----------------------------------------------------------------


def predict_results(model: Model, task: str, corpus: Corpus) -> list[SentenceResult]:
    if task not in corpus.labels:
        raise DataError(f"the corpus has no gold labels of task {task!r}")
    with ad.no_grad():
        chars = model.char_rows(corpus.sentences)  # built per call: after the latest step
    return [
        SentenceResult(list(gold), model.predict_labels(task, sentence, chars=chars))
        for sentence, gold in zip(corpus.sentences, corpus.labels[task])
    ]


def dev_score(model: Model, task: str, corpus: Corpus, metric: str) -> float:
    results = predict_results(model, task, corpus)
    return token_prf(results, labels=model.vocab.labels_of(task))[metric]


# -- the loop ----------------------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    task_losses: dict[str, float]
    dev_metric: float | None
    seconds: float

    def as_line(self) -> str:
        losses = " ".join(f"{task}={loss:.6f}" for task, loss in self.task_losses.items())
        dev = "-" if self.dev_metric is None else f"{self.dev_metric:.6f}"
        return f"{self.epoch}\t{losses}\t{dev}\t{self.seconds:.3f}"


@dataclass
class TrainResult:
    model: Model
    records: list[EpochRecord]
    best_metric: float | None
    best_epoch: int | None


def subsample(corpus: Corpus, fraction: float, rng: np.random.Generator) -> Corpus:
    """First ceil(fraction * N) documents after a seeded shuffle."""
    if fraction >= 1.0:
        return corpus
    n = len(corpus.sentences)
    keep = int(np.ceil(fraction * n))
    order = rng.permutation(n)[:keep].tolist()
    labels = {task: tuple(map(col.__getitem__, order)) for task, col in corpus.labels.items()}
    return Corpus(tuple(map(corpus.sentences.__getitem__, order)), labels)


def plan_batches(
    lengths: dict[str, Sequence[int]], batch_size: int, rng: np.random.Generator
) -> list[tuple[str, list[int]]]:
    """One epoch's ``(task, sentence indices)`` batches in training
    order. Each task's indices are permuted; when a batch can pad
    (``batch_size`` > 1) they are stable-sorted by length, so equal
    lengths keep the random order, and cut with the short batch first,
    on the shortest sentences. Then all tasks' batches are shuffled.
    The draws: one permutation per task, one over the batches."""
    batches = []
    for name, sizes in lengths.items():
        order = rng.permutation(len(sizes)).tolist()
        if batch_size > 1:
            order.sort(key=sizes.__getitem__)
        cuts = [0, *range(len(order) % batch_size or batch_size, len(order) + 1, batch_size)]
        batches += [(name, order[i:j]) for i, j in zip(cuts, cuts[1:])]
    return [batches[b] for b in rng.permutation(len(batches))]


def train(
    model: Model,
    train_data: dict[str, Corpus],
    dev_data: dict[str, Corpus],
    config: TrainConfig,
    rng: np.random.Generator,
    checkpoint_path: str | None = None,
    log: Callable[[str], None] | None = None,
) -> TrainResult:
    """Run the multi-task loop and return the best model.

    With early stopping active, the checkpoint on disk and the returned
    model are the best-scoring epoch's; otherwise the checkpoint tracks
    every epoch and the final parameters are returned.
    """
    task_names = [t.name for t in model.config.tasks]
    for name in task_names:
        if name not in train_data or len(train_data[name]) == 0:
            raise ConfigError(f"task {name!r} has no training data")
        if name not in train_data[name].labels:
            raise DataError(f"the training corpus has no gold labels of task {name!r}")
        if () in (sentences := train_data[name].sentences):
            raise DataError(f"training sentence {sentences.index(())} of task {name!r} is empty")
    es = config.early_stopping
    if es is not None and es.task not in task_names:
        raise ConfigError(f"early stopping task {es.task!r} is not declared")
    if es is not None and es.task not in dev_data:
        raise ConfigError(f"early stopping task {es.task!r} has no dev data")

    columns = {n: (train_data[n].sentences, train_data[n].labels[n]) for n in task_names}
    lengths = {name: list(map(len, sentences)) for name, (sentences, _) in columns.items()}
    optimizer = make_optimizer(config.optimizer)
    records: list[EpochRecord] = []
    best_metric: float | None = None
    best_epoch: int | None = None
    best_params: dict[str, np.ndarray] | None = None
    stale = 0

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        sums: dict[str, float] = {name: 0.0 for name in task_names}
        counts: dict[str, int] = {name: 0 for name in task_names}
        plan = plan_batches(lengths, config.batch_size, rng)
        for b, (task_name, sentence_ids) in enumerate(plan):
            try:
                sentences, labels = ([col[j] for j in sentence_ids] for col in columns[task_name])
                loss = model.batch_loss(task_name, sentences, labels, training=True, rng=rng)
                loss.backward()
            except NumericError as err:
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, task {task_name!r}, "
                    f"batch {b}: {err}"
                ) from err
            grads = {n: p.grad for n, p in model.params.items() if p.grad is not None}
            if config.clip_norm is not None:
                grads = clip_global_norm(grads, config.clip_norm)
            optimizer.step(model.params, grads)
            model.zero_grads()
            sums[task_name] += float(loss.data)
            counts[task_name] += 1
            del loss, grads  # neither the graph nor the gradients outlive their batch

        metric_value: float | None = None
        if es is not None:
            metric_value = dev_score(model, es.task, dev_data[es.task], es.metric)
            if best_metric is None or metric_value > best_metric:
                best_metric = metric_value
                best_epoch = epoch
                best_params = {n: t.data.copy() for n, t in model.params.items()}
                stale = 0
                if checkpoint_path is not None:
                    ckpt.save_model(model, checkpoint_path)
            else:
                stale += 1
        elif checkpoint_path is not None:
            ckpt.save_model(model, checkpoint_path)

        record = EpochRecord(
            epoch=epoch,
            task_losses={n: (sums[n] / counts[n] if counts[n] else 0.0) for n in task_names},
            dev_metric=metric_value,
            seconds=time.perf_counter() - started,
        )
        records.append(record)
        if log is not None:
            log(record.as_line())
        if es is not None and stale >= es.patience:
            break

    if es is not None and best_params is not None:
        for name, data in best_params.items():
            model.params[name].data = data.copy()
    return TrainResult(
        model=model, records=records, best_metric=best_metric, best_epoch=best_epoch
    )
