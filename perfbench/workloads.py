"""The four benchmark workloads.

Each workload runs in one process as a closed loop with one sequential
client: ``prepare`` writes the generated inputs and does untimed set-up,
then ``run_once`` is called repeatedly, each call doing identical work
(same seed, same files), and ``check`` compares the calls' outputs.
The program only sees the generated files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from perfbench import gen
from perfbench.hostclock import HostClock
from perfbench.layers import HOST_CLOCK
from seqtag import checkpoint, cli, experiment, hyperopt, network, training
from seqtag.config import build_run_config
from seqtag.labels import parse_bio_sequence, validate_bio


class CheckFailed(Exception):
    """An output check failed; the benchmark result is not valid."""


@dataclass
class Sample:
    """What one ``run_once`` call measured. Times are host-corrected
    (see :mod:`perfbench.hostclock`) unless named raw."""

    units: int  # runs, sentences or seed runs attempted
    failed: int
    tokens: int  # tokens trained or tagged in the timed region
    pieces: list[float]  # the timed region cut at the probe's marks
    setup_s: float
    accuracy: float
    latencies_ms: list[float]
    fingerprint: tuple  # compared across calls: identical work, identical output
    raw_seconds: float = 0.0  # the timed region on the wall clock
    chunk_s: float = 0.0  # median time of the host clock's reference chunk

    @property
    def seconds(self) -> float:
        """Host-corrected time of the timed region."""
        return sum(self.pieces)


class Probe:
    """The light instrumentation the end-to-end metrics need; on in
    every run, traced or not.

    It sets a mark at each prediction's start and end and at each
    optimizer step's end; ``run_once`` adds the edges of its timed
    region and of its set-up. Each mark runs the host clock's reference
    chunk, and the marks cut a timed region into pieces that are
    identical work in every call.
    """

    def __init__(self):
        self.clock = HostClock()
        self.tracer = None  # set in a traced run: chunks get spans of their own
        self.reset()

    def reset(self) -> None:
        self.clock.reset()
        self.predictions: list[tuple[int, int]] = []  # (start, end) marks
        self.loads: list[tuple[int, int]] = []
        self.tokens_trained = 0
        self.first_run_training: int | None = None

    def mark(self) -> int:
        if self.tracer is None:
            return self.clock.mark()
        span = self.tracer.begin(HOST_CLOCK)
        try:
            return self.clock.mark()
        finally:
            self.tracer.end(span)

    def install(self, patches) -> None:
        def between_marks(into: str):
            def make(fn):
                def wrapper(*args, **kwargs):
                    start = self.mark()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        getattr(self, into).append((start, self.mark()))

                return wrapper

            return make

        def marked_step(fn):
            def wrapper(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.mark()

            return wrapper

        def counted_train(fn):
            def wrapper(model, train_data, *args, **kwargs):
                result = fn(model, train_data, *args, **kwargs)
                per_epoch = sum(c.token_count for c in train_data.values())
                self.tokens_trained += per_epoch * len(result.records)
                return result

            return wrapper

        def first_call(fn):
            def wrapper(*args, **kwargs):
                if self.first_run_training is None:
                    self.first_run_training = self.mark()
                return fn(*args, **kwargs)

            return wrapper

        patches.wrap(network.Model, "predict_labels", between_marks("predictions"))
        patches.wrap(training.AdamOptimizer, "step", marked_step)
        patches.wrap(training.SgdOptimizer, "step", marked_step)
        patches.wrap(checkpoint, "load_model", between_marks("loads"))
        patches.wrap(experiment, "train", counted_train)
        patches.wrap(experiment, "run_training", first_call)

    def pieces(self, start: int, end: int) -> list[float]:
        """Host-corrected durations between consecutive marks from mark
        ``start`` to mark ``end``."""
        return [self.clock.corrected_s(i, i + 1) for i in range(start, end)]

    def latencies_ms(self) -> list[float]:
        return [self.clock.corrected_s(a, b) * 1e3 for a, b in self.predictions]

    def sample(self, start: int, end: int, setup: tuple[int, int], **fields) -> Sample:
        """The timed region from mark ``start`` to mark ``end``, set-up
        from mark ``setup[0]`` to ``setup[1]``."""
        return Sample(
            pieces=self.pieces(start, end),
            raw_seconds=self.clock.raw_s(start, end),
            chunk_s=self.clock.local_chunk_s(0, len(self.clock.ticks)),
            setup_s=self.clock.corrected_s(*setup),
            latencies_ms=self.latencies_ms(),
            tokens=fields.pop("tokens", self.tokens_trained),
            **fields,
        )


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_identical(samples: list[Sample], what: str) -> None:
    first = samples[0].fingerprint
    for i, sample in enumerate(samples[1:], start=2):
        if sample.fingerprint != first:
            raise CheckFailed(f"{what} differs between call 1 and call {i}")


# -- training ---------------------------------------------------------------------


@dataclass(frozen=True)
class TrainSpec:
    vocab: int
    word_len: tuple[int, int]
    mean_len: float
    len_bounds: tuple[int, int]
    train_tokens: int
    aux_tokens: int  # 0 for single-task
    dev_tokens: int
    embeddings: tuple[tuple[int, int], ...]  # (dim, extra words) per file
    architecture: dict
    head: str
    epochs: int
    dropout: dict = field(default_factory=dict)
    clip_norm: float | None = None


def write_train_inputs(work: Path, seed: int, spec: TrainSpec, output_dir: Path) -> dict:
    """Write the corpora and embedding files; return the raw run config."""
    rng = np.random.default_rng(seed)
    lexicon = gen.make_lexicon(rng, spec.vocab, spec.word_len)

    def sentences(tokens):
        return gen.make_sentences(rng, lexicon, tokens, spec.mean_len, spec.len_bounds)

    gen.write_conll(work / "tag.train.conll", sentences(spec.train_tokens), (0, 1))
    gen.write_conll(work / "tag.dev.conll", sentences(spec.dev_tokens), (0, 1))
    tasks = [
        {
            "name": "tag",
            "train": str(work / "tag.train.conll"),
            "dev": str(work / "tag.dev.conll"),
            "termination_layer": len(spec.architecture.get("shared_layers", [None])),
            "head": spec.head,
        }
    ]
    if spec.aux_tokens:
        gen.write_conll(work / "seg.train.conll", sentences(spec.aux_tokens), (0, 2))
        tasks.append(
            {"name": "seg", "train": str(work / "seg.train.conll"), "termination_layer": 1}
        )
    files = []
    for i, (dim, extra) in enumerate(spec.embeddings):
        path = work / f"emb{i}.txt"
        words = gen.embedding_vocab(rng, lexicon, extra, f"e{i}x")
        gen.write_embeddings(path, rng, words, lexicon, dim, header=(i == 0))
        files.append(str(path))
    return {
        "training": {
            "epochs": spec.epochs,
            "batch_size": 4,
            "seed": seed,
            "main_task": "tag",
            "optimizer": {"kind": "adam", "learning_rate": 0.02},
            **({"clip_norm": spec.clip_norm} if spec.clip_norm else {}),
            # patience above the epoch count: a dev score every epoch, no early stop
            "early_stopping": {"task": "tag", "metric": "accuracy", "patience": spec.epochs + 1},
        },
        "tasks": tasks,
        "architecture": spec.architecture,
        "embeddings": {"files": files} if files else {"word_dim": 16},
        "regularization": {"dropout": spec.dropout},
        "output": {"dir": str(output_dir)},
    }


class TrainWorkload:
    """One ``train`` call per ``run_once``: set-up is ExperimentData on a
    warm corpus cache plus build_model; the timed region is the train
    call, including dev scoring and checkpoints."""

    def __init__(self, spec: TrainSpec):
        self.spec = spec

    def prepare(self, work: Path, seed: int) -> None:
        self.out = work / "out"
        self.out.mkdir(parents=True)
        self.raw = write_train_inputs(work, seed, self.spec, self.out)
        self.cache = str(self.out / "cache")
        experiment.ExperimentData(build_run_config(self.raw), cache_dir=self.cache)

    def run_once(self, probe: Probe) -> Sample:
        ckpt = self.out / "model.ckpt"
        start = probe.mark()
        config = build_run_config(self.raw)
        data = experiment.ExperimentData(config, cache_dir=self.cache)
        rng = np.random.default_rng(config.training.seed)
        model = experiment.build_model(config, data, rng)
        ready = probe.mark()
        result = experiment.train(
            model, data.train, data.dev, config.training, rng, checkpoint_path=str(ckpt)
        )
        done = probe.mark()
        losses = tuple(tuple(r.task_losses.values()) for r in result.records)
        return probe.sample(
            ready,
            done,
            setup=(start, ready),
            units=1,
            failed=0,
            accuracy=float(result.best_metric),
            fingerprint=(losses, _sha(ckpt), result.best_metric),
        )

    def check(self, samples: list[Sample]) -> None:
        losses = samples[0].fingerprint[0]
        if len(losses) < 2:
            raise CheckFailed("training ran fewer than two epochs")
        for epoch in losses:
            if not all(np.isfinite(epoch)):
                raise CheckFailed(f"non-finite epoch loss {epoch}")
        for task, (first, last) in enumerate(zip(losses[0], losses[-1])):
            if not last < first:
                raise CheckFailed(f"loss of task {task} did not fall: {first} -> {last}")
        _check_identical(samples, "losses, checkpoint bytes or dev score")


# -- prediction ---------------------------------------------------------------------


@dataclass(frozen=True)
class PredictSpec:
    model: TrainSpec  # the checkpoint's training set-up
    input_tokens: int


class PredictWorkload:
    """One ``seqtag predict`` command per ``run_once``, in process
    through ``cli.main``, on a checkpoint trained while preparing."""

    def __init__(self, spec: PredictSpec):
        self.spec = spec

    def prepare(self, work: Path, seed: int) -> None:
        out = work / "train"
        out.mkdir(parents=True)
        raw = write_train_inputs(work, seed, self.spec.model, out)
        self.ckpt = out / "model.ckpt"
        experiment.run_training(build_run_config(raw), checkpoint_path=str(self.ckpt))
        model = checkpoint.load_model(self.ckpt)
        self.tasks = [t.name for t in model.config.tasks]
        self.inventory = {t: set(model.vocab.labels_of(t)) for t in self.tasks}

        # the input shares the training lexicon: same seed, same draws
        spec = self.spec.model
        lexicon = gen.make_lexicon(np.random.default_rng(seed), spec.vocab, spec.word_len)
        sentences = gen.make_sentences(
            np.random.default_rng([seed, 1]),
            lexicon,
            self.spec.input_tokens,
            spec.mean_len,
            spec.len_bounds,
        )
        self.input = work / "input.conll"
        self.tokens = gen.write_conll(self.input, sentences, (0, 1, 2))
        self.sentences = len(sentences)
        self.output = work / "pred.conll"

    def run_once(self, probe: Probe) -> Sample:
        argv = [
            "predict", "--model", str(self.ckpt), "--input", str(self.input),
            "--output", str(self.output), "--postprocess", "to_begin",
        ]
        start = probe.mark()
        code = cli.main(argv)
        done = probe.mark()
        if code != 0:
            raise CheckFailed(f"seqtag predict exited with {code}")
        failed, correct, total = self._score()
        return probe.sample(
            start,
            done,
            setup=probe.loads[0],
            units=self.sentences,
            failed=failed,
            tokens=self.tokens,
            accuracy=correct / total if total else 0.0,
            fingerprint=(_sha(self.output),),
        )

    def _score(self) -> tuple[int, int, int]:
        """Malformed sentences, and correct and total tokens of the main
        task over the well-formed ones."""
        in_blocks = self.input.read_text(encoding="utf-8").strip("\n").split("\n\n")
        out_blocks = self.output.read_text(encoding="utf-8").strip("\n").split("\n\n")
        if len(in_blocks) != len(out_blocks):
            raise CheckFailed(f"{len(in_blocks)} input sentences, {len(out_blocks)} output")
        main = 3 + self.tasks.index("tag")
        failed = correct = total = 0
        for in_block, out_block in zip(in_blocks, out_blocks):
            in_lines, out_lines = in_block.split("\n"), out_block.split("\n")
            rows = [line.split("\t") for line in out_lines]
            ok = len(in_lines) == len(out_lines) and all(
                row[:3] == line.split("\t") and len(row) == 3 + len(self.tasks)
                for row, line in zip(rows, in_lines)
            )
            for k, task in enumerate(self.tasks):
                column = [row[3 + k] for row in rows] if ok else []
                ok = ok and set(column) <= self.inventory[task]
                ok = ok and not validate_bio(parse_bio_sequence(column))
            if not ok:
                failed += 1
                continue
            total += len(rows)
            correct += sum(row[1] == row[main] for row in rows)
        return failed, correct, total

    def check(self, samples: list[Sample]) -> None:
        _check_identical(samples, "predict output")


# -- search -----------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchSpec:
    data: TrainSpec  # corpus and embedding sizes; the architecture is searched
    trials: int
    seeds_per_trial: int
    master_seed: int
    train_fraction: float
    variables: dict


class SearchWorkload:
    """One ``seqtag search`` command per ``run_once``, in process through
    ``cli.main``, on a warm corpus cache."""

    def __init__(self, spec: SearchSpec):
        self.spec = spec

    def prepare(self, work: Path, seed: int) -> None:
        self.out = work / "search"
        raw = write_train_inputs(work, seed, self.spec.data, self.out)
        raw["tasks"][0]["train_fraction"] = self.spec.train_fraction
        raw["training"]["early_stopping"]["patience"] = 1
        raw["architecture"] = {"cell": "${cell}", "shared_layers": ["${units}"]}
        raw["search"] = {
            "trials": self.spec.trials,
            "seeds_per_trial": self.spec.seeds_per_trial,
            "master_seed": self.spec.master_seed,
            "variables": self.spec.variables,
        }
        self.config = work / "search.yaml"
        self.config.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")

        # warm the corpus cache the search reads through
        template = {k: v for k, v in raw.items() if k != "search"}
        first = hyperopt.render_template(template, {"cell": "gru", "units": 8})
        experiment.ExperimentData(build_run_config(first), cache_dir=str(self.out / "cache"))

    def run_once(self, probe: Probe) -> Sample:
        for entry in self.out.iterdir():
            if entry.name != "cache":
                shutil.rmtree(entry) if entry.is_dir() else entry.unlink()
        start = probe.mark()
        with contextlib.redirect_stdout(io.StringIO()):  # the report is read from its file
            code = cli.main(["search", str(self.config), "--output", str(self.out)])
        done = probe.mark()
        if code != 0:
            raise CheckFailed(f"seqtag search exited with {code}")
        report = (self.out / "report.tsv").read_text(encoding="utf-8")
        rows = [line.split("\t") for line in report.strip("\n").split("\n")]
        trials = {int(r[0]): r for r in rows[1:] if r[0].isdigit()}
        failed_trials = [i for i, r in trials.items() if r[1] != "ok"]
        failed_trials += [
            int(p.parent.name.split("_")[1]) for p in self.out.glob("trial_*/FAILED")
        ]
        if sorted(trials) != list(range(self.spec.trials)):
            raise CheckFailed(f"report does not rank every trial:\n{report}")
        winners = [r for r in rows if r[0] == "winner"]
        if len(winners) != 1:
            raise CheckFailed(f"report names no single winner:\n{report}")
        winner = int(winners[0][1])
        return probe.sample(
            start,
            done,
            setup=(start, probe.first_run_training),
            units=self.spec.trials * self.spec.seeds_per_trial,
            failed=len(set(failed_trials)) * self.spec.seeds_per_trial,
            accuracy=float(trials[winner][2]),
            fingerprint=(winner, report),
        )

    def check(self, samples: list[Sample]) -> None:
        _check_identical(samples, "search report or winner")


# -- the definitions ---------------------------------------------------------------------

_MTL_MODEL = TrainSpec(
    vocab=1500,
    word_len=(3, 8),
    mean_len=20,
    len_bounds=(5, 60),
    train_tokens=300,
    aux_tokens=200,
    dev_tokens=400,
    embeddings=((10, 800), (6, 500)),
    architecture={"cell": "lstm", "shared_layers": [32, 32], "use_shortcuts": True},
    head="crf",
    epochs=2,
    dropout={"word": 0.05, "rnn_state": 0.25, "rnn_output": 0.25, "variational": True},
    clip_norm=1.0,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: object  # zero-argument factory of the workload object


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-mtl",
            "The paper's main set-up: CRF main task on shared layer 2, softmax "
            "auxiliary task on layer 1, LSTM [32, 32] with shortcuts, two embedding "
            "files concatenated and pruned, variational dropout, Adam with clipping, "
            "dev score and checkpoint every epoch. The shared recurrence, the CRF "
            "forward algorithm and backward do almost all the work; the char path "
            "is skipped.",
            lambda: TrainWorkload(_MTL_MODEL),
        ),
        Workload(
            "train-char",
            "Single-task GRU [32] with the char BiLSTM on and a softmax head, on "
            "shorter sentences of longer words (5-13 chars): char_features takes a "
            "large share here and none in train-mtl or predict. Also covers the "
            "GRU cell and the softmax head as the main head. Time here follows "
            "the character count, so the words span 5-13 rather than 3-15 chars "
            "(the same mean of 9) and the dev set has 36 sentences: with 3-15 "
            "chars and 24 sentences the seed alone moved the latency percentiles "
            "by about 20% between seeds.",
            lambda: TrainWorkload(
                TrainSpec(
                    vocab=1500,
                    word_len=(5, 13),
                    mean_len=10,
                    len_bounds=(3, 30),
                    train_tokens=100,
                    aux_tokens=0,
                    dev_tokens=360,
                    embeddings=(),
                    architecture={
                        "cell": "gru",
                        "shared_layers": [32],
                        "char": {"enabled": True, "embedding_dim": 8, "hidden": 8},
                    },
                    head="softmax",
                    epochs=2,
                )
            ),
        ),
        Workload(
            "predict",
            "seqtag predict with --postprocess to_begin on a 2-task train-mtl-shaped "
            "checkpoint: no tape is built, the no_grad forward pass dominates, plus "
            "Viterbi, post-processing and file I/O. A tape change that helps "
            "training must not slow this; length bucketing would show here.",
            lambda: PredictWorkload(PredictSpec(model=_MTL_MODEL, input_tokens=1200)),
        ),
        Workload(
            "search",
            "seqtag search, 3 trials x 2 seeds over cell {simple, gru} and units, "
            "one short epoch on a train_fraction of a larger file, early stopping "
            "on dev, with an embedding file far larger than the reachable "
            "vocabulary: the only workload where per-run set-up (ExperimentData, "
            "embedding loading) carries weight. Also covers the simple cell.",
            lambda: SearchWorkload(
                SearchSpec(
                    data=TrainSpec(
                        vocab=3000,
                        word_len=(3, 8),
                        mean_len=20,
                        len_bounds=(5, 60),
                        train_tokens=6000,
                        aux_tokens=0,
                        dev_tokens=300,
                        embeddings=((12, 20000),),
                        architecture={},
                        head="softmax",
                        epochs=1,
                    ),
                    trials=3,
                    seeds_per_trial=2,
                    master_seed=1,
                    train_fraction=0.08,
                    variables={
                        "cell": {"kind": "list", "values": ["simple", "gru"]},
                        "units": {"kind": "discrete", "start": 8, "end": 24},
                    },
                )
            ),
        ),
    )
}
