"""Command-line entry point.

Subcommands: train, predict, evaluate, search, stats, derive-subtasks,
postprocess. One YAML configuration file drives training and search;
scalar leaves can be overridden with --set section.key=value. Outputs
go under the configured output directory (relative directories resolve
against $SEQTAG_RESULTS when it is set). Exit codes: 0 success,
1 usage/config error, 2 data error (an output that cannot be written
among them), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import yaml

from seqtag import checkpoint as ckpt
from seqtag import experiment
from seqtag.config import (
    POSTPROCESS_VARIANTS,
    EvalConfig,
    Reader,
    apply_overrides,
    build_run_config,
    load_yaml,
    read,
    split_search_section,
)
from seqtag.corpus import Token, conll_blocks, conll_text, parse_conll_file, read_text
from seqtag.exceptions import ConfigError, DataError, SeqtagError
from seqtag.files import check_target, write_atomic
from seqtag.hyperopt import SearchSpace, parse_interval, run_search
from seqtag.labels import SUBTASK_KINDS, components_from_labels, derive_subtask, parse_am_sequence
from seqtag.metrics import SentenceResult, span_overlap_profile
from seqtag.stats import LabelDistribution, StatsError, label_entropy, label_kurtosis

RESULTS_ENV = "SEQTAG_RESULTS"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def column_index(text: str) -> int:
    """An argparse type: a CoNLL column index, counted from 0."""
    index = int(text)
    if index < 0:
        raise argparse.ArgumentTypeError(f"column indices count from 0, got {index}")
    return index


def _resolve_output(path: str) -> Path:
    root = os.environ.get(RESULTS_ENV)
    p = Path(path)
    if root and not p.is_absolute():
        p = Path(root) / p
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_text(text: str, path: str | None) -> None:
    """Write to ``path``, creating its directory, or to stdout without a path."""
    if not path:
        sys.stdout.write(text)
        return
    write_atomic(path, text.encode("utf-8"))


def _load_config(path: str, overrides: list[str]):
    raw = load_yaml(path)
    raw.pop("search", None)
    if overrides:
        raw = apply_overrides(raw, overrides)
    return build_run_config(raw)


# -- subcommands -----------------------------------------------------------------------


def cmd_train(args) -> int:
    config = _load_config(args.config, args.set or [])
    out_dir = _resolve_output(args.output or config.output_dir)
    checkpoint_path = out_dir / "model.ckpt"
    log_path = out_dir / "train.log"
    check_target(checkpoint_path)  # fail before training, not after an epoch
    with open(log_path, "w", encoding="utf-8") as log_file:

        def log(line: str) -> None:
            log_file.write(line + "\n")
            log_file.flush()
            if not args.quiet:
                print(line)

        _, result = experiment.run_training(
            config,
            checkpoint_path=str(checkpoint_path),
            log=log,
            cache_dir=str(out_dir / "cache"),
        )
    if result.best_metric is not None:
        print(f"best_dev_metric\t{result.best_metric:.6f}\tepoch\t{result.best_epoch}")
    print(f"checkpoint\t{checkpoint_path}")
    return 0


def cmd_predict(args) -> int:
    model = ckpt.load_model(args.model)
    tasks = args.tasks.split(",") if args.tasks else [t.name for t in model.config.tasks]
    tasks = [model.config.task(name).name for name in tasks]
    in_path = Path(args.input)
    if not in_path.exists():
        raise DataError(f"input file not found: {in_path}")

    lines = read_text(in_path).splitlines()
    out_lines = [""] * len(lines)  # blank and whitespace-only lines come out empty
    for first, block in conll_blocks(lines):
        tokens = []
        for line in block:
            cols = line.split()
            if len(cols) <= args.token_column:
                raise DataError(f"line {line!r} has no column {args.token_column}")
            tokens.append(Token(cols[args.token_column], {}))
        sentence = tuple(tokens)
        shared = []  # the sentence's mask, embedding and shared layers, for every task
        columns = [
            experiment.postprocess_labels(
                model.predict_labels(task, sentence, shared), args.postprocess
            )
            for task in tasks
        ]
        out_lines[first - 1 : first - 1 + len(block)] = map("\t".join, zip(block, *columns))
    _write_text("\n".join(out_lines).rstrip("\n") + "\n", args.output)
    return 0


def cmd_evaluate(args) -> int:
    evaluation = read(
        EvalConfig,
        Reader({"metrics": args.metrics.split(",")} if args.metrics else {}, ""),
        postprocess=args.postprocess,
        empty_symbol=args.empty_symbol,
        join_symbol=args.join_symbol,
    )
    metrics = evaluation.metrics

    if args.model:
        if not args.input:
            raise ConfigError("--model needs --input with gold labels")
        model = ckpt.load_model(args.model)
        task = model.config.task(args.task).name if args.task else model.config.tasks[0].name
        corpus = parse_conll_file(args.input, args.token_column, {task: args.label_column})
        report = experiment.evaluate_model(model, corpus, task, evaluation, metrics)
        results = None
    elif args.predictions:
        corpus = parse_conll_file(
            args.predictions,
            args.token_column,
            {"gold": args.label_column, "pred": args.pred_column},
        )
        results = [
            SentenceResult(
                [t.labels["gold"] for t in sentence], [t.labels["pred"] for t in sentence]
            )
            for sentence in corpus
        ]
        results = experiment.postprocess_results(results, args.postprocess)
        report = experiment.metric_report(results, metrics, evaluation, labels=None)
    else:
        raise ConfigError("evaluate needs either --model or --predictions")

    for name in metrics:
        print(f"{name}\t{report[name]:.6f}")

    if args.overlap_profile:
        if results is None:
            raise ConfigError("--overlap-profile needs --predictions input")
        _write_overlap_profile(results, args.overlap_profile)
    return 0


def _write_overlap_profile(results: list[SentenceResult], path: str) -> None:
    def spans(labels):
        components = components_from_labels(parse_am_sequence(labels))
        return [(c.start, c.end + 1, c.ctype) for c in components]

    lines = ["length,overlap"]
    for sentence in results:
        profile = span_overlap_profile(spans(sentence.gold), spans(sentence.predicted))
        lines.extend(f"{length},{overlap}" for length, overlap in profile)
    _write_text("\n".join(lines) + "\n", path)


def cmd_stats(args) -> int:
    print("file\tdocs\ttokens\tlabels\tentropy\tkurtosis")
    for path in args.inputs:
        corpus = parse_conll_file(path, args.token_column, {"t": args.label_column})
        counts = corpus.label_counts("t")
        dist = LabelDistribution.from_counts(counts)
        entropy = label_entropy(dist)
        try:
            kurt = f"{label_kurtosis(dist):.6f}"
        except StatsError as err:
            kurt = f"undefined ({err})"
        print(
            f"{path}\t{len(corpus)}\t{corpus.token_count}\t{len(counts)}"
            f"\t{entropy:.6f}\t{kurt}"
        )
    return 0


def cmd_search(args) -> int:
    raw = load_yaml(args.config)
    if args.set:
        raw = apply_overrides(raw, args.set)
    search, template = split_search_section(raw)
    space = SearchSpace(
        variables={
            name: parse_interval(spec, f"search.variables.{name}")
            for name, spec in search["variables"].items()
        }
    )
    out_dir = _resolve_output(
        args.output or Reader(template.get("output", {}), "output").take("dir", str, "search")
    )
    runs_dir = out_dir / "runs"
    builds: dict[tuple, experiment.ExperimentData] = {}  # one per distinct data section

    def train_fn(config_dict: dict, seed: int) -> float:
        config = build_run_config(config_dict)
        config.training.seed = seed
        key = experiment.data_key(config)
        data = builds.get(key)
        if data is None:
            data = builds[key] = experiment.ExperimentData(
                config, cache_dir=str(out_dir / "cache")
            )
        run_dir = runs_dir / f"seed_{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        lines: list[str] = []
        model, result = experiment.run_training(
            config,
            data=data,
            checkpoint_path=str(run_dir / "model.ckpt"),
            log=lines.append,
        )
        (run_dir / "train.log").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return experiment.search_score(config, result, model, data)

    report = run_search(
        template=template,
        space=space,
        n_trials=search["trials"],
        seeds_per_trial=search["seeds_per_trial"],
        master_seed=search["master_seed"],
        train_fn=train_fn,
        final_seeds=search["final_seeds"],
    )

    for trial in report.trials:
        trial_dir = out_dir / f"trial_{trial.index:03d}"
        trial_dir.mkdir(parents=True, exist_ok=True)
        (trial_dir / "config.yaml").write_text(
            yaml.safe_dump(trial.config, sort_keys=False), encoding="utf-8"
        )
        if trial.error is not None:
            (trial_dir / "FAILED").write_text(trial.error + "\n", encoding="utf-8")
            continue
        best_seed = max(zip(trial.seed_scores, trial.seeds))[1]  # ties go to the larger seed
        shutil.copyfile(runs_dir / f"seed_{best_seed}" / "model.ckpt", trial_dir / "best.ckpt")
        for j, seed in enumerate(trial.seeds):
            shutil.copyfile(runs_dir / f"seed_{seed}" / "train.log", trial_dir / f"seed_{j}.log")

    report_text = report.to_tsv()
    (out_dir / "report.tsv").write_text(report_text, encoding="utf-8")
    (out_dir / "timing.tsv").write_text(report.timing_tsv(), encoding="utf-8")
    sys.stdout.write(report_text)
    return 0


def cmd_derive_subtasks(args) -> int:
    kinds = [k.strip().upper() for k in args.kinds.split(",")]
    for kind in kinds:
        if kind not in SUBTASK_KINDS:
            raise ConfigError(f"unknown subtask kind {kind!r} (known: {list(SUBTASK_KINDS)})")
    corpus = parse_conll_file(args.input, args.token_column, {"am": args.label_column})

    def rows(sentence):
        labels = [t.labels["am"] for t in sentence]
        seq = parse_am_sequence(labels)
        derived = [derive_subtask(seq, kind) for kind in kinds]
        return zip([t.surface for t in sentence], labels, *derived)

    _write_text(conll_text(map(rows, corpus)) or "\n", args.output)
    return 0


def cmd_postprocess(args) -> int:
    corpus = parse_conll_file(args.input, args.token_column, {"t": args.label_column})

    def rows(sentence):
        fixed = experiment.postprocess_labels([t.labels["t"] for t in sentence], args.variant)
        return zip([t.surface for t in sentence], fixed)

    _write_text(conll_text(map(rows, corpus)) or "\n", args.output)
    return 0


# -- parser ------------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The argument parser; built on the first call, then shared."""
    parser = _Parser(prog="seqtag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("config", help="YAML run configuration")
    p.add_argument("--set", action="append", metavar="PATH=VALUE", help="override a scalar leaf")
    p.add_argument("--output", help="output directory (defaults to output.dir)")
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch lines on stdout")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="label a CoNLL file with a trained model")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--input", required=True, help="CoNLL input (labeled or unlabeled)")
    p.add_argument("--output", help="output path (stdout when omitted)")
    p.add_argument("--tasks", help="comma-separated task names (default: all)")
    p.add_argument("--token-column", type=column_index, default=0)
    p.add_argument(
        "--postprocess", default="none", choices=POSTPROCESS_VARIANTS,
        help="repair predictions before writing",
    )
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="score a model or a prediction file")
    p.add_argument("--model", help="checkpoint path (evaluate on --input)")
    p.add_argument("--input", help="labeled CoNLL input for --model")
    p.add_argument("--task", help="task to evaluate (default: first task)")
    p.add_argument("--predictions", help="CoNLL file with gold and predicted columns")
    p.add_argument("--token-column", type=column_index, default=0)
    p.add_argument("--label-column", type=column_index, default=1, help="gold label column")
    p.add_argument("--pred-column", type=column_index, default=2, help="predicted label column")
    p.add_argument("--metrics", help="comma-separated metric names")
    p.add_argument("--postprocess", default="none", choices=POSTPROCESS_VARIANTS)
    p.add_argument("--empty-symbol", default=EvalConfig.empty_symbol)
    p.add_argument("--join-symbol", default=EvalConfig.join_symbol)
    p.add_argument("--overlap-profile", metavar="CSV", help="write span overlap pairs")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("stats", help="corpus statistics: docs, tokens, entropy, kurtosis")
    p.add_argument("inputs", nargs="+", help="CoNLL files")
    p.add_argument("--token-column", type=column_index, default=0)
    p.add_argument("--label-column", type=column_index, default=1)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("search", help="random hyper-parameter search")
    p.add_argument("config", help="YAML config template with a search section")
    p.add_argument("--set", action="append", metavar="PATH=VALUE")
    p.add_argument("--output", help="search output directory")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("derive-subtasks", help="project AM labels onto subtask label sets")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--kinds", default="ACS,ACI,ARS,ARI")
    p.add_argument("--token-column", type=column_index, default=0)
    p.add_argument("--label-column", type=column_index, default=1)
    p.set_defaults(fn=cmd_derive_subtasks)

    p = sub.add_parser("postprocess", help="repair a label column")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--variant", required=True, choices=POSTPROCESS_VARIANTS)
    p.add_argument("--token-column", type=column_index, default=0)
    p.add_argument("--label-column", type=column_index, default=1)
    p.set_defaults(fn=cmd_postprocess)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # a non-finite value ends in NumericError, so numpy need not warn first
        with np.errstate(all="ignore"):
            return args.fn(args)
    except SeqtagError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:  # every read raises DataError, so an OSError failed a write
        where = "" if err.filename is None else f" {err.filename}"
        print(f"error: cannot write{where}: {err.strerror or err}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
