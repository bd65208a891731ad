"""Run configuration: YAML loading, schema validation, overrides.

One structured file drives everything: the training process, the
tasks and their input files, pre-trained embeddings, the network
architecture with shared and private layers, regularization, and the
evaluation setup. The config dataclasses are the schema: ``fill``
reads a mapping into one of them, taking each key's type from the
field's annotation, its default from the field and its allowed values
from ``field(metadata={"choices": ...})``. Unknown keys are rejected
with their location, and scalar leaves can be overridden from the
command line with ``section.key=value`` assignments.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import typing
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from seqtag.corpus import read_text
from seqtag.exceptions import ConfigError
from seqtag.metrics import METRICS
from seqtag.network import DropoutConfig, NetworkConfig, TaskSpec
from seqtag.training import TrainConfig

POSTPROCESS_VARIANTS = ("none", "to_outside", "to_begin", "am")


class Reader:
    """Reads keys out of a mapping, tracking location and leftovers."""

    def __init__(self, data, path: str):
        if not isinstance(data, Mapping):
            raise ConfigError(f"{path or 'config'}: expected a mapping, got {type(data).__name__}")
        self.data = dict(data)
        self.path = path

    def at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def take(self, key: str, kind, default=..., choices=None):
        """``key``'s value checked against the annotation ``kind``, else ``default``."""
        if key in self.data:
            return _converter(kind, choices)(self.data.pop(key), self.at(key))
        if default is ...:
            raise ConfigError(f"missing required key {self.at(key)}")
        return default

    def section(self, key: str) -> "Reader":
        """A reader over the sub-mapping ``key``, empty when it is absent."""
        return Reader(self.data.pop(key, {}), self.at(key))

    def finish(self) -> None:
        if self.data:
            raise ConfigError(f"unknown key {self.at(min(self.data, key=str))}")


def fill(cls, reader: Reader, **given):
    """Build the config dataclass ``cls`` from one key of ``reader`` per field
    not in ``given``; an absent key takes the field's default, and keys
    that belong to no field stay in the reader."""
    for name, required, convert in _schema(cls):
        if name in given:
            continue
        if name in reader.data:
            given[name] = convert(reader.data.pop(name), reader.at(name))
        elif required:
            raise ConfigError(f"missing required key {reader.at(name)}")
    return cls(**given)


def read(cls, reader: Reader, **given):
    """``fill``, then reject the keys left over in ``reader``."""
    config = fill(cls, reader, **given)
    reader.finish()
    return config


@functools.cache
def _schema(cls) -> tuple:
    """(name, required, converter) per field, resolved once per class."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
            _converter(hints[f.name], f.metadata.get("choices")),
        )
        for f in dataclasses.fields(cls)
    )


@functools.cache
def _converter(kind, choices: tuple | None = None):
    """A function ``(value, location) -> value`` checking a value against
    the annotation ``kind``: a scalar, ``X | None``, ``list[X]`` or a config
    dataclass. ``choices`` limits the scalars; an int passes as a float."""
    args = typing.get_args(kind)
    if type(None) in args:
        (inner,) = [a for a in args if a is not type(None)]
        convert_inner = _converter(inner, choices)
        return lambda value, at: None if value is None else convert_inner(value, at)
    if typing.get_origin(kind) is list:
        check_list, convert_item = _converter(list), _converter(args[0], choices)
        return lambda value, at: [
            convert_item(item, f"{at}[{i}]") for i, item in enumerate(check_list(value, at))
        ]
    if dataclasses.is_dataclass(kind):
        return lambda value, at: read(kind, Reader(value, at))

    def convert(value, at):
        if type(value) is not kind:
            if kind is float and type(value) is int:
                value = float(value)
            elif not isinstance(value, kind) or isinstance(value, bool):
                raise ConfigError(f"{at}: expected {kind.__name__}, got {type(value).__name__}")
        if choices is not None and value not in choices:
            raise ConfigError(f"{at}: must be one of {list(choices)}, got {value!r}")
        return value

    return convert


@dataclass
class TaskFiles:
    name: str
    train: str | None = None
    dev: str | None = None
    test: str | None = None
    token_column: int = 0
    label_column: int = 1
    train_fraction: float = 1.0


@dataclass
class EmbeddingsConfig:
    files: list[str] = field(default_factory=list)


@dataclass
class EvalConfig:
    metrics: list[str] = field(
        default_factory=lambda: ["accuracy", "f1"], metadata={"choices": tuple(METRICS)}
    )
    postprocess: str = field(default="none", metadata={"choices": POSTPROCESS_VARIANTS})
    empty_symbol: str = "ε"
    join_symbol: str = "_"


@dataclass
class RunConfig:
    network: NetworkConfig
    training: TrainConfig
    task_files: list[TaskFiles]
    embeddings: EmbeddingsConfig
    evaluation: EvalConfig
    output_dir: str = "runs"


def load_yaml(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(read_text(path))
    except yaml.YAMLError as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


def build_run_config(raw: Mapping) -> RunConfig:
    """Read and check a run configuration: ``fill`` reads each section into
    its dataclass; only keys laid out differently in the file are read here."""
    root = Reader(raw, "")
    tasks = root.take("tasks", list)
    if not tasks:
        raise ConfigError("tasks: at least one task is required")
    readers = [Reader(entry, f"tasks[{i}]") for i, entry in enumerate(tasks)]
    # the label inventories are filled from the data by the experiment setup
    task_specs = [fill(TaskSpec, reader, labels=[]) for reader in readers]
    task_files = [read(TaskFiles, r, name=t.name) for r, t in zip(readers, task_specs)]

    regularization = root.section("regularization")
    dropout = read(DropoutConfig, regularization.section("dropout"))
    regularization.finish()
    embeddings_reader = root.section("embeddings")
    network = read(
        NetworkConfig,
        root.section("architecture"),
        dropout=dropout,
        tasks=task_specs,
        word_dim=embeddings_reader.take("word_dim", int, NetworkConfig.word_dim),
        fine_tune_embeddings=embeddings_reader.take(
            "fine_tune", bool, NetworkConfig.fine_tune_embeddings
        ),
    )
    embeddings = read(EmbeddingsConfig, embeddings_reader)
    training = read(TrainConfig, Reader(root.take("training", dict), "training"))
    training.main_task = training.main_task or task_specs[0].name

    evaluation_reader = root.section("evaluation")
    symbols = evaluation_reader.section("special_symbols")
    evaluation = read(
        EvalConfig,
        evaluation_reader,
        empty_symbol=symbols.take("empty", str, EvalConfig.empty_symbol),
        join_symbol=symbols.take("join", str, EvalConfig.join_symbol),
    )
    symbols.finish()
    output = root.section("output")
    output_dir = output.take("dir", str, RunConfig.output_dir)
    output.finish()
    root.finish()

    # label inventories and the final network validation happen once the
    # data is loaded; validate what is checkable now
    dropout.validate()
    training.validate([t.name for t in task_specs])
    for tf in task_files:
        if not 0.0 < tf.train_fraction <= 1.0:
            raise ConfigError(f"tasks: train_fraction of {tf.name!r} must be in (0, 1]")
        for key, column in (("token_column", tf.token_column), ("label_column", tf.label_column)):
            if column < 0:
                raise ConfigError(f"tasks: {key} of {tf.name!r} must be >= 0, got {column}")

    return RunConfig(
        network=network,
        training=training,
        task_files=task_files,
        embeddings=embeddings,
        evaluation=evaluation,
        output_dir=output_dir,
    )


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply ``dotted.path=value`` overrides to scalar config leaves."""
    result = copy.deepcopy(raw)
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"override {assignment!r} is not of the form path=value")
        path, text = assignment.split("=", 1)
        keys = path.split(".")
        node = result
        for key in keys[:-1]:
            if not isinstance(node, dict) or key not in node:
                raise ConfigError(f"override path {path!r} does not exist in the config")
            node = node[key]
        leaf = keys[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise ConfigError(f"override path {path!r} does not exist in the config")
        if isinstance(node[leaf], (dict, list)):
            raise ConfigError(f"override path {path!r} is not a scalar leaf")
        node[leaf] = yaml.safe_load(text)
    return result


def split_search_section(raw: dict) -> tuple[dict, dict]:
    """Separate the search declaration from the config template."""
    if "search" not in raw:
        raise ConfigError("config has no 'search' section")
    template = copy.deepcopy(raw)
    search = template.pop("search")
    reader = Reader(search, "search")
    parsed = {
        "trials": reader.take("trials", int, default=10),
        "seeds_per_trial": reader.take("seeds_per_trial", int, default=3),
        "final_seeds": reader.take("final_seeds", int, default=0),
        "master_seed": reader.take("master_seed", int, default=0),
        "variables": reader.take("variables", dict),
    }
    reader.finish()
    return parsed, template
