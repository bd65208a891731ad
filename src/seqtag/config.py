"""Run configuration: YAML loading, schema validation, overrides.

One structured file drives everything: the training process, the
tasks and their input files, pre-trained embeddings, the network
architecture with shared and private layers, regularization, and the
evaluation setup. The config dataclasses are the schema: ``read``
reads a mapping into one of them, taking each key's type from the
field's annotation and its default from the field. A field declares
its allowed values as ``choices`` or ``rules`` metadata, which
``Checked`` checks whenever a config is built, from a file or in
Python. Unknown keys are rejected with their location, and scalar
leaves can be overridden with ``section.key=value`` assignments.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
import typing
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import yaml
from yaml.constructor import ConstructorError

from seqtag.corpus import read_text
from seqtag.exceptions import ConfigError
from seqtag.metrics import METRICS

_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml when PyYAML has it


class _UniqueKeys:
    """A loader mix-in that rejects a key given twice in one mapping; a
    key may still override one merged in with ``<<``."""

    def construct_mapping(self, node, deep=False):
        keys = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep=deep)  # flattens the merged keys in
        seen = set()
        for k in keys:
            key = self.construct_object(k, deep=deep)
            if key in seen:
                raise ConstructorError(None, None, f"found duplicate key {key!r}", k.start_mark)
            seen.add(key)
        return mapping


_CONFIG_LOADER = type("ConfigLoader", (_UniqueKeys, _YAML_LOADER), {})

CELL_KINDS = ("simple", "lstm", "gru")
HEAD_KINDS = ("softmax", "crf")
ACTIVATION_KINDS = ("tanh", "sigmoid", "relu", "identity")  # the keys of network.ACTIVATIONS
OPTIMIZER_KINDS = ("sgd", "adam")
DEV_METRICS = ("accuracy", "f1")
POSTPROCESS_VARIANTS = ("none", "to_outside", "to_begin", "am")

# the rules a field may declare, each with the test a value must pass
RULES = {
    ">= 1": lambda value: value >= 1,
    ">= 0": lambda value: value >= 0,
    "> 0": lambda value: value > 0,
    "finite": math.isfinite,
    "in [0, 1)": lambda value: 0 <= value < 1,
    "in (0, 1]": lambda value: 0 < value <= 1,
}


def rule(*names: str, **kwargs):
    """A dataclass field whose value, or each item of its list, must pass
    the ``RULES`` ``names`` in order; ``kwargs`` go to ``field``."""
    return field(metadata={"rules": names}, **kwargs)


class _RuleError(ConfigError):
    """A value breaks its field's rule; ``read`` puts its location first."""


class Checked:
    """Base of the config dataclasses: building one checks each field's
    ``choices`` and ``rules`` on its value, or on each item of its list;
    ``None`` is not checked. A class's own ``__post_init__`` calls this one
    first, then checks the rules that span its fields."""

    def __post_init__(self):
        for name, metadata in _ruled_fields(type(self)):
            value = getattr(self, name)
            if value is None:
                continue
            items = enumerate(value) if isinstance(value, list) else [(None, value)]
            for i, item in items:
                at = name if i is None else f"{name}[{i}]"
                choices = metadata.get("choices")
                if choices is not None and item not in choices:
                    raise _RuleError(f"{at} must be one of {list(choices)}, got {item!r}")
                for test in metadata.get("rules", ()):
                    if not RULES[test](item):
                        raise _RuleError(f"{at} must be {test}, got {item}")


@functools.cache
def _ruled_fields(cls) -> tuple:
    """(name, metadata) of each field of ``cls`` that declares a rule."""
    return tuple((f.name, f.metadata) for f in dataclasses.fields(cls) if f.metadata)


class Reader:
    """Reads keys out of a mapping, tracking location and leftovers."""

    def __init__(self, data, path: str):
        if not isinstance(data, Mapping):
            raise ConfigError(f"{path or 'config'}: expected a mapping, got {type(data).__name__}")
        self.data = dict(data)
        self.path = path

    def at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def take(self, key: str, kind, default=...):
        """``key``'s value checked against the annotation ``kind``, else ``default``."""
        if key in self.data:
            return _converter(kind)(self.data.pop(key), self.at(key))
        if default is ...:
            raise ConfigError(f"missing required key {self.at(key)}")
        return default

    def section(self, key: str) -> "Reader":
        """A reader over the sub-mapping ``key``, empty when it is absent."""
        return Reader(self.data.pop(key, {}), self.at(key))

    def split(self, cls) -> "Reader":
        """A reader over the keys that name fields of ``cls``, taken out of this one."""
        names = [f.name for f in dataclasses.fields(cls) if f.name in self.data]
        return Reader({name: self.data.pop(name) for name in names}, self.path)

    def finish(self) -> None:
        if self.data:
            raise ConfigError(f"unknown key {self.at(min(self.data, key=str))}")


def read(cls, reader: Reader, **given):
    """Build the config dataclass ``cls`` from one key of ``reader`` per field
    not in ``given``; an absent key takes the field's default. A key that
    belongs to no field is rejected before the class's own checks run. A
    field's rule error is named by its full key; any other ConfigError
    from those checks is prefixed with the reader's location."""
    for name, required, convert in _schema(cls):
        if name in given:
            continue
        if name in reader.data:
            given[name] = convert(reader.data.pop(name), reader.at(name))
        elif required:
            raise ConfigError(f"missing required key {reader.at(name)}")
    reader.finish()
    try:
        return cls(**given)
    except _RuleError as err:
        raise ConfigError(reader.at(str(err))) from err
    except ConfigError as err:
        raise ConfigError(f"{reader.path or 'config'}: {err}") from err


@functools.cache
def _schema(cls) -> tuple:
    """(name, required, converter) per field, resolved once per class."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
            _converter(hints[f.name]),
        )
        for f in dataclasses.fields(cls)
    )


@functools.cache
def _converter(kind):
    """A function ``(value, location) -> value`` checking a value against
    the annotation ``kind``: a scalar, ``X | None``, ``list[X]`` or a config
    dataclass; an int passes as a float."""
    args = typing.get_args(kind)
    if type(None) in args:
        (inner,) = [a for a in args if a is not type(None)]
        convert_inner = _converter(inner)
        return lambda value, at: None if value is None else convert_inner(value, at)
    if typing.get_origin(kind) is list:
        check_list, convert_item = _converter(list), _converter(args[0])
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
        return value

    return convert


@dataclass
class CharConfig(Checked):
    enabled: bool = False
    embedding_dim: int = rule(">= 1", default=8)
    hidden: int = rule(">= 1", default=8)


@dataclass
class DropoutConfig(Checked):
    word: float = rule("in [0, 1)", default=0.0)
    rnn_input: float = rule("in [0, 1)", default=0.0)
    rnn_state: float = rule("in [0, 1)", default=0.0)
    rnn_output: float = rule("in [0, 1)", default=0.0)
    variational: bool = True


@dataclass
class PrivateLayerSpec(Checked):
    units: int = rule(">= 1")
    activation: str = field(default="tanh", metadata={"choices": ACTIVATION_KINDS})


@dataclass
class TaskSpec(Checked):
    name: str
    labels: list[str]
    termination_layer: int = 1
    head: str = field(default="softmax", metadata={"choices": HEAD_KINDS})
    private_layers: list[PrivateLayerSpec] = field(default_factory=list)
    dropout: float = rule("in [0, 1)", default=0.0)


@dataclass
class NetworkConfig(Checked):
    cell: str = field(default="lstm", metadata={"choices": CELL_KINDS})
    shared_layers: list[int] = rule(">= 1", default_factory=lambda: [32])
    use_shortcuts: bool = False
    char: CharConfig = field(default_factory=CharConfig)
    dropout: DropoutConfig = field(default_factory=DropoutConfig)
    tasks: list[TaskSpec] = field(default_factory=list)
    word_dim: int = rule(">= 1", default=16)
    fine_tune_embeddings: bool = True

    def __post_init__(self):
        """The layer count, the termination layers and the task names;
        ``Model`` checks the label inventories, filled in from the data."""
        super().__post_init__()
        layers = len(self.shared_layers)
        if not layers:
            raise ConfigError("at least one shared layer is required")
        if not self.tasks:
            raise ConfigError("at least one task is required")
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate task names")
        for task in self.tasks:
            if not 1 <= task.termination_layer <= layers:
                raise ConfigError(
                    f"task {task.name!r} terminates at layer {task.termination_layer}, "
                    f"but there are {layers} shared layers"
                )
        top = max(t.termination_layer for t in self.tasks)
        if top != layers:
            raise ConfigError(
                f"{layers} shared layers configured but the highest "
                f"termination layer is {top}; they must be equal"
            )

    def task(self, name: str) -> TaskSpec:
        for task in self.tasks:
            if task.name == name:
                return task
        raise ConfigError(f"unknown task {name!r}")

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "NetworkConfig":
        """Read a checkpoint's config echo with the checks of a config file."""
        return read(cls, Reader(payload, "config"))


@dataclass
class OptimizerConfig(Checked):
    kind: str = field(default="adam", metadata={"choices": OPTIMIZER_KINDS})
    learning_rate: float = rule("> 0", "finite", default=0.001)
    beta1: float = rule("in [0, 1)", default=0.9)
    beta2: float = rule("in [0, 1)", default=0.999)
    epsilon: float = rule("> 0", "finite", default=1e-8)


@dataclass
class EarlyStoppingConfig(Checked):
    task: str
    metric: str = field(default="accuracy", metadata={"choices": DEV_METRICS})
    patience: int = rule(">= 1", default=5)


@dataclass
class TrainConfig(Checked):
    epochs: int = rule(">= 1", default=20)
    batch_size: int = rule(">= 1", default=8)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    clip_norm: float | None = rule("> 0", "finite", default=None)
    early_stopping: EarlyStoppingConfig | None = None
    main_task: str = ""
    seed: int = rule(">= 0", default=0)


@dataclass
class TaskFiles(Checked):
    name: str
    train: str | None = None
    dev: str | None = None
    test: str | None = None
    token_column: int = rule(">= 0", default=0)
    label_column: int = rule(">= 0", default=1)
    train_fraction: float = rule("in (0, 1]", default=1.0)


@dataclass
class EmbeddingsConfig(Checked):
    files: list[str] = field(default_factory=list)
    word_dim: int = rule(">= 1", default=16)  # used when ``files`` is empty
    fine_tune: bool = True


@dataclass
class EvalConfig(Checked):
    metrics: list[str] = field(
        default_factory=lambda: ["accuracy", "f1"], metadata={"choices": tuple(METRICS)}
    )
    postprocess: str = field(default="none", metadata={"choices": POSTPROCESS_VARIANTS})
    empty_symbol: str = "ε"
    join_symbol: str = "_"


@dataclass
class RunConfig(Checked):
    network: NetworkConfig
    training: TrainConfig
    task_files: list[TaskFiles]
    embeddings: EmbeddingsConfig
    evaluation: EvalConfig
    output_dir: str = "runs"

    def __post_init__(self):
        """Names the first task the main one by default; checks both tasks."""
        super().__post_init__()
        names = [t.name for t in self.network.tasks]
        self.training.main_task = self.training.main_task or names[0]
        if self.training.main_task not in names:
            raise ConfigError(f"main task {self.training.main_task!r} is not a declared task")
        es = self.training.early_stopping
        if es is not None and es.task not in names:
            raise ConfigError(f"early stopping task {es.task!r} is not declared")


def load_yaml(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    data = _parse_yaml(read_text(path), str(path))
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


def build_run_config(raw: Mapping) -> RunConfig:
    """Read and check a run configuration: ``read`` reads each section into
    its dataclass; only keys laid out differently in the file are read here.
    A task entry's keys go to ``TaskSpec`` or ``TaskFiles`` by their fields."""
    root = Reader(raw, "")
    tasks = root.take("tasks", list)
    if not tasks:
        raise ConfigError("tasks: at least one task is required")
    readers = [Reader(entry, f"tasks[{i}]") for i, entry in enumerate(tasks)]
    # the label inventories are filled from the data by the experiment setup
    task_specs = [read(TaskSpec, reader.split(TaskSpec), labels=[]) for reader in readers]
    task_files = [read(TaskFiles, r, name=t.name) for r, t in zip(readers, task_specs)]

    regularization = root.section("regularization")
    dropout = read(DropoutConfig, regularization.section("dropout"))
    regularization.finish()
    embeddings = read(EmbeddingsConfig, root.section("embeddings"))
    network = read(
        NetworkConfig,
        root.section("architecture"),
        dropout=dropout,
        tasks=task_specs,
        word_dim=embeddings.word_dim,
        fine_tune_embeddings=embeddings.fine_tune,
    )
    training = read(TrainConfig, Reader(root.take("training", dict), "training"))

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
    return RunConfig(network, training, task_files, embeddings, evaluation, output_dir)


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
        node[leaf] = _parse_yaml(text, f"override {assignment!r}")
    return result


def _parse_yaml(text: str, what: str):
    """``text`` parsed as YAML; a syntax error is one line naming ``what``
    and, when the parser gives one, the line and column."""
    try:
        return yaml.load(text, Loader=_CONFIG_LOADER)
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        where = f"line {mark.line + 1}, column {mark.column + 1}: " if mark else ""
        problem = getattr(err, "problem", None) or str(err).splitlines()[0]
        raise ConfigError(f"cannot parse {what}: {where}{problem}") from err
