"""The config rules: every rule a field declares, and every rule across
fields, checked through the command line with its exact message; a
seeded fuzz over the leaves of a config; and guards that keep every
config dataclass on the one shared check."""

import ast
import copy
import dataclasses
import inspect
import math
import random
import re
import textwrap
import time
import typing
from pathlib import Path

import numpy as np
import pytest
import yaml

from seqtag import config as config_module
from seqtag import hyperopt
from seqtag.checkpoint import save_model
from seqtag.cli import main
from seqtag.config import RULES, Checked, NetworkConfig, RunConfig, TaskSpec
from seqtag.corpus import parse_conll
from seqtag.exceptions import ConfigError
from seqtag.hyperopt import SearchConfig
from seqtag.network import ACTIVATIONS, Model

from conftest import reframe_checkpoint, synthetic_bio_corpus, vocab_for
from test_config_cli import write_corpus

SRC = Path(config_module.__file__).resolve().parent


@pytest.fixture
def rich_config(tmp_path, monkeypatch):
    """A small run config that sets every section, with files on disk; the
    working directory is ``tmp_path``, so a relative output stays there."""
    monkeypatch.chdir(tmp_path)
    files = {
        split: write_corpus(tmp_path / f"{split}.conll", synthetic_bio_corpus(n, seed=seed))
        for split, n, seed in (("train", 4, 4), ("dev", 2, 5))
    }
    config = {
        "training": {
            "epochs": 2,
            "batch_size": 4,
            "seed": 1,
            "main_task": "tag",
            "clip_norm": 5.0,
            "optimizer": {"kind": "adam", "learning_rate": 0.01, "beta1": 0.9,
                          "beta2": 0.999, "epsilon": 1.0e-8},
            "early_stopping": {"task": "tag", "metric": "f1", "patience": 2},
        },
        "tasks": [
            {
                "name": "tag",
                **files,
                "token_column": 0,
                "label_column": 1,
                "train_fraction": 1.0,
                "termination_layer": 1,
                "head": "crf",
                "dropout": 0.1,
                "private_layers": [{"units": 3, "activation": "relu"}],
            }
        ],
        "architecture": {
            "cell": "gru",
            "shared_layers": [4],
            "use_shortcuts": False,
            "char": {"enabled": True, "embedding_dim": 2, "hidden": 2},
        },
        "regularization": {
            "dropout": {"word": 0.1, "rnn_input": 0.1, "rnn_state": 0.1, "rnn_output": 0.1,
                        "variational": True},
        },
        "embeddings": {"files": [], "word_dim": 4, "fine_tune": True},
        "evaluation": {
            "metrics": ["accuracy", "f1"],
            "postprocess": "to_begin",
            "special_symbols": {"empty": "ε", "join": "_"},
        },
        "output": {"dir": "out"},
    }
    return tmp_path, config


SEARCH = {
    "trials": 1,
    "seeds_per_trial": 1,
    "final_seeds": 0,
    "master_seed": 0,
    "variables": {"u": {"kind": "discrete", "start": 2, "end": 3}},
}


def edit(config: dict, path: str, value) -> None:
    *parents, leaf = [int(key) if key.isdigit() else key for key in path.split(".")]
    node = config
    for key in parents:
        node = node[key]
    if isinstance(node, list) and leaf == len(node):
        node.append(value)
    else:
        node[leaf] = value


def run_cli(tmp_path, capsys, command, config) -> tuple[int, str]:
    path = tmp_path / f"{command}.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    capsys.readouterr()
    argv = [command, str(path)] + (["--quiet"] if command == "train" else [])
    code = main(argv + ["--output", str(tmp_path / "out")])
    return code, capsys.readouterr().err


ONE_OF = "must be one of"
# (owner, rule, command, path of the edited key, its value, the message after "error: ");
# the owner is "Class.field" for a rule declared on a field, else the class or function
# that checks the rule across fields
RULE_TABLE = [
    ("CharConfig.embedding_dim", ">= 1", "train", "architecture.char.embedding_dim", 0,
     "architecture.char.embedding_dim must be >= 1, got 0"),
    ("CharConfig.hidden", ">= 1", "train", "architecture.char.hidden", -2,
     "architecture.char.hidden must be >= 1, got -2"),
    ("DropoutConfig.word", "in [0, 1)", "train", "regularization.dropout.word", 1.0,
     "regularization.dropout.word must be in [0, 1), got 1.0"),
    ("DropoutConfig.rnn_input", "in [0, 1)", "train", "regularization.dropout.rnn_input", -0.1,
     "regularization.dropout.rnn_input must be in [0, 1), got -0.1"),
    ("DropoutConfig.rnn_state", "in [0, 1)", "train", "regularization.dropout.rnn_state", 1.5,
     "regularization.dropout.rnn_state must be in [0, 1), got 1.5"),
    ("DropoutConfig.rnn_output", "in [0, 1)", "train", "regularization.dropout.rnn_output", 1,
     "regularization.dropout.rnn_output must be in [0, 1), got 1.0"),
    ("PrivateLayerSpec.units", ">= 1", "train", "tasks.0.private_layers.0.units", 0,
     "tasks[0].private_layers[0].units must be >= 1, got 0"),
    ("PrivateLayerSpec.activation", "choices", "train", "tasks.0.private_layers.0.activation",
     "softplus", f"tasks[0].private_layers[0].activation {ONE_OF} "
     "['tanh', 'sigmoid', 'relu', 'identity'], got 'softplus'"),
    ("TaskSpec.head", "choices", "train", "tasks.0.head", "hmm",
     f"tasks[0].head {ONE_OF} ['softmax', 'crf'], got 'hmm'"),
    ("TaskSpec.dropout", "in [0, 1)", "train", "tasks.0.dropout", 1.0,
     "tasks[0].dropout must be in [0, 1), got 1.0"),
    ("NetworkConfig.cell", "choices", "train", "architecture.cell", "tree",
     f"architecture.cell {ONE_OF} ['simple', 'lstm', 'gru'], got 'tree'"),
    ("NetworkConfig.shared_layers", ">= 1", "train", "architecture.shared_layers", [4, 0],
     "architecture.shared_layers[1] must be >= 1, got 0"),
    ("OptimizerConfig.kind", "choices", "train", "training.optimizer.kind", "rmsprop",
     f"training.optimizer.kind {ONE_OF} ['sgd', 'adam'], got 'rmsprop'"),
    ("OptimizerConfig.learning_rate", "> 0", "train", "training.optimizer.learning_rate", 0.0,
     "training.optimizer.learning_rate must be > 0, got 0.0"),
    ("OptimizerConfig.learning_rate", "finite", "train", "training.optimizer.learning_rate",
     math.inf, "training.optimizer.learning_rate must be finite, got inf"),
    ("OptimizerConfig.beta1", "in [0, 1)", "train", "training.optimizer.beta1", 1.0,
     "training.optimizer.beta1 must be in [0, 1), got 1.0"),
    ("OptimizerConfig.beta2", "in [0, 1)", "train", "training.optimizer.beta2", -0.5,
     "training.optimizer.beta2 must be in [0, 1), got -0.5"),
    ("OptimizerConfig.epsilon", "> 0", "train", "training.optimizer.epsilon", 0.0,
     "training.optimizer.epsilon must be > 0, got 0.0"),
    ("OptimizerConfig.epsilon", "finite", "train", "training.optimizer.epsilon", math.inf,
     "training.optimizer.epsilon must be finite, got inf"),
    ("EarlyStoppingConfig.metric", "choices", "train", "training.early_stopping.metric", "bleu",
     f"training.early_stopping.metric {ONE_OF} ['accuracy', 'f1'], got 'bleu'"),
    ("EarlyStoppingConfig.patience", ">= 1", "train", "training.early_stopping.patience", 0,
     "training.early_stopping.patience must be >= 1, got 0"),
    ("TrainConfig.epochs", ">= 1", "train", "training.epochs", 0,
     "training.epochs must be >= 1, got 0"),
    ("TrainConfig.batch_size", ">= 1", "train", "training.batch_size", -1,
     "training.batch_size must be >= 1, got -1"),
    ("TrainConfig.clip_norm", "> 0", "train", "training.clip_norm", 0.0,
     "training.clip_norm must be > 0, got 0.0"),
    ("TrainConfig.clip_norm", "finite", "train", "training.clip_norm", math.inf,
     "training.clip_norm must be finite, got inf"),
    ("TrainConfig.seed", ">= 0", "train", "training.seed", -1,
     "training.seed must be >= 0, got -1"),
    ("TaskFiles.token_column", ">= 0", "train", "tasks.0.token_column", -1,
     "tasks[0].token_column must be >= 0, got -1"),
    ("TaskFiles.label_column", ">= 0", "train", "tasks.0.label_column", -1,
     "tasks[0].label_column must be >= 0, got -1"),
    ("TaskFiles.train_fraction", "in (0, 1]", "train", "tasks.0.train_fraction", 1.5,
     "tasks[0].train_fraction must be in (0, 1], got 1.5"),
    ("EmbeddingsConfig.word_dim", ">= 1", "train", "embeddings.word_dim", 0,
     "embeddings.word_dim must be >= 1, got 0"),
    ("EvalConfig.metrics", "choices", "train", "evaluation.metrics", ["accuracy", "bleu"],
     "evaluation.metrics[1] must be one of ['accuracy', 'precision', 'recall', 'f1', "
     "'c_f1_50', 'c_f1_100', 'r_f1_50', 'r_f1_100', 'wacc', 'edit_distance_mean', "
     "'edit_distance_median'], got 'bleu'"),
    ("EvalConfig.postprocess", "choices", "train", "evaluation.postprocess", "fix",
     f"evaluation.postprocess {ONE_OF} ['none', 'to_outside', 'to_begin', 'am'], got 'fix'"),
    ("SearchConfig.trials", ">= 1", "search", "search.trials", 0,
     "search.trials must be >= 1, got 0"),
    ("SearchConfig.seeds_per_trial", ">= 1", "search", "search.seeds_per_trial", 0,
     "search.seeds_per_trial must be >= 1, got 0"),
    ("SearchConfig.final_seeds", ">= 0", "search", "search.final_seeds", -1,
     "search.final_seeds must be >= 0, got -1"),
    ("SearchConfig.master_seed", ">= 0", "search", "search.master_seed", -1,
     "search.master_seed must be >= 0, got -1"),
    ("_IntervalKind.kind", "choices", "search", "search.variables.u.kind", "grid",
     f"search.variables.u.kind {ONE_OF} ['list', 'discrete', 'continuous'], got 'grid'"),
    # rules across fields
    ("build_run_config", "a task", "train", "tasks", [],
     "tasks: at least one task is required"),
    ("NetworkConfig", "a shared layer", "train", "architecture.shared_layers", [],
     "architecture: at least one shared layer is required"),
    ("NetworkConfig", "distinct task names", "train", "tasks.1", {"name": "tag", "train": "x"},
     "architecture: duplicate task names"),
    ("NetworkConfig", "termination layer", "train", "tasks.0.termination_layer", 2,
     "architecture: task 'tag' terminates at layer 2, but there are 1 shared layers"),
    ("NetworkConfig", "layer count", "train", "architecture.shared_layers", [4, 4],
     "architecture: 2 shared layers configured but the highest termination layer is 1; "
     "they must be equal"),
    ("RunConfig", "main task", "train", "training.main_task", "absent",
     "main task 'absent' is not a declared task"),
    ("RunConfig", "early-stopping task", "train", "training.early_stopping.task", "absent",
     "early stopping task 'absent' is not declared"),
    ("SearchConfig", "a variable", "search", "search.variables", {},
     "search: empty search space"),
    ("ListInterval", "a value", "search", "search.variables.u", {"kind": "list", "values": []},
     "search.variables.u: list interval needs at least one value"),
    ("DiscreteInterval", "start <= end", "search", "search.variables.u.start", 4,
     "search.variables.u: discrete interval [4..3] is empty"),
    ("DiscreteInterval", "int64", "search", "search.variables.u.end", 2**63,
     "search.variables.u: discrete interval [2..9223372036854775808] exceeds int64"),
    ("ContinuousInterval", "start < end", "search", "search.variables.u",
     {"kind": "continuous", "start": 1.0, "end": 1.0},
     "search.variables.u: continuous interval [1.0, 1.0) is empty"),
    ("ContinuousInterval", "finite width", "search", "search.variables.u",
     {"kind": "continuous", "start": 0.0, "end": math.inf},
     "search.variables.u: continuous interval [0.0, inf) has no finite width"),
]


@pytest.mark.parametrize(
    "owner, rule, command, path, value, message",
    RULE_TABLE,
    ids=[f"{owner}:{rule}" for owner, rule, *_ in RULE_TABLE],
)
def test_each_config_rule_exits_1_with_its_message(
    rich_config, capsys, owner, rule, command, path, value, message
):
    tmp_path, config = rich_config
    if command == "search":
        config["architecture"]["shared_layers"] = ["${u}"]
        config["search"] = copy.deepcopy(SEARCH)
    edit(config, path, value)
    assert run_cli(tmp_path, capsys, command, config) == (1, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_a_checkpoint_echo_is_checked_by_the_network_rules(tmp_path, capsys):
    """``NetworkConfig.word_dim`` is set from ``embeddings.word_dim`` in a
    config file, so its own rule shows in a checkpoint's config echo."""
    corpus = parse_conll("a\tO\nfox\tB-X\n", 0, {"tag": 1})
    vocab = vocab_for([corpus], {"tag": [corpus]})
    network = NetworkConfig(
        shared_layers=[2], tasks=[TaskSpec(name="tag", labels=vocab.labels_of("tag"))], word_dim=2
    )
    checkpoint = tmp_path / "model.ckpt"
    save_model(Model(network, vocab, np.random.default_rng(0)), checkpoint)
    reframe_checkpoint(checkpoint, lambda blob, _: blob.replace(b'"word_dim": 2', b'"word_dim": 0'))
    data = tmp_path / "plain.conll"
    data.write_text("fox\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", str(checkpoint), "--input", str(data)]) == 2
    assert capsys.readouterr().err == (
        f"error: corrupt checkpoint manifest in {checkpoint}: bad config or vocabulary "
        "(ConfigError('config.word_dim must be >= 1, got 0'))\n"
    )
    payload = network.to_json()
    payload["tasks"] = []
    with pytest.raises(ConfigError, match=r"^config: at least one task is required$"):
        NetworkConfig.from_json(payload)


ECHO_ONLY = {("NetworkConfig", "word_dim", ">= 1")}  # covered by the checkpoint test above


def read_dataclasses() -> set[type]:
    """Every dataclass that ``read`` can build from a file: those reachable
    through the annotations of ``RunConfig`` and ``SearchConfig``, and the
    one ``parse_interval`` reads an interval's kind with."""
    found, todo = set(), [RunConfig, SearchConfig, hyperopt._IntervalKind]
    while todo:
        kind = todo.pop()
        if dataclasses.is_dataclass(kind) and kind not in found:
            found.add(kind)
            todo += typing.get_type_hints(kind).values()
        todo += typing.get_args(kind)
    return found


def test_rule_table_covers_every_declared_rule():
    declared = {
        (cls.__name__, f.name, rule)
        for cls in read_dataclasses()
        for f in dataclasses.fields(cls)
        for rule in ["choices"] * ("choices" in f.metadata) + [*f.metadata.get("rules", ())]
    }
    covered = {(*owner.split("."), rule) for owner, rule, *_ in RULE_TABLE if "." in owner}
    assert declared - covered == ECHO_ONLY
    assert covered <= declared  # no case names a rule that is not declared


def test_every_config_dataclass_uses_the_shared_check():
    """Each dataclass ``read`` builds derives from ``Checked``, and one
    with checks of its own runs the shared check first. The config
    dataclasses live in ``config.py`` (the search's in ``hyperopt.py``),
    every declared rule is one ``RULES`` knows, and ``src/`` has no
    ``validate`` method."""
    for cls in read_dataclasses():
        assert issubclass(cls, Checked), cls
        assert cls.__module__ in ("seqtag.config", "seqtag.hyperopt"), cls
        if "__post_init__" in vars(cls):  # its first statement after the docstring
            method = ast.parse(textwrap.dedent(inspect.getsource(cls.__post_init__))).body[0]
            first = method.body[1] if ast.get_docstring(method) else method.body[0]
            assert ast.unparse(first) == "super().__post_init__()", cls
        for f in dataclasses.fields(cls):
            assert set(f.metadata.get("rules", ())) <= set(RULES), (cls, f.name)
    assert set(ACTIVATIONS) == set(config_module.ACTIVATION_KINDS)
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"\bdef validate\(|\.validate\(", text), path.name


def test_a_python_built_config_is_checked_when_built():
    with pytest.raises(ConfigError, match=r"^batch_size must be >= 1, got 0$"):
        config_module.TrainConfig(batch_size=0)
    with pytest.raises(ConfigError, match=r"^shared_layers\[0\] must be >= 1, got 0$"):
        NetworkConfig(shared_layers=[0], tasks=[TaskSpec(name="t", labels=["O"])])
    with pytest.raises(ConfigError, match=r"^duplicate task names$"):
        NetworkConfig(tasks=[TaskSpec(name="t", labels=["O"])] * 2, shared_layers=[2])



def test_model_rejects_an_empty_label_inventory():
    """Label inventories are filled in from the data after the config is
    read, so the model checks them when it is built."""
    config = NetworkConfig(shared_layers=[2], tasks=[TaskSpec(name="t", labels=[])], word_dim=2)
    with pytest.raises(ConfigError, match=r"^task 't' has an empty label inventory$"):
        Model(config, vocab_for([], {}), np.random.default_rng(0))

# -- a seeded fuzz over the config's leaves -------------------------------------------

ATOMS = [-1, 0, 1, 2, 0.5, 1e300, math.inf, math.nan, "x", True, None, [], {}]
DELETE = object()
MUTATIONS = 300


def leaves(node, path=()):
    """The path of every scalar leaf and of every empty list or mapping."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in children:
        if isinstance(value, (dict, list)) and value:
            yield from leaves(value, (*path, key))
        else:
            yield (*path, key)


def mutations(base: dict):
    """The fuzz's seeded mutations of ``base``, as (description, config):
    one leaf replaced by an atom or deleted."""
    rng = random.Random(25)
    paths = list(leaves(base))
    for i in range(MUTATIONS):
        config = copy.deepcopy(base)
        *parents, leaf = rng.choice(paths)
        atom = rng.choice([*ATOMS, DELETE])
        node = config
        for key in parents:
            node = node[key]
        if atom is DELETE:
            del node[leaf]
        else:
            node[leaf] = atom
        what = f"mutation {i}: {'.'.join(map(str, (*parents, leaf)))} = " + (
            "<deleted>" if atom is DELETE else repr(atom)
        )
        yield what, config


def test_config_fuzz_ends_in_an_exit_code_and_at_most_one_line(rich_config, capsys):
    """Seeded mutations: one leaf of the config replaced by an atom or
    deleted, then ``seqtag train``. Every run exits 0, 1, 2 or 3, and a run
    that fails says why in exactly one stderr line."""
    tmp_path, base = rich_config
    started = time.perf_counter()
    codes, bad = {}, []
    for what, config in mutations(base):
        try:
            code, err = run_cli(tmp_path, capsys, "train", config)
        except Exception as exc:  # deliberate: a traceback is the defect being looked for
            bad.append(f"{what}: {type(exc).__name__}: {exc}")
            continue
        codes[code] = codes.get(code, 0) + 1
        if code not in (0, 1, 2, 3) or (code != 0 and err.count("\n") != 1):
            bad.append(f"{what}: exit {code}, stderr {err!r}")
    seconds = time.perf_counter() - started
    print(f"config fuzz: {MUTATIONS} mutations in {seconds:.1f} s, exits {sorted(codes.items())}")
    assert not bad, "\n".join(bad)
    assert seconds < 10
