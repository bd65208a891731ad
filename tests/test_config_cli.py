import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from seqtag import cli
from seqtag.checkpoint import save_model
from seqtag.cli import main
from seqtag.config import NetworkConfig, TaskSpec, apply_overrides, build_run_config, load_yaml
from seqtag.corpus import corpus_to_conll, parse_conll, parse_conll_file
from seqtag.embeddings import save_embedding_file
from seqtag.exceptions import ConfigError
from seqtag.experiment import ExperimentData
from seqtag.files import write_cache
from seqtag.hyperopt import split_search_section
from seqtag.network import Model

from conftest import (
    reframe_checkpoint,
    synthetic_bio_corpus,
    vocab_for,
    write_half_then_fail,
)


def write_corpus(path, corpus):
    path.write_text(corpus_to_conll(corpus), encoding="utf-8")
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    corpus = synthetic_bio_corpus(n_sentences=12, seed=4)
    train = write_corpus(tmp_path / "train.conll", corpus)
    dev = write_corpus(tmp_path / "dev.conll", synthetic_bio_corpus(n_sentences=4, seed=5))
    test = write_corpus(tmp_path / "test.conll", synthetic_bio_corpus(n_sentences=4, seed=6))
    config = {
        "training": {
            "epochs": 2,
            "batch_size": 4,
            "seed": 1,
            "main_task": "tag",
            "optimizer": {"kind": "adam", "learning_rate": 0.01},
        },
        "tasks": [
            {
                "name": "tag",
                "train": train,
                "dev": dev,
                "test": test,
                "token_column": 0,
                "label_column": 1,
            }
        ],
        "architecture": {"cell": "gru", "shared_layers": [6]},
        "embeddings": {"word_dim": 6},
        "output": {"dir": str(tmp_path / "out")},
    }
    config_path = tmp_path / "run.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    return tmp_path, config_path, config


def test_build_run_config_happy_path(workspace):
    _, config_path, _ = workspace
    run_config = build_run_config(load_yaml(config_path))
    assert run_config.training.epochs == 2
    assert run_config.network.cell == "gru"
    assert run_config.task_files[0].label_column == 1


def test_unknown_key_rejected_with_location(workspace):
    _, _, config = workspace
    config["training"]["optimzer"] = {}
    with pytest.raises(ConfigError, match="training.optimzer"):
        build_run_config(config)


def test_unknown_metric_rejected(workspace):
    _, _, config = workspace
    config["evaluation"] = {"metrics": ["accuracy", "bogus"]}
    with pytest.raises(ConfigError, match="bogus"):
        build_run_config(config)


def test_main_task_must_be_declared(workspace):
    _, _, config = workspace
    config["training"]["main_task"] = "missing"
    with pytest.raises(ConfigError):
        build_run_config(config)


def test_apply_overrides_typed():
    raw = {"training": {"epochs": 2, "seed": 0}, "tasks": []}
    out = apply_overrides(raw, ["training.epochs=7", "training.seed=3"])
    assert out["training"]["epochs"] == 7
    assert raw["training"]["epochs"] == 2  # original untouched


def test_apply_overrides_on_a_yaml_alias_changes_every_use():
    raw = yaml.safe_load("a: &shared {units: 8}\nb: *shared\n")
    out = apply_overrides(raw, ["a.units=16"])
    assert out == {"a": {"units": 16}, "b": {"units": 16}}
    assert raw == {"a": {"units": 8}, "b": {"units": 8}}


def test_apply_overrides_bad_path():
    with pytest.raises(ConfigError):
        apply_overrides({"a": {}}, ["a.b.c=1"])


def test_split_search_section():
    raw = {
        "training": {"epochs": "${e}"},
        "search": {"trials": 3, "variables": {"e": {"kind": "discrete", "start": 1, "end": 5}}},
    }
    search, template = split_search_section(raw)
    assert search.trials == 3
    assert "search" not in template
    with pytest.raises(ConfigError):
        split_search_section({"training": {}})


def _valid_config():
    """A config touching every section; it builds without reading any file."""
    return {
        "training": {
            "epochs": 2,
            "batch_size": 4,
            "seed": 1,
            "main_task": "tag",
            "clip_norm": 5.0,
            "optimizer": {"kind": "adam", "learning_rate": 0.01},
            "early_stopping": {"task": "tag", "metric": "f1", "patience": 2},
        },
        "tasks": [
            {
                "name": "tag",
                "train": "train.conll",
                "head": "crf",
                "private_layers": [{"units": 4, "activation": "relu"}],
            }
        ],
        "architecture": {"cell": "gru", "shared_layers": [6], "char": {"enabled": False}},
        "regularization": {"dropout": {"word": 0.1, "variational": True}},
        "embeddings": {"files": [], "word_dim": 6},
        "evaluation": {
            "metrics": ["accuracy"],
            "postprocess": "none",
            "special_symbols": {"empty": "ε", "join": "_"},
        },
        "output": {"dir": "out"},
    }


_DROP = object()

# (path to the changed key, its new value or _DROP, pattern the error must match)
_REJECTED = [
    (("training", "epochs"), "2", r"^training\.epochs: expected int"),
    (("training", "epochs"), True, r"^training\.epochs: expected int"),
    (("training", "batch_size"), 2.5, r"^training\.batch_size: expected int"),
    (("training", "clip_norm"), "high", r"^training\.clip_norm: expected float"),
    (("training", "seed"), None, r"^training\.seed: expected int"),
    (("training", "optimizer", "kind"), "rmsprop",
     r"^training\.optimizer\.kind must be one of \['sgd', 'adam'\], got 'rmsprop'$"),
    (("training", "optimizer", "beta1"), True, r"^training\.optimizer\.beta1: expected float"),
    (("training", "optimizer", "momentum"), 0.9, r"^unknown key training\.optimizer\.momentum"),
    (("training", "optimizer"), [], r"^training\.optimizer: expected"),
    (("training", "early_stopping", "metric"), "bleu",
     r"^training\.early_stopping\.metric must be one of \['accuracy', 'f1'\], got 'bleu'$"),
    (("training", "early_stopping", "task"), _DROP,
     r"^missing required key training\.early_stopping\.task"),
    (("training", "early_stopping", "patience"), 0, r"patience must be >= 1"),
    (("training", "main_task"), "absent", r"main task 'absent'"),
    (("training", "optimzer"), {}, r"^unknown key training\.optimzer"),
    (("training",), _DROP, r"^missing required \w+ training"),
    (("training",), [1], r"^training: expected"),
    (("tasks",), _DROP, r"^missing required key tasks"),
    (("tasks",), [], r"^tasks: at least one task"),
    (("tasks",), {"name": "tag"}, r"^tasks: expected list"),
    (("tasks", 0), "tag", r"^tasks\[0\]: expected"),
    (("tasks", 0, "name"), _DROP, r"^missing required key tasks\[0\]\.name"),
    (("tasks", 0, "head"), "hmm",
     r"^tasks\[0\]\.head must be one of \['softmax', 'crf'\], got 'hmm'$"),
    (("tasks", 0, "termination_layer"), "1", r"^tasks\[0\]\.termination_layer: expected int"),
    (("tasks", 0, "dropout"), "none", r"^tasks\[0\]\.dropout: expected float"),
    (("tasks", 0, "label_column"), False, r"^tasks\[0\]\.label_column: expected int"),
    (("tasks", 0, "train_fraction"), 0.0,
     r"^tasks\[0\]\.train_fraction must be in \(0, 1\], got 0\.0$"),
    (("tasks", 0, "labels"), ["O"], r"^unknown key tasks\[0\]\.labels"),
    (("tasks", 0, "trian"), "x.conll", r"^unknown key tasks\[0\]\.trian$"),
    (("tasks", 0, "private_layers"), [5], r"^tasks\[0\]\.private_layers\[0\]: expected"),
    (("tasks", 0, "private_layers", 0, "units"), _DROP,
     r"^missing required key tasks\[0\]\.private_layers\[0\]\.units"),
    (("tasks", 0, "private_layers", 0, "size"), 4,
     r"^unknown key tasks\[0\]\.private_layers\[0\]\.size"),
    (("architecture", "cell"), "transformer",
     r"^architecture\.cell must be one of \['simple', 'lstm', 'gru'\], got 'transformer'$"),
    (("architecture", "shared_layers"), 6, r"^architecture\.shared_layers: expected"),
    (("architecture", "shared_layers"), [6, True], r"^architecture\.shared_layers"),
    (("architecture", "shared_layers"), ["6"], r"^architecture\.shared_layers"),
    (("architecture", "char", "hidden"), 8.5, r"^architecture\.char\.hidden: expected int"),
    (("architecture", "char", "size"), 8, r"^unknown key architecture\.char\.size"),
    (("architecture", "word_dim"), 6, r"^unknown key architecture\.word_dim"),
    (("architecture", "dropout"), {}, r"^unknown key architecture\.dropout"),
    (("regularization", "dropout", "word"), 1.0,
     r"^regularization\.dropout\.word must be in \[0, 1\)"),
    (("regularization", "dropout", "rnn_state"), -0.1,
     r"^regularization\.dropout\.rnn_state must be in \[0, 1\)"),
    (("regularization", "dropout", "variational"), "yes",
     r"^regularization\.dropout\.variational: expected bool"),
    (("regularization", "l2"), 0.1, r"^unknown key regularization\.l2"),
    (("regularization",), 3, r"^regularization: expected"),
    (("embeddings", "word_dim"), 6.0, r"^embeddings\.word_dim: expected int"),
    (("embeddings", "files"), "glove.txt", r"^embeddings\.files: expected list"),
    (("embeddings", "fine_tune"), "yes", r"^embeddings\.fine_tune: expected bool"),
    (("evaluation", "metrics"), ["accuracy", "bogus"], r"^evaluation\.metrics.*'bogus'"),
    (("evaluation", "postprocess"), "fix",
     r"^evaluation\.postprocess must be one of \['none', 'to_outside', 'to_begin', 'am'\], "
     r"got 'fix'$"),
    (("evaluation", "special_symbols", "empty"), 1,
     r"^evaluation\.special_symbols\.empty: expected str"),
    (("evaluation", "special_symbols", "pad"), "#",
     r"^unknown key evaluation\.special_symbols\.pad"),
    (("evaluation", "empty_symbol"), "#", r"^unknown key evaluation\.empty_symbol"),
    (("output", "dir"), 5, r"^output\.dir: expected str"),
    (("output", "path"), "x", r"^unknown key output\.path"),
    (("model",), {}, r"^unknown key model"),
]


@pytest.mark.parametrize(
    "path,value,pattern",
    _REJECTED,
    ids=[".".join(map(str, p)) + f"={'DROP' if v is _DROP else repr(v)}" for p, v, _ in _REJECTED],
)
def test_build_run_config_rejects_with_location(path, value, pattern):
    build_run_config(_valid_config())  # the unchanged config is accepted
    config = _valid_config()
    *parents, leaf = path
    node = config
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[leaf]
    else:
        node[leaf] = value
    with pytest.raises(ConfigError, match=pattern):
        build_run_config(config)


def test_null_early_stopping_and_empty_main_task_take_the_defaults():
    config = _valid_config()
    config["training"]["early_stopping"] = None
    config["training"]["main_task"] = ""
    training = build_run_config(config).training
    assert training.early_stopping is None
    assert training.main_task == "tag"


def test_build_run_config_rejects_a_non_mapping():
    with pytest.raises(ConfigError, match=r"^config: expected a mapping"):
        build_run_config([_valid_config()])


# -- CLI end to end --------------------------------------------------------------------


def test_cli_train_predict_evaluate_roundtrip(workspace, capsys):
    tmp_path, config_path, config = workspace
    out_dir = tmp_path / "out"

    assert main(["train", str(config_path), "--quiet"]) == 0
    captured = capsys.readouterr()
    checkpoint = out_dir / "model.ckpt"
    assert checkpoint.exists()
    assert (out_dir / "train.log").exists()
    log_lines = (out_dir / "train.log").read_text().strip().splitlines()
    assert len(log_lines) == 2  # one per epoch
    assert all(len(line.split("\t")) == 4 for line in log_lines)

    pred_path = tmp_path / "pred.conll"
    assert main(
        ["predict", "--model", str(checkpoint), "--input", config["tasks"][0]["test"],
         "--output", str(pred_path)]
    ) == 0
    pred_text = pred_path.read_text()
    first_line = pred_text.splitlines()[0].split("\t")
    assert len(first_line) == 3  # surface, gold (preserved), predicted

    assert main(
        ["evaluate", "--model", str(checkpoint), "--input", config["tasks"][0]["test"],
         "--task", "tag", "--metrics", "accuracy,f1"]
    ) == 0
    report = capsys.readouterr().out.strip().splitlines()
    assert report[0].startswith("accuracy\t")
    assert report[1].startswith("f1\t")

    assert main(
        ["evaluate", "--predictions", str(pred_path), "--label-column", "1",
         "--pred-column", "2", "--metrics", "accuracy"]
    ) == 0


def test_cli_train_without_quiet_prints_the_log_lines_then_the_checkpoint(workspace, capsys):
    tmp_path, config_path, _ = workspace
    capsys.readouterr()
    assert main(["train", str(config_path)]) == 0
    out_dir = tmp_path / "out"
    log_text = (out_dir / "train.log").read_text(encoding="utf-8")
    assert len(log_text.splitlines()) == 2  # one per epoch
    assert capsys.readouterr().out == f"{log_text}checkpoint\t{out_dir / 'model.ckpt'}\n"


def test_cli_rerun_same_seed_is_deterministic(workspace, capsys):
    tmp_path, config_path, _ = workspace
    assert main(["train", str(config_path), "--quiet", "--output", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    assert main(["train", str(config_path), "--quiet", "--output", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "model.ckpt").read_bytes()
    b = (tmp_path / "b" / "model.ckpt").read_bytes()
    assert a == b


def test_cli_non_utf8_config_exits_2_with_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"training:\n  epochs: 2\n  seed: \xff\n")
    assert main(["train", str(bad), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(bad) in err and "byte offset 30" in err


@pytest.mark.parametrize(
    "text, line, column",
    [("training: [2, 4\nseed: 3\n", 2, 5), ("training:\n\tepochs: 2\n", 2, 1)],
    ids=["unclosed flow sequence", "tab indent"],
)
def test_cli_yaml_syntax_error_exits_1_with_one_located_line(tmp_path, capsys, text, line, column):
    """The parser's own wording is not pinned; the path, line and column are."""
    bad = tmp_path / "bad.yaml"
    bad.write_text(text, encoding="utf-8")
    assert main(["train", str(bad), "--quiet"]) == 1
    where = re.escape(f"error: cannot parse {bad}: line {line}, column {column}: ")
    assert re.fullmatch(where + r"[^\n]+\n", capsys.readouterr().err)


@pytest.mark.parametrize("source", ["file", "override"])
@pytest.mark.parametrize("command", ["train", "search"])
def test_cli_duplicate_key_exits_1_with_one_located_line(workspace, capsys, command, source):
    """A key given twice in one mapping is an error, not a silent last
    value, in a config file and in a ``--set`` value alike."""
    tmp_path, config_path, config = workspace
    if command == "search":
        config["architecture"]["shared_layers"] = ["${u}"]
        config["search"] = {"trials": 1, "variables": {"u": {"kind": "list", "values": [2]}}}
    text = yaml.safe_dump(config, sort_keys=False)
    assert text.startswith("training:\n  epochs: 2\n")
    argv = [command, str(config_path), "--output", str(tmp_path / "o")]
    if source == "file":
        text = text.replace("  epochs: 2\n", "  epochs: 2\n  epochs: 50\n", 1)
        expected = f"error: cannot parse {config_path}: line 3, column 3: "
        expected += "found duplicate key 'epochs'\n"
    else:
        argv += ["--set", "training.seed={a: 1, a: 2}"]
        expected = (
            "error: cannot parse override 'training.seed={a: 1, a: 2}': "
            "line 1, column 8: found duplicate key 'a'\n"
        )
    config_path.write_text(text, encoding="utf-8")
    assert main(argv) == 1
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "search"])
def test_cli_unparsable_override_exits_1_with_one_line(workspace, capsys, command):
    tmp_path, config_path, config = workspace
    if command == "search":
        config["architecture"]["shared_layers"] = ["${u}"]
        config["search"] = {"trials": 1, "variables": {"u": {"kind": "list", "values": [2]}}}
        config_path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    argv = [command, str(config_path), "--set", "training.epochs=[1"]
    assert main(argv + ["--output", str(tmp_path / "o")]) == 1
    where = re.escape("error: cannot parse override 'training.epochs=[1': ")
    assert re.fullmatch(where + r"line \d+, column \d+: [^\n]+\n", capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "spec,output,location",
    [
        ({"kind": "discrete", "start": 2}, {}, "search.variables.u.end"),
        (5, {}, "search.variables.u"),
        ({"kind": "discrete", "start": 2, "end": 3}, "runs", "output: expected a mapping"),
    ],
    ids=["variable_missing_end", "variable_not_a_mapping", "output_not_a_mapping"],
)
def test_cli_search_malformed_spec_exits_1(workspace, capsys, spec, output, location):
    tmp_path, _, config = workspace
    config["architecture"]["shared_layers"] = ["${u}"]
    config["output"] = output or {"dir": str(tmp_path / "searchout")}
    config["search"] = {"trials": 1, "seeds_per_trial": 1, "variables": {"u": spec}}
    path = tmp_path / "search.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    assert main(["search", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and location in err


@pytest.mark.parametrize("command", ["train", "stats", "predict"])
def test_cli_directory_instead_of_a_file_exits_2(workspace, capsys, command):
    tmp_path, _, config = workspace
    args = {
        "train": ["train", str(tmp_path), "--quiet"],
        "stats": ["stats", str(tmp_path)],
        "predict": ["predict", "--model", str(tmp_path), "--input", config["tasks"][0]["test"]],
    }[command]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(tmp_path) in err and "directory" in err


@pytest.mark.parametrize(
    "command, output",
    [
        ("predict", "dir"),
        ("predict", "."),
        ("postprocess", "dir"),
        ("derive-subtasks", "dir"),
        ("overlap-profile", "dir"),
        ("train", "file"),
        ("train", "file/sub"),
        ("search", "file"),
    ],
)
def test_cli_unwritable_output_exits_2_with_one_line(
    workspace, capsys, monkeypatch, command, output
):
    """An output that is a directory, an existing file where a directory
    is expected, or a path under a file ends in one line naming it and
    exit 2, and leaves every file and directory as it was."""
    tmp_path, config_path, config = workspace
    test = config["tasks"][0]["test"]
    corpus = parse_conll_file(test, 0, {"tag": 1})
    vocab = vocab_for([corpus], {"tag": [corpus]})
    network = NetworkConfig(
        shared_layers=[2], tasks=[TaskSpec(name="tag", labels=vocab.labels_of("tag"))], word_dim=2
    )
    model = tmp_path / "model.ckpt"
    save_model(Model(network, vocab, np.random.default_rng(0)), model)
    am = tmp_path / "am.conll"
    am.write_text("w\tO\tO\nw\tB:P:1:Supp\tB:P:1:Supp\n", encoding="utf-8")
    search = {
        "trials": 1,
        "seeds_per_trial": 1,
        "master_seed": 3,
        "variables": {"units": {"kind": "discrete", "start": 4, "end": 6}},
    }
    search_path = tmp_path / "search.yaml"
    search_path.write_text(yaml.safe_dump(dict(config, search=search)), encoding="utf-8")
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "kept.txt").write_text("kept\n", encoding="utf-8")
    (tmp_path / "file").write_text("kept\n", encoding="utf-8")
    if output == ".":
        monkeypatch.chdir(tmp_path / "dir")
    else:
        output = str(tmp_path / output)
    argv = {
        "predict": ["predict", "--model", str(model), "--input", test],
        "postprocess": ["postprocess", "--input", test, "--variant", "to_begin"],
        "derive-subtasks": ["derive-subtasks", "--input", str(am)],
        "overlap-profile": ["evaluate", "--predictions", str(am), "--overlap-profile"],
        "train": ["train", str(config_path), "--quiet"],
        "search": ["search", str(search_path)],
    }[command]
    argv += [output] if command == "overlap-profile" else ["--output", output]
    before = {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {output}: ") and err.count("\n") == 1, err
    assert {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")} == before


@pytest.mark.parametrize(
    "output, reason", [(".", "Is a directory"), ("file/x.conll", "Not a directory")]
)
def test_cli_unwritable_output_names_the_real_reason(workspace, capsys, monkeypatch, output, reason):
    """The working directory as the output, or a path under a file, is
    reported as what it is, not as the system call's own error (EBUSY
    from rename, EEXIST from mkdir)."""
    tmp_path, _, config = workspace
    (tmp_path / "file").write_text("kept\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = ["postprocess", "--input", config["tasks"][0]["test"], "--variant", "to_begin"]
    capsys.readouterr()
    assert main(argv + ["--output", output]) == 2
    assert capsys.readouterr().err == f"error: cannot write {output}: {reason}\n"


def test_cli_train_checks_its_checkpoint_target_before_training(workspace, capsys, monkeypatch):
    """A directory in the checkpoint's place ends the run before the first
    epoch, in one line and exit 2, and no train.log is left behind."""
    tmp_path, config_path, _ = workspace
    checkpoint = tmp_path / "out" / "model.ckpt"
    checkpoint.mkdir(parents=True)
    runs = []
    monkeypatch.setattr(cli.experiment, "run_training", lambda *a, **k: runs.append(a))
    capsys.readouterr()
    assert main(["train", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {checkpoint}: Is a directory\n"
    assert captured.out == "" and runs == []
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["model.ckpt"]


@pytest.mark.parametrize(
    "search, message",
    [
        ({"trials": 0}, "search.trials must be >= 1, got 0"),
        ({"seeds_per_trial": 0}, "search.seeds_per_trial must be >= 1, got 0"),
        ({"final_seeds": -1}, "search.final_seeds must be >= 0, got -1"),
        ({"variables": {}}, "search: empty search space"),
        (
            {"variables": {"u": {"kind": "discrete", "start": 2, "end": 10**20}}},
            "search.variables.u: discrete interval [2..100000000000000000000] exceeds",
        ),
        (
            {"variables": {"u": {"kind": "discrete", "start": -(2**63) - 1, "end": 2}}},
            "search.variables.u: discrete interval [-9223372036854775809..2] exceeds",
        ),
        (
            {"variables": {"u": {"kind": "continuous", "start": 0.5, "end": float("inf")}}},
            "search.variables.u: continuous interval [0.5, inf) has no finite width",
        ),
        (
            {"variables": {"u": {"kind": "continuous", "start": -1e308, "end": 1e308}}},
            "search.variables.u: continuous interval [-1e+308, 1e+308) has no finite width",
        ),
    ],
    ids=[
        "no_trials",
        "no_seeds",
        "negative_final_seeds",
        "no_variables",
        "discrete_above_int64",
        "discrete_below_int64",
        "continuous_infinite",
        "continuous_too_wide",
    ],
)
def test_cli_search_config_error_exits_1_and_leaves_no_output(
    workspace, capsys, search, message
):
    """A search section outside its ranges, or an interval the sampler
    cannot draw from, ends in one line before the output directory is
    made."""
    tmp_path, _, config = workspace
    config["architecture"]["shared_layers"] = ["${u}"]
    config["search"] = {
        "trials": 1,
        "seeds_per_trial": 1,
        "variables": {"u": {"kind": "discrete", "start": 2, "end": 3}},
        **search,
    }
    path = tmp_path / "search.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    out_dir = tmp_path / "searchout"
    capsys.readouterr()
    assert main(["search", str(path), "--output", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert not out_dir.exists()


def test_cli_search_unbound_placeholder_exits_1_and_leaves_no_output(workspace, capsys):
    """A placeholder that names no search variable ends the search in one
    line before the output directory is made."""
    tmp_path, _, config = workspace
    config["architecture"]["shared_layers"] = ["${unitz}"]
    config["search"] = {
        "trials": 1,
        "seeds_per_trial": 1,
        "variables": {"units": {"kind": "discrete", "start": 2, "end": 3}},
    }
    path = tmp_path / "search.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    out_dir = tmp_path / "searchout"
    capsys.readouterr()
    assert main(["search", str(path), "--output", str(out_dir)]) == 1
    assert capsys.readouterr().err == "error: unbound template variable ${unitz}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["train", "search"])
def test_cli_negative_seed_exits_1(workspace, capsys, command):
    tmp_path, _, config = workspace
    if command == "train":
        config["training"]["seed"] = -1
    else:
        config["architecture"]["shared_layers"] = ["${u}"]
        config["output"] = {"dir": str(tmp_path / "searchout")}
        config["search"] = {
            "trials": 1,
            "seeds_per_trial": 1,
            "master_seed": -1,
            "variables": {"u": {"kind": "discrete", "start": 2, "end": 3}},
        }
    path = tmp_path / "negative.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "seed must be >= 0" in err


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"embeddings.word_dim": -1}, "embeddings.word_dim must be >= 1, got -1"),
        (
            {"architecture.char": {"enabled": True, "embedding_dim": -3}},
            "architecture.char.embedding_dim must be >= 1, got -3",
        ),
        (
            {"architecture.char": {"enabled": True, "hidden": -2}},
            "architecture.char.hidden must be >= 1, got -2",
        ),
        ({"training.optimizer.beta1": 1.0}, "training.optimizer.beta1 must be in [0, 1), got 1.0"),
        (
            {"training.optimizer.beta2": 1.0, "training.optimizer.epsilon": 0.0},
            "training.optimizer.beta2 must be in [0, 1), got 1.0",
        ),
        ({"training.optimizer.epsilon": 0.0}, "training.optimizer.epsilon must be > 0, got 0.0"),
        (
            {"training.optimizer.learning_rate": -0.5},
            "training.optimizer.learning_rate must be > 0, got -0.5",
        ),
    ],
    ids=["word_dim", "char_embedding_dim", "char_hidden", "beta1", "beta2", "epsilon",
         "learning_rate"],
)
def test_cli_bad_numeric_value_exits_1_with_one_line(workspace, capsys, changes, message):
    tmp_path, _, config = workspace
    for path, value in changes.items():
        *parents, leaf = path.split(".")
        node = config
        for key in parents:
            node = node[key]
        node[leaf] = value
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert main(["train", str(bad), "--quiet"]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and message in lines[0]
    assert not (tmp_path / "out" / "model.ckpt").exists()


@pytest.mark.parametrize("value", [float("inf"), float("-inf")])
def test_cli_non_finite_learning_rate_exits_1_with_one_line(workspace, capsys, value):
    """An infinite learning rate is a config error naming the key, not a
    NaN update that fails at the next batch."""
    tmp_path, _, config = workspace
    config["training"]["optimizer"]["learning_rate"] = value
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert main(["train", str(bad), "--quiet"]) == 1
    lines = capsys.readouterr().err.splitlines()
    rule = "finite" if value > 0 else "> 0"
    assert lines == [f"error: training.optimizer.learning_rate must be {rule}, got {value}"]
    assert not (tmp_path / "out").exists()


def test_cli_numeric_failure_prints_one_stderr_line(workspace):
    """An overflowing run exits 3 with the error line alone: numpy's
    floating-point warnings stay off stderr. A process of its own shows
    stderr as a user sees it; pytest would catch the warnings."""
    tmp_path, _, config = workspace
    config["training"]["optimizer"]["learning_rate"] = 1.0e300
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(config), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "seqtag.cli", "train", str(bad), "--quiet"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 3
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: non-finite loss at epoch 1")
    with pytest.warns(RuntimeWarning, match="overflow"):  # outside main, numpy warns as before
        np.ones(2) * 1.0e300 * 1.0e300


def test_cli_recurrent_numeric_error_names_its_layer(workspace, capsys, monkeypatch):
    """A NaN in the backward cell of shared layer 2 ends the run in one
    line that names the op and the layer."""
    tmp_path, _, config = workspace
    config["architecture"]["shared_layers"] = [6, 5]
    config["tasks"][0]["termination_layer"] = 2
    path = tmp_path / "two.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    build = cli.experiment.build_model

    def poisoned(*args, **kwargs):
        model = build(*args, **kwargs)
        model.params["shared/2/bwd/U"].data[0, 0] = np.nan
        return model

    monkeypatch.setattr(cli.experiment, "build_model", poisoned)
    assert main(["train", str(path), "--quiet"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: non-finite loss at epoch 1, task 'tag', batch 0: "
        "non-finite value produced by op 'rnn/gru' in 'shared/2'"
    ]


@pytest.mark.parametrize("key", ["token_column", "label_column"])
def test_cli_negative_column_in_config_exits_1_with_one_line(workspace, capsys, key):
    tmp_path, _, config = workspace
    config["tasks"][0][key] = -1
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert main(["train", str(bad), "--quiet"]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [f"error: tasks[0].{key} must be >= 0, got -1"]
    assert not (tmp_path / "out" / "model.ckpt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--model", "m.ckpt", "--input", "in.conll", "--token-column", "-1"],
        ["evaluate", "--predictions", "p.conll", "--token-column", "-1"],
        ["evaluate", "--predictions", "p.conll", "--label-column", "-2"],
        ["evaluate", "--predictions", "p.conll", "--pred-column=-1"],
        ["stats", "c.conll", "--token-column", "-1"],
        ["stats", "c.conll", "--label-column", "-1"],
        ["derive-subtasks", "--input", "c.conll", "--label-column", "-1"],
        ["postprocess", "--input", "c.conll", "--variant", "none", "--token-column", "-3"],
    ],
    ids=["predict-token", "evaluate-token", "evaluate-label", "evaluate-pred", "stats-token",
         "stats-label", "derive-subtasks-label", "postprocess-token"],
)
def test_cli_negative_column_flag_exits_1_with_one_line(tmp_path, capsys, argv):
    two_columns = tmp_path / "c.conll"
    two_columns.write_text("a\tB-X\nb\tO\n", encoding="utf-8")
    argv = [str(two_columns) if a == "c.conll" else a for a in argv]
    assert main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: argument --") and "column indices count from 0" in lines[0]


def test_cli_missing_train_file_exits_2(workspace, capsys):
    tmp_path, config_path, config = workspace
    config["tasks"][0]["train"] = str(tmp_path / "absent.conll")
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(config), encoding="utf-8")
    code = main(["train", str(bad), "--quiet"])
    assert code == 2
    assert not (tmp_path / "out" / "model.ckpt").exists()


def test_cli_bad_config_exits_1(workspace):
    tmp_path, _, config = workspace
    config["architecture"]["cell"] = "transformer"
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert main(["train", str(bad), "--quiet"]) == 1


def test_cli_unknown_metric_exits_1(workspace):
    tmp_path, config_path, config = workspace
    assert main(["train", str(config_path), "--quiet"]) == 0
    code = main(
        ["evaluate", "--model", str(tmp_path / "out" / "model.ckpt"),
         "--input", config["tasks"][0]["test"], "--metrics", "nope"]
    )
    assert code == 1


def test_cli_set_override(workspace, capsys):
    tmp_path, config_path, _ = workspace
    assert main(
        ["train", str(config_path), "--quiet", "--set", "training.epochs=1",
         "--output", str(tmp_path / "o1")]
    ) == 0
    capsys.readouterr()
    log_lines = (tmp_path / "o1" / "train.log").read_text().strip().splitlines()
    assert len(log_lines) == 1


def test_cli_stats(tmp_path, capsys):
    corpus_path = tmp_path / "c.conll"
    corpus_path.write_text("a\tX\nb\tY\nc\tX\nd\tZ\n\ne\tW\n", encoding="utf-8")
    assert main(["stats", str(corpus_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    header, row = out[0].split("\t"), out[1].split("\t")
    assert header == ["file", "docs", "tokens", "labels", "entropy", "kurtosis"]
    assert row[1] == "2" and row[2] == "5" and row[3] == "4"


def test_cli_stats_single_label_kurtosis_flagged(tmp_path, capsys):
    corpus_path = tmp_path / "c.conll"
    corpus_path.write_text("a\tX\nb\tX\n", encoding="utf-8")
    assert main(["stats", str(corpus_path)]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert "undefined" in row
    assert "\t0.000000\t" in row  # entropy 0


def test_cli_stats_non_utf8_exits_2_with_one_line(tmp_path, capsys):
    corpus_path = tmp_path / "bad.conll"
    corpus_path.write_bytes(b"a\tX\nb\xff\tY\n")
    assert main(["stats", str(corpus_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(corpus_path) in err and "byte offset 5" in err


def test_cli_predict_bad_input_or_checkpoint_exits_2(workspace, tmp_path, capsys):
    ws_tmp, config_path, _ = workspace
    assert main(["train", str(config_path), "--quiet"]) == 0
    checkpoint = ws_tmp / "out" / "model.ckpt"
    bad_input = tmp_path / "plain.conll"
    bad_input.write_bytes(b"alpha\n\xffthe\n")
    bad_model = tmp_path / "bad.ckpt"
    blob = bytearray(checkpoint.read_bytes())
    blob[18] ^= 0x01  # the manifest's u64 length, now far past the end of the file
    bad_model.write_bytes(bytes(blob))
    good_input = tmp_path / "good.conll"
    good_input.write_text("alpha\nthe\n", encoding="utf-8")
    capsys.readouterr()
    for model, data in ((checkpoint, bad_input), (bad_model, good_input)):
        assert main(["predict", "--model", str(model), "--input", str(data)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [["predict", "--tasks", "tag,nope"], ["evaluate", "--task", "nope"]],
    ids=["predict", "evaluate"],
)
def test_cli_unknown_task_exits_1_with_one_line(workspace, capsys, argv):
    ws_tmp, config_path, config = workspace
    assert main(["train", str(config_path), "--quiet"]) == 0
    capsys.readouterr()
    model = str(ws_tmp / "out" / "model.ckpt")
    test = config["tasks"][0]["test"]
    assert main([argv[0], "--model", model, "--input", test, *argv[1:]]) == 1
    assert capsys.readouterr().err == "error: unknown task 'nope'\n"


def test_cli_predict_word_index_past_the_vocabulary_exits_2(tmp_path, capsys):
    """One flipped bit turns "the": 6 into "the": 7 in a 7-word vocabulary."""
    corpus = parse_conll("a\tO\nfox\tB-X\njumps\tO\nover\tO\nthe\tO\n", 0, {"tag": 1})
    vocab = vocab_for([corpus], {"tag": [corpus]})
    assert vocab.word_count == 7 and vocab.word_index["the"] == 6
    config = NetworkConfig(
        shared_layers=[2], tasks=[TaskSpec(name="tag", labels=vocab.labels_of("tag"))], word_dim=2
    )
    checkpoint = tmp_path / "model.ckpt"
    save_model(Model(config, vocab, np.random.default_rng(0)), checkpoint)
    reframe_checkpoint(checkpoint, lambda blob, _: blob.replace(b'"the": 6', b'"the": 7'))
    data = tmp_path / "plain.conll"
    data.write_text("the\nfox\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", str(checkpoint), "--input", str(data)]) == 2
    err = capsys.readouterr().err
    assert err == "error: vocabulary has a map that does not number its entries 0..n-1\n"


# 10**20 passes every config check but is past any dimension numpy
# allocates, so numpy refuses it before it reserves any memory
HUGE = 10**20


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c["embeddings"].update(word_dim=HUGE),
        lambda c: c["architecture"].update(shared_layers=[HUGE]),
        lambda c: c["architecture"].update(char={"enabled": True, "embedding_dim": HUGE}),
        lambda c: c["architecture"].update(char={"enabled": True, "hidden": HUGE}),
        lambda c: c["tasks"][0].update(private_layers=[{"units": HUGE}]),
    ],
    ids=["word_dim", "shared_layers", "char.embedding_dim", "char.hidden", "units"],
)
def test_cli_train_oversized_network_exits_1_with_one_line(workspace, capsys, edit):
    _, config_path, config = workspace
    edit(config)
    config_path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    assert main(["train", str(config_path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot allocate the network's parameters: ")
    assert err.count("\n") == 1


def test_cli_predict_oversized_checkpoint_config_exits_2_with_one_line(tmp_path, capsys):
    corpus = parse_conll("a\tO\nfox\tB-X\n", 0, {"tag": 1})
    vocab = vocab_for([corpus], {"tag": [corpus]})
    config = NetworkConfig(
        shared_layers=[2], tasks=[TaskSpec(name="tag", labels=vocab.labels_of("tag"))], word_dim=2
    )
    checkpoint = tmp_path / "model.ckpt"
    save_model(Model(config, vocab, np.random.default_rng(0)), checkpoint)
    huge = f'"word_dim": {HUGE}'.encode()
    reframe_checkpoint(checkpoint, lambda blob, _: blob.replace(b'"word_dim": 2', huge))
    data = tmp_path / "plain.conll"
    data.write_text("fox\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", str(checkpoint), "--input", str(data)]) == 2
    err = capsys.readouterr().err
    cause = "cannot allocate the network's parameters: "
    assert err.startswith(f"error: checkpoint {checkpoint}: {cause}")
    assert err.count("\n") == 1


def test_cli_derive_subtasks(tmp_path, capsys):
    src = tmp_path / "am.conll"
    src.write_text(
        "Since\tO\nit\tB:P:1:Supp\nkilled\tI:P:1:Supp\ntourism\tB:C:⊥:For\n",
        encoding="utf-8",
    )
    out = tmp_path / "derived.conll"
    assert main(["derive-subtasks", "--input", str(src), "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    cells = lines[1].split("\t")
    # surface, original, ACS, ACI, ARS, ARI
    assert cells == ["it", "B:P:1:Supp", "B-Arg", "B-P", "B-Rel", "B-P:Supp"]


def test_cli_postprocess_am(tmp_path):
    src = tmp_path / "raw.conll"
    src.write_text("a\tO\nb\tI:P:1:Supp\nc\tB:C:⊥:For\n", encoding="utf-8")
    out = tmp_path / "fixed.conll"
    assert main(["postprocess", "--input", str(src), "--variant", "am",
                 "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1].split("\t")[1] == "B:P:1:Supp"


def test_cli_postprocess_bio_variants(tmp_path, capsys):
    src = tmp_path / "raw.conll"
    src.write_text("a\tO\nb\tI-X\n", encoding="utf-8")
    assert main(["postprocess", "--input", str(src), "--variant", "to_begin"]) == 0
    assert "B-X" in capsys.readouterr().out
    assert main(["postprocess", "--input", str(src), "--variant", "to_outside"]) == 0
    out = capsys.readouterr().out
    assert "I-X" not in out and "B-X" not in out


def test_cli_predict_unlabeled_input(workspace, tmp_path, capsys):
    ws_tmp, config_path, _ = workspace
    assert main(["train", str(config_path), "--quiet"]) == 0
    capsys.readouterr()
    unlabeled = tmp_path / "plain.conll"
    unlabeled.write_text("alpha\nthe\n\nbeta\n", encoding="utf-8")
    assert main(
        ["predict", "--model", str(ws_tmp / "out" / "model.ckpt"), "--input", str(unlabeled)]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out[0].split("\t")) == 2  # surface + prediction only


# input layout -> text; each covers one way blank lines and line ends can fall
PREDICT_LAYOUTS = {
    "leading_blank": "\nalpha\nthe\n",
    "repeated_blank": "alpha\n\n\n\nthe\nbeta\n",
    "whitespace_only_blank": "alpha\n \t \nthe\n",
    "crlf": "alpha\r\nthe\r\n\r\nbeta\r\n",
    "no_final_newline": "alpha\nthe\n\nbeta",
    "trailing_blank": "alpha the\n\n \n",
    "empty": "",
    "blank_only": "\n \n\n",
}


def test_cli_predict_output_is_line_aligned_with_its_input(workspace, tmp_path, capsys):
    """One output line per input line up to the last token line: a token
    line comes out whole with its label appended, a blank or
    whitespace-only line comes out empty, and each sentence gets the
    labels it gets as the whole input. No token line at all gives one
    empty line."""
    ws_tmp, config_path, _ = workspace
    assert main(["train", str(config_path), "--quiet"]) == 0
    model = str(ws_tmp / "out" / "model.ckpt")
    data = tmp_path / "input.conll"

    def predict(text):
        data.write_bytes(text.encode("utf-8"))
        capsys.readouterr()
        assert main(["predict", "--model", model, "--input", str(data)]) == 0
        return capsys.readouterr().out

    def labels_alone(block):
        return [line.split("\t")[-1] for line in predict("\n".join(block) + "\n").splitlines()]

    for layout, text in PREDICT_LAYOUTS.items():
        lines = text.splitlines()
        while lines and not lines[-1].strip():
            lines.pop()
        out = predict(text)
        if not lines:
            assert out == "\n", layout
            continue
        assert out.endswith("\n") and "\r" not in out, layout
        out_lines = out.splitlines()
        assert len(out_lines) == len(lines), layout
        block, labels = [], []
        for line, got in zip([*lines, ""], [*out_lines, ""]):
            if line.strip():
                assert got.startswith(line + "\t") and got.count("\t") == line.count("\t") + 1
                block.append(line)
                labels.append(got.split("\t")[-1])
                continue
            assert got == "", layout
            if block:
                assert labels == labels_alone(block), layout
            block, labels = [], []


def test_cli_predict_short_row_exits_2_with_one_line(workspace, tmp_path, capsys):
    ws_tmp, config_path, _ = workspace
    assert main(["train", str(config_path), "--quiet"]) == 0
    data = tmp_path / "input.conll"
    data.write_text("a X\nb Y\nc\n\nd Z\n", encoding="utf-8")
    capsys.readouterr()
    argv = ["predict", "--model", str(ws_tmp / "out" / "model.ckpt"), "--input", str(data)]
    assert main([*argv, "--token-column", "1"]) == 2
    assert capsys.readouterr().err == "error: line 'c' has no column 1\n"


def test_cli_main_called_again_in_one_process(workspace, capsys):
    """The parser is built once per process; no value of one call, a
    ``--set`` list included, reaches the next, and a usage error leaves
    the next call working."""
    from seqtag import cli

    ws_tmp, config_path, _ = workspace
    log = ws_tmp / "out" / "train.log"
    train = ["train", str(config_path), "--quiet"]
    assert main(["predict", "--model"]) == 1
    assert main([*train, "--set", "training.epochs=1", "--set", "training.seed=1"]) == 0
    assert len(log.read_text().splitlines()) == 1
    assert main([*train, "--set", "training.seed=1"]) == 0
    assert len(log.read_text().splitlines()) == 2  # the config's 2 epochs
    assert main(["predict", "--model"]) == 1
    assert main(train) == 0
    assert len(log.read_text().splitlines()) == 2
    assert cli.build_parser() is cli.build_parser()


def test_cli_results_env_var(workspace, monkeypatch, tmp_path, capsys):
    _, config_path, _ = workspace
    root = tmp_path / "global_results"
    monkeypatch.setenv("SEQTAG_RESULTS", str(root))
    assert main(["train", str(config_path), "--quiet", "--output", "exp"]) == 0
    capsys.readouterr()
    assert (root / "exp" / "model.ckpt").exists()


def test_cli_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--set", "--output", "--quiet"):
        assert flag in out


def test_cli_usage_error_exits_1():
    assert main(["predict", "--model"]) == 1


# (argv, exit code, the message after "error: "); {tmp} is the workspace,
# {config} its run config and {model} a checkpoint trained from it
ONE_LINE_ERRORS = [
    (["train", "nope.yaml"], 1, "config file not found: nope.yaml"),
    (["train", "{tmp}/list.yaml"], 1, "{tmp}/list.yaml: top level must be a mapping"),
    (["train", "{config}", "--set", "training.epochs"], 1,
     "override 'training.epochs' is not of the form path=value"),
    (["train", "{config}", "--set", "training.nope=3"], 1,
     "override path 'training.nope' does not exist in the config"),
    (["train", "{config}", "--set", "architecture.shared_layers=3"], 1,
     "override path 'architecture.shared_layers' is not a scalar leaf"),
    (["evaluate", "--model", "{tmp}/any.ckpt"], 1, "--model needs --input with gold labels"),
    (["evaluate"], 1, "evaluate needs either --model or --predictions"),
    (["evaluate", "--model", "{model}", "--input", "{tmp}/test.conll",
      "--overlap-profile", "{tmp}/profile.csv"], 1, "--overlap-profile needs --predictions input"),
    (["derive-subtasks", "--input", "{tmp}/am.conll", "--kinds", "ACS,xyz"], 1,
     "unknown subtask kind 'XYZ' (known: ['ACS', 'ACI', 'ARS', 'ARI'])"),
    (["train", "{tmp}/no_files.yaml"], 1, "no input files configured"),
    (["train", "{tmp}/seg.yaml"], 1, "task 'seg' has no input files"),
    (["predict", "--model", "nope.ckpt", "--input", "{tmp}/test.conll"], 2,
     "checkpoint not found: nope.ckpt"),
    (["train", "{tmp}/embedded.yaml"], 2, "{tmp}/vectors.txt, line 2: no vector components"),
    (["predict", "--model", "{model}", "--input", "missing.conll"], 2,
     "input file not found: missing.conll"),
    (["stats", "missing.conll"], 2, "input file not found: missing.conll"),
    (["train", "{tmp}/no_vectors.yaml"], 2, "embedding file not found: {tmp}/missing.txt"),
    (["evaluate", "--predictions", "{tmp}/empty.conll"], 2, "empty result list"),
    (["evaluate", "--predictions", "{tmp}/bio.conll", "--pred-column", "1",
      "--overlap-profile", "{tmp}/profile.csv"], 2,
     "position 1: expected 4 colon-separated fields or 'O', got 'B-X'"),
    (["derive-subtasks", "--input", "{tmp}/outside.conll"], 2,
     "position 0: 'O:P:1:Supp': outside tokens must have no type, distance, or stance"),
    (["predict", "--model", "{tmp}/list.ckpt", "--input", "{tmp}/test.conll"], 2,
     "corrupt checkpoint manifest in {tmp}/list.ckpt: not a JSON object"),
    (["predict", "--model", "{tmp}/short_v1.ckpt", "--input", "{tmp}/test.conll"], 2,
     "checkpoint {tmp}/short_v1.ckpt has 761 values, not 762"),
]


@pytest.mark.parametrize(
    "argv, code, message",
    ONE_LINE_ERRORS,
    ids=[m.replace("{tmp}/", "").split(":")[0] for _, _, m in ONE_LINE_ERRORS],
)
def test_cli_error_exits_with_its_code_and_one_line(
    workspace, capsys, monkeypatch, argv, code, message
):
    tmp_path, config_path, config = workspace
    monkeypatch.chdir(tmp_path)  # the relative nope.* paths do not exist there
    (tmp_path / "list.yaml").write_text("- train\n- predict\n", encoding="utf-8")
    (tmp_path / "am.conll").write_text(am_fixture_text(), encoding="utf-8")
    (tmp_path / "vectors.txt").write_text("the 0.1 0.2\nfox\n", encoding="utf-8")
    (tmp_path / "empty.conll").write_text("", encoding="utf-8")
    (tmp_path / "bio.conll").write_text("a\tO\nb\tB-X\n", encoding="utf-8")
    (tmp_path / "outside.conll").write_text("Since\tO:P:1:Supp\n", encoding="utf-8")
    write_cache(tmp_path / "list.ckpt", b"SQTG", 2, [1, 2], np.zeros(3))  # its CRC is valid
    v1 = (Path(__file__).parent / "data" / "checkpoint_v1.ckpt").read_bytes()
    (tmp_path / "short_v1.ckpt").write_bytes(v1[:-8])  # version 1 has no CRC
    variants = {
        "no_files.yaml": {**config, "tasks": [{"name": "tag"}]},
        "seg.yaml": {**config, "tasks": [*config["tasks"], {"name": "seg"}]},
        "embedded.yaml": {**config, "embeddings": {"files": [str(tmp_path / "vectors.txt")]}},
        "no_vectors.yaml": {**config, "embeddings": {"files": [str(tmp_path / "missing.txt")]}},
    }
    for name, variant in variants.items():
        (tmp_path / name).write_text(yaml.safe_dump(variant, sort_keys=False), encoding="utf-8")
    model = tmp_path / "out" / "model.ckpt"
    if "{model}" in argv:
        assert main(["train", str(config_path), "--quiet"]) == 0
    fill = {"tmp": tmp_path, "config": config_path, "model": model}
    capsys.readouterr()
    assert main([arg.format(**fill) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert err == f"error: {message.format(**fill)}\n"
    assert out == ""  # a failing command prints no result first


def am_fixture_text():
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


def test_cli_predict_am_postprocess_yields_valid_structure(tmp_path, capsys):
    train = tmp_path / "am.conll"
    train.write_text(am_fixture_text(), encoding="utf-8")
    config = {
        "training": {"epochs": 2, "batch_size": 2, "seed": 0, "main_task": "am"},
        "tasks": [{"name": "am", "train": str(train)}],
        "architecture": {"cell": "simple", "shared_layers": [4]},
        "embeddings": {"word_dim": 4},
        "output": {"dir": str(tmp_path / "amout")},
    }
    cfg = tmp_path / "am.yaml"
    cfg.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    assert main(["train", str(cfg), "--quiet"]) == 0
    capsys.readouterr()
    out = tmp_path / "am_pred.conll"
    assert main(
        ["predict", "--model", str(tmp_path / "amout" / "model.ckpt"), "--input", str(train),
         "--output", str(out), "--postprocess", "am"]
    ) == 0
    from seqtag.labels import components_from_labels, parse_am_sequence, rel_to_abs_links

    predicted = [line.split("\t")[2] for line in out.read_text().strip().splitlines()]
    comps = rel_to_abs_links(components_from_labels(parse_am_sequence(predicted)))
    for k, comp in enumerate(comps, start=1):
        assert comp.target is None or (comp.target != k and 1 <= comp.target <= len(comps))


def test_cli_evaluate_overlap_profile(tmp_path, capsys):
    pred = tmp_path / "preds.conll"
    lines = [
        "w\tO\tO",
        "w\tB:P:1:Supp\tB:P:1:Supp",
        "w\tI:P:1:Supp\tI:P:1:Supp",
        "w\tB:C:⊥:For\tB:C:⊥:For",
    ]
    pred.write_text("\n".join(lines) + "\n", encoding="utf-8")
    profile = tmp_path / "profile.csv"
    assert main(
        ["evaluate", "--predictions", str(pred), "--metrics", "c_f1_50",
         "--overlap-profile", str(profile)]
    ) == 0
    rows = profile.read_text().strip().splitlines()
    assert rows[0] == "length,overlap"
    assert rows[1:] == ["2,2", "1,1"]


def test_cli_evaluate_perfect_am_prediction_scores_one(tmp_path, capsys):
    pred = tmp_path / "preds.conll"
    labels = [l.split("\t")[1] for l in am_fixture_text().strip().splitlines()]
    lines = [f"w\t{l}\t{l}" for l in labels]
    pred.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(
        ["evaluate", "--predictions", str(pred),
         "--metrics", "c_f1_50,c_f1_100,r_f1_50,r_f1_100"]
    ) == 0
    report = dict(line.split("\t") for line in capsys.readouterr().out.strip().splitlines())
    assert all(float(report[m]) == 1.0 for m in ("c_f1_50", "c_f1_100", "r_f1_50", "r_f1_100"))


def test_cli_evaluate_g2p_strips_symbols(tmp_path, capsys):
    pred = tmp_path / "g2p.conll"
    rows = [
        ("e", "E", "E"),
        ("x", "g_z", "g_z"),
        ("i", "ε", "ε"),
        ("t", "t", "d"),
    ]
    pred.write_text("\n".join("\t".join(r) for r in rows) + "\n", encoding="utf-8")
    assert main(
        ["evaluate", "--predictions", str(pred),
         "--metrics", "wacc,edit_distance_mean,edit_distance_median"]
    ) == 0
    report = dict(line.split("\t") for line in capsys.readouterr().out.strip().splitlines())
    # "E g z t" vs "E g z d": not equal, one substitution after stripping
    assert float(report["wacc"]) == 0.0
    assert float(report["edit_distance_mean"]) == 1.0
    assert float(report["edit_distance_median"]) == 1.0


def test_cli_search_smoke(workspace, capsys):
    tmp_path, _, config = workspace
    config["training"]["epochs"] = 1
    config["training"]["early_stopping"] = {"task": "tag", "metric": "accuracy", "patience": 2}
    config["architecture"]["shared_layers"] = ["${units}"]
    config["search"] = {
        "trials": 2,
        "seeds_per_trial": 1,
        "master_seed": 3,
        "variables": {"units": {"kind": "discrete", "start": 4, "end": 6}},
    }
    path = tmp_path / "search.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    out_dir = tmp_path / "searchout"
    assert main(["search", str(path), "--output", str(out_dir)]) == 0
    report = (out_dir / "report.tsv").read_text()
    assert report.startswith("trial\t")
    assert (out_dir / "trial_000" / "config.yaml").exists()
    assert (out_dir / "trial_000" / "best.ckpt").exists()
    assert (out_dir / "trial_000" / "seed_0.log").exists()


@pytest.mark.parametrize(
    "name", ["config.yaml", "best.ckpt", "seed_0.log", "report.tsv", "timing.tsv"]
)
def test_cli_search_failed_output_write_leaves_no_partial_file(
    workspace, capsys, monkeypatch, name
):
    """A write of a search output that fails halfway, as on a full disk,
    ends in one line and exit 2, and leaves no part of that file behind."""
    tmp_path, _, config = workspace
    config["training"]["epochs"] = 1
    config["architecture"]["shared_layers"] = ["${units}"]
    config["search"] = {
        "trials": 1,
        "seeds_per_trial": 1,
        "variables": {"units": {"kind": "discrete", "start": 4, "end": 6}},
    }
    path = tmp_path / "search.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    out_dir = tmp_path / "searchout"
    write_bytes = Path.write_bytes

    def failing(self, data):
        if self.name.startswith(name + "."):
            return write_half_then_fail(self, data)
        return write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", failing)
    capsys.readouterr()
    assert main(["search", str(path), "--output", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1, err
    assert f"{name}: No space left on device" in err
    assert not list(out_dir.rglob(name)) and not list(out_dir.rglob("*.tmp"))


def test_cli_search_run_output_write_failure_ends_the_search(workspace, capsys, monkeypatch):
    """A run whose ``train.log`` cannot be written ends the search with one
    line and exit 2, as every other output does, instead of failing its
    trial and going on; no ``report.tsv`` is written."""
    tmp_path, _, config = workspace
    config["training"]["epochs"] = 1
    config["architecture"]["shared_layers"] = ["${units}"]
    config["search"] = {
        "trials": 2,
        "seeds_per_trial": 1,
        "variables": {"units": {"kind": "discrete", "start": 4, "end": 6}},
    }
    path = tmp_path / "search.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    out_dir = tmp_path / "searchout"
    write_bytes = Path.write_bytes

    def failing(self, data):
        if self.name.startswith("train.log."):
            return write_half_then_fail(self, data)
        return write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", failing)
    capsys.readouterr()
    assert main(["search", str(path), "--output", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1, err
    assert "train.log: No space left on device" in err
    assert not (out_dir / "report.tsv").exists()
    assert not list(out_dir.rglob("train.log")) and not list(out_dir.rglob("*.tmp"))


@pytest.fixture
def search_setup(workspace, monkeypatch):
    """A search template over ``units`` with pretrained embeddings, and a
    spy that records each ``ExperimentData`` build with a snapshot of its
    word matrix and vocabulary."""
    import copy

    from seqtag import experiment

    tmp_path, _, config = workspace
    words = sorted(synthetic_bio_corpus(n_sentences=12, seed=4).surfaces())
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("".join(f"{w} {len(w) / 10} -0.5 0.25\n" for w in words), encoding="utf-8")
    config["embeddings"] = {"files": [str(vectors)]}
    config["training"]["epochs"] = 2
    config["architecture"]["shared_layers"] = ["${units}"]
    config["search"] = {
        "trials": 2,
        "seeds_per_trial": 2,
        "final_seeds": 1,
        "master_seed": 5,
        "variables": {"units": {"kind": "discrete", "start": 3, "end": 6}},
    }
    builds = []
    init = experiment.ExperimentData.__init__

    def spy(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)
        self.snapshot = (self.word_matrix.copy(), copy.deepcopy(self.vocab))

    monkeypatch.setattr(experiment.ExperimentData, "__init__", spy)

    def run():
        path = tmp_path / "search.yaml"
        path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
        out_dir = tmp_path / "searchout"
        assert main(["search", str(path), "--output", str(out_dir)]) == 0
        rows = [line.split("\t") for line in (out_dir / "report.tsv").read_text().splitlines()]
        return out_dir, {int(r[0]): r for r in rows[1:] if r[0].isdigit()}

    return tmp_path, config, builds, run


def test_search_builds_data_once(search_setup):
    _, _, builds, run = search_setup
    out_dir, trials = run()
    assert [r[1] for r in trials.values()] == ["ok", "ok"]
    assert len(list((out_dir / "runs").glob("seed_*/model.ckpt"))) == 5
    assert len(builds) == 1


def test_search_writes_one_timing_row_per_run(search_setup):
    from seqtag.hyperopt import derive_seed

    _, _, _, run = search_setup
    out_dir, trials = run()
    report = (out_dir / "report.tsv").read_text()
    rows = [line.split("\t") for line in (out_dir / "timing.tsv").read_text().splitlines()]
    assert rows[0] == ["trial", "seed_index", "seed", "seconds"]
    # 2 trials x 2 seeds, then the winner's final seed as its seed index 2
    winner = int(next(line for line in report.splitlines() if line.startswith("winner")).split()[1])
    expected = [(t, j) for t in range(2) for j in range(2)] + [(winner, 2)]
    assert [(int(r[0]), int(r[1])) for r in rows[1:]] == expected
    for trial, seed_index, seed, seconds in rows[1:]:
        assert int(seed) == derive_seed(5, int(trial), int(seed_index))
        assert float(seconds) > 0.0
    assert "seconds" not in report


def test_search_builds_once_per_corpus_value(search_setup):
    tmp_path, config, builds, run = search_setup
    second = write_corpus(tmp_path / "train2.conll", synthetic_bio_corpus(12, seed=7))
    config["tasks"][0]["train"] = "${corpus}"
    config["search"]["trials"] = 4
    values = [config["tasks"][0]["dev"], second]
    config["search"]["variables"]["corpus"] = {"kind": "list", "values": values}
    _, trials = run()
    sampled = {r[4].split(",corpus=")[1] for r in trials.values()}
    assert len(sampled) == 2 and len(trials) == 4
    assert [r[1] for r in trials.values()] == ["ok"] * 4
    assert len(builds) == 2


def test_search_trial_with_missing_corpus_fails_alone(search_setup):
    tmp_path, config, builds, run = search_setup
    missing = str(tmp_path / "absent.conll")
    config["tasks"][0]["train"] = "${corpus}"
    config["search"]["trials"] = 4
    values = [config["tasks"][0]["dev"], missing]
    config["search"]["variables"]["corpus"] = {"kind": "list", "values": values}
    out_dir, trials = run()
    failed = [i for i, r in trials.items() if r[1] == "failed"]
    ok = [i for i, r in trials.items() if r[1] == "ok"]
    assert failed and ok
    for i in failed:
        assert trials[i][4].endswith(f"corpus={missing}")
        assert "input file not found" in (out_dir / f"trial_{i:03d}" / "FAILED").read_text()
    assert not any(trials[i][4].endswith(f"corpus={missing}") for i in ok)
    winner = (out_dir / "report.tsv").read_text().splitlines()[len(trials) + 1]
    assert winner.split("\t")[0] == "winner" and int(winner.split("\t")[1]) in ok
    # the good corpus is built once; a failed build is not kept, so each
    # failed trial tries its own
    assert len([d for d in builds if hasattr(d, "snapshot")]) == 1
    assert len(builds) == 1 + len(failed)


def test_search_report_escapes_tabs_and_newlines_in_its_cells(search_setup):
    """A failed trial's error and its assignment name a path holding a tab
    and a newline; report.tsv still parses back into one line per trial
    with six fields, and each escaped cell decodes to the raw text."""
    tmp_path, config, _, run = search_setup
    missing = str(tmp_path / "no\tsuch\nfile\\x.conll")
    config["tasks"][0]["train"] = "${corpus}"
    config["search"]["trials"] = 4
    config["search"]["variables"]["corpus"] = {
        "kind": "list", "values": [config["tasks"][0]["dev"], missing]
    }
    out_dir, _ = run()
    lines = (out_dir / "report.tsv").read_text(encoding="utf-8").split("\n")
    assert lines[-1] == "" and lines[5].startswith("winner\t")
    rows = [line.split("\t") for line in lines[:5]]
    assert [len(r) for r in rows] == [6] * 5
    assert [r[0] for r in rows] == ["trial", "0", "1", "2", "3"]

    def unescape(cell):
        return re.sub(r"\\(.)", lambda m: {"t": "\t", "n": "\n", "r": "\r"}.get(m[1], m[1]), cell)

    failed = [r for r in rows[1:] if r[1] == "failed"]
    assert failed
    for trial, _, _, error, assignment, _ in failed:
        assert unescape(assignment).endswith(f",corpus={missing}")
        raw = (out_dir / f"trial_{int(trial):03d}" / "FAILED").read_text(encoding="utf-8")
        assert missing in raw and unescape(error) + "\n" == raw


def test_search_run_equals_run_with_its_own_data(search_setup, tmp_path):
    from seqtag import experiment
    from seqtag.hyperopt import derive_seed

    _, config, builds, run = search_setup
    out_dir, trials = run()
    assert len(builds) == 1
    for index in trials:
        rendered = load_yaml(out_dir / f"trial_{index:03d}" / "config.yaml")
        for j in range(2):
            seed = derive_seed(config["search"]["master_seed"], index, j)
            own = build_run_config(rendered)
            own.training.seed = seed
            checkpoint = tmp_path / f"own_{seed}.ckpt"
            experiment.run_training(own, checkpoint_path=str(checkpoint))
            shared = out_dir / "runs" / f"seed_{seed}" / "model.ckpt"
            assert shared.read_bytes() == checkpoint.read_bytes()


@pytest.mark.parametrize("scores", ["tied", "distinct"])
def test_search_trial_directory_holds_its_best_seed_and_logs(search_setup, monkeypatch, scores):
    """``best.ckpt`` is the best-scoring seed's checkpoint, ties going to
    the larger seed; ``seed_j.log`` is the j-th seed's training log."""
    from seqtag import experiment
    from seqtag.hyperopt import derive_seed

    if scores == "tied":
        monkeypatch.setattr(experiment, "search_score", lambda *args: 0.5)
    else:  # the smaller seed scores higher
        monkeypatch.setattr(experiment, "search_score", lambda config, *_: -config.training.seed)
    _, config, _, run = search_setup
    out_dir, trials = run()
    for index in trials:
        trial_dir = out_dir / f"trial_{index:03d}"
        seeds = [derive_seed(config["search"]["master_seed"], index, j) for j in range(2)]
        runs = [out_dir / "runs" / f"seed_{seed}" for seed in seeds]
        checkpoints = [(run_dir / "model.ckpt").read_bytes() for run_dir in runs]
        assert checkpoints[0] != checkpoints[1]
        best = (max if scores == "tied" else min)(seeds)
        assert (trial_dir / "best.ckpt").read_bytes() == checkpoints[seeds.index(best)]
        for j, run_dir in enumerate(runs):
            assert (trial_dir / f"seed_{j}.log").read_bytes() == (
                run_dir / "train.log"
            ).read_bytes()


def test_search_runs_leave_shared_data_unchanged(search_setup):
    _, _, builds, run = search_setup
    run()
    (data,) = builds
    matrix, vocab = data.snapshot
    assert data.word_matrix.tobytes() == matrix.tobytes()
    assert data.vocab == vocab


# -- embedding files through the CLI ---------------------------------------------------


def _with_vectors(workspace, head=(), tail=()):
    """The workspace config with one embedding file: the ``head`` lines,
    a distinct 3-dim vector per corpus word, then the ``tail`` lines.
    Returns the file and its line count."""
    tmp_path, config_path, config = workspace
    words = sorted(synthetic_bio_corpus(n_sentences=12, seed=4).surfaces())
    rows = [f"{w} {len(w) / 10} -0.5 {i / 7}" for i, w in enumerate(words)]
    lines = [*head, *rows, *tail]
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config["embeddings"] = {"files": [str(vectors)]}
    config_path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    return vectors, len(lines)


@pytest.mark.parametrize(
    "head,tail,message",
    [
        ((), ["the nan 0.1 0.2"], "line {lines}: non-finite value"),
        ((), ["zebra 0.1 inf 0.2"], "line {lines}: non-finite value"),
        (["7 3"], (), "header declares 7 vectors of dimension 3, the file holds {rows} of"),
    ],
    ids=["reachable_nan", "unreachable_inf", "header_count"],
)
def test_cli_train_rejects_bad_vectors_with_exit_2(workspace, capsys, head, tail, message):
    tmp_path, config_path, _ = workspace
    vectors, lines = _with_vectors(workspace, head, tail)
    assert main(["train", str(config_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(vectors) in err and message.format(lines=lines, rows=lines - len(head)) in err
    assert not list((tmp_path / "out" / "cache").glob("*.emb"))


def test_cli_train_cold_and_warm_embedding_cache_write_one_checkpoint(workspace, capsys):
    tmp_path, config_path, _ = workspace
    vectors, _ = _with_vectors(workspace, tail=["unused 1 2 3"])
    checkpoints = []
    for _ in range(2):
        assert main(["train", str(config_path), "--quiet"]) == 0
        checkpoints.append((tmp_path / "out" / "model.ckpt").read_bytes())
    (cache,) = (tmp_path / "out" / "cache").glob("*.emb")
    assert cache.name.startswith(vectors.name + ".")
    assert checkpoints[0] == checkpoints[1]


def test_cli_train_writes_the_pruned_file_of_its_own_embedding_files(workspace):
    """Every ``seqtag train`` with a cache writes ``embeddings.pruned.txt``
    from the set it used, also when that set was read back from the
    pruned-set cache of an earlier run with the same files."""
    tmp_path, config_path, config = workspace
    vectors, _ = _with_vectors(workspace)
    other = tmp_path / "other.txt"
    other.write_text(vectors.read_text(encoding="utf-8").replace(" -0.5 ", " 0.25 "), "utf-8")
    pruned = tmp_path / "out" / "cache" / "embeddings.pruned.txt"
    for files in ([vectors], [other], [vectors]):
        config["embeddings"] = {"files": [str(f) for f in files]}
        config_path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
        assert main(["train", str(config_path), "--quiet"]) == 0
        expected = tmp_path / "expected.txt"
        save_embedding_file(ExperimentData(build_run_config(config)).pruned_embeddings, expected)
        assert pruned.read_bytes() == expected.read_bytes()
    assert " -0.5 " in pruned.read_text(encoding="utf-8")


def test_search_cold_and_warm_embedding_cache_write_identical_outputs(search_setup, monkeypatch):
    import seqtag.embeddings

    parses = []
    parse = seqtag.embeddings.load_embedding_file
    monkeypatch.setattr(
        seqtag.embeddings, "load_embedding_file", lambda path: parses.append(path) or parse(path)
    )
    _, _, _, run = search_setup
    outputs = []
    for _ in range(2):
        out_dir, _ = run()
        files = [out_dir / "report.tsv", *sorted(out_dir.glob("runs/seed_*/model.ckpt"))]
        files += sorted(out_dir.glob("trial_*/best.ckpt"))
        outputs.append({p.relative_to(out_dir): p.read_bytes() for p in files})
    assert len(outputs[0]) == 1 + 5 + 2
    assert outputs[0] == outputs[1]
    assert len(parses) == 1  # the second search read the cache the first one wrote
