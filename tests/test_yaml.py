"""The YAML classes seqtag reads and writes configs with. It parses
with PyYAML's libyaml loader when PyYAML has it, which must parse every
config the config tests and the benchmark's search workload write to
the dict the pure-Python loader gives. A search writes its trial configs
with the pure-Python dumper: libyaml's folds long double-quoted strings
differently, so the same config would come out as other bytes."""

import copy
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

from seqtag import config as config_module  # noqa: E402
from seqtag.cli import main  # noqa: E402

from test_config_cli import _valid_config, workspace  # noqa: E402, F401
from test_config_rules import RULE_TABLE, SEARCH, edit, mutations, rich_config  # noqa: E402, F401

LOADER = config_module._YAML_LOADER


def test_the_libyaml_loader_is_used_when_pyyaml_has_it():
    assert LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


def parse_alike(text: str) -> None:
    """Both loaders, and the config loader built on the chosen one, give
    the same value; ``repr`` compares key order and types too, and
    equates the NaNs the config fuzz writes."""
    expected = repr(yaml.load(text, Loader=yaml.SafeLoader))
    assert repr(yaml.load(text, Loader=LOADER)) == expected
    assert repr(config_module._parse_yaml(text, "config")) == expected


@pytest.mark.parametrize("base", [yaml.SafeLoader, LOADER], ids=["python", "chosen"])
def test_both_loaders_reject_a_key_given_twice_in_one_mapping(base):
    """Each loader class, with the config loader's duplicate-key check,
    rejects a repeated key at the repeat, in block and flow mappings and
    at any depth, and still lets a key override one merged in."""
    loader = type("Loader", (config_module._UniqueKeys, base), {})
    for text, line, column, key in [
        ("a: 1\nb: 2\na: 3\n", 3, 1, "a"),
        ("training: {epochs: 2, epochs: 50}\n", 1, 23, "epochs"),
        ("tasks:\n- name: x\n  head: crf\n  name: y\n", 4, 3, "name"),
    ]:
        with pytest.raises(yaml.constructor.ConstructorError) as caught:
            yaml.load(text, Loader=loader)
        mark = caught.value.problem_mark
        assert (mark.line + 1, mark.column + 1) == (line, column)
        assert caught.value.problem == f"found duplicate key {key!r}"
    merged = "base: &b {x: 1, y: 2}\nrun: {<<: *b, x: 3}\n"
    assert yaml.load(merged, Loader=loader) == yaml.load(merged, Loader=base)
    assert yaml.load(merged, Loader=loader)["run"] == {"x": 3, "y": 2}


def test_loaders_agree_on_every_config_the_config_tests_write(rich_config, workspace):
    _, base = rich_config
    configs = [base, workspace[2], _valid_config()]
    for owner, rule, command, path, value, message in RULE_TABLE:
        config = copy.deepcopy(base)
        if command == "search":
            config["architecture"]["shared_layers"] = ["${u}"]
            config["search"] = copy.deepcopy(SEARCH)
        edit(config, path, value)
        configs.append(config)
    configs += [config for _, config in mutations(base)]
    for config in configs:
        parse_alike(yaml.safe_dump(config, sort_keys=False))


@pytest.fixture(scope="module")
def benchmark_search(tmp_path_factory):
    """The benchmark's search workload, prepared, and one ``seqtag search``
    run over it: its config and its output directory."""
    work = tmp_path_factory.mktemp("search")
    workload = workloads.WORKLOADS["search"].make()
    workload.prepare(work, 1)
    assert main(["search", str(workload.config), "--output", str(workload.out)]) == 0
    return workload.config, workload.out


def test_loaders_agree_on_the_benchmark_search_configs(benchmark_search):
    config, out = benchmark_search
    trials = sorted(out.glob("trial_*/config.yaml"))
    assert len(trials) == 3
    for path in [config, *trials]:
        parse_alike(path.read_text(encoding="utf-8"))


def test_the_benchmark_trial_configs_are_the_pure_python_dumper_bytes(benchmark_search):
    _, out = benchmark_search
    for path in sorted(out.glob("trial_*/config.yaml")):
        text = path.read_text(encoding="utf-8")
        config = yaml.load(text, Loader=yaml.SafeLoader)
        assert yaml.dump(config, Dumper=yaml.SafeDumper, sort_keys=False) == text


def test_trial_configs_keep_the_pure_python_dumper_bytes(rich_config, capsys):
    """Floats such as 1e-8 and 1e300 and a long non-ASCII string, which
    the pure-Python dumper folds with escaped line breaks, come out as
    that dumper writes them; the value reads back as it was."""
    tmp_path, config = rich_config
    config["training"]["optimizer"]["epsilon"] = 1e-8
    config["training"]["optimizer"]["learning_rate"] = 0.1 + 0.2
    config["training"]["clip_norm"] = 1e300
    config["evaluation"]["special_symbols"] = {"empty": "ε", "join": "→"}
    long_dir = "runs/${u}/Straße 中文 😀 " + "x" * 90 + " y" * 40
    config["output"]["dir"] = long_dir
    config["architecture"]["shared_layers"] = ["${u}"]
    config["search"] = copy.deepcopy(SEARCH)
    path = tmp_path / "search.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    assert main(["search", str(path), "--output", str(tmp_path / "s")]) == 0
    text = (tmp_path / "s" / "trial_000" / "config.yaml").read_text(encoding="utf-8")
    trial = yaml.load(text, Loader=LOADER)
    units = trial["architecture"]["shared_layers"][0]
    assert trial["output"]["dir"] == long_dir.replace("${u}", str(units))
    assert trial["training"]["optimizer"]["epsilon"] == 1e-8
    assert yaml.dump(trial, Dumper=yaml.SafeDumper, sort_keys=False) == text
