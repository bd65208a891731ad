"""A seeded byte-edit fuzz of the text inputs, through ``cli.main``.

Each edit changes one input file, then runs the commands that read it:
a training CoNLL file and an embedding file under ``train``, an input
file under ``predict``, a two-column argumentation file under
``derive-subtasks`` and ``postprocess --variant am``, and a three-column
one under ``stats`` and ``evaluate --predictions``. Every run exits 0, 1
or 2, a run that fails says why in exactly one stderr line (one that
succeeds prints none), and no ``*.tmp`` file is left behind.
"""

import random
import time

import pytest
import yaml

from seqtag.cli import main

EDITS = 300

TRAIN = "the\tO\nalpha\tB-X\nbeta\tI-X\n\na\tO\ngamma\tB-Y\non\tO\n"
VECTORS = "the 0.1 0.2\nalpha -0.3 0.5\ngamma 0.25 -0.125\n"
PLAIN = "the\nalpha\nbeta\n\ngamma\non\n"
AM_ROWS = [
    ("Since", "O", "O"),
    ("it", "B:P:1:Supp", "B:P:1:Supp"),
    ("killed", "I:P:1:Supp", "O"),
    ("tourism", "B:C:⊥:For", "I:C:⊥:For"),
    ("fell", "I:C:⊥:For", "I:P:-1:Att"),
    (".", "O", "O"),
    ("", "", ""),
    ("We", "B:MC:⊥:⊥", "B:MC:⊥:⊥"),
    ("win", "I:MC:⊥:⊥", "I:C:⊥:Ag"),
]
AM2 = "".join(f"{w}\t{g}\n" if w else "\n" for w, g, _ in AM_ROWS)
AM3 = "".join(f"{w}\t{g}\t{p}\n" if w else "\n" for w, g, p in AM_ROWS)

# bytes an edit inserts at one offset; "random" inserts 1-3 random bytes
INSERTS = [b"\t", b"\n", b":", "⊥".encode(), b"\xff", b"\x00"]
KINDS = ["delete", "truncate", "duplicate line", "random", *INSERTS]


def byte_edit(data: bytes, rng: random.Random) -> tuple[str, bytes]:
    """One seeded edit of ``data``, with a description."""
    kind = rng.choice(KINDS)
    at = rng.randrange(len(data) + 1)
    if kind == "delete":
        width = rng.randint(1, 4)
        return f"delete {width} at {at}", data[:at] + data[at + width :]
    if kind == "truncate":
        return f"truncate at {at}", data[:at]
    if kind == "duplicate line":
        lines = data.split(b"\n")
        k = rng.randrange(len(lines))
        return f"duplicate line {k}", b"\n".join(lines[:k + 1] + lines[k:])
    inserted = bytes(rng.randrange(256) for _ in range(rng.randint(1, 3)))
    if kind != "random":
        inserted = kind
    return f"insert {inserted!r} at {at}", data[:at] + inserted + data[at:]


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """The input files, a 1-epoch training config over the first two, and a
    model trained on the unedited files; the working directory is
    ``tmp_path``."""
    monkeypatch.chdir(tmp_path)
    texts = {
        "train.conll": TRAIN, "vectors.txt": VECTORS, "plain.conll": PLAIN,
        "am2.conll": AM2, "am3.conll": AM3,
    }
    originals = {name: text.encode("utf-8") for name, text in texts.items()}
    for name, data in originals.items():
        (tmp_path / name).write_bytes(data)
    config = {
        "training": {"epochs": 1, "batch_size": 2, "seed": 1, "main_task": "tag"},
        "tasks": [{"name": "tag", "train": "train.conll", "dev": "train.conll"}],
        "architecture": {
            "cell": "gru", "shared_layers": [2],
            "char": {"enabled": True, "embedding_dim": 2, "hidden": 2},
        },
        "embeddings": {"files": ["vectors.txt"]},
    }
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    assert main(["train", "run.yaml", "--quiet", "--output", "model"]) == 0
    return tmp_path, originals


TRAIN_ARGV = ["train", "run.yaml", "--quiet", "--output", "out"]
# each fuzzed file, with the commands that read it
COMMANDS = {
    "train.conll": [TRAIN_ARGV],
    "vectors.txt": [TRAIN_ARGV],
    "plain.conll": [
        ["predict", "--model", "model/model.ckpt", "--input", "plain.conll",
         "--output", "predicted.conll"],
    ],
    "am2.conll": [
        ["derive-subtasks", "--input", "am2.conll", "--output", "derived.conll"],
        ["postprocess", "--input", "am2.conll", "--variant", "am", "--output", "fixed.conll"],
    ],
    "am3.conll": [
        ["stats", "am3.conll"],
        ["evaluate", "--predictions", "am3.conll", "--postprocess", "am",
         "--metrics", "accuracy,c_f1_50,c_f1_100,r_f1_50,r_f1_100"],
    ],
}


def test_text_fuzz_ends_in_an_exit_code_and_one_line(inputs, capsys):
    tmp_path, originals = inputs
    for argv in (argv for commands in COMMANDS.values() for argv in commands):
        assert main(argv) == 0, argv  # each command takes its unedited input
    rng = random.Random(29)
    started = time.perf_counter()
    codes, bad = {}, []
    for i in range(EDITS):
        name = rng.choice(sorted(COMMANDS))
        what, data = byte_edit(originals[name], rng)
        (tmp_path / name).write_bytes(data)
        for argv in COMMANDS[name]:
            capsys.readouterr()
            where = f"edit {i}: {name}, {what}, {argv[0]}"
            try:
                code = main(argv)
            except Exception as exc:  # deliberate: a traceback is the defect being looked for
                bad.append(f"{where}: {type(exc).__name__}: {exc}")
                continue
            err = capsys.readouterr().err
            codes[code] = codes.get(code, 0) + 1
            if code not in (0, 1, 2) or err.count("\n") != (code != 0):
                bad.append(f"{where}: exit {code}, stderr {err!r}")
            left = sorted(p.name for p in tmp_path.rglob("*.tmp"))
            if left:
                bad.append(f"{where}: left {left}")
        (tmp_path / name).write_bytes(originals[name])
    seconds = time.perf_counter() - started
    print(f"text fuzz: {EDITS} edits in {seconds:.2f} s, exits {sorted(codes.items())}")
    assert not bad, "\n".join(bad)
    assert len(codes) > 1  # the edits reach both success and failure
    assert seconds < 2
