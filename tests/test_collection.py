"""The suite and the package as a whole: every test module can be
imported, and every public name in the package is reached.

The suite may run with ``--continue-on-collection-errors``, which drops
a module that fails to import (a stale import, a syntax error) and
still reports the rest as passed. The first test collects ``tests/`` in
a process of its own and fails naming each module that did not import.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_test_module_is_collected():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    broken = [line for line in done.stdout.splitlines() if line.startswith("ERROR ")]
    assert not broken, "\n".join(broken)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]


def test_every_public_name_is_reached():
    """Each public module-level function or class in ``src/seqtag`` is
    named somewhere besides its own definition: in ``src/``, in
    ``perfbench/`` or in README.md. A name reached from nowhere is dead
    code, or library API that README does not document."""
    package = sorted((ROOT / "src" / "seqtag").glob("*.py"))
    others = sorted(ROOT.glob("perfbench/**/*.py")) + sorted(ROOT.glob("perfbench/**/*.md"))
    texts = {path: path.read_text(encoding="utf-8") for path in package}
    elsewhere = [p.read_text(encoding="utf-8") for p in [*others, ROOT / "README.md"]]
    unreached = []
    for path, text in texts.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)]) - 1
            rest = "\n".join(lines[:start] + lines[node.end_lineno :])
            word = re.compile(rf"\b{node.name}\b")
            sources = [rest, *(t for p, t in texts.items() if p != path), *elsewhere]
            if not any(word.search(source) for source in sources):
                unreached.append(f"{path.name}: {node.name}")
    assert not unreached, unreached
