"""The suite as a whole: every test module can be imported.

The suite may run with ``--continue-on-collection-errors``, which drops
a module that fails to import (a stale import, a syntax error) and
still reports the rest as passed. This test collects ``tests/`` in a
process of its own and fails naming each module that did not import.
"""

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
