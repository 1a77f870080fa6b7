"""What importing the package pulls in.

Every solve imports :mod:`repro`, and every spawn-started fleet worker
imports it again before it can ack its first job, so whatever the
import drags in is paid on each cold start.  scipy is the heaviest
candidate (its sparse package loads the array-API layer and f2py);
nothing on these paths may need it.  The check runs in a fresh
interpreter, because this test process has imported scipy already.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

ENTRY_MODULES = ("repro", "repro.service", "repro.abs.fleet", "repro.cli")


def test_entry_modules_load_no_scipy():
    script = (
        "import importlib, sys\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
