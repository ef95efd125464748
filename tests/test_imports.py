"""The package runs on the standard library alone: importing the CLI pulls
in no third-party module, and the package declares no dependency.  Import
time is part of every command's start-up, so it stays small."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
before = set(sys.modules)
import gridmorse.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_needs_only_the_standard_library():
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "gridmorse.cli" in added
    foreign = [name for name in added
               if name.split(".")[0] != "gridmorse"
               and name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("[project]\n", 1)[1].split("\n[", 1)[0]
    assert "dependencies = []" in project.splitlines()
