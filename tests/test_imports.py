"""What each module loads: cryptography only for HTTPS generation, PyYAML only in yamlio."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import topoforge


def test_entry_points_do_not_load_cryptography():
    src = str(Path(topoforge.__file__).resolve().parent.parent)
    code = (
        "import sys, topoforge.runtime, topoforge.sim, topoforge.cli; "
        "print('cryptography' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=60
    )
    assert out.stdout == "False\n"


def test_only_yamlio_imports_yaml():
    importers = set()
    for path in Path(topoforge.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name == "yaml" or name.startswith("yaml.") for name in names):
                importers.add(path.name)
    assert importers == {"yamlio.py"}
