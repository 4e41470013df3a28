"""What each entry point loads: cryptography only for HTTPS generation."""

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
