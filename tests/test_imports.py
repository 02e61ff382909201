"""Every ``repro`` subpackage imports on its own, in a fresh interpreter.

An import cycle only shows when its modules are the first ones loaded,
which the rest of the suite (sharing one interpreter) never exercises.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"
SUBPACKAGES = sorted(
    info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_cold(name):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", "import repro.{}".format(name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
