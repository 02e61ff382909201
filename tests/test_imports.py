"""Every ``repro`` subpackage imports on its own, in a fresh interpreter,
and every name a package exports resolves.

An import cycle only shows when its modules are the first ones loaded,
which the rest of the suite (sharing one interpreter) never exercises.
A name left in ``__all__`` after its definition is deleted breaks
``import *``, and a lazy root export whose module is gone fails only on
first access; neither shows anywhere else.
"""

import importlib
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


@pytest.mark.parametrize(
    "name", ["repro"] + ["repro." + sub for sub in SUBPACKAGES]
)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    exported = list(package.__all__)
    assert len(exported) == len(set(exported)), name
    # the root package resolves its lazy table through __getattr__
    for attr in exported + list(getattr(package, "_EXPORTS", ())):
        getattr(package, attr)
