"""Backend factory: REPRO_SAT_BACKEND selection and fallback."""

import pytest

from repro.sat.factory import backend_name, default_solver
from repro.sat.native import NativeSolver, native_available
from repro.sat.solver import Solver


def test_python_forced(monkeypatch):
    monkeypatch.setenv("REPRO_SAT_BACKEND", "python")
    assert isinstance(default_solver(), Solver)


def test_unknown_value_falls_back_to_auto(monkeypatch):
    monkeypatch.setenv("REPRO_SAT_BACKEND", "cadical???")
    assert backend_name() == "auto"
    solver = default_solver()
    if native_available():
        assert isinstance(solver, NativeSolver)
    else:
        assert isinstance(solver, Solver)


@pytest.mark.skipif(not native_available(), reason="no C compiler")
def test_native_forced(monkeypatch):
    monkeypatch.setenv("REPRO_SAT_BACKEND", "native")
    assert isinstance(default_solver(), NativeSolver)
