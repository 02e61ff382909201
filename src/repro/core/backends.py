"""Uniform interface over the formal engines.

Algorithm 1 and the benchmark harness run the same monitor circuits
through either engine:

* ``"bmc"``  — the incremental CDCL-based bounded model checker
  (:class:`~repro.bmc.engine.BmcEngine`), the paper's Cadence-SMV role.
* ``"atpg"`` — the staged portfolio (backward justification + PODEM,
  :class:`~repro.atpg.portfolio.PortfolioJustifier`), the
  paper's TetraMAX full-sequential role.
* ``"atpg-backward"`` — the backward line-justification engine
  (:class:`~repro.atpg.sequential.SequentialJustifier`), kept as an
  ablation of the implication machinery.

All three consume a 1-bit sticky objective net and return result objects
sharing the ``status`` / ``bound`` / ``witness`` / ``detected`` /
``elapsed`` / ``peak_memory`` shape.

Every BMC check that carries its monitor's violation net (the Eq. 2
tasks) goes through :func:`run_objective`'s k-induction shortcut
first, wherever the task runs: inline or in a pool worker.
"""

from __future__ import annotations

import inspect

from repro.atpg.podem_seq import PodemJustifier
from repro.atpg.portfolio import PortfolioJustifier
from repro.atpg.sequential import SequentialJustifier
from repro.bmc.engine import BmcEngine
from repro.bmc.session import induction_first
from repro.errors import EngineArgumentError, ReproError

_ENGINE_CLASSES = {
    "bmc": BmcEngine,
    "atpg": PortfolioJustifier,
    "atpg-podem": PodemJustifier,
    "atpg-backward": SequentialJustifier,
}
ENGINES = tuple(_ENGINE_CLASSES)


def validate_check_kwargs(name, engine, check_kwargs):
    """Reject check kwargs the engine's ``check`` does not accept.

    ``engine`` is an engine or its class.

    Engines differ in their knobs (``conflict_budget`` is BMC-only,
    ``backtrack_budget`` is ATPG-only); without validation a misspelled
    or misrouted kwarg surfaces as a ``TypeError`` from deep inside the
    engine — or vanishes entirely behind a ``**kwargs`` signature.
    """
    signature = inspect.signature(engine.check)
    accepts_var_kwargs = any(
        p.kind is inspect.Parameter.VAR_KEYWORD
        for p in signature.parameters.values()
    )
    if accepts_var_kwargs:
        return
    accepted = {
        p.name
        for p in signature.parameters.values()
        if p.kind
        in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        )
        and p.name != "self"
    }
    unknown = sorted(set(check_kwargs) - accepted)
    if unknown:
        raise EngineArgumentError(
            "engine {!r} does not accept check argument{} {}; accepted "
            "arguments: {}".format(
                name,
                "" if len(unknown) == 1 else "s",
                ", ".join(repr(k) for k in unknown),
                ", ".join(sorted(accepted - {"max_cycles"})),
            )
        )


def _engine_class(name):
    """The engine class registered under ``name``."""
    try:
        return _ENGINE_CLASSES[name]
    except KeyError:
        raise ReproError(
            "unknown engine {!r}; pick one of {}".format(name, ENGINES)
        ) from None


def make_engine(name, netlist, objective_net, property_name="",
                pinned_inputs=None, use_coi=True):
    """Instantiate a formal engine by name."""
    return _engine_class(name)(
        netlist,
        objective_net,
        property_name=property_name,
        pinned_inputs=pinned_inputs,
        use_coi=use_coi,
    )


def run_objective(name, netlist, objective_net, max_cycles, property_name="",
                  pinned_inputs=None, use_coi=True, violation_net=None,
                  **check_kwargs):
    """One-shot: build the named engine and run its bounded check.

    ``violation_net`` is the monitor's per-cycle violation net, which
    Eq. 2 tasks carry. With it, a BMC check first tries the k-induction
    shortcut (:func:`~repro.bmc.session.induction_first`) and builds
    the engine only when that settles nothing, handing it what is left
    of ``time_budget``. The check kwargs are validated before either
    runs, so a bad one raises :class:`EngineArgumentError` even for a
    property the shortcut would prove.
    """
    validate_check_kwargs(name, _engine_class(name), check_kwargs)
    if name == "bmc" and violation_net is not None:
        result, budget = induction_first(
            netlist,
            violation_net,
            max_cycles,
            property_name=property_name,
            pinned_inputs=pinned_inputs,
            time_budget=check_kwargs.get("time_budget"),
            start_cycle=check_kwargs.get("start_cycle", 1),
        )
        if result is not None:
            return result
        if budget is not None:
            check_kwargs["time_budget"] = budget
    engine = make_engine(
        name,
        netlist,
        objective_net,
        property_name=property_name,
        pinned_inputs=pinned_inputs,
        use_coi=use_coi,
    )
    return engine.check(max_cycles, **check_kwargs)
