"""Picklable check tasks the supervisor can run in-process or in a worker.

A *task* is a small callable object capturing everything one property
check needs: the monitor netlist, the objective, the engine name and the
check kwargs. Tasks are plain dataclasses (no closures) so they survive
a trip into a ``multiprocessing`` worker under any start method. A
retry runs the same task again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class ObjectiveTask:
    """One Eq. (2)/(3) bounded check of a 1-bit objective net.

    The task runs the same way wherever it executes: the supervisor's
    own process or a pool worker. An Eq. 2 task carries its monitor's
    ``violation_net`` and so tries the k-induction shortcut first in
    both.

    With ``cache_dir`` set, the task participates in the outcome cache
    (:mod:`repro.cache`): the supervisor consults the store before the
    task runs, and the task writes its verdict back *from wherever it
    executes* — a pool worker, or the calling process inline — so a
    crash-killed supervisor still keeps the worker's finished proofs.
    ``cache_resume_base`` is the cached proved bound a resumed check
    continues from; the write-back path refuses to extend a proof across
    a gap (a hand-set ``start_cycle`` without a certified prefix stores
    nothing but violations).

    ``key`` is the check's :class:`~repro.cache.CheckKey`, computed once
    where the task is built: the audit keys its monitor against the
    design's fingerprint (:func:`~repro.cache.check_key`), and a task
    built by hand with ``cache_dir`` and no key gets its whole netlist
    keyed against the empty design. The cache consult, the pool's claim
    and the write-back all read it; a resumed copy carries it along.
    """

    engine: str
    netlist: object
    objective_net: int
    max_cycles: int
    property_name: str = ""
    pinned_inputs: object = None
    use_coi: bool = True
    check_kwargs: dict = field(default_factory=dict)
    cache_dir: str | None = None
    cache_resume_base: int = 0
    #: The monitor's per-cycle violation net, set on Eq. 2 tasks only:
    #: a BMC check then tries the k-induction shortcut before climbing
    #: its bounds (see :func:`repro.core.backends.run_objective`). A
    #: proof by the shortcut reports what the full ascent would, so the
    #: cache key leaves it out.
    violation_net: int | None = None
    key: object = None

    def __post_init__(self):
        if self.cache_dir is not None and self.key is None:
            from repro.cache import check_key

            object.__setattr__(self, "key", check_key(
                self.netlist,
                self.objective_net,
                self.engine,
                pinned_inputs=self.pinned_inputs,
                use_coi=self.use_coi,
            ))

    @property
    def time_budget(self):
        return self.check_kwargs.get("time_budget")

    @property
    def start_cycle(self):
        return self.check_kwargs.get("start_cycle", 1)

    def with_resume(self, certified_bound):
        """Resume after a cached proof: skip bounds ``1..certified_bound``."""
        kwargs = dict(self.check_kwargs)
        kwargs["start_cycle"] = certified_bound + 1
        return replace(
            self, check_kwargs=kwargs, cache_resume_base=certified_bound
        )

    def cache_key(self):
        """The content-addressed identity of this check (see repro.cache)."""
        return self.key

    def _store_result(self, result):
        if self.cache_dir is None:
            return
        # only a contiguous certified prefix makes the run's deepest
        # bound an absolute claim; a foreign start_cycle breaks that
        contiguous = self.start_cycle == self.cache_resume_base + 1
        status = getattr(result, "status", None)
        if not contiguous and status != "violated":
            return
        from repro.cache import OutcomeCache

        OutcomeCache(self.cache_dir).record_result(
            self.cache_key(),
            result,
            engine=self.engine,
            certified_base=self.cache_resume_base if contiguous else 0,
        )

    def __call__(self):
        from repro.core.backends import run_objective

        result = run_objective(
            self.engine,
            self.netlist,
            self.objective_net,
            self.max_cycles,
            property_name=self.property_name,
            pinned_inputs=self.pinned_inputs,
            use_coi=self.use_coi,
            violation_net=self.violation_net,
            **self.check_kwargs,
        )
        try:
            self._store_result(result)
        except Exception:  # noqa: BLE001 - cache failure must not cost a verdict
            pass
        return result


@dataclass(frozen=True)
class BypassTask:
    """One Eq. (4) CEGIS bypass check for a critical register."""

    netlist: object
    spec: object  # RegisterSpec
    max_cycles: int
    time_budget: float | None = None
    max_cegis_iters: int = 64
    seed: int = 0

    @property
    def property_name(self):
        return "no-bypass({})".format(self.spec.register)

    def __call__(self):
        from repro.properties.bypass import BypassChecker

        return BypassChecker(self.netlist, self.spec).check(
            self.max_cycles,
            time_budget=self.time_budget,
            max_cegis_iters=self.max_cegis_iters,
            seed=self.seed,
        )


@dataclass(frozen=True)
class CallableTask:
    """Adapter for arbitrary callables (tests, custom engines).

    ``fn`` is called bare; ``max_cycles`` and ``time_budget`` only feed
    the attempt records and, on a pool, the default hard timeout.
    """

    fn: object
    max_cycles: int = 0
    time_budget: float | None = None
    property_name: str = ""

    def __call__(self):
        return self.fn()
