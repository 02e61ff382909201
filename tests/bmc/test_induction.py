"""k-induction tests: unbounded certification beyond the paper's bounded
guarantee."""

from repro.bmc.induction import prove_by_induction
from repro.properties.monitors import build_corruption_monitor

from tests.conftest import build_secret_design, secret_spec


def test_clean_design_proved_forever():
    netlist = build_secret_design(trojan=False)
    monitor = build_corruption_monitor(netlist, secret_spec())
    result = prove_by_induction(
        monitor.netlist, monitor.violation_net, max_k=4,
        property_name="secret-forever",
    )
    assert result.proved_forever
    assert result.k <= 2
    assert "proved-unbounded" in result.summary()


def test_trojan_found_in_base_case():
    netlist = build_secret_design(trojan=True)
    monitor = build_corruption_monitor(netlist, secret_spec())
    result = prove_by_induction(
        monitor.netlist, monitor.violation_net, max_k=12
    )
    assert result.status == "violated"
    assert result.witness is not None
    from repro.bmc.witness import confirms_violation

    assert confirms_violation(
        monitor.netlist, result.witness, monitor.violation_net
    )


def test_budget_exhaustion_is_unknown():
    netlist = build_secret_design(trojan=True)
    monitor = build_corruption_monitor(netlist, secret_spec())
    result = prove_by_induction(
        monitor.netlist, monitor.violation_net, max_k=12, time_budget=0.0
    )
    assert result.status == "unknown"


def test_true_but_non_inductive_property_is_unknown():
    # a mod-10 counter never shows 15, but the step formula may start in
    # the unreachable state 14 and count to 15 — k-induction (without
    # reachability strengthening) cannot close the proof
    from repro.netlist import Circuit

    c = Circuit("mod10")
    enable = c.input("en", 1)
    count = c.reg("count", 4)
    wrapped = c.mux(count.q.eq_const(9), count.q + 1, c.const(0, 4))
    count.hold_unless((enable, wrapped))
    c.output("v", count.q)
    nl = c.finalize()
    cc = Circuit.attach(nl)
    objective = cc.bv(nl.register_q_nets("count")).eq_const(15)
    result = prove_by_induction(nl, objective.nets[0], max_k=3)
    assert result.status == "unknown"
    assert result.k == 3


def test_risc_stack_pointer_unbounded():
    """The headline extension: the clean RISC stack pointer is certified
    for ALL cycles — no periodic reset needed (contrast Section 3.2)."""
    from repro.designs import build_risc

    netlist, spec = build_risc()
    monitor = build_corruption_monitor(
        netlist, spec.critical["stack_pointer"], functional=False
    )
    result = prove_by_induction(
        monitor.netlist,
        monitor.violation_net,
        max_k=3,
        time_budget=60,
        pinned_inputs=spec.pinned_inputs,
        property_name="risc-sp-forever",
    )
    assert result.proved_forever


def _shift_chain(n):
    """n-stage shift register fed by constant 0: the last stage's
    "violation" is true-but-only-n-inductive, so k-induction must deepen
    to exactly k=n before the step closes."""
    from repro.netlist import Circuit

    c = Circuit("shift{}".format(n))
    regs = [c.reg("s{}".format(i), 1) for i in range(n)]
    regs[0].drive(c.const(0, 1))
    for i in range(1, n):
        regs[i].drive(regs[i - 1].q)
    c.output("v", regs[-1].q)
    nl = c.finalize()
    return nl, nl.register_q_nets("s{}".format(n - 1))[0]


def test_step_clause_growth_is_linear_in_k(monkeypatch):
    """Each frame's ¬violation constraint is added to the step solver
    exactly once across the whole deepening loop (regression: it used to
    be re-added for frames 0..k-1 at every k, i.e. k(k+1)/2 times)."""
    import repro.bmc.induction as ind
    from repro.sat.solver import Solver

    created = []

    class CountingSolver(Solver):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.unit_adds = 0

        def add_clause(self, literals):
            literals = list(literals)
            if len(literals) == 1:
                self.unit_adds += 1
            return super().add_clause(literals)

    def counting_factory(**kwargs):
        solver = CountingSolver(**kwargs)
        created.append(solver)
        return solver

    monkeypatch.setattr(ind, "default_solver", counting_factory)
    netlist, objective = _shift_chain(5)
    result = ind.prove_by_induction(netlist, objective, max_k=8)
    assert result.proved_forever
    assert result.k == 5
    (step_solver,) = created
    # one unit for the unroller's constant-true literal, then exactly one
    # step constraint per frame 0..k-1 — linear, not quadratic
    assert step_solver.unit_adds == 1 + result.k


def test_exhausted_budget_bails_before_any_solving(monkeypatch):
    """A budget that is already spent must return unknown immediately —
    not proceed with clamped 1ms slices (regression: remaining() used to
    floor at 0.001s, so 'out of time' never stopped the loop)."""
    import types

    import repro.bmc.induction as ind

    class Clock:
        def __init__(self, step):
            self.now = 0.0
            self.step = step

        def perf_counter(self):
            self.now += self.step
            return self.now

    class ForbiddenEngine:
        def __init__(self, *args, **kwargs):
            pass

        def check(self, *args, **kwargs):
            raise AssertionError("base BMC ran despite exhausted budget")

    # every clock read advances 0.6s against a 0.4s budget: exhausted at
    # the first top-of-loop check
    clock = Clock(0.6)
    monkeypatch.setattr(
        ind, "time", types.SimpleNamespace(perf_counter=clock.perf_counter)
    )
    monkeypatch.setattr(ind, "BmcEngine", ForbiddenEngine)
    netlist, objective = _shift_chain(3)
    result = ind.prove_by_induction(
        netlist, objective, max_k=8, time_budget=0.4
    )
    assert result.status == "unknown"
    assert result.k == 1


def test_budget_expiry_mid_loop_stops_deepening(monkeypatch):
    """The loop re-checks the remaining budget before each step solve and
    stops deepening the moment it goes negative."""
    import types

    import repro.bmc.induction as ind
    from repro.sat.solver import Solver

    class Clock:
        def __init__(self, step):
            self.now = 0.0
            self.step = step

        def perf_counter(self):
            self.now += self.step
            return self.now

    created = []

    class CountingSolver(Solver):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.solve_calls = 0

        def solve(self, **kwargs):
            self.solve_calls += 1
            return super().solve(**kwargs)

    def counting_factory(**kwargs):
        solver = CountingSolver(**kwargs)
        created.append(solver)
        return solver

    monkeypatch.setattr(ind, "default_solver", counting_factory)
    # 0.3s per clock read, 1.0s budget: k=1 fits (step solve #1, SAT —
    # the chain needs k=5), then the budget runs out during k=2
    clock = Clock(0.3)
    monkeypatch.setattr(
        ind, "time", types.SimpleNamespace(perf_counter=clock.perf_counter)
    )
    netlist, objective = _shift_chain(5)
    result = ind.prove_by_induction(
        netlist, objective, max_k=8, time_budget=1.0
    )
    assert result.status == "unknown"
    assert result.k == 2
    (step_solver,) = created
    assert step_solver.solve_calls == 1


def test_conflict_budget_stops_the_attempt_on_any_host():
    # the clean secret design's proof needs conflicts: a budget of one
    # gives up at the same point whatever the host's speed
    netlist = build_secret_design(trojan=False)
    monitor = build_corruption_monitor(netlist, secret_spec())
    args = (monitor.netlist, monitor.violation_net)
    assert prove_by_induction(*args, max_k=4).proved_forever
    result = prove_by_induction(*args, max_k=4, conflict_budget=1)
    assert result.status == "unknown"


def test_session_shortcut_uses_the_conflict_budget(monkeypatch):
    from repro.bmc import session as session_mod
    from repro.bmc.session import SolverSession

    def check(budget):
        monkeypatch.setattr(session_mod, "INDUCTION_CONFLICTS", budget)
        netlist = build_secret_design(trojan=False)
        session = SolverSession(netlist)
        monitor = build_corruption_monitor(
            netlist, secret_spec(), into=netlist)
        result = session.check(monitor.objective_net, 6,
                               violation_net=monitor.violation_net)
        return result, session.induction_wins

    result, wins = check(session_mod.INDUCTION_CONFLICTS)
    assert (result.status, result.bound, wins) == ("proved", 6, 1)
    # out of conflicts, the shortcut proves nothing and BMC still does
    result, wins = check(1)
    assert (result.status, result.bound, wins) == ("proved", 6, 0)
