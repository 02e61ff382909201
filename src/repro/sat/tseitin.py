"""Tseitin encoding of netlist cells into CNF clauses.

Gates become clause groups over a sink (``add_clause``/``new_var``
interface — both solver backends and :class:`ClauseBuffer` qualify).
Inverters and buffers are *not* encoded: callers alias the output literal
to (the negation of) the input literal, which roughly halves variable
counts on typical netlists. The same applies to NAND/NOR/XNOR: they are
encoded as their base gate with an inverted output literal by
:func:`encode_cell`.

:class:`GateHasher` goes further for the unroller: a gate whose inputs
are constant, repeated or complementary folds to an existing literal,
and a gate identical to one already encoded reuses its variable. The
SAT kernel repeats its rules, memo keys and clause order in C for whole
frames (:class:`~repro.sat.native.NativeGateHasher`); this module is
that encoder's reference, and a change here is a change there.
"""

from __future__ import annotations

from repro.errors import EncodingError, SolverError
from repro.netlist.cells import Kind


def encode_and(sink, out, inputs):
    """out <-> AND(inputs)."""
    for lit in inputs:
        sink.add_clause([-out, lit])
    sink.add_clause([out] + [-lit for lit in inputs])


def encode_xor2(sink, out, a, b):
    """out <-> a XOR b."""
    sink.add_clause([-out, a, b])
    sink.add_clause([-out, -a, -b])
    sink.add_clause([out, -a, b])
    sink.add_clause([out, a, -b])


def encode_xor(sink, out, inputs):
    """out <-> XOR(inputs); folds n-ary XOR with auxiliary variables."""
    acc = inputs[0]
    for i, lit in enumerate(inputs[1:]):
        if i == len(inputs) - 2:
            nxt = out
        else:
            nxt = sink.new_var()
        encode_xor2(sink, nxt, acc, lit)
        acc = nxt
    if len(inputs) == 1:
        # Degenerate 1-input XOR is a buffer.
        sink.add_clause([-out, inputs[0]])
        sink.add_clause([out, -inputs[0]])


def encode_mux(sink, out, sel, d0, d1):
    """out <-> sel ? d1 : d0 (with the redundant propagation clauses)."""
    sink.add_clause([-sel, -d1, out])
    sink.add_clause([-sel, d1, -out])
    sink.add_clause([sel, -d0, out])
    sink.add_clause([sel, d0, -out])
    sink.add_clause([d0, d1, -out])
    sink.add_clause([-d0, -d1, out])


def encode_cell(sink, kind, out_lit, in_lits):
    """Encode one combinational cell.

    ``NOT``/``BUF`` must be handled by literal aliasing in the caller and
    are rejected here. NAND/NOR/XNOR encode as the base gate with ``-out``,
    and OR as the AND of the negated inputs.
    """
    if kind is Kind.AND:
        encode_and(sink, out_lit, in_lits)
    elif kind is Kind.OR:  # De Morgan: the same clauses as a direct OR
        encode_and(sink, -out_lit, [-lit for lit in in_lits])
    elif kind is Kind.XOR:
        encode_xor(sink, out_lit, in_lits)
    elif kind is Kind.NAND:
        encode_and(sink, -out_lit, in_lits)
    elif kind is Kind.NOR:
        encode_and(sink, out_lit, [-lit for lit in in_lits])
    elif kind is Kind.XNOR:
        encode_xor(sink, -out_lit, in_lits)
    elif kind is Kind.MUX:
        encode_mux(sink, out_lit, in_lits[0], in_lits[1], in_lits[2])
    elif kind in (Kind.NOT, Kind.BUF):
        raise EncodingError(
            "{} cells are aliased, not encoded; caller bug".format(kind)
        )
    else:  # pragma: no cover - closed enum
        raise EncodingError("unknown cell kind {!r}".format(kind))


class GateHasher:
    """Constant folding and structural hashing over one true literal.

    :meth:`gate` returns the literal of ``kind(inputs)``. It encodes a
    new gate into the sink only when no existing literal already is
    that function:

    * *Folding.* AND, OR, XOR and MUX with constant, repeated or
      complementary inputs reduce to a constant, an input, or a smaller
      gate. NAND, NOR and XNOR are their base gate negated, and OR is
      the AND of its negated inputs (De Morgan), so AND, OR, NAND and
      NOR of the same function share one memo entry.
    * *Hashing.* ``memo`` maps (kind, canonically ordered inputs) to the
      output variable of every gate encoded so far, so an identical gate
      (in any frame, in any copy of the design sharing this hasher)
      returns that variable.

    Only gate outputs merge: an input literal is never replaced. The
    constant-true literal must be positive.
    """

    __slots__ = ("true_lit", "memo")

    def __init__(self, true_lit):
        if true_lit <= 0:
            raise EncodingError("the true literal must be positive")
        self.true_lit = true_lit
        self.memo = {}

    def gate(self, sink, kind, ins):
        """Literal of ``kind(ins)``; new variables and clauses go to
        ``sink``."""
        if kind is Kind.MUX:
            return self.mux(sink, ins[0], ins[1], ins[2])
        if kind is Kind.XOR:
            return self.xor(sink, ins)
        if kind is Kind.BUF:
            return ins[0]
        if kind is Kind.NOT:
            return -ins[0]
        if kind is Kind.AND:
            return self.and_(sink, ins)
        if kind is Kind.OR:
            return -self.and_(sink, [-x for x in ins])
        if kind is Kind.NAND:
            return -self.and_(sink, ins)
        if kind is Kind.NOR:
            return self.and_(sink, [-x for x in ins])
        if kind is Kind.XNOR:
            return -self.xor(sink, ins)
        raise EncodingError(  # pragma: no cover - closed enum
            "unknown cell kind {!r}".format(kind))

    def and_(self, sink, ins):
        """Literal of AND(ins)."""
        true = self.true_lit
        lits = []
        for x in ins:
            if x == true or x in lits:
                continue
            if x == -true or -x in lits:
                return -true
            lits.append(x)
        if len(lits) < 2:
            return lits[0] if lits else true
        lits.sort()
        key = (Kind.AND, *lits)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = sink.new_var()
            encode_and(sink, out, lits)
        return out

    def xor(self, sink, ins):
        """Literal of XOR(ins)."""
        # XOR(-a, b) = -XOR(a, b): fold every sign, and the constant,
        # into one output flip; a variable seen twice cancels
        true = self.true_lit
        flip = False
        odd = []
        for x in ins:
            if x < 0:
                flip = not flip
                x = -x
            if x == true:
                flip = not flip
            elif x in odd:
                odd.remove(x)
            else:
                odd.append(x)
        if len(odd) < 2:
            out = odd[0] if odd else -true
        else:
            odd.sort()
            key = (Kind.XOR, *odd)
            out = self.memo.get(key)
            if out is None:
                out = self.memo[key] = sink.new_var()
                encode_xor(sink, out, odd)
        return -out if flip else out

    def mux(self, sink, sel, d0, d1):
        """Literal of ``sel ? d1 : d0``."""
        true = self.true_lit
        if sel < 0:
            sel, d0, d1 = -sel, d1, d0
        if sel == true or d0 == d1:
            return d1 if sel == true else d0
        if d0 == -d1:
            return self.xor(sink, (sel, d0))
        if d0 == -true or d0 == sel:  # sel & d1
            return self.and_(sink, (sel, d1))
        if d0 == true or d0 == -sel:  # -sel | d1
            return -self.and_(sink, (sel, -d1))
        if d1 == -true or d1 == -sel:  # -sel & d0
            return self.and_(sink, (-sel, d0))
        if d1 == true or d1 == sel:  # sel | d0
            return -self.and_(sink, (-sel, -d0))
        flip = d0 < 0  # MUX(s, -a, -b) = -MUX(s, a, b)
        if flip:
            d0, d1 = -d0, -d1
        key = (Kind.MUX, sel, d0, d1)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = sink.new_var()
            encode_mux(sink, out, sel, d0, d1)
        return -out if flip else out


class ClauseBuffer:
    """A sink that stages a batch of variables and clauses for a solver.

    Variables come from a local counter starting at ``solver.num_vars +
    1``; clauses are appended to one flat, length-prefixed list
    (``[k, lit_1 .. lit_k, k, ...]``). :meth:`flush` then hands the
    batch over in a few calls instead of one per variable and one per
    clause — the unroller stages one time frame per buffer. The
    solver receives the same variables and the same clause sequence as
    if the encoder had written to it directly. ``add_clause`` takes a
    sequence (it needs ``len``) and does no checking of its own; the
    solver validates the whole batch at :meth:`flush`.
    """

    __slots__ = ("base", "num_vars", "packed", "lead")

    def __init__(self, solver):
        self.base = self.num_vars = solver.num_vars
        self.packed = []
        self.lead = 0  # variables staged before the first clause

    def new_var(self):
        self.num_vars += 1
        if not self.packed:
            self.lead += 1
        return self.num_vars

    def add_clause(self, literals):
        packed = self.packed
        packed.append(len(literals))
        packed.extend(literals)

    def flush(self, solver):
        """Allocate the staged variables in ``solver``, then add the
        staged clauses; raises :class:`SolverError` if the solver
        allocated a variable since this buffer was created."""
        if solver.num_vars != self.base:
            raise SolverError(
                "clause buffer staged variables from {} but the solver "
                "now has {}".format(self.base + 1, solver.num_vars)
            )
        # The first clause add after a SAT answer backtracks, putting
        # the trail's variables back into the native kernel's VSIDS
        # heap, and that heap breaks activity ties by position. So the
        # variables staged before the first clause must enter the heap
        # before that backtrack and the rest after it, exactly as when
        # every call crossed on its own.
        packed = self.packed
        head = packed[0] + 1 if packed else 0
        solver.new_vars(self.lead)
        solver.add_packed_clauses(packed[:head])
        solver.new_vars(self.num_vars - self.base - self.lead)
        solver.add_packed_clauses(packed[head:])
