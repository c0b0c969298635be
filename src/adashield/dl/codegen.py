"""Straight-line Python for terms and quantifier-free formulas.

A :class:`Module` is generated against one interpretation of the constant
symbols, and compiles each function it generates as soon as the function's
statements are emitted.  Each function has exactly the semantics of
:func:`~adashield.dl.semantics.eval_term` or ``eval_formula`` under those
constants, which stay the reference: operands evaluate left to right, an
undefined term operand makes its term undefined at once, and each
connective follows strong Kleene logic as ``eval_formula`` does, so a
decided left operand skips the right one and an undefined left operand does
not stop it.  Every literal, constant and identifier of the tree is a name
in the module's namespace, never text in its source, except an exponent.

What the constants fix is decided as the code is generated, with the
reference's own tests:

* a nullary symbol bound to a value that is not callable reads that name,
  with no test; one bound to a callable is called on each use; an unbound
  symbol makes its point of evaluation fail unconditionally, before its
  arguments are evaluated;
* ``x ^ n`` with a literal ``n`` that ``semantics.power`` admits, a natural
  number, is ``x ** n`` inline, followed by ``power``'s finiteness test;
  with any other literal it fails unconditionally once ``x`` is defined;
* a division by a literal or a constant that is not zero has no zero test,
  and one by zero fails unconditionally once both operands are defined.

Nothing else is folded or simplified.

A function reads variables one of two ways.  Without index names it reads a
plain dict, ``cur``, as ``eval_term`` reads a valuation: its signature is
``(cur)``.  With a template's index names it reads ``val`` and ``j``: ``x``
reads ``val.current``, and ``x@i`` at an index name reads ``val.at(x,
j[k])``, where ``k`` is the position of ``i`` among the names, without
building a binding.  An observation name reads through ``val.obs`` instead,
which also sees the observations surfaced this step; ``val.at`` reads only
state variables and bounds.

A function that evaluates a template for many index tuples, in a loop
that binds ``j`` to each in turn, may keep the largest subterms that read no
index name in slots: each is evaluated where it is first reached, at most
once per call, and read from its slot after.  Every read tests its slot,
empty or UNDEF, so a loop needs no first iteration of its own.  A subterm
that reads a name the function itself writes is never kept in a slot.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Mapping, Optional

from .semantics import UNDEF, StructuralError, apply, power
from .syntax import (
    Abs, And, App, BinOp, BoolLit, Box, Cmp, Dia, Exists, Forall, Ident, Imp,
    Lit, Neg, Not, Or, Var,
)

#: block depth past which a nested formula or program is generated as a
#: function of its own, well inside the compiler's 100 indentation levels
MAX_DEPTH = 40

_CMP = {"=": "==", "<": "<", "<=": "<=", ">=": ">="}  # any other op is '>'

#: per connective: the left value that decides it, the right value that
#: decides it, the decided result, and the result when both are defined
_KLEENE = {And: ("False", "False", "False", "True"),
           Or: ("True", "True", "True", "False"),
           Imp: ("False", "True", "True", "False")}


#: what ``Body.fixed`` gives for a term whose value is not fixed
FREE = object()


class Module:
    """Generated functions and the namespace they share, generated against
    the interpretation ``consts`` of the constant symbols: each function is
    compiled as soon as its statements are emitted."""

    def __init__(self, consts: Mapping):
        self.consts = consts
        self.ns = {"UNDEF": UNDEF, "StructuralError": StructuralError,
                   "_apply": apply, "_power": power, "_isfinite": math.isfinite}
        self.count = 0

    def const(self, value) -> str:
        self.count += 1
        name = f"_k{self.count}"
        self.ns[name] = value
        return name

    def function(self, params: str, names: Optional[tuple], obs: Optional[frozenset],
                 emit: Callable) -> Callable:
        """The function of ``params`` whose statements ``emit(body)`` writes,
        reading variables under the index ``names`` (None: a plain dict),
        the names ``obs`` as observations (None: every name read at an
        index).  Each function is compiled on its own, because the parser's
        transient memory grows with the source it is given: the 24 KB of
        acas's functions at once peak at 2.5 MB, its largest function alone
        at 0.6 MB, and the process's peak memory keeps the larger figure."""
        self.count += 1
        name = f"_f{self.count}"
        body = Body(self, names, obs)
        emit(body)
        exec(compile(body.source(name, params), "<shield>", "exec"), self.ns)
        return self.ns[name]

    def term(self, t) -> Callable:
        """``eval_term(t, consts, cur)`` as ``f(cur)``: a value or UNDEF."""
        return self.function(_params(None), None, None,
                             lambda b: b.emit(f"return {b.term(t, 'return UNDEF')}"))

    def formula(self, f) -> Callable:
        """``eval_formula(f, consts, cur)`` as ``f(cur)``: True, False or
        UNDEF."""
        return self.function(_params(None), None, None,
                             lambda b: b.emit(f"return {b.formula(f)}"))


def _params(names: Optional[tuple]) -> str:
    return "cur" if names is None else "val, j"


class Body:
    """The statements of one generated function.  ``term`` and ``formula``
    emit the statements that compute a tree and return the name that holds
    its value."""

    def __init__(self, module: Module, names: Optional[tuple], obs: Optional[frozenset]):
        self.m = module
        self.names = names
        self.obs = obs
        self.pos = {name: k for k, name in enumerate(names or ())}  # the last one wins
        self.lines: list[str] = []
        self.depth = 1
        self.uses: set[str] = set()
        #: the slot of each largest subterm that reads no index name, once
        #: set to a dict; a slot holds None until its subterm is evaluated
        self.slots: Optional[dict] = None
        #: names the function writes to ``val.current``, at any index
        self.written: frozenset = frozenset()
        self._invariant: dict[int, bool] = {}

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def new(self) -> str:
        self.m.count += 1
        return f"_{self.m.count}"

    def const(self, value) -> str:
        return self.m.const(value)

    @contextmanager
    def block(self, header: str):
        self.emit(header)
        self.depth += 1
        yield
        self.depth -= 1

    def source(self, name: str, params: str) -> str:
        prologue = [f"    {v} = val.{attr}"
                    for v, attr in (("cur", "current"), ("at", "at"), ("obs", "obs"))
                    if v in self.uses and self.names is not None]
        if self.slots:
            prologue.append(f"    {' = '.join(self.slots.values())} = None")
        return "\n".join([f"def {name}({params}):", *prologue, *self.lines])

    def read(self, ident: Ident) -> str:
        """The expression that reads ``ident``, UNDEF when it is unset."""
        name, i = ident
        if self.names is None or i is None or (i.__class__ is str and i not in self.pos):
            self.uses.add("cur")
            return f"cur.get({self.const(ident)}, UNDEF)"
        how = "obs" if self.obs is None or name in self.obs else "at"
        self.uses.add(how)
        at = f"j[{self.pos[i]}]" if i.__class__ is str else self.const(i)
        return f"{how}({self.const(Ident(name))}, {at})"

    def fixed(self, t):
        """The value of ``t`` where the constants fix it: a literal's, or
        that of a nullary symbol bound to a value that is not callable;
        ``FREE`` otherwise."""
        tt = type(t)
        if tt is Lit:
            return t.value
        if tt is App and not t.args:
            f = self.m.consts.get(t.func, UNDEF)
            if f is not UNDEF and not callable(f):
                return f
        return FREE

    def closed(self, t) -> bool:
        """Whether ``t`` reads no variable and calls nothing, so that the
        constants fix its value."""
        tt = type(t)
        if tt is Lit:
            return True
        if tt is App:
            f = self.m.consts.get(t.func, UNDEF)
            return f is UNDEF or (not t.args and not callable(f))
        if tt is BinOp:
            return self.closed(t.left) and self.closed(t.right)
        if tt is Neg or tt is Abs:
            return self.closed(t.arg)
        return False

    def leaf(self, t) -> Optional[str]:
        """The name that holds ``t``'s value where the constants fix it, or
        ``UNDEF`` where ``t`` applies an unbound symbol; None otherwise."""
        tt = type(t)
        if tt is Lit:
            return self.const(t.value)
        if tt is App:
            f = self.m.consts.get(t.func, UNDEF)
            if f is UNDEF:
                return "UNDEF"
            if not t.args and not callable(f):
                return self.const(f)
        return None

    def invariant(self, t) -> bool:
        """Whether the term ``t`` reads no index name and no name the
        function writes."""
        k = id(t)
        r = self._invariant.get(k)
        if r is None:
            tt = type(t)
            if tt is Var:
                name, i = t.ident
                r = name not in self.written and not (i.__class__ is str and i in self.pos)
            elif tt is Lit:
                r = True
            elif tt is BinOp:
                r = self.invariant(t.left) and self.invariant(t.right)
            elif tt is Neg or tt is Abs:
                r = self.invariant(t.arg)
            elif tt is App:
                r = all(self.invariant(a) for a in t.args)
            else:
                r = False
            self._invariant[k] = r
        return r

    def slot(self, t) -> str:
        """The slot of ``t``, evaluated into it here if it is still empty:
        a value or UNDEF."""
        # trees that compare equal may differ in a literal's sign of zero
        # or type, as Lit(0.0) == Lit(-0.0) == Lit(0); their reprs do not
        key = t, repr(t)
        s = self.slots.get(key)
        if s is None:
            self.m.count += 1
            s = self.slots[key] = f"_s{self.m.count}"
        slots, self.slots = self.slots, None
        with self.block(f"if {s} is None:"):
            self.emit(f"{s} = {self.term_into(t)}")
        self.slots = slots
        return s

    # -- terms -----------------------------------------------------------------

    def term(self, t, fail: str) -> str:
        """Emit ``t`` in post-order; ``fail`` runs where ``eval_term`` would
        return UNDEF."""
        leaf = self.leaf(t)
        if leaf is not None:
            if leaf == "UNDEF":
                self.emit(fail)
            return leaf
        tt = type(t)
        if self.slots is not None and self.invariant(t):
            s = self.slot(t)
            self.emit(f"if {s} is UNDEF: {fail}")
            return s
        r = self.new()
        if tt is Var:
            self.emit(f"{r} = {self.read(t.ident)}")
            self.emit(f"if {r} is UNDEF: {fail}")
        elif tt is BinOp:
            a = self.term(t.left, fail)
            b = self.term(t.right, fail)
            op = t.op
            if op in ("+", "-", "*"):
                self.emit(f"{r} = {a} {op} {b}")
            elif op == "/":
                d = self.fixed(t.right)
                if d is FREE:
                    self.emit(f"if {b} == 0.0: {fail}")
                elif d == 0.0:
                    self.emit(fail)
                self.emit(f"{r} = {a} / {b}")
            elif op in ("min", "max"):
                self.emit(f"{r} = {a} if {a} {'<=' if op == 'min' else '>='} {b} else {b}")
            elif op == "^" and type(t.right) is Lit:
                n = _natural(t.right.value)
                if n is None:
                    self.emit(fail)
                else:
                    with self.block("try:"):
                        self.emit(f"{r} = {a} ** {n}")
                    with self.block("except (OverflowError, ValueError):"):
                        self.emit(fail)
                    self.emit(f"if not _isfinite({r}): {fail}")
            elif op == "^":
                self.emit(f"{r} = _power({a}, {b})")
                self.emit(f"if {r} is UNDEF: {fail}")
            else:
                self._raise(f"unknown operator {op!r}")
        elif tt is Neg:
            self.emit(f"{r} = -{self.term(t.arg, fail)}")
        elif tt is Abs:
            self.emit(f"{r} = abs({self.term(t.arg, fail)})")
        elif tt is App:
            # bound, as leaf() shows: to a callable, or applied to arguments
            value = self.m.consts[t.func]
            f = self.const(value)
            args = ", ".join(self.term(arg, fail) for arg in t.args)
            if not t.args:
                self.emit(f"{r} = float({f}())")
            elif callable(value):
                self.emit(f"{r} = float({f}({args}))")
                self.emit(f"if not _isfinite({r}): {fail}")
            else:
                self.emit(f"{r} = _apply({self.const(t.func)}, {f}, ({args},))")
        else:
            self._raise(f"not a term: {t!r}")
        return r

    def term_into(self, t) -> str:
        """Emit ``t`` so that an undefined ``t`` leaves UNDEF in the
        returned name and the function goes on."""
        leaf = self.leaf(t)
        if leaf is not None:
            return leaf
        if self.slots is not None and self.invariant(t):
            return self.slot(t)
        r = self.new()
        if type(t) is Var:
            self.emit(f"{r} = {self.read(t.ident)}")
            return r
        self.emit(f"{r} = UNDEF")
        with self.block("while True:"):
            self.emit(f"{r} = {self.term(t, 'break')}")
            self.emit("break")
        return r

    def _raise(self, message: str) -> None:
        self.emit(f"raise StructuralError({self.const(message)})")

    # -- formulas --------------------------------------------------------------

    def formula(self, f) -> str:
        ft = type(f)
        if ft is BoolLit:
            return self.const(f.value)
        r = self.new()
        if ft is Cmp:
            self.emit(f"{r} = UNDEF")
            with self.block("while True:"):
                a = self.term(f.left, "break")
                b = self.term(f.right, "break")
                self.emit(f"{r} = True if {a} {_CMP.get(f.op, '>')} {b} else False")
                self.emit("break")
        elif ft is Not:
            a = self.formula(f.arg)
            self.emit(f"{r} = UNDEF if {a} is UNDEF else (not {a})")
        elif ft in _KLEENE:
            left, right, decided, defined = _KLEENE[ft]
            a = self.formula(f.left)
            self.emit(f"if {a} is {left}: {r} = {decided}")
            with self.block("else:"):
                b = self.nested(f.right)
                self.emit(f"{r} = {decided} if {b} is {right} else "
                          f"UNDEF if {a} is UNDEF or {b} is UNDEF else {defined}")
        elif ft in (Forall, Exists, Box, Dia):
            self._raise(f"cannot evaluate quantified/modal formula: {ft.__name__}")
        else:
            self._raise(f"not a formula: {f!r}")
        return r

    def nested(self, f) -> str:
        """``formula(f)`` one block down, or past ``MAX_DEPTH`` a call to a
        function of its own."""
        if self.depth < MAX_DEPTH:
            return self.formula(f)
        params = _params(self.names)
        fn = self.m.function(params, self.names, self.obs,
                             lambda b: b.emit(f"return {b.formula(f)}"))
        r = self.new()
        self.emit(f"{r} = {fn.__name__}({params})")
        return r

    # -- linearization -----------------------------------------------------------

    def lin(self, t, noise: tuple, fail: str) -> Optional[tuple]:
        """Emit ``strategy._lin`` of ``t`` for noise variables ``noise`` of
        distinct names: every subterm it evaluates with ``eval_term``, in
        its order, then, if all are defined, its float operations, in its
        order; ``fail`` runs where it is None.  Returns ``(c0, [(variable,
        c)])``, each a name or a float literal, in ``_lin``'s key order, or
        None where ``_lin`` is None whatever the values."""
        lin = _Lin(self, noise, fail)
        r = lin.lin(t)
        if r is None:
            self.emit(fail)
            return None
        if lin.leaves:
            self.emit(f"if {' or '.join(f'{v} is UNDEF' for v in lin.leaves)}: {fail}")
        for op in lin.ops:
            self.emit(op)
        return r


class _Lin:
    """The leaves and float operations of ``Body.lin``."""

    def __init__(self, body: Body, noise: tuple, fail: str):
        self.b = body
        self.noise = noise
        self.fail = fail
        self.leaves: list[str] = []
        self.ops: list[str] = []

    def op(self, expr: str) -> str:
        r = self.b.new()
        self.ops.append(f"{r} = {expr}")
        return r

    def lin(self, t):
        """``(c0, [(noise variable, coefficient)])`` as names or float
        literals, in ``_lin``'s key order, or None where ``_lin`` is None
        whatever the values."""
        tt = type(t)
        if tt is Var and t.ident in self.noise:
            return "0.0", [(t.ident, "1.0")]
        if tt in (Lit, Var, App, Abs) or (tt is BinOp and t.op not in ("+", "-", "*", "/")):
            v = self.b.term_into(t)
            if self.b.fixed(t) is FREE:
                self.leaves.append(v)
            return v, []
        if tt is Neg:
            r = self.lin(t.arg)
            if r is None:
                return None
            return self.op(f"-{r[0]}"), [(v, self.op(f"-{c}")) for v, c in r[1]]
        if tt is not BinOp:
            return None
        a = self.lin(t.left)
        b = self.lin(t.right)
        if a is None or b is None:
            return None
        op = t.op
        if op in ("+", "-"):
            sgn = "1.0" if op == "+" else "-1.0"
            bcs = dict(b[1])
            cs = [(v, self.op(f"{c} + {sgn} * {bcs.pop(v)}") if v in bcs else c) for v, c in a[1]]
            cs += [(v, self.op(f"0.0 + {sgn} * {c}")) for v, c in b[1] if v in bcs]
            return self.op(f"{a[0]} + {sgn} * {b[0]}"), cs
        if op == "*":
            if a[1] and b[1]:
                return None  # product of two noise-carrying factors
            if b[1]:
                a, b = b, a
            return self.op(f"{a[0]} * {b[0]}"), [(v, self.op(f"{c} * {b[0]}")) for v, c in a[1]]
        if b[1]:
            return None
        d = self.b.fixed(t.right)
        if d is FREE:
            self.ops.append(f"if {b[0]} == 0.0: {self.fail}")
        elif d == 0.0:
            self.ops.append(self.fail)
        inv = self.op(f"1.0 / {b[0]}")
        return self.op(f"{a[0]} * {inv}"), [(v, self.op(f"{c} * {inv}")) for v, c in a[1]]


def _natural(b) -> Optional[int]:
    """The int that ``power`` raises its base to at the exponent ``b``, or
    None where ``power`` is UNDEF whatever the base."""
    try:
        if b != int(b) or b < 0:
            return None
        return int(b)
    except (OverflowError, ValueError):
        return None
