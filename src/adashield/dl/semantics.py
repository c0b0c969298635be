"""Three-valued evaluation of terms and quantifier-free formulas.

Evaluation never raises on missing bindings or partial operations: it returns
the ``UNDEF`` sentinel instead, which propagates strictly through every term
operation, while the connectives follow strong Kleene logic.  A comparison
gives a Python ``bool`` whatever the type of its operands.  Quantifiers and
modalities are not evaluable and raise :class:`StructuralError`.

This module is the reference semantics.  A ``Shield`` does not walk trees on
a step: ``codegen`` turns the terms and formulas it evaluates into
straight-line Python, compiled once, which must agree with ``eval_term`` and
``eval_formula`` on every input; the tests check that it does.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Union

from .syntax import (
    Abs, And, App, BinOp, BoolLit, Box, Cmp, Dia, Exists, Forall, Formula,
    Ident, Imp, Lit, Neg, Not, Or, Term, Var,
)


class Undefined:
    """Singleton bottom value for partial evaluation."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDEF"


UNDEF = Undefined()

#: interpretation: arity-0 symbols map to reals, others to callables
Interpretation = Mapping[str, Union[float, Callable[..., float]]]
#: partial valuation of identifiers
Valuation = Mapping[Ident, float]


class StructuralError(Exception):
    """Raised when evaluating a construct with no runtime denotation."""


def eval_term(t: Term, interp: Interpretation, val: Valuation):
    """Evaluate ``t``; returns a finite float or ``UNDEF``."""
    tt = type(t)
    if tt is Lit:
        return t.value
    if tt is Var:
        v = val.get(t.ident, UNDEF)
        return v
    if tt is BinOp:
        a = eval_term(t.left, interp, val)
        if a is UNDEF:
            return UNDEF
        b = eval_term(t.right, interp, val)
        if b is UNDEF:
            return UNDEF
        op = t.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                return UNDEF
            return a / b
        if op == "min":
            return a if a <= b else b
        if op == "max":
            return a if a >= b else b
        if op == "^":
            return power(a, b)
        raise StructuralError(f"unknown operator {op!r}")
    if tt is Neg:
        a = eval_term(t.arg, interp, val)
        return UNDEF if a is UNDEF else -a
    if tt is Abs:
        a = eval_term(t.arg, interp, val)
        return UNDEF if a is UNDEF else abs(a)
    if tt is App:
        f = interp.get(t.func, UNDEF)
        if f is UNDEF:
            return UNDEF
        if not t.args:
            if callable(f):
                return float(f())
            return f
        args = []
        for arg in t.args:
            a = eval_term(arg, interp, val)
            if a is UNDEF:
                return UNDEF
            args.append(a)
        return apply(t.func, f, args)
    raise StructuralError(f"not a term: {t!r}")


def power(a, b):
    """``a ^ b``; UNDEF unless ``b`` is a natural number (the parser admits
    only natural literals) and the result is finite."""
    try:
        if b != int(b) or b < 0:
            return UNDEF
        r = a ** int(b)
    except (OverflowError, ValueError):
        # an infinite or NaN exponent, or a power past the float range:
        # float ** int raises where float * float gives inf
        return UNDEF
    return r if math.isfinite(r) else UNDEF


def apply(func: str, f, args):
    """The symbol ``func``, bound to ``f``, applied to ``args``; UNDEF if
    the result is not finite."""
    if not callable(f):
        raise StructuralError(f"symbol {func!r} applied to arguments but bound to a real")
    r = float(f(*args))
    return r if math.isfinite(r) else UNDEF


def eval_formula(f: Formula, interp: Interpretation, val: Valuation):
    """Evaluate a quantifier-free, modality-free formula to bool or ``UNDEF``."""
    ft = type(f)
    if ft is Cmp:
        a = eval_term(f.left, interp, val)
        if a is UNDEF:
            return UNDEF
        b = eval_term(f.right, interp, val)
        if b is UNDEF:
            return UNDEF
        op = f.op
        # numpy operands compare to numpy booleans, which ``is False`` misses
        if op == "=":
            return True if a == b else False
        if op == "<":
            return True if a < b else False
        if op == "<=":
            return True if a <= b else False
        if op == ">=":
            return True if a >= b else False
        return True if a > b else False
    if ft is BoolLit:
        return f.value
    if ft is Not:
        a = eval_formula(f.arg, interp, val)
        return UNDEF if a is UNDEF else (not a)
    # connectives use strong Kleene logic: a decided operand can absorb an
    # undefined one (false & U = false, true | U = true), which keeps
    # division-guarded disjunctions evaluable
    if ft is And:
        a = eval_formula(f.left, interp, val)
        if a is False:
            return False
        b = eval_formula(f.right, interp, val)
        if b is False:
            return False
        return UNDEF if (a is UNDEF or b is UNDEF) else True
    if ft is Or:
        a = eval_formula(f.left, interp, val)
        if a is True:
            return True
        b = eval_formula(f.right, interp, val)
        if b is True:
            return True
        return UNDEF if (a is UNDEF or b is UNDEF) else False
    if ft is Imp:
        a = eval_formula(f.left, interp, val)
        if a is False:
            return True
        b = eval_formula(f.right, interp, val)
        if b is True:
            return True
        return UNDEF if (a is UNDEF or b is UNDEF) else False
    if ft in (Forall, Exists, Box, Dia):
        raise StructuralError(f"cannot evaluate quantified/modal formula: {ft.__name__}")
    raise StructuralError(f"not a formula: {f!r}")


def is_runtime_evaluable(f: Formula) -> bool:
    """True iff ``f`` is quantifier-free and modality-free."""
    ft = type(f)
    if ft in (Cmp, BoolLit):
        return True
    if ft is Not:
        return is_runtime_evaluable(f.arg)
    if ft in (And, Or, Imp):
        return is_runtime_evaluable(f.left) and is_runtime_evaluable(f.right)
    return False
