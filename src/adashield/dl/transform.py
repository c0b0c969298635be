"""Syntactic transformations: substitution, re-indexing through it, and one
walk for a tree's free variables and applied symbols."""

from __future__ import annotations

from typing import Iterable, Mapping, Union

from .syntax import (
    Abs, And, App, Assign, AssignAny, BinOp, BoolLit, Box, Choice, Cmp, Dia,
    Exists, Forall, Formula, HybridProgram, Ident, Imp, Lit, Loop, Neg, Not,
    ODE, Or, Seq, Term, Test, Var,
)

Node = Union[Term, Formula, HybridProgram]


class SubstitutionError(Exception):
    pass


def substitute(e: Node, mapping: Mapping[Union[Ident, str], Term]) -> Node:
    """Replace free variables (``Ident`` keys) and arity-0 symbols (``str`` keys).

    Binding occurrences are never rewritten: quantified variables shadow the
    mapping and a mapping that targets an assignment variable is rejected.
    Capture of a substituted term's variables by a quantifier is an error.
    """
    if not mapping:
        return e
    return _subst(e, dict(mapping))


def _subst(e: Node, m: dict) -> Node:
    t = type(e)
    if t is Lit or t is BoolLit:
        return e
    if t is Var:
        r = m.get(e.ident)
        return r if r is not None else e
    if t is App:
        if not e.args and e.func in m:
            return m[e.func]
        if e.args:
            return App(e.func, tuple(_subst(a, m) for a in e.args))
        return e
    if t is Neg:
        return Neg(_subst(e.arg, m))
    if t is Abs:
        return Abs(_subst(e.arg, m))
    if t is BinOp:
        return BinOp(e.op, _subst(e.left, m), _subst(e.right, m))
    if t is Cmp:
        return Cmp(e.op, _subst(e.left, m), _subst(e.right, m))
    if t is Not:
        return Not(_subst(e.arg, m))
    if t is And:
        return And(_subst(e.left, m), _subst(e.right, m))
    if t is Or:
        return Or(_subst(e.left, m), _subst(e.right, m))
    if t is Imp:
        return Imp(_subst(e.left, m), _subst(e.right, m))
    if t is Forall or t is Exists:
        inner = {k: v for k, v in m.items() if k != e.var}
        for tm in inner.values():
            if e.var in free_vars(tm):
                raise SubstitutionError(f"substitution captures {e.var} under a quantifier")
        body = _subst(e.body, inner) if inner else e.body
        return type(e)(e.var, body)
    if t is Box or t is Dia:
        return type(e)(_subst(e.prog, m), _subst(e.post, m))
    if t is Assign:
        if e.var in m:
            raise SubstitutionError(f"cannot substitute assigned variable {e.var}")
        return Assign(e.var, _subst(e.term, m))
    if t is AssignAny:
        if e.var in m:
            raise SubstitutionError(f"cannot substitute assigned variable {e.var}")
        return e
    if t is Test:
        return Test(_subst(e.cond, m))
    if t is ODE:
        eqs = []
        for x, rhs in e.eqs:
            if x in m:
                raise SubstitutionError(f"cannot substitute differential variable {x}")
            eqs.append((x, _subst(rhs, m)))
        return ODE(tuple(eqs), _subst(e.domain, m))
    if t is Choice:
        return Choice(_subst(e.left, m), _subst(e.right, m))
    if t is Seq:
        return Seq(_subst(e.left, m), _subst(e.right, m))
    if t is Loop:
        return Loop(_subst(e.body, m))
    raise SubstitutionError(f"cannot substitute in {e!r}")


def tag_with_index(e: Node, index: Union[int, str]) -> Node:
    """Tag every free variable with ``index``."""
    return substitute(e, index_tags(ordered_free_vars(e), index))


def index_tags(free: Iterable[Ident], index: Union[int, str]) -> dict[Ident, Term]:
    """The substitution that tags each of the variables ``free`` with
    ``index``; the first that carries another index is an error."""
    m = {}
    for v in free:
        if v.index is not None and v.index != index:
            raise SubstitutionError(f"variable {v} already carries a conflicting index")
        m[v] = Var(Ident(v.name, index))
    return m


def free_vars(e: Node) -> set[Ident]:
    """Free variables; assignment targets are free (variables are global),
    quantifiers bind."""
    return set(free_vars_and_symbols(e)[0])


def ordered_free_vars(*nodes: Node) -> list[Ident]:
    """The free variables of ``nodes``, in left-to-right order of first
    occurrence."""
    out: dict[Ident, None] = {}
    for e in nodes:
        out.update(dict.fromkeys(free_vars_and_symbols(e)[0]))
    return list(out)


def free_vars_and_symbols(e: Node) -> tuple[list[Ident], list[tuple[str, int]]]:
    """One pre-order walk of ``e``: its free variables (as ``free_vars``)
    and the (symbol name, arity) pairs applied anywhere in it, each in
    left-to-right order of first occurrence, so that what is reported from
    them does not depend on string hashing."""
    fv: dict[Ident, None] = {}
    syms: dict[tuple[str, int], None] = {}
    _walk(e, fv, syms, frozenset())
    return list(fv), list(syms)


def _walk(e: Node, fv: dict, syms: dict, bound: frozenset) -> None:
    t = type(e)
    if t is Var:
        if e.ident not in bound:
            fv[e.ident] = None
        return
    if t is Lit or t is BoolLit:
        return
    if t is App:
        syms[(e.func, len(e.args))] = None
        for a in e.args:
            _walk(a, fv, syms, bound)
        return
    if t in (Neg, Abs, Not):
        _walk(e.arg, fv, syms, bound)
        return
    if t in (BinOp, Cmp, And, Or, Imp, Choice, Seq):
        _walk(e.left, fv, syms, bound)
        _walk(e.right, fv, syms, bound)
        return
    if t in (Forall, Exists):
        _walk(e.body, fv, syms, bound | {e.var})
        return
    if t in (Box, Dia):
        _walk(e.prog, fv, syms, bound)
        _walk(e.post, fv, syms, bound)
        return
    if t is Assign:
        if e.var not in bound:
            fv[e.var] = None
        _walk(e.term, fv, syms, bound)
        return
    if t is AssignAny:
        if e.var not in bound:
            fv[e.var] = None
        return
    if t is Test:
        _walk(e.cond, fv, syms, bound)
        return
    if t is ODE:
        for x, rhs in e.eqs:
            if x not in bound:
                fv[x] = None
            _walk(rhs, fv, syms, bound)
        _walk(e.domain, fv, syms, bound)
        return
    if t is Loop:
        _walk(e.body, fv, syms, bound)
        return
    raise SubstitutionError(f"free_vars not supported for {e!r}")
