"""Syntactic transformations: substitution, index tagging and free-variable scans."""

from __future__ import annotations

from typing import Mapping, Union

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
    def tag(v: Ident) -> Ident:
        if v.index is not None and v.index != index:
            raise SubstitutionError(f"variable {v} already carries a conflicting index")
        return Ident(v.name, index)
    return _rename(e, tag)


def instantiate_indices(e: Node, names: list[str], values: list[int]) -> Node:
    """Re-index every variable whose symbolic index appears in ``names``."""
    if len(names) != len(values):
        raise SubstitutionError("index name/value length mismatch")
    m = dict(zip(names, values))
    return _rename(e, lambda v: Ident(v.name, m[v.index])
                   if isinstance(v.index, str) and v.index in m else v)


def _rename(e: Node, rename) -> Node:
    """``e`` with every variable ``v`` of its terms and quantifier-free
    formulas replaced by ``rename(v)``."""
    t = type(e)
    if t is Var:
        return Var(rename(e.ident))
    if t is Lit or t is BoolLit:
        return e
    if t is App:
        return App(e.func, tuple(_rename(a, rename) for a in e.args)) if e.args else e
    if t is Neg:
        return Neg(_rename(e.arg, rename))
    if t is Abs:
        return Abs(_rename(e.arg, rename))
    if t is BinOp:
        return BinOp(e.op, _rename(e.left, rename), _rename(e.right, rename))
    if t is Cmp:
        return Cmp(e.op, _rename(e.left, rename), _rename(e.right, rename))
    if t is Not:
        return Not(_rename(e.arg, rename))
    if t in (And, Or, Imp):
        return t(_rename(e.left, rename), _rename(e.right, rename))
    raise SubstitutionError(f"re-indexing not supported for {type(e).__name__}")


def free_vars(e: Node) -> set[Ident]:
    """Free variables; assignment targets are free (variables are global),
    quantifiers bind."""
    return set(ordered_free_vars(e))


def ordered_free_vars(*nodes: Node) -> list[Ident]:
    """The free variables of ``nodes``, in left-to-right order of first
    occurrence."""
    out: dict[Ident, None] = {}
    for e in nodes:
        _fv(e, out, frozenset())
    return list(out)


def _fv(e: Node, out: dict, bound: frozenset) -> None:
    t = type(e)
    if t is Var:
        if e.ident not in bound:
            out[e.ident] = None
        return
    if t is Lit or t is BoolLit:
        return
    if t is App:
        for a in e.args:
            _fv(a, out, bound)
        return
    if t in (Neg, Abs, Not):
        _fv(e.arg, out, bound)
        return
    if t in (BinOp, Cmp, And, Or, Imp):
        _fv(e.left, out, bound)
        _fv(e.right, out, bound)
        return
    if t in (Forall, Exists):
        _fv(e.body, out, bound | {e.var})
        return
    if t in (Box, Dia):
        _fv(e.prog, out, bound)
        _fv(e.post, out, bound)
        return
    if t is Assign:
        if e.var not in bound:
            out[e.var] = None
        _fv(e.term, out, bound)
        return
    if t is AssignAny:
        if e.var not in bound:
            out[e.var] = None
        return
    if t is Test:
        _fv(e.cond, out, bound)
        return
    if t is ODE:
        for x, rhs in e.eqs:
            if x not in bound:
                out[x] = None
            _fv(rhs, out, bound)
        _fv(e.domain, out, bound)
        return
    if t in (Choice, Seq):
        _fv(e.left, out, bound)
        _fv(e.right, out, bound)
        return
    if t is Loop:
        _fv(e.body, out, bound)
        return
    raise SubstitutionError(f"free_vars not supported for {e!r}")


def symbols(e: Node) -> set[tuple[str, int]]:
    """All (symbol name, arity) pairs applied anywhere in ``e``."""
    out: set[tuple[str, int]] = set()
    _syms(e, out)
    return out


def _syms(e: Node, out: set) -> None:
    t = type(e)
    if t is App:
        out.add((e.func, len(e.args)))
        for a in e.args:
            _syms(a, out)
        return
    if t in (Lit, Var, BoolLit, AssignAny):
        return
    if t in (Neg, Abs, Not):
        _syms(e.arg, out)
        return
    if t in (BinOp, Cmp, And, Or, Imp, Choice, Seq):
        _syms(e.left, out)
        _syms(e.right, out)
        return
    if t in (Forall, Exists):
        _syms(e.body, out)
        return
    if t in (Box, Dia):
        _syms(e.prog, out)
        _syms(e.post, out)
        return
    if t is Assign:
        _syms(e.term, out)
        return
    if t is Test:
        _syms(e.cond, out)
        return
    if t is ODE:
        for _, rhs in e.eqs:
            _syms(rhs, out)
        _syms(e.domain, out)
        return
    if t is Loop:
        _syms(e.body, out)
        return
    raise SubstitutionError(f"symbols not supported for {e!r}")
