"""Inference strategies: action spaces, interpretation into symbolic
assignments, and staged evaluation of symbolic bound instantiations.

A strategy is an ordered list of assignments (direct / best / aggregate, each
with an optional guard).  Interpreting a strategy under an inference action
yields symbolic bound instantiations (SBIs): an assignment's template with
the index tuples the action binds its index names to.  Nothing is
instantiated; evaluation reads ``x@i`` at the index ``i`` is bound to, from
a valuation of the current state, bound values and history.  A ``Shield``
evaluates its templates with code generated once (``template_code``);
walking their trees (``interpreted``) is the reference.  Evaluation is
staged deliberately: SBIs are built without access to measurement values, so
the weights and tolerances feeding them cannot depend on the data they will
aggregate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

from .dl import (
    Abs, App, BinOp, BoolLit, Formula, Ident, Lit, Module, Neg, Term, UNDEF,
    Var, eval_formula, eval_term, free_vars, tag_with_index,
)
from . import tailbounds
from .tailbounds import Dist


class BottomType:
    """Failure value of SBI evaluation."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BOTTOM"


BOTTOM = BottomType()


# ---------------------------------------------------------------------------
# Strategy abstract syntax

@dataclass(frozen=True)
class DistExpr:
    """Distribution expression with term hyperparameters: N(mu, var) /
    U(lo, hi) / B(p)."""

    kind: str  # 'normal' | 'uniform' | 'bernoulli'
    params: tuple[Term, ...]


@dataclass(frozen=True)
class Direct:
    term: Term


@dataclass(frozen=True)
class Best:
    indices: tuple[str, ...]
    term: Term


@dataclass(frozen=True)
class Aggregate:
    indices: tuple[str, ...]
    observable: Term
    noise: Term


@dataclass(frozen=True)
class InferAssign:
    target: Ident
    body: Union[Direct, Best, Aggregate]
    guard: Formula = BoolLit(True)


InferenceStrategy = tuple[InferAssign, ...]


# ---------------------------------------------------------------------------
# Inference actions

@dataclass(frozen=True)
class AggregateAction:
    """(eps, finite distribution over index tuples); weights are normalized
    on construction and must be strictly positive."""

    eps: float
    dist: tuple[tuple[float, tuple[int, ...]], ...]

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        if not self.dist:
            raise ValueError("empty aggregation distribution")
        total = math.fsum(w for w, _ in self.dist)
        if total <= 0.0 or any(w <= 0.0 for w, _ in self.dist):
            raise ValueError("weights must be strictly positive")
        if abs(total - 1.0) > 1e-12:
            object.__setattr__(
                self, "dist",
                tuple((w / total, j) for w, j in self.dist))


#: per-slot actions: None skips best/aggregate slots; direct slots ignore it
SlotAction = Union[None, tuple[tuple[int, ...], ...], AggregateAction]
InferenceAction = tuple[SlotAction, ...]


class ActionShapeError(Exception):
    pass


def strategy_action_space(strategy: InferenceStrategy) -> tuple[tuple[str, int], ...]:
    """Slot descriptors ('direct', 0) / ('best', n) / ('aggregate', n)."""
    out = []
    for a in strategy:
        if isinstance(a.body, Direct):
            out.append(("direct", 0))
        elif isinstance(a.body, Best):
            out.append(("best", len(a.body.indices)))
        else:
            out.append(("aggregate", len(a.body.indices)))
    return tuple(out)


def _check_action(space: tuple[tuple[str, int], ...], action: InferenceAction) -> None:
    """Raise ``ActionShapeError`` unless ``action`` fits the action space:
    one slot per assignment, and every index tuple ``n`` integers long."""
    if not isinstance(action, tuple) or len(action) != len(space):
        raise ActionShapeError(
            f"expected a tuple of {len(space)} slots, got {action!r}")
    for slot, (kind, n) in zip(action, space):
        if slot is None:
            continue
        if kind == "direct":
            raise ActionShapeError("direct slots take no action input")
        if kind == "best":
            if not isinstance(slot, tuple) or not _index_tuples(slot, n):
                raise ActionShapeError(f"best slot expects {n}-tuples of indices")
        else:
            if not isinstance(slot, AggregateAction):
                raise ActionShapeError("aggregate slot expects (eps, dist)")
            if not _aggregate_fits(slot, n):
                raise ActionShapeError(f"aggregate slot expects (eps, dist) over {n}-tuples")


def _aggregate_fits(slot: AggregateAction, n: int) -> bool:
    """``AggregateAction``'s checks, again, as ``object.__setattr__`` can
    change it: eps in [0, 1], finite positive weights summing to 1 within
    1e-12 over a non-empty tuple of ``n``-tuples of integers."""
    dist = slot.dist
    try:
        if not 0.0 <= slot.eps <= 1.0 or type(dist) is not tuple or not dist:
            return False
        for w, j in dist:
            if not (w > 0.0 and math.isfinite(w)) or not isinstance(j, tuple) or len(j) != n:
                return False
            for i in j:
                if not isinstance(i, int):
                    return False
        total = dist[0][0] if len(dist) == 1 else math.fsum([w for w, _ in dist])
        return abs(total - 1.0) <= 1e-12
    except (TypeError, ValueError):  # not numbers, or not pairs
        return False


def _index_tuples(js, n: int) -> bool:
    for j in js:
        if not isinstance(j, tuple) or len(j) != n:
            return False
        for i in j:
            if not isinstance(i, int):
                return False
    return True


def empty_action(strategy: InferenceStrategy) -> InferenceAction:
    return tuple(None for _ in strategy)


# ---------------------------------------------------------------------------
# Symbolic bound instantiations

@dataclass(frozen=True, eq=False)
class Template:
    """One strategy assignment, ready to evaluate under index bindings.

    ``indexed`` holds (name, position of its index name) for every variable
    read at an index name, ``fixed`` every variable read at a literal index:
    the history an SBI of the template reads.  An aggregate also carries
    its noise variables, each with its distribution's hyperparameters read
    at the noise variable's index, in ``noise_at`` the position of each
    one's index among the names (None if it is not one of them), and the
    tail side of its bound."""

    assign: InferAssign
    names: tuple[str, ...]
    indexed: tuple[tuple[str, int], ...]
    fixed: tuple[Ident, ...]
    noise: tuple[tuple[Ident, DistExpr], ...] = ()
    noise_at: tuple[Optional[int], ...] = ()
    tail: str = "up"  # 'up' | 'lo'


def compile_template(a: InferAssign, direction_of: dict[Ident, str],
                     noise_decls: dict[str, DistExpr]) -> Template:
    body = a.body
    names = getattr(body, "indices", ())
    pos = {name: k for k, name in enumerate(names)}  # the last one wins, as in a binding
    reads = free_vars(a.guard)
    noise = []
    if isinstance(body, Aggregate):
        reads |= free_vars(body.observable) | free_vars(body.noise)
        for v in sorted(free_vars(body.noise), key=str):
            if v.name in noise_decls:
                dx = noise_decls[v.name]
                if v.index is not None:
                    dx = DistExpr(dx.kind, tuple(tag_with_index(t, v.index) for t in dx.params))
                    reads |= set().union(*map(free_vars, dx.params))
                noise.append((v, dx))
    else:
        reads |= free_vars(body.term)
    return Template(
        a, names,
        indexed=tuple(sorted({(v.name, pos[v.index]) for v in reads if v.index in pos})),
        fixed=tuple(sorted(v for v in reads if isinstance(v.index, int))),
        noise=tuple(noise),
        noise_at=tuple(pos.get(v.index) if v.index.__class__ is str else None for v, _ in noise),
        tail="lo" if direction_of.get(a.target) == "lo" else "up")


class BoundSBI(NamedTuple):
    """A direct or best template with its index names bound to ``j``
    (empty for a direct assignment)."""

    template: Template
    j: tuple[int, ...]


class AggregateSBI(NamedTuple):
    """An aggregate template with its index names bound to each ``j`` of
    the ``(w, j)`` pairs in ``dist``, at tolerance ``eps``."""

    template: Template
    dist: tuple[tuple[float, tuple[int, ...]], ...]
    eps: float


SBI = Union[BoundSBI, AggregateSBI]


class SymbolicAssignment(NamedTuple):
    param: Ident
    sbi: SBI
    eps: float


class CompiledStrategy:
    """What a ``Shield`` works out once for its strategy: the action space,
    one template per assignment, and the symbolic assignment of every
    direct assignment, which takes no index binding."""

    def __init__(self, strategy: InferenceStrategy, direction_of: dict[Ident, str],
                 noise_decls: dict[str, DistExpr]):
        self.strategy = strategy
        self.space = strategy_action_space(strategy)
        self.templates = tuple(compile_template(a, direction_of, noise_decls)
                               for a in strategy)
        self.directs = tuple(
            SymbolicAssignment(t.assign.target, BoundSBI(t, ()), 0.0)
            if isinstance(t.assign.body, Direct) else None
            for t in self.templates)


def interpret_strategy(strategy: InferenceStrategy, action: InferenceAction,
                       direction_of: dict[Ident, str],
                       noise_decls: dict[str, DistExpr],
                       compiled: Optional[CompiledStrategy] = None) -> list[SymbolicAssignment]:
    """Map an inference action to the list of symbolic inference assignments.

    ``compiled`` is the strategy's ``CompiledStrategy``, built once with the
    same directions and noise declarations; without it one is built here.
    Raises ``ActionShapeError`` for an action that does not fit the strategy.
    """
    if compiled is None:
        compiled = CompiledStrategy(strategy, direction_of, noise_decls)
    elif compiled.strategy is not strategy:
        raise ValueError("compiled for a different strategy")
    _check_action(compiled.space, action)
    out: list[SymbolicAssignment] = []
    for direct, t, slot in zip(compiled.directs, compiled.templates, action):
        if direct is not None:
            out.append(direct)
        elif isinstance(slot, AggregateAction):
            out.append(SymbolicAssignment(t.assign.target,
                                          AggregateSBI(t, slot.dist, slot.eps), slot.eps))
        elif slot is not None:
            out.extend(SymbolicAssignment(t.assign.target, BoundSBI(t, j), 0.0)
                       for j in slot)
    return out


def referenced_indices(assignments: list[SymbolicAssignment]) -> set[int]:
    """Concrete history indices mentioned by any SBI."""
    reads = {sa.sbi.template: (sa.sbi.template.fixed, sa.sbi.template.indexed)
             for sa in assignments}
    return set(referenced_observations(assignments, reads))


def observation_reads(templates, obs_names: frozenset[str]) -> dict[Template, tuple]:
    """Per template, the observations ``obs_names`` its SBIs read: the pair
    of ``(name, i)`` at each literal index ``i`` and ``(name, position)``
    at the position of each index name."""
    return {t: (tuple(v for v in t.fixed if v.name in obs_names),
                tuple(r for r in t.indexed if r[0] in obs_names))
            for t in templates}


def referenced_observations(assignments: list[SymbolicAssignment],
                            reads: dict[Template, tuple]) -> dict[int, set[str]]:
    """History index -> names of the observations any SBI reads there;
    ``reads`` is ``observation_reads`` of the SBIs' templates."""
    out: dict[int, set[str]] = {}
    for sa in assignments:
        sbi = sa.sbi
        fixed, indexed = reads[sbi.template]
        for name, i in fixed:
            out.setdefault(i, set()).add(name)
        if indexed:
            for j in ((sbi.j,) if type(sbi) is BoundSBI else (j for _, j in sbi.dist)):
                for name, pos in indexed:
                    out.setdefault(j[pos], set()).add(name)
    return out


# ---------------------------------------------------------------------------
# SBI evaluation

class DictValuation:
    """A dict keyed by (indexed) identifiers, as a valuation: ``current``
    holds ``x`` and ``at(x, i)`` reads ``x@i`` at a history index ``i``.
    An identifier is a tuple, so ``(name, index)`` is the same key as
    ``Ident(name, index)``."""

    __slots__ = ("current",)

    def __init__(self, values: dict):
        self.current = values

    def at(self, key: Ident, i: int):
        return self.current.get((key[0], i), UNDEF)


class Bound:
    """A valuation read with a template's index names bound to the index
    tuple ``j``, as ``eval_term`` reads a mapping: ``x@i`` at an index name
    reads ``val.at(x, j[pos[i]])``, as generated code does, and ``x`` or
    ``x@i`` at a name that is not bound reads ``val.current``."""

    __slots__ = ("val", "pos", "j")

    def __init__(self, val, pos: dict, j: tuple):
        self.val = val
        self.pos = pos
        self.j = j

    def get(self, ident: Ident, default=None):
        name, i = ident
        if i.__class__ is str:
            k = self.pos.get(i)
            if k is None:
                return self.val.current.get(ident, default)
            i = self.j[k]
        elif i is None:
            return self.val.current.get(ident, default)
        x = self.val.at((name, None), i)
        return default if x is UNDEF else x


class Evaluators(NamedTuple):
    """What evaluating a template's SBIs calls, each function as
    ``f(val, j, interp)`` with the template's index names bound to the
    index tuple ``j``: the guard (a bool or UNDEF), the body (the direct or
    best term, or the aggregate's observable: a value or UNDEF), per noise
    variable ``(variable, distribution kind, position of its index among
    the index names or None, the list of its hyperparameters)``, and the
    noise term reduced by ``_lin``, called with the pair's noise keys as a
    fourth argument (an aggregate's only)."""

    guard: Callable
    body: Callable
    noise: tuple
    lin: Optional[Callable]


def _noise(t: Template, params) -> tuple:
    return tuple((v, dx.kind, p, f) for (v, dx), p, f in zip(t.noise, t.noise_at, params))


def interpreted(t: Template) -> Evaluators:
    """The reference evaluators: bind the index names and walk the trees."""
    a = t.assign
    body = a.body
    agg = isinstance(body, Aggregate)
    term = body.observable if agg else body.term
    pos = {name: k for k, name in enumerate(t.names)}  # the last one wins

    def params(dx):
        return lambda val, j, interp: [eval_term(p, interp, Bound(val, pos, j))
                                       for p in dx.params]

    return Evaluators(
        lambda val, j, interp: eval_formula(a.guard, interp, Bound(val, pos, j)),
        lambda val, j, interp: eval_term(term, interp, Bound(val, pos, j)),
        _noise(t, [params(dx) for _, dx in t.noise]),
        (lambda val, j, interp, k: _lin(body.noise, interp, Bound(val, pos, j), k))
        if agg else None)


def template_code(m: Module, t: Template) -> Evaluators:
    """``t``'s evaluators generated into ``m``.  A noise term with two
    noise variables of one name, whose keys can coincide for some ``j``,
    keeps the reference ``_lin``."""
    a = t.assign
    body = a.body
    agg = isinstance(body, Aggregate)
    noise = tuple(v for v, _ in t.noise)
    lin = None
    if agg:
        lin = (m.lin(body.noise, noise, t.names) if len({v.name for v in noise}) == len(noise)
               else interpreted(t).lin)
    return Evaluators(
        m.formula(a.guard, t.names),
        m.term(body.observable if agg else body.term, t.names),
        _noise(t, [m.terms(dx.params, t.names) for _, dx in t.noise]),
        lin)


def eval_sbi(e: SBI, interp, val, allow_cantelli: bool = False, code=None):
    """Evaluate to a float or ``BOTTOM``; returns ``(value, method)`` where
    ``method`` is the tail-bound method used, None if no tail bound ran.
    ``val`` is a valuation such as ``DictValuation``, or a dict for one.
    ``code`` maps each template to its generated ``Evaluators`` (a
    ``Shield``'s ``code.templates``); without it the template's trees are
    walked."""
    if isinstance(val, dict):
        val = DictValuation(val)
    t = type(e)
    if t is not BoundSBI and t is not AggregateSBI:
        raise TypeError(f"not an SBI: {e!r}")
    ev = interpreted(e.template) if code is None else code[e.template]
    if t is BoundSBI:
        return _eval_bound(e, ev, interp, val), None
    return _eval_aggregate(e, ev, interp, val, allow_cantelli)


def _eval_bound(e: BoundSBI, ev: Evaluators, interp, val):
    g = ev.guard(val, e.j, interp)
    if g is UNDEF or not g:
        return BOTTOM
    r = ev.body(val, e.j, interp)
    return BOTTOM if r is UNDEF else r


def _eval_aggregate(e: AggregateSBI, ev: Evaluators, interp, val, allow_cantelli):
    """``(value, method)``: ``sum w*observable`` plus the inverse tail bound
    of ``sum w*noise``, with the index names bound to each pair's ``j`` in
    turn, and the tail bound's method.  Sums accumulate left to right, and
    the checks run in a fixed order: every guard, the observable, the noise
    distributions, linearity, then the tail bound."""
    t, dist, eps = e
    guard, body, noise, lin = ev

    g = None  # the guards conjoined left to right in strong-Kleene logic
    for _, j in dist:
        if g is False:
            break
        h = guard(val, j, interp)
        g = h if g is None or h is False else UNDEF if UNDEF in (g, h) else True
    if g is UNDEF or not g:
        return BOTTOM, None

    s = None
    for w, j in dist:
        o = body(val, j, interp)
        if o is UNDEF:
            return BOTTOM, None
        s = w * o if s is None else s + w * o

    # per pair, the noise variable each template noise variable stands for:
    # itself, or its name at the pair's index, as a plain (name, index) key
    keys: list[dict] = []
    dists: dict = {}
    for _, j in dist:
        k = {}
        for v, kind, p, params in noise:
            key = k[v] = v if p is None else (v[0], j[p])
            if key not in dists:
                ps = params(val, j, interp)
                if UNDEF in ps:
                    return BOTTOM, None
                try:
                    dists[key] = Dist(kind, *ps)
                except ValueError:
                    return BOTTOM, None
        keys.append(k)

    c0 = cs = None
    for (w, j), k in zip(dist, keys):
        r = lin(val, j, interp, k)
        if r is None:
            return BOTTOM, None
        if cs is None:
            c0, cs = r[0] * w, {key: c * w for key, c in r[1].items()}
        else:
            c0 = c0 + r[0] * w
            for key, c in r[1].items():
                cs[key] = cs.get(key, 0.0) + c * w

    r = tailbounds.invccdf([(c, dists[key]) for key, c in cs.items() if c != 0.0], c0, eps,
                           tail=t.tail, allow_cantelli=allow_cantelli)
    if r is None:
        return BOTTOM, None
    value, method = r
    return (s + value if math.isfinite(value) else BOTTOM), method


def linearize(term: Term, interp, val, noise_vars: frozenset[Ident]):
    """Reduce ``term`` to ``c0 + sum c_i * eta_i`` after substituting every
    non-noise variable with its value; ``None`` if not syntactically linear."""
    r = _lin(term, interp, val, {v: v for v in noise_vars})
    if r is None:
        return None
    c0, coeffs = r
    return c0, {k: v for k, v in coeffs.items() if v != 0.0}


def _lin(t: Term, interp, val, noise: dict[Ident, Ident]):
    """``linearize`` without dropping zero coefficients; ``noise`` maps each
    noise variable of ``t`` to the key of its coefficient."""
    tt = type(t)
    if tt is Var and t.ident in noise:
        return 0.0, {noise[t.ident]: 1.0}
    if tt in (Lit, Var, App):
        r = eval_term(t, interp, val)
        return None if r is UNDEF else (r, {})
    if tt is Neg:
        r = _lin(t.arg, interp, val, noise)
        if r is None:
            return None
        c0, cs = r
        return -c0, {k: -v for k, v in cs.items()}
    if tt is Abs:
        # |.| must be noise-free to stay linear
        r = eval_term(t, interp, val)
        return None if r is UNDEF else (r, {})
    if tt is BinOp:
        op = t.op
        if op in ("+", "-"):
            a = _lin(t.left, interp, val, noise)
            b = _lin(t.right, interp, val, noise)
            if a is None or b is None:
                return None
            sgn = 1.0 if op == "+" else -1.0
            c0 = a[0] + sgn * b[0]
            cs = dict(a[1])
            for k, v in b[1].items():
                cs[k] = cs.get(k, 0.0) + sgn * v
            return c0, cs
        if op == "*":
            a = _lin(t.left, interp, val, noise)
            b = _lin(t.right, interp, val, noise)
            if a is None or b is None:
                return None
            if a[1] and b[1]:
                return None  # product of two noise-carrying factors
            if b[1]:
                a, b = b, a
            scale = b[0]
            return a[0] * scale, {k: v * scale for k, v in a[1].items()}
        if op == "/":
            a = _lin(t.left, interp, val, noise)
            b = _lin(t.right, interp, val, noise)
            if a is None or b is None or b[1] or b[0] == 0.0:
                return None
            inv = 1.0 / b[0]
            return a[0] * inv, {k: v * inv for k, v in a[1].items()}
        # min/max/^ must be noise-free
        r = eval_term(t, interp, val)
        return None if r is UNDEF else (r, {})
    return None
