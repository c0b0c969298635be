"""Inference strategies: action spaces, interpretation into symbolic
assignments, and staged evaluation of symbolic bound instantiations.

A strategy is an ordered list of assignments (direct / best / aggregate, each
with an optional guard).  Interpreting a strategy under an inference action
yields symbolic bound instantiations (SBIs), at most one per slot: an
assignment's template with the index tuples the action binds its index names
to.  Nothing is instantiated; evaluation reads ``x@i`` at the index ``i`` is
bound to, from a valuation of the current state, bound values and history.
A ``Shield`` evaluates its templates with code generated once
(``template_code``); walking their trees (``interpreted``) is the
reference.  Evaluation is
staged deliberately: SBIs are built without access to measurement values, so
the weights and tolerances feeding them cannot depend on the data they will
aggregate.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

from .dl import (
    Abs, App, BinOp, BoolLit, Formula, Ident, Lit, Module, Neg, Term, UNDEF,
    Var, eval_formula, eval_term, index_tags, ordered_free_vars, substitute,
)
from .dl.codegen import FREE
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

    @property
    def terms(self) -> tuple[Term, ...]:
        """The body's terms: an aggregate's observable and noise, or the
        term of a direct or best assignment."""
        b = self.body
        return (b.observable, b.noise) if isinstance(b, Aggregate) else (b.term,)


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
                     noise_decls: dict[str, DistExpr],
                     free: Callable[..., list[Ident]]) -> Template:
    """``a``'s template.  ``free`` gives the free variables of trees:
    ``dl.ordered_free_vars``, or ``ShieldSpec.free_vars``, which walks each
    tree once."""
    body = a.body
    names = getattr(body, "indices", ())
    pos = {name: k for k, name in enumerate(names)}  # the last one wins, as in a binding
    reads = set(free(a.guard, *a.terms))
    noise = []
    if isinstance(body, Aggregate):
        for v in sorted(free(body.noise), key=str):
            if v.name in noise_decls:
                dx = noise_decls[v.name]
                if v.index is not None:
                    tags = [index_tags(free(t), v.index) for t in dx.params]
                    dx = DistExpr(dx.kind, tuple(map(substitute, dx.params, tags)))
                    # a term binds nothing: the tagged tree reads the tags
                    reads.update(x.ident for m in tags for x in m.values())
                noise.append((v, dx))
    return Template(
        a, names,
        indexed=tuple(sorted({(v.name, pos[v.index]) for v in reads if v.index in pos})),
        fixed=tuple(sorted(v for v in reads if isinstance(v.index, int))),
        noise=tuple(noise),
        noise_at=tuple(pos.get(v.index) if v.index.__class__ is str else None for v, _ in noise),
        tail="lo" if direction_of.get(a.target) == "lo" else "up")


class WindowSBI(NamedTuple):
    """A direct or best template with its index names bound to each ``j``
    of ``js`` in turn: a best slot's index tuples, in the action's order,
    or ``((),)`` for a direct assignment."""

    template: Template
    js: tuple[tuple[int, ...], ...]


class AggregateSBI(NamedTuple):
    """An aggregate template with its index names bound to each ``j`` of
    the ``(w, j)`` pairs in ``dist``, at tolerance ``eps``."""

    template: Template
    dist: tuple[tuple[float, tuple[int, ...]], ...]
    eps: float


SBI = Union[WindowSBI, AggregateSBI]


class SymbolicAssignment(NamedTuple):
    param: Ident
    sbi: SBI
    eps: float


class CompiledStrategy:
    """What a ``Shield`` works out once for its strategy: the action space,
    one template per assignment, the symbolic assignment of every direct
    assignment, which takes no index binding, and the interpretation of
    the empty action: those direct assignments alone.  ``free`` is as for
    ``compile_template``."""

    def __init__(self, strategy: InferenceStrategy, direction_of: dict[Ident, str],
                 noise_decls: dict[str, DistExpr], free: Callable[..., list[Ident]]):
        self.strategy = strategy
        self.space = strategy_action_space(strategy)
        self.templates = tuple(compile_template(a, direction_of, noise_decls, free)
                               for a in strategy)
        self.directs = tuple(
            SymbolicAssignment(t.assign.target, WindowSBI(t, ((),)), 0.0)
            if isinstance(t.assign.body, Direct) else None
            for t in self.templates)
        self.empty = tuple(d for d in self.directs if d is not None)


def interpret_strategy(strategy: InferenceStrategy, action: InferenceAction,
                       direction_of: dict[Ident, str],
                       noise_decls: dict[str, DistExpr],
                       compiled: Optional[CompiledStrategy] = None) -> list[SymbolicAssignment]:
    """Map an inference action to the list of symbolic inference assignments.

    ``compiled`` is the strategy's ``CompiledStrategy``, built once with the
    same directions and noise declarations; without it one is built here.

    A direct assignment and a non-empty best slot give one SBI each (an
    empty best slot none), and an aggregate slot gives one.  The one read of
    the agent's action, in one pass.  Only exact types
    pass: tuples for the action, a best slot and an index tuple, ints for
    indices, an ``AggregateAction`` whose ``eps`` and ``dist`` are read
    once, and floats for eps and weights; nothing the SBIs keep can change
    or run code.  An action that does not fit, or feeds a direct slot, is
    the empty action: the direct assignments alone.
    """
    if compiled is None:
        compiled = CompiledStrategy(strategy, direction_of, noise_decls, ordered_free_vars)
    elif compiled.strategy is not strategy:
        raise ValueError("compiled for a different strategy")
    if type(action) is not tuple or len(action) != len(compiled.space):
        return list(compiled.empty)
    out: list[SymbolicAssignment] = []
    for direct, t, (kind, n), slot in zip(compiled.directs, compiled.templates,
                                          compiled.space, action):
        if slot is None:
            if direct is not None:
                out.append(direct)
        elif kind == "best" and type(slot) is tuple:
            for j in slot:
                if type(j) is not tuple or len(j) != n:
                    return list(compiled.empty)
                for i in j:
                    if type(i) is not int:
                        return list(compiled.empty)
            if slot:
                out.append(SymbolicAssignment(t.assign.target, WindowSBI(t, slot), 0.0))
        elif kind == "aggregate" and type(slot) is AggregateAction:
            # the constructor's checks, again, as object.__setattr__ can
            # change a frozen AggregateAction after it was built; a weight of
            # 2 or more cannot sum to 1, and would let the sum overflow
            eps, dist = slot.eps, slot.dist
            if type(eps) is not float or not 0.0 <= eps <= 1.0 or type(dist) is not tuple or not dist:
                return list(compiled.empty)
            ws = []
            for p in dist:
                if type(p) is not tuple or len(p) != 2:
                    return list(compiled.empty)
                w, j = p
                if type(w) is not float or not 0.0 < w < 2.0 or type(j) is not tuple or len(j) != n:
                    return list(compiled.empty)
                for i in j:
                    if type(i) is not int:
                        return list(compiled.empty)
                ws.append(w)
            if abs((ws[0] if len(ws) == 1 else math.fsum(ws)) - 1.0) > 1e-12:
                return list(compiled.empty)
            out.append(SymbolicAssignment(t.assign.target, AggregateSBI(t, dist, eps), eps))
        else:  # input to a direct slot, or not of the slot's exact type
            return list(compiled.empty)
    return out


def referenced_indices(assignments: list[SymbolicAssignment]) -> set[int]:
    """Concrete history indices mentioned by any SBI."""
    reads = {sa.sbi.template: (sa.sbi.template.fixed, sa.sbi.template.indexed)
             for sa in assignments}
    return set(referenced_observations(assignments, reads))


def observation_reads(templates, obs_names: frozenset[str]) -> dict[Template, tuple]:
    """Per template whose SBIs read any of the observations ``obs_names``,
    the ones they read: the pair of ``(name, i)`` at each literal index
    ``i`` and ``(name, position)`` at the position of each index name."""
    out = {}
    for t in templates:
        fixed = tuple(v for v in t.fixed if v.name in obs_names)
        indexed = tuple(r for r in t.indexed if r[0] in obs_names)
        if fixed or indexed:
            out[t] = (fixed, indexed)
    return out


def referenced_observations(assignments: list[SymbolicAssignment],
                            reads: dict[Template, tuple]) -> dict[int, set[str]]:
    """History index -> names of the observations any SBI reads there;
    ``reads`` is ``observation_reads`` of the SBIs' templates."""
    out: dict[int, set[str]] = {}
    for sa in assignments:
        sbi = sa.sbi
        r = reads.get(sbi.template)
        if r is None:
            continue
        fixed, indexed = r
        for name, i in fixed:
            out.setdefault(i, set()).add(name)
        if indexed:
            for j in (sbi.js if type(sbi) is WindowSBI else (j for _, j in sbi.dist)):
                for name, pos in indexed:
                    out.setdefault(j[pos], set()).add(name)
    return out


# ---------------------------------------------------------------------------
# SBI evaluation

class DictValuation:
    """A dict keyed by (indexed) identifiers, as a valuation: ``current``
    holds ``x``, and ``at(x, i)`` and ``obs(x, i)`` read ``x@i`` at a
    history index ``i``.  An identifier is a tuple, so ``(name, index)`` is
    the same key as ``Ident(name, index)``."""

    __slots__ = ("current",)

    def __init__(self, values: dict):
        self.current = values

    def at(self, key: Ident, i: int):
        return self.current.get((key[0], i), UNDEF)

    obs = at


class Bound:
    """A valuation read with a template's index names bound to the index
    tuple ``j``, as ``eval_term`` reads a mapping: ``x@i`` at an index name
    reads ``val.obs(x, j[pos[i]])``, and ``x`` or ``x@i`` at a name that is
    not bound reads ``val.current``."""

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
        x = self.val.obs((name, None), i)
        return default if x is UNDEF else x


#: what one entry of a window did to its target: its value was no tighter
#: than the target's, it tightened the target, or it was BOTTOM or not
#: finite.
KEPT, TIGHTENED, FAILED = range(3)


def interpreted(t: Template, interp) -> Callable:
    """The reference evaluator of ``t``'s SBIs under the constants
    ``interp``, which binds the index names and walks the trees.  For a
    direct or best template it is ``f(val, js)``, which runs
    ``_eval_window``: it tightens the target in ``val.current`` and returns
    one outcome per ``j`` of ``js``.  For an aggregate it is ``f(val, dist,
    eps)``: ``(value, method)`` as ``_eval_aggregate`` gives them."""
    a = t.assign
    body = a.body
    pos = {name: k for k, name in enumerate(t.names)}  # the last one wins
    if isinstance(body, Aggregate):
        return lambda val, dist, eps: _eval_aggregate(t, pos, val, dist, interp, eps)
    return lambda val, js: _eval_window(t, pos, val, js, interp)


def template_code(m: Module, t: Template, obs: frozenset) -> Callable:
    """``t``'s evaluator, of the shape ``interpreted(t, m.consts)`` gives,
    as one function generated into ``m`` that reads the names ``obs`` as
    observations.  A best template's function runs its whole window in one
    loop, and a direct template's has no loop.  An aggregate's function
    runs ``_eval_aggregate``'s stages in its order with the same float
    operations; a noise distribution whose hyperparameters read no variable
    and call nothing is built once, here, and one they leave undefined or
    outside its domain makes its stage fail unconditionally.  A best or
    aggregate function evaluates each largest subterm that reads neither an
    index name nor a best template's target at most once per call."""
    body = t.assign.body
    if isinstance(body, Aggregate):
        return m.function("val, dist, eps", t.names, obs, lambda b: _emit_aggregate(b, t))
    # a direct template's function has no loop to bind j, the name a
    # function under index names passes on, so its window is named j
    params = "val, j" if isinstance(body, Direct) else "val, js"
    return m.function(params, t.names, obs, lambda b: _emit_window(b, t))


def _emit_window(b, t: Template) -> None:
    """``_eval_window`` on ``t``: per entry the guard and term fused, then
    ``tighten`` inline.  A direct template returns its one outcome; a best
    template's loop collects one per entry."""
    a = t.assign
    target = b.const(a.target)
    b.uses.add("cur")

    def entry(done) -> None:
        fail = done(FAILED)
        if a.guard != BoolLit(True):
            b.emit(f"if {b.formula(a.guard)} is not True: {fail}")
        r = b.term(a.body.term, fail)
        b.emit(f"if not {b.const(math.isfinite)}({r}): {fail}")
        b.emit(f"c = cur.get({target})")
        with b.block(f"if c is None or {r} {'<' if t.tail == 'up' else '>'} c:"):
            b.emit(f"cur[{target}] = {r}")
            b.emit(done(TIGHTENED))
        b.emit(done(KEPT))

    if isinstance(a.body, Direct):
        entry(lambda k: f"return ({k},)")
        return
    # the window writes its target, so no slot may hold a read of it
    b.written = frozenset({a.target.name})
    b.slots = {}
    b.emit("out = []")
    with b.block("for j in js:"):
        entry(lambda k: f"out.append({k}); continue")
    b.emit("return out")


def _emit_aggregate(b, t: Template) -> None:
    """``_eval_aggregate`` on ``t``, each stage emitted once: the guards,
    then per stage one loop over the pairs, whose sums start from the first
    pair as the reference's do.  A noise ``Dist`` the constants fix is built
    with the code and kept under its variable's name, which every key of
    the name shares; unless all are, one loop builds each pair's other
    ``Dist``s under their keys."""
    a = t.assign
    body = a.body
    bottom = b.const(BOTTOM)
    fail = f"return {bottom}, None"
    b.slots = {}

    if a.guard == BoolLit(True):
        b.emit(f"if not dist: {fail}")
    else:
        b.emit("g = None")
        with b.block("for _, j in dist:"):
            h = b.formula(a.guard)
            b.emit(f"if {h} is False: {fail}")
            b.emit(f"if g is not UNDEF: g = {h}")
        b.emit(f"if g is not True: {fail}")

    b.emit("s = None")
    with b.block("for w, j in dist:"):
        o = b.term(body.observable, fail)
        b.emit(f"s = w * {o} if s is None else s + w * {o}")

    noise = tuple(v for v, _ in t.noise)
    keys = {v: b.const(v) if p is None else f"({b.const(v.name)}, j[{p}])"
            for v, p in zip(noise, t.noise_at)}
    built = [_built_dist(b, dx) for _, dx in t.noise]

    def build(v, dx, d) -> None:
        if d is not None:
            b.emit(fail if d is BOTTOM else f"dists[{b.const(v.name)}] = {b.const(d)}")
            return
        b.emit(f"key = {keys[v]}")
        with b.block("if key not in dists:"):
            ps = [b.term_into(q) for q in dx.params]
            undef = [x for x, q in zip(ps, dx.params) if b.fixed(q) is FREE]
            if undef:
                b.emit(f"if {' or '.join(f'{x} is UNDEF' for x in undef)}: {fail}")
            with b.block("try:"):
                b.emit(f"dists[key] = {b.const(Dist)}({', '.join([b.const(dx.kind), *ps])})")
            with b.block("except ValueError:"):
                b.emit(fail)

    b.emit("dists = {}")
    with b.block("for _, j in dist:") if None in built else nullcontext():
        for (v, dx), d in zip(t.noise, built):
            build(v, dx, d)

    def accumulate(c0: str, cs: str, add: list) -> None:
        with b.block("if cs is None:"):
            b.emit(f"c0 = {c0} * w")
            b.emit(f"cs = {cs}")
        with b.block("else:"):
            b.emit(f"c0 = c0 + {c0} * w")
            for line in add:
                b.emit(line)

    # two noise variables of one name may meet at a pair, whose
    # coefficients _lin merges, so such a template runs _lin on every pair
    b.emit("cs = None")
    with b.block("for w, j in dist:"):
        if len({v.name for v in noise}) < len(noise):
            k = ", ".join(f"{b.const(v)}: {keys[v]}" for v in noise)
            bound = f"{b.const(Bound)}(val, {b.const(dict(b.pos))}, j)"
            b.emit(f"r = {b.const(_lin)}({b.const(body.noise)}, {b.const(b.m.consts)}, "
                   f"{bound}, {{{k}}})")
            b.emit(f"if r is None: {fail}")
            accumulate("r[0]", "{key: c * w for key, c in r[1].items()}",
                       ["for key, c in r[1].items(): cs[key] = cs.get(key, 0.0) + c * w"])
        else:
            r = b.lin(body.noise, noise, fail)
            if r is None:
                return
            c0, cs = r
            accumulate(c0, f"{{{', '.join(f'{keys[v]}: {c} * w' for v, c in cs)}}}",
                       [line for v, c in cs for line in (
                           f"key = {keys[v]}", f"cs[key] = cs.get(key, 0.0) + {c} * w")])

    coeffs = "[(c, dists.get(key) or dists[key[0]]) for key, c in cs.items() if c != 0.0]"
    b.emit(f"r = {b.const(tailbounds)}.invccdf({coeffs}, c0, eps, {b.const(t.tail)})")
    b.emit(f"if r is None: {fail}")
    b.emit("value, method = r")
    b.emit(f"return (s + value if {b.const(math.isfinite)}(value) else {bottom}), method")


def _built_dist(b, dx: DistExpr):
    """``dx``'s Dist, built once as ``_eval_aggregate`` builds it, where its
    hyperparameters read no variable and call nothing; BOTTOM where they
    are undefined or outside its domain.  None where they are not fixed by
    the constants, or raise, as the generated code then does."""
    if not all(b.closed(q) for q in dx.params):
        return None
    try:
        ps = [eval_term(q, b.m.consts, {}) for q in dx.params]
    except Exception:
        return None
    if UNDEF in ps:
        return BOTTOM
    try:
        return Dist(dx.kind, *ps)
    except ValueError:
        return BOTTOM


def eval_sbi(e: SBI, interp, val, code=None):
    """Evaluate ``e``.  A ``WindowSBI`` tightens its target in
    ``val.current`` and gives ``(outcomes, None)``, one of ``KEPT``,
    ``TIGHTENED`` and ``FAILED`` per entry.  An ``AggregateSBI`` gives
    ``(value, method)``: a float or ``BOTTOM``, and the tail-bound method
    used, None if no tail bound ran.  ``val`` is a valuation such as
    ``DictValuation``, or a dict for one.  ``code`` maps each template to
    its generated evaluator (a ``Shield``'s ``code.templates``), generated
    against the constants ``interp``; without it the template's trees are
    walked under ``interp``."""
    if isinstance(val, dict):
        val = DictValuation(val)
    t = type(e)
    if t is not WindowSBI and t is not AggregateSBI:
        raise TypeError(f"not an SBI: {e!r}")
    f = interpreted(e.template, interp) if code is None else code[e.template]
    if t is WindowSBI:
        return f(val, e.js), None
    return f(val, e.dist, e.eps)


def _eval_bound(guard: Formula, term: Term, interp, val):
    g = eval_formula(guard, interp, val)
    if g is UNDEF or not g:
        return BOTTOM
    r = eval_term(term, interp, val)
    return BOTTOM if r is UNDEF else r


def _eval_window(t: Template, pos: dict, val, js, interp) -> list:
    """Per ``j`` of ``js`` in turn, with the index names bound to ``j``, the
    value of the guarded term put into ``val.current`` by ``tighten``; so a
    later entry reads the target as the earlier ones left it.  The list of
    outcomes, one per entry."""
    a = t.assign
    guard, term, target, up = a.guard, a.body.term, a.target, t.tail == "up"
    return [tighten(val.current, target, _eval_bound(guard, term, interp, Bound(val, pos, j)), up)
            for j in js]


def tighten(current: dict, target: Ident, r, up: bool) -> int:
    """Put the value ``r`` of an SBI of ``target`` into ``current`` where it
    is tighter than the target's value there: lower for an upper bound
    (``up``), higher for a lower one, or any value where there is none.
    The outcome: ``FAILED`` where ``r`` is BOTTOM or not finite."""
    if r is BOTTOM or not math.isfinite(r):
        return FAILED
    c = current.get(target)
    if c is None or (r < c if up else r > c):
        current[target] = r
        return TIGHTENED
    return KEPT


def _eval_aggregate(t: Template, pos: dict, val, dist, interp, eps):
    """``(value, method)``: ``sum w*observable`` plus the inverse tail bound
    of ``sum w*noise``, with the index names bound to each pair's ``j`` in
    turn, and the tail bound's method.  Sums accumulate left to right, and
    the checks run in a fixed order: every guard, the observable, the noise
    distributions, linearity, then the tail bound."""
    a = t.assign
    body = a.body

    g = None  # the guards conjoined left to right in strong-Kleene logic
    for _, j in dist:
        if g is False:
            break
        h = eval_formula(a.guard, interp, Bound(val, pos, j))
        g = h if g is None or h is False else UNDEF if UNDEF in (g, h) else True
    if g is UNDEF or not g:
        return BOTTOM, None

    s = None
    for w, j in dist:
        o = eval_term(body.observable, interp, Bound(val, pos, j))
        if o is UNDEF:
            return BOTTOM, None
        s = w * o if s is None else s + w * o

    # per pair, the noise variable each template noise variable stands for:
    # itself, or its name at the pair's index, as a plain (name, index) key
    keys: list[dict] = []
    dists: dict = {}
    for _, j in dist:
        k = {}
        for (v, dx), p in zip(t.noise, t.noise_at):
            key = k[v] = v if p is None else (v[0], j[p])
            if key not in dists:
                ps = [eval_term(q, interp, Bound(val, pos, j)) for q in dx.params]
                if UNDEF in ps:
                    return BOTTOM, None
                try:
                    dists[key] = Dist(dx.kind, *ps)
                except ValueError:
                    return BOTTOM, None
        keys.append(k)

    c0 = cs = None
    for (w, j), k in zip(dist, keys):
        r = _lin(body.noise, interp, Bound(val, pos, j), k)
        if r is None:
            return BOTTOM, None
        if cs is None:
            c0, cs = r[0] * w, {key: c * w for key, c in r[1].items()}
        else:
            c0 = c0 + r[0] * w
            for key, c in r[1].items():
                cs[key] = cs.get(key, 0.0) + c * w

    r = tailbounds.invccdf([(c, dists[key]) for key, c in cs.items() if c != 0.0], c0, eps, t.tail)
    if r is None:
        return BOTTOM, None
    value, method = r
    return (s + value if math.isfinite(value) else BOTTOM), method


def _lin(t: Term, interp, val, noise: dict[Ident, Ident]):
    """Reduce ``t`` to ``(c0, {key: c_i})``, ``c0 + sum c_i * eta_i``, after
    substituting every non-noise variable with its value; ``None`` if not
    syntactically linear.  ``noise`` maps each noise variable of ``t`` to the
    key of its coefficient, and zero coefficients are kept."""
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
