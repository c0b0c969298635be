"""Inference strategies: action spaces, interpretation into symbolic
assignments, and staged evaluation of symbolic bound instantiations.

A strategy is an ordered list of assignments (direct / best / aggregate, each
with an optional guard).  Interpreting a strategy under an inference action
yields symbolic bound instantiations (SBIs) that are later evaluated against
a valuation assembled from the current state, bound values and index-tagged
history.  Evaluation is staged deliberately: SBIs are built without access to
measurement values, so the weights and tolerances feeding them cannot depend
on the data they will aggregate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .dl import (
    Abs, App, BinOp, BoolLit, Formula, Ident, Lit, Neg, Term, UNDEF, Var,
    eval_formula, eval_term, free_vars, instantiate_indices, tag_with_index,
)
from .dl.syntax import conj
from . import tailbounds
from .tailbounds import Dist, DomainError


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


def validate_action(strategy: InferenceStrategy, action: InferenceAction) -> None:
    _check_action(strategy_action_space(strategy), action)


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
            if not _index_tuples((j for _, j in slot.dist), n):
                raise ActionShapeError(f"aggregate slot expects {n}-tuples of indices")


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

@dataclass(frozen=True)
class TermSBI:
    term: Term


@dataclass(frozen=True)
class SumSBI:
    left: "SBI"
    right: "SBI"


@dataclass(frozen=True)
class GuardedSBI:
    body: "SBI"
    guard: Formula


@dataclass(frozen=True)
class InvCCDFNode:
    """Bound noise variables with their distributions, a target linear in
    those variables, a tolerance term and the tail side."""

    bindings: tuple[tuple[Ident, DistExpr], ...]
    target: Term
    eps: Term
    tail: str = "up"  # 'up' | 'lo'


SBI = Union[TermSBI, SumSBI, GuardedSBI, InvCCDFNode]


@dataclass(frozen=True)
class SymbolicAssignment:
    param: Ident
    sbi: SBI
    eps: float
    #: ``sbi_free_vars(sbi)``, computed once when the SBI is built
    free_vars: frozenset[Ident]


class CompiledStrategy:
    """What a ``Shield`` works out once for its strategy: the action space,
    the free variables of every template, the direct assignments, and the
    best-slot instantiations of the last two interpretations.

    Best instantiations are keyed by (slot position, index tuple).  A best
    window slides by one entry per step, so nearly every tuple an agent
    lists was instantiated one interpretation earlier.  Each interpretation
    starts a new generation that keeps only the entries it used, so at most
    two actions' worth are held, whatever index tuples the agent sends.
    Aggregates are not kept: surfacing burns their observations, so their
    index tuples do not recur.
    """

    def __init__(self, strategy: InferenceStrategy):
        self.strategy = strategy
        self.space = strategy_action_space(strategy)
        #: per slot: free variables of the observable (or term) and guard,
        #: and of the noise component
        self.template_vars = tuple(_template_vars(a) for a in strategy)
        self.directs = {
            pos: SymbolicAssignment(a.target, GuardedSBI(TermSBI(a.body.term), a.guard),
                                    0.0, frozenset(self.template_vars[pos][0]))
            for pos, a in enumerate(strategy) if isinstance(a.body, Direct)}
        self.current: dict[tuple[int, tuple[int, ...]], SymbolicAssignment] = {}
        self.previous: dict[tuple[int, tuple[int, ...]], SymbolicAssignment] = {}

    def best(self, pos: int, j: tuple[int, ...]) -> SymbolicAssignment:
        key = (pos, j)
        sa = self.current.get(key)
        if sa is None:
            sa = self.previous.get(key)
            if sa is None:
                assign = self.strategy[pos]
                names = list(assign.body.indices)
                term = instantiate_indices(assign.body.term, names, list(j))
                guard = instantiate_indices(assign.guard, names, list(j))
                m = dict(zip(names, j))
                sa = SymbolicAssignment(
                    assign.target, GuardedSBI(TermSBI(term), guard), 0.0,
                    frozenset(_instantiate_var(v, m) for v in self.template_vars[pos][0]))
            self.current[key] = sa
        return sa


def _template_vars(a: InferAssign) -> tuple[set[Ident], set[Ident]]:
    body = a.body
    if isinstance(body, Aggregate):
        return free_vars(body.observable) | free_vars(a.guard), free_vars(body.noise)
    return free_vars(body.term) | free_vars(a.guard), set()


def _instantiate_var(v: Ident, m: dict) -> Ident:
    """``v`` re-indexed as ``instantiate_indices`` re-indexes its variables,
    so that the free variables of an instance follow from its template's."""
    return Ident(v.name, m[v.index]) if v.index in m else v


def interpret_strategy(strategy: InferenceStrategy, action: InferenceAction,
                       direction_of: dict[Ident, str],
                       noise_decls: dict[str, DistExpr],
                       compiled: Optional[CompiledStrategy] = None) -> list[SymbolicAssignment]:
    """Map an inference action to the list of symbolic inference assignments.

    ``compiled`` is the strategy's ``CompiledStrategy`` kept across calls, so
    that best instantiations are reused; without it all are built afresh.
    Raises ``ActionShapeError`` for an action that does not fit the strategy.
    """
    if compiled is None:
        compiled = CompiledStrategy(strategy)
    elif compiled.strategy is not strategy:
        raise ValueError("compiled for a different strategy")
    _check_action(compiled.space, action)
    compiled.previous, compiled.current = compiled.current, {}
    out: list[SymbolicAssignment] = []
    for pos, (assign, slot) in enumerate(zip(strategy, action)):
        body = assign.body
        if isinstance(body, Direct):
            out.append(compiled.directs[pos])
        elif slot is None:
            continue
        elif isinstance(body, Best):
            for j in slot:
                out.append(compiled.best(pos, j))
        else:
            out.append(_interpret_aggregate(assign, slot, compiled.template_vars[pos],
                                            direction_of, noise_decls))
    return out


def _interpret_aggregate(assign: InferAssign, slot: AggregateAction, template_vars,
                         direction_of, noise_decls) -> SymbolicAssignment:
    p = assign.target
    body = assign.body
    names = list(body.indices)
    obs_vars, noise_vars = template_vars
    obs_sum = None
    noise_sum = None
    guards = []
    free: set[Ident] = set()
    bindings: dict[Ident, DistExpr] = {}
    for w, j in slot.dist:
        vals = list(j)
        obs_j = BinOp("*", Lit(w), instantiate_indices(body.observable, names, vals))
        noise_j = BinOp("*", Lit(w), instantiate_indices(body.noise, names, vals))
        obs_sum = obs_j if obs_sum is None else BinOp("+", obs_sum, obs_j)
        noise_sum = noise_j if noise_sum is None else BinOp("+", noise_sum, noise_j)
        guards.append(instantiate_indices(assign.guard, names, vals))
        m = dict(zip(names, vals))
        for v in obs_vars:
            free.add(_instantiate_var(v, m))
        for v in noise_vars:
            ident = _instantiate_var(v, m)
            free.add(ident)
            if ident.name in noise_decls and ident not in bindings:
                decl = noise_decls[ident.name]
                tagged = tuple(
                    tag_with_index(t, ident.index) if ident.index is not None else t
                    for t in decl.params)
                bindings[ident] = DistExpr(decl.kind, tagged)
                for t in tagged:
                    free |= free_vars(t)
    node = InvCCDFNode(tuple(sorted(bindings.items(), key=lambda kv: str(kv[0]))),
                       noise_sum, Lit(slot.eps),
                       tail=("lo" if direction_of.get(p) == "lo" else "up"))
    sbi = GuardedSBI(SumSBI(TermSBI(obs_sum), node), conj(guards))
    return SymbolicAssignment(p, sbi, slot.eps, frozenset(free))


def referenced_indices(assignments: list[SymbolicAssignment]) -> set[int]:
    """Concrete history indices mentioned by any SBI."""
    out: set[int] = set()
    for a in assignments:
        for ident in a.free_vars:
            if isinstance(ident.index, int):
                out.add(ident.index)
    return out


def referenced_observations(assignments: list[SymbolicAssignment],
                            obs_names: frozenset[str]) -> set[Ident]:
    out: set[Ident] = set()
    for a in assignments:
        for ident in a.free_vars:
            if isinstance(ident.index, int) and ident.name in obs_names:
                out.add(ident)
    return out


def sbi_free_vars(e: SBI) -> set[Ident]:
    if isinstance(e, TermSBI):
        return free_vars(e.term)
    if isinstance(e, SumSBI):
        return sbi_free_vars(e.left) | sbi_free_vars(e.right)
    if isinstance(e, GuardedSBI):
        return sbi_free_vars(e.body) | free_vars(e.guard)
    out = free_vars(e.target) | free_vars(e.eps)
    for ident, dist in e.bindings:
        out.add(ident)
        for t in dist.params:
            out |= free_vars(t)
    return out


# ---------------------------------------------------------------------------
# SBI evaluation

def eval_sbi(e: SBI, interp, val, config=None):
    """Evaluate to a float or ``BOTTOM``; returns ``(value, meta)`` where
    ``meta['methods']`` lists the tail-bound methods used."""
    meta: dict = {"methods": []}
    v = _eval_sbi(e, interp, val, meta, config)
    return v, meta


def _eval_sbi(e: SBI, interp, val, meta, config):
    t = type(e)
    if t is TermSBI:
        r = eval_term(e.term, interp, val)
        return BOTTOM if r is UNDEF else r
    if t is SumSBI:
        a = _eval_sbi(e.left, interp, val, meta, config)
        if a is BOTTOM:
            return BOTTOM
        b = _eval_sbi(e.right, interp, val, meta, config)
        if b is BOTTOM:
            return BOTTOM
        return a + b
    if t is GuardedSBI:
        g = eval_formula(e.guard, interp, val)
        if g is UNDEF or not g:
            return BOTTOM
        return _eval_sbi(e.body, interp, val, meta, config)
    if t is InvCCDFNode:
        return _eval_invccdf(e, interp, val, meta, config)
    raise TypeError(f"not an SBI: {e!r}")


def _eval_invccdf(node: InvCCDFNode, interp, val, meta, config):
    eps = eval_term(node.eps, interp, val)
    if eps is UNDEF:
        return BOTTOM
    dists: dict[Ident, Dist] = {}
    for ident, dx in node.bindings:
        params = []
        for t in dx.params:
            r = eval_term(t, interp, val)
            if r is UNDEF:
                return BOTTOM
            params.append(r)
        if dx.kind == "normal":
            d = Dist("normal", params[0], params[1])
        elif dx.kind == "uniform":
            d = Dist("uniform", params[0], params[1])
        else:
            d = Dist("bernoulli", params[0])
        try:
            d.validate()
        except ValueError:
            return BOTTOM
        dists[ident] = d
    lin = linearize(node.target, interp, val, frozenset(dists))
    if lin is None:
        return BOTTOM
    c0, coeffs = lin
    pairs = [(c, dists[ident]) for ident, c in coeffs.items()]
    allow_cantelli = bool(config and getattr(config, "allow_cantelli", False))
    try:
        r = tailbounds.invccdf(pairs, c0, eps, tail=node.tail,
                               allow_cantelli=allow_cantelli)
    except DomainError:
        raise
    if r is None:
        return BOTTOM
    value, method = r
    meta["methods"].append(method)
    if not math.isfinite(value):
        return BOTTOM
    return value


def linearize(term: Term, interp, val, noise_vars: frozenset[Ident]):
    """Reduce ``term`` to ``c0 + sum c_i * eta_i`` after substituting every
    non-noise variable with its value; ``None`` if not syntactically linear."""
    r = _lin(term, interp, val, noise_vars)
    if r is None:
        return None
    c0, coeffs = r
    return c0, {k: v for k, v in coeffs.items() if v != 0.0}


def _lin(t: Term, interp, val, nv):
    tt = type(t)
    if tt is Var and t.ident in nv:
        return 0.0, {t.ident: 1.0}
    if tt in (Lit, Var, App):
        r = eval_term(t, interp, val)
        return None if r is UNDEF else (r, {})
    if tt is Neg:
        r = _lin(t.arg, interp, val, nv)
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
            a = _lin(t.left, interp, val, nv)
            b = _lin(t.right, interp, val, nv)
            if a is None or b is None:
                return None
            sgn = 1.0 if op == "+" else -1.0
            c0 = a[0] + sgn * b[0]
            cs = dict(a[1])
            for k, v in b[1].items():
                cs[k] = cs.get(k, 0.0) + sgn * v
            return c0, cs
        if op == "*":
            a = _lin(t.left, interp, val, nv)
            b = _lin(t.right, interp, val, nv)
            if a is None or b is None:
                return None
            if a[1] and b[1]:
                return None  # product of two noise-carrying factors
            if b[1]:
                a, b = b, a
            scale = b[0]
            return a[0] * scale, {k: v * scale for k, v in a[1].items()}
        if op == "/":
            a = _lin(t.left, interp, val, nv)
            b = _lin(t.right, interp, val, nv)
            if a is None or b is None or b[1] or b[0] == 0.0:
                return None
            inv = 1.0 / b[0]
            return a[0] * inv, {k: v * inv for k, v in a[1].items()}
        # min/max/^ must be noise-free
        r = eval_term(t, interp, val)
        return None if r is UNDEF else (r, {})
    return None
