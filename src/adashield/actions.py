"""Controller action spaces, path execution, monitors and fallback resolution.

A control action is a tree of choices that pins down one run of a
nondeterministic loop-free controller: each choice contributes a branch side,
each unconstrained assignment contributes a real value.  Execution replays
the chosen path ignoring tests; the monitor replays the same path and checks
every test in its intermediate state (an undefined test is fail-safe false).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Optional, Union

from .dl import (
    Assign, AssignAny, Choice, HybridProgram, Ident, Lit, Seq, Test, UNDEF,
    Var, eval_formula, eval_term, free_vars, pretty_print,
)
from .specfile import FallbackDecl


class StructureError(Exception):
    pass


class FallbackViolation(Exception):
    """The resolved fallback action was rejected by the controller monitor;
    either a totality obligation does not actually hold or the current bound
    instantiation is outside its contract."""


# ---------------------------------------------------------------------------
# Action spaces

@dataclass(frozen=True)
class SpaceUnit:
    def __str__(self):
        return "1"


@dataclass(frozen=True)
class SpaceReal:
    def __str__(self):
        return "R"


@dataclass(frozen=True)
class SpaceProd:
    left: "ActionSpace"
    right: "ActionSpace"

    def __str__(self):
        return f"({self.left} * {self.right})"


@dataclass(frozen=True)
class SpaceSum:
    left: "ActionSpace"
    right: "ActionSpace"

    def __str__(self):
        return f"({self.left} + {self.right})"


ActionSpace = Union[SpaceUnit, SpaceReal, SpaceProd, SpaceSum]


@dataclass(frozen=True)
class AUnit:
    def __str__(self):
        return "*"


@dataclass(frozen=True)
class AReal:
    value: float

    def __str__(self):
        return f"{self.value:g}"


@dataclass(frozen=True)
class APair:
    left: "ControlAction"
    right: "ControlAction"

    def __str__(self):
        return f"({self.left}, {self.right})"


@dataclass(frozen=True)
class ALeft:
    action: "ControlAction"

    def __str__(self):
        return f"left({self.action})"


@dataclass(frozen=True)
class ARight:
    action: "ControlAction"

    def __str__(self):
        return f"right({self.action})"


ControlAction = Union[AUnit, AReal, APair, ALeft, ARight]

UNIT = AUnit()


def derive_action_space(ctrl: HybridProgram) -> ActionSpace:
    t = type(ctrl)
    if t is Choice:
        return SpaceSum(derive_action_space(ctrl.left), derive_action_space(ctrl.right))
    if t is Seq:
        return SpaceProd(derive_action_space(ctrl.left), derive_action_space(ctrl.right))
    if t is AssignAny:
        return SpaceReal()
    if t in (Assign, Test):
        return SpaceUnit()
    raise StructureError(f"controller contains {t.__name__}, not monitorable")


def action_fits(space: ActionSpace, a: ControlAction) -> bool:
    st, at = type(space), type(a)
    if st is SpaceUnit:
        return at is AUnit
    if st is SpaceReal:
        return at is AReal and isinstance(a.value, Real)
    if st is SpaceProd:
        return at is APair and action_fits(space.left, a.left) and action_fits(space.right, a.right)
    if at is ALeft:
        return action_fits(space.left, a.action)
    if at is ARight:
        return action_fits(space.right, a.action)
    return False


def space_cardinality(space: ActionSpace) -> Optional[int]:
    """Number of actions for fully discrete spaces, None when continuous."""
    st = type(space)
    if st is SpaceUnit:
        return 1
    if st is SpaceReal:
        return None
    l, r = space_cardinality(space.left), space_cardinality(space.right)
    if l is None or r is None:
        return None
    return l * r if st is SpaceProd else l + r


def enumerate_actions(space: ActionSpace) -> list[ControlAction]:
    """All actions of a fully discrete space."""
    st = type(space)
    if st is SpaceUnit:
        return [UNIT]
    if st is SpaceReal:
        raise StructureError("cannot enumerate a continuous action space")
    if st is SpaceProd:
        return [APair(l, r) for l in enumerate_actions(space.left)
                for r in enumerate_actions(space.right)]
    return ([ALeft(a) for a in enumerate_actions(space.left)]
            + [ARight(a) for a in enumerate_actions(space.right)])


# ---------------------------------------------------------------------------
# Execution and monitoring

def ctrl_exec(ctrl: HybridProgram, state: dict, a: ControlAction, interp=None) -> dict:
    """State after running ``ctrl`` along the path selected by ``a``.

    Tests are skipped (the monitor checks them); an undefined assignment
    right-hand side leaves the family of UNDEF in the state so downstream
    monitors fail safe.
    """
    interp = interp or {}
    out = dict(state)
    _exec(ctrl, out, a, interp)
    return out


def _exec(ctrl, state: dict, a, interp) -> None:
    t = type(ctrl)
    if t is Seq:
        if type(a) is not APair:
            raise StructureError("sequence expects a pair action")
        _exec(ctrl.left, state, a.left, interp)
        _exec(ctrl.right, state, a.right, interp)
        return
    if t is Choice:
        at = type(a)
        if at is ALeft:
            _exec(ctrl.left, state, a.action, interp)
        elif at is ARight:
            _exec(ctrl.right, state, a.action, interp)
        else:
            raise StructureError("choice expects a left/right action")
        return
    if t is Assign:
        if type(a) is not AUnit:
            raise StructureError("assignment expects the unit action")
        state[ctrl.var] = eval_term(ctrl.term, interp, state)
        return
    if t is AssignAny:
        if type(a) is not AReal:
            raise StructureError("unconstrained assignment expects a real action")
        state[ctrl.var] = a.value
        return
    if t is Test:
        if type(a) is not AUnit:
            raise StructureError("test expects the unit action")
        return
    raise StructureError(f"controller contains {t.__name__}, not executable")


def ctrl_monitor(ctrl: HybridProgram, state: dict, a: ControlAction, interp=None) -> bool:
    """True iff every test on the selected path holds in its intermediate
    state; undefined tests are false.  Stops at the first failing test."""
    return _monitor(ctrl, dict(state), a, interp or {}, None)


def ctrl_monitor_trace(ctrl: HybridProgram, state: dict, a: ControlAction,
                       interp=None) -> tuple[list[tuple[str, object]], list[str]]:
    """Per-test breakdown: (list of (test, verdict), list of failing tests).
    The diagnostic path behind ``monitor-eval``: it checks every test on the
    path, past failures, and prints each."""
    tests: list = []
    _monitor(ctrl, dict(state), a, interp or {}, tests)
    results = [(pretty_print(cond), r) for cond, r in tests]
    failures = [shown for shown, r in results if r is UNDEF or not r]
    return results, failures


def _monitor(p, st: dict, act, interp, tests: Optional[list]) -> bool:
    """Replay the path of ``act`` through ``p`` in ``st``.  With ``tests`` a
    list, append every test's (condition, verdict) and go on past failures;
    with None, return at the first failure."""
    t = type(p)
    if t is Seq:
        if type(act) is not APair:
            raise StructureError("sequence expects a pair action")
        ok = _monitor(p.left, st, act.left, interp, tests)
        if not ok and tests is None:
            return False
        return _monitor(p.right, st, act.right, interp, tests) and ok
    if t is Choice:
        at = type(act)
        if at is ALeft:
            return _monitor(p.left, st, act.action, interp, tests)
        if at is ARight:
            return _monitor(p.right, st, act.action, interp, tests)
        raise StructureError("choice expects a left/right action")
    if t is Test:
        r = eval_formula(p.cond, interp, st)
        if tests is not None:
            tests.append((p.cond, r))
        return r is not UNDEF and bool(r)
    _exec(p, st, act, interp)
    return True


def resolve_fallback(ctrl: HybridProgram, fb: FallbackDecl, state: dict,
                     interp=None) -> ControlAction:
    """Action denoted by the first fallback template whose guard holds;
    verified against the monitor before being returned."""
    interp = interp or {}
    template = None
    for guard, tpl in fb.cases:
        if guard is None:
            template = tpl
            break
        g = eval_formula(guard, interp, state)
        if g is not UNDEF and g:
            template = tpl
            break
    if template is None:
        raise FallbackViolation("no fallback template is applicable")

    directives = list(template)

    def build(p) -> ControlAction:
        t = type(p)
        if t is Seq:
            l = build(p.left)
            return APair(l, build(p.right))
        if t is Choice:
            d = directives.pop(0)
            if d == "left":
                return ALeft(build(p.left))
            return ARight(build(p.right))
        if t is AssignAny:
            d = directives.pop(0)
            v = eval_term(d, interp, state)
            if v is UNDEF:
                raise FallbackViolation(
                    f"fallback term for {p.var} is undefined in the current state")
            return AReal(v)
        return UNIT

    action = build(ctrl)
    if not ctrl_monitor(ctrl, state, action, interp):
        raise FallbackViolation(
            "fallback action rejected by the controller monitor "
            "(unproven totality obligation or bounds outside their contract)")
    return action


def make_action(ctrl: HybridProgram, directives: list) -> ControlAction:
    """Build a shape-correct action from a directive list: 'left'/'right' per
    choice, a float per unconstrained assignment, both in pre-order."""
    rest = list(directives)

    def build(p) -> ControlAction:
        t = type(p)
        if t is Seq:
            l = build(p.left)
            return APair(l, build(p.right))
        if t is Choice:
            d = rest.pop(0)
            if d == "left":
                return ALeft(build(p.left))
            if d == "right":
                return ARight(build(p.right))
            raise StructureError(f"expected 'left' or 'right', got {d!r}")
        if t is AssignAny:
            return AReal(float(rest.pop(0)))
        return UNIT

    a = build(ctrl)
    if rest:
        raise StructureError("leftover action directives")
    return a


# ---------------------------------------------------------------------------
# Choice encoding for diagnostic search

def encode_choice_search(ctrl: HybridProgram) -> tuple[HybridProgram, list[Ident]]:
    """Rewrite nondeterminism into fresh decision variables: ``x := *``
    becomes ``x := u_k`` and each choice is guarded by ``?(u_k = 0/1)``."""
    taken = {v.name for v in free_vars(ctrl)}
    fresh: list[Ident] = []
    counter = [0]

    def new_var() -> Ident:
        while True:
            counter[0] += 1
            name = f"u{counter[0]}"
            if name not in taken:
                taken.add(name)
                fresh.append(Ident(name))
                return Ident(name)

    def walk(p):
        t = type(p)
        if t is Choice:
            u = new_var()
            return Choice(Seq(Test(_eq(u, 0)), walk(p.left)),
                          Seq(Test(_eq(u, 1)), walk(p.right)))
        if t is Seq:
            return Seq(walk(p.left), walk(p.right))
        if t is AssignAny:
            u = new_var()
            return Assign(p.var, Var(u))
        return p

    def _eq(u: Ident, v: int):
        from .dl.syntax import Cmp
        return Cmp("=", Var(u), Lit(float(v)))

    return walk(ctrl), fresh


def find_discrete_fallback(ctrl: HybridProgram, state: dict, interp=None):
    """Enumerate a fully discrete action space for a monitor-true action."""
    space = derive_action_space(ctrl)
    if space_cardinality(space) is None:
        raise StructureError("action space is continuous; provide an explicit fallback")
    for a in enumerate_actions(space):
        if ctrl_monitor(ctrl, state, a, interp):
            return a
    return None
