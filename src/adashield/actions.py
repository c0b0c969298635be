"""Controller action spaces, path execution, monitors and fallback resolution.

A control action is a tree of choices that pins down one run of a
nondeterministic loop-free controller: each choice contributes a branch side,
each unconstrained assignment contributes a real value.  One replay runs the
chosen path and checks every test in its intermediate state (an undefined
test is fail-safe false): the monitor is that replay, and its post-state is
the execution.  It runs a controller's ``ControllerEvaluators``:
``interpreted`` walks its tree, the reference, and ``controller_code``
generates the functions a ``Shield`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .dl import (
    Assign, AssignAny, Choice, HybridProgram, Module, Seq, Test, UNDEF,
    eval_formula, eval_term, pretty_print,
)
from .dl.codegen import MAX_DEPTH, Body
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


#: the exact types a control value may have.  None runs agent code; a
#: subclass, a bool, a registered ``numbers.Real`` or a numpy type whose
#: arithmetic rounds or wraps around where Python's does not is none of
#: them.  A value enters the state as a float, so the env answers in builtins
REALS = (float, int, np.float64)


def action_fits(space: ActionSpace, a: ControlAction) -> bool:
    """Whether ``a`` fits ``space``, in exact action classes and ``REALS``
    values that ``float`` accepts (an int past the float range it does not):
    the one read of a control action."""
    st, at = type(space), type(a)
    if st is SpaceUnit:
        return at is AUnit
    if st is SpaceReal:
        if at is not AReal or type(a.value) not in REALS:
            return False
        try:
            float(a.value)
        except OverflowError:
            return False
        return True
    if st is SpaceProd:
        return at is APair and action_fits(space.left, a.left) and action_fits(space.right, a.right)
    if at is ALeft:
        return action_fits(space.left, a.action)
    if at is ARight:
        return action_fits(space.right, a.action)
    return False


# ---------------------------------------------------------------------------
# Execution and monitoring

class ControllerEvaluators(NamedTuple):
    """What running a controller calls, under one interpretation of the
    constants: its program, whose tree the fallback's directives walk; the
    replay, as ``f(state, action)`` on a state it updates, returning
    ``_replay``'s verdict; and the fallback's cases, each guard (None for
    the unguarded case) and each term of its directives as ``f(state)``.
    ``interpreted`` walks the trees, the reference; ``controller_code``
    generates the functions."""

    program: HybridProgram
    replay: Callable
    fallback: tuple


def interpreted(ctrl: HybridProgram, fb: Optional[FallbackDecl] = None,
                interp=None) -> ControllerEvaluators:
    """The reference evaluators: walk ``ctrl``'s tree and ``fb``'s guards
    and terms under the constants ``interp`` (none if None)."""
    interp = {} if interp is None else interp
    return ControllerEvaluators(
        ctrl,
        lambda state, a: _replay(ctrl, state, a, interp, None),
        _cases(fb, lambda f: lambda state: eval_formula(f, interp, state),
               lambda t: lambda state: eval_term(t, interp, state)))


def _cases(fb: Optional[FallbackDecl], formula: Callable, term: Callable) -> tuple:
    """``fb``'s cases with each guard made ``formula(guard)`` and each term
    of a directive list ``term(t)``; branch words stay as they are."""
    return tuple((None if guard is None else formula(guard),
                  tuple(d if isinstance(d, str) else term(d) for d in tpl))
                 for guard, tpl in (fb.cases if fb else ()))


def ctrl_exec(ctrl: ControllerEvaluators, state: dict, a: ControlAction) -> dict:
    """State after running ``ctrl`` along the path selected by ``a``,
    whatever its tests give; an undefined assignment right-hand side
    leaves UNDEF in the state."""
    out = dict(state)
    ctrl.replay(out, a)
    return out


def ctrl_monitor(ctrl: ControllerEvaluators, state: dict, a: ControlAction) -> Optional[dict]:
    """``ctrl_exec``'s state if every test on the selected path holds in its
    intermediate state and every assignment on it is defined, None if not;
    undefined tests do not hold.  A post-state may be ``{}``, so test the
    result with ``is None``."""
    out = dict(state)
    return out if ctrl.replay(out, a) else None


def ctrl_monitor_trace(ctrl: HybridProgram, state: dict, a: ControlAction,
                       interp=None) -> tuple[list[tuple[str, object]], list[str]]:
    """Per-test breakdown: (list of (test, verdict), list of failing tests).
    The diagnostic path behind ``monitor-eval``: it prints each test on the
    path, and each assignment on it whose value is undefined, which fails
    as a test does."""
    tests: list = []
    _replay(ctrl, dict(state), a, interp or {}, tests)
    results = [(pretty_print(cond), r) for cond, r in tests]
    failures = [shown for shown, r in results if r is UNDEF or not r]
    return results, failures


def _replay(p, st: dict, act, interp, tests: Optional[list]) -> bool:
    """Run the path of ``act`` through ``p`` on ``st`` in place and return
    whether every test on it held and every assignment on it was defined.
    A failing test or undefined assignment does not stop it; with ``tests``
    a list, each test's (condition, verdict) is appended, and each undefined
    assignment's (assignment, UNDEF)."""
    t = type(p)
    if t is Seq:
        if type(act) is not APair:
            raise StructureError("sequence expects a pair action")
        ok = _replay(p.left, st, act.left, interp, tests)
        return _replay(p.right, st, act.right, interp, tests) and ok
    if t is Choice:
        at = type(act)
        if at is ALeft:
            return _replay(p.left, st, act.action, interp, tests)
        if at is ARight:
            return _replay(p.right, st, act.action, interp, tests)
        raise StructureError("choice expects a left/right action")
    if t is Assign:
        if type(act) is not AUnit:
            raise StructureError("assignment expects the unit action")
        # an undefined value fails like a failing test, so it never reaches
        # the plant, with or without a test after it
        r = st[p.var] = eval_term(p.term, interp, st)
        if r is not UNDEF:
            return True
        if tests is not None:
            tests.append((p, r))
        return False
    if t is AssignAny:
        if type(act) is not AReal:
            raise StructureError("unconstrained assignment expects a real action")
        st[p.var] = float(act.value)
        return True
    if t is Test:
        if type(act) is not AUnit:
            raise StructureError("test expects the unit action")
        r = eval_formula(p.cond, interp, st)
        if tests is not None:
            tests.append((p.cond, r))
        return r is not UNDEF and bool(r)
    raise StructureError(f"controller contains {t.__name__}, not executable")


def resolve_fallback(ctrl: ControllerEvaluators, state: dict) -> tuple[ControlAction, dict]:
    """Action denoted by the first fallback case whose guard holds, and the
    state it gives, from the replay that checks it against the monitor."""
    template = None
    for guard, tpl in ctrl.fallback:
        if guard is None:
            template = tpl
            break
        g = guard(state)
        if g is not UNDEF and g:
            template = tpl
            break
    if template is None:
        raise FallbackViolation("no fallback template is applicable")

    def term_value(p, term):
        v = term(state)
        if v is UNDEF:
            raise FallbackViolation(
                f"fallback term for {p.var} is undefined in the current state")
        return v

    action = walk_directives(ctrl.program, template, term_value)
    out = ctrl_monitor(ctrl, state, action)
    if out is None:
        raise FallbackViolation(
            "fallback action rejected by the controller monitor "
            "(unproven totality obligation or bounds outside their contract)")
    return action, out


def controller_code(m: Module, ctrl: HybridProgram,
                    fb: Optional[FallbackDecl]) -> ControllerEvaluators:
    """``interpreted(ctrl, fb, m.consts)`` as functions generated into
    ``m``, against its constants.  The replay runs the path as ``_replay``
    does, with the same checks of the action's shape in the same order."""
    m.ns.update(APair=APair, ALeft=ALeft, ARight=ARight, AUnit=AUnit, AReal=AReal,
                StructureError=StructureError)
    return ControllerEvaluators(ctrl, _path_function(m, ctrl), _cases(fb, m.formula, m.term))


def _path_function(m: Module, p: HybridProgram):
    def emit(b: Body):
        b.emit("ok = True")
        _path_code(b, p, "a")
        b.emit("return ok")
    return m.function("cur, a", None, None, emit)


def _path_code(b: Body, p, act: str) -> None:
    """Emit the replay of action ``act`` through ``p``: a test that does not
    hold sets ``ok`` False and the replay goes on."""
    t = type(p)

    def expect(cls: str, message: str) -> None:
        b.emit(f"if type({act}) is not {cls}: raise StructureError({b.const(message)})")

    if t is Seq:
        expect("APair", "sequence expects a pair action")
        for side, sub in (("left", p.left), ("right", p.right)):
            a = b.new()
            b.emit(f"{a} = {act}.{side}")
            _path_code(b, sub, a)
    elif t is Choice and b.depth >= MAX_DEPTH:
        b.emit(f"if not {_path_function(b.m, p).__name__}(cur, {act}): ok = False")
    elif t is Choice:
        kind = b.new()
        b.emit(f"{kind} = type({act})")
        for word, cls, sub in (("if", "ALeft", p.left), ("elif", "ARight", p.right)):
            with b.block(f"{word} {kind} is {cls}:"):
                a = b.new()
                b.emit(f"{a} = {act}.action")
                _path_code(b, sub, a)
        b.emit(f"else: raise StructureError({b.const('choice expects a left/right action')})")
    elif t is Assign:
        expect("AUnit", "assignment expects the unit action")
        r = b.term_into(p.term)
        b.emit(f"cur[{b.const(p.var)}] = {r}")
        b.emit(f"if {r} is UNDEF: ok = False")
    elif t is AssignAny:
        expect("AReal", "unconstrained assignment expects a real action")
        b.emit(f"cur[{b.const(p.var)}] = float({act}.value)")
    elif t is Test:
        expect("AUnit", "test expects the unit action")
        r = b.formula(p.cond)
        b.emit(f"if {r} is UNDEF or not {r}: ok = False")
    else:
        b.emit(f"raise StructureError("
               f"{b.const(f'controller contains {t.__name__}, not executable')})")


def make_action(ctrl: HybridProgram, directives: list) -> ControlAction:
    """Build a shape-correct action from a directive list: 'left'/'right' per
    choice, a float per unconstrained assignment, both in pre-order."""
    return walk_directives(ctrl, directives, lambda p, d: float(d))


# ---------------------------------------------------------------------------
# Directive lists

_END = object()


def walk_directives(ctrl: HybridProgram, directives, value) -> ControlAction:
    """The action that walks ``ctrl`` along ``directives`` in pre-order:
    every choice takes a branch word, 'left' or 'right', and every ``x := *``
    takes one directive, which ``value(node, directive)`` turns into the
    assigned real.  Raises StructureError on a bad branch word, a list that
    ends before the path does, or leftover directives."""
    it = iter(directives)
    action = _walk(ctrl, it, value)
    if next(it, _END) is not _END:
        raise StructureError("leftover directives")
    return action


def _walk(p, it, value) -> ControlAction:
    t = type(p)
    if t is Seq:
        left = _walk(p.left, it, value)
        return APair(left, _walk(p.right, it, value))
    if t is Choice or t is AssignAny:
        d = next(it, _END)
        if d is _END:
            raise StructureError("directives end before the controller path does")
        if t is AssignAny:
            return AReal(value(p, d))
        if d == "left":
            return ALeft(_walk(p.left, it, value))
        if d == "right":
            return ARight(_walk(p.right, it, value))
        raise StructureError(f"expected a branch directive (left/right), got {d!r}")
    return UNIT
