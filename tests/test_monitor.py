"""Action spaces, path execution, monitor synthesis and fallback resolution."""

import random

import numpy as np
import pytest

from adashield.dl import (
    Assign, AssignAny, Choice, Ident, Module, Seq, Test, UNDEF, eval_formula,
    eval_term, parse_program,
)
from adashield.actions import (
    ALeft, APair, AReal, ARight, FallbackViolation, SpaceProd, SpaceReal,
    SpaceSum, SpaceUnit, StructureError, UNIT, action_fits, controller_code, ctrl_exec,
    ctrl_monitor, ctrl_monitor_trace, derive_action_space, interpreted, make_action,
    resolve_fallback,
)

from conftest import TermGen


def path_oracle(prog, state, action, interp=None):
    """Independent replay of the action-selected run: flatten the chosen path
    into a list of atomic statements, then interpret it sequentially.

    Returns the reached end state, or None when some test on the path fails
    (the run is outside the program's transition relation).
    """
    interp = interp or {}
    atoms = []

    def flatten(p, a):
        t = type(p)
        if t is Seq:
            flatten(p.left, a.left)
            flatten(p.right, a.right)
        elif t is Choice:
            if isinstance(a, ALeft):
                flatten(p.left, a.action)
            else:
                flatten(p.right, a.action)
        else:
            atoms.append((p, a))

    flatten(prog, action)
    st = dict(state)
    for p, a in atoms:
        t = type(p)
        if t is Assign:
            st[p.var] = eval_term(p.term, interp, st)
        elif t is AssignAny:
            st[p.var] = a.value
        else:  # Test
            r = eval_formula(p.cond, interp, st)
            if r is UNDEF or not r:
                return None
    return st


class ControllerGen:
    """Random loop-free controllers: depth <= 4, at most 3 unconstrained
    assignments."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.terms = TermGen(seed + 1, variables=("x", "y", "z"))

    def controller(self, depth=4, stars=3):
        r = self.rng
        if depth == 0:
            return self._atom(stars)
        roll = r.random()
        if roll < 0.35:
            return Seq(self.controller(depth - 1, stars),
                       self.controller(depth - 1, 0 if stars == 0 else stars - 1))
        if roll < 0.6:
            return Choice(self.controller(depth - 1, stars),
                          self.controller(depth - 1, stars))
        return self._atom(stars)

    def _atom(self, stars):
        r = self.rng
        roll = r.random()
        var = Ident(r.choice("xyz"))
        if roll < 0.3 and stars > 0:
            return AssignAny(var)
        if roll < 0.65:
            return Assign(var, self.terms.term(2))
        return Test(self.terms.formula(1))

    def action_for(self, prog):
        r = self.rng
        t = type(prog)
        if t is Seq:
            return APair(self.action_for(prog.left), self.action_for(prog.right))
        if t is Choice:
            side = r.random() < 0.5
            return (ALeft(self.action_for(prog.left)) if side
                    else ARight(self.action_for(prog.right)))
        if t is AssignAny:
            return AReal(round(r.uniform(-5, 5), 3))
        return UNIT


class TestActionSpaces:
    def test_binary_train_controller(self):
        ctrl = parse_program("a := -B ++ { ?(Q > 0); a := A }")
        space = derive_action_space(ctrl)
        assert space == SpaceSum(SpaceUnit(), SpaceProd(SpaceUnit(), SpaceUnit()))

    def test_continuous_train_controller(self, specs):
        space = derive_action_space(specs["train_global"].ctrl)
        assert space == SpaceProd(SpaceReal(),
                                  SpaceProd(SpaceUnit(), SpaceUnit()))

    def test_two_branch_example_space(self):
        ctrl = parse_program(
            "{x := *; y := *; ?(x >= y)} ++ {x := 0; { {y := *; ?(y >= 0)} ++ y := -1 }}")
        space = derive_action_space(ctrl)
        # (R x R x 1) + (1 x ((R x 1) + 1))
        assert space == SpaceSum(
            SpaceProd(SpaceReal(), SpaceProd(SpaceReal(), SpaceUnit())),
            SpaceProd(SpaceUnit(),
                      SpaceSum(SpaceProd(SpaceReal(), SpaceUnit()), SpaceUnit())))

    def test_ode_rejected(self):
        with pytest.raises(StructureError):
            derive_action_space(parse_program("{x' = 1}"))

    def test_action_fits_needs_real_values(self):
        assert action_fits(SpaceReal(), AReal(1.5))
        assert not action_fits(SpaceReal(), AReal("1.5"))
        assert not action_fits(SpaceReal(), UNIT)
        assert not action_fits(SpaceProd(SpaceUnit(), SpaceUnit()), None)


class TestExec:
    def test_two_branch_example(self):
        ctrl = parse_program(
            "{x := *; y := *; ?(x >= y)} ++ {x := 0; { {y := *; ?(y >= 0)} ++ y := -1 }}")
        a = ARight(APair(UNIT, ALeft(APair(AReal(8.0), UNIT))))
        out = ctrl_exec(interpreted(ctrl), {Ident("x"): 3.0, Ident("y"): 7.0}, a)
        assert out == {Ident("x"): 0.0, Ident("y"): 8.0}

    def test_brake_action(self):
        ctrl = parse_program("a := -4 ++ { ?(x > 0); a := 4 }")
        out = ctrl_exec(interpreted(ctrl), {Ident("x"): -1.0}, ALeft(UNIT))
        assert out[Ident("a")] == -4.0

    def test_shape_mismatch(self):
        ctrl = parse_program("a := -4 ++ a := 4")
        with pytest.raises(StructureError):
            ctrl_exec(interpreted(ctrl), {}, UNIT)

    def test_exec_deterministic(self):
        gen = ControllerGen(77)
        for _ in range(300):
            ctrl = gen.controller()
            a = gen.action_for(ctrl)
            s = gen.terms.valuation()
            ev = interpreted(ctrl)
            assert ctrl_exec(ev, s, a) == ctrl_exec(ev, s, a)


class TestMonitor:
    def test_continuous_train_monitor_checks_both_tests(self, specs):
        spec = specs["train_global"]
        consts = {"A": 4.0, "B": 4.0, "T": 1.0, "sigma": 0.1}
        s = {Ident("x"): 0.0, Ident("v"): 10.0, Ident("e"): 1000.0,
             Ident("theta_lo"): 0.5, Ident("theta_up"): 1.5, Ident("phi_up"): 0.5}
        a = make_action(spec.ctrl, [1.0])
        results, failures = ctrl_monitor_trace(spec.ctrl, s, a, consts)
        assert len(results) == 2 and not failures
        # commanded acceleration outside its box fails the first test
        bad = make_action(spec.ctrl, [9.0])
        results, failures = ctrl_monitor_trace(spec.ctrl, s, bad, consts)
        assert len(failures) >= 1

    def test_test_free_path_always_true(self):
        ctrl = parse_program("a := -4 ++ { ?(x > 0); a := 4 }")
        for x in (-10.0, 0.0, 10.0):
            assert ctrl_monitor(interpreted(ctrl), {Ident("x"): x}, ALeft(UNIT)) \
                == {Ident("x"): x, Ident("a"): -4.0}

    def test_undefined_test_fails_safe(self):
        ctrl = parse_program("?(1/x > 0)")
        assert ctrl_monitor(interpreted(ctrl), {Ident("x"): 0.0}, UNIT) is None

    def test_monitor_agrees_with_path_oracle(self):
        gen = ControllerGen(2024)
        agreements = 0
        for _ in range(1000):
            ctrl = gen.controller()
            a = gen.action_for(ctrl)
            s = gen.terms.valuation()
            ev = interpreted(ctrl)
            got = ctrl_monitor(ev, s, a)
            end = path_oracle(ctrl, s, a)
            expected = end is not None and all(
                end.get(k, UNDEF) is not UNDEF for k in end)
            if end is not None:
                # when the path passes, exec must land exactly on the oracle state
                assert ctrl_exec(ev, s, a) == end
            assert (got is not None) == expected
            if got is not None:
                assert got == end
            agreements += 1
        assert agreements == 1000

    def test_verdict_agrees_with_trace(self):
        # the monitor accepts exactly where the trace lists no failing test
        gen = ControllerGen(31)
        for _ in range(1000):
            ctrl = gen.controller()
            a = gen.action_for(ctrl)
            s = gen.terms.valuation()
            assert (ctrl_monitor(interpreted(ctrl), s, a) is not None) \
                == (not ctrl_monitor_trace(ctrl, s, a)[1])

    def test_trace_reports_tests_after_a_failure(self):
        ctrl = parse_program("?(x > 0); ?(x > 1)")
        results, failures = ctrl_monitor_trace(ctrl, {Ident("x"): -1.0}, APair(UNIT, UNIT))
        assert [holds for _, holds in results] == [False, False]
        assert failures == ["x > 0", "x > 1"]


class TestFallback:
    def test_continuous_fallback(self, specs):
        spec = specs["train_global"]
        consts = {"A": 4.0, "B": 4.0, "T": 1.0, "sigma": 0.1}
        s = {Ident("x"): 0.0, Ident("v"): 10.0, Ident("e"): 1000.0,
             Ident("theta_lo"): 0.5, Ident("theta_up"): 1.5, Ident("phi_up"): 0.5}
        ev = interpreted(spec.ctrl, spec.fallback)
        a, out = resolve_fallback(ev, s, consts)
        assert a == make_action(spec.ctrl, [-4.0])
        # the state is the one the checking replay reached: a's execution
        assert out == ctrl_exec(ev, s, a, consts)

    def test_binary_fallback_is_right_branch(self, specs):
        spec = specs["sisyphean"]
        consts = {"A": 4.0, "B": 4.0, "T": 1.0, "k": 0.0025, "F": 3.0,
                  "eta_r": 0.3}
        s = {Ident("x"): -1000.0, Ident("v"): 30.0, Ident("y"): 3.0,
             Ident("a"): 0.0, Ident("t"): 0.0, Ident("fbar"): 3.0}
        a, out = resolve_fallback(interpreted(spec.ctrl, spec.fallback), s, consts)
        assert a == make_action(spec.ctrl, ["right"])
        assert out[Ident("a")] == -4.0

    def test_fallback_violation_out_of_contract(self, specs):
        # a state violating the invariant may make the fallback unmonitorable
        spec = specs["train_global"]
        consts = {"A": 4.0, "B": 4.0, "T": 1.0, "sigma": 0.1}
        s = {Ident("x"): 999.0, Ident("v"): 100.0, Ident("e"): 0.0,
             Ident("theta_lo"): 0.1, Ident("theta_up"): 9.9, Ident("phi_up"): 0.3}
        with pytest.raises(FallbackViolation):
            resolve_fallback(interpreted(spec.ctrl, spec.fallback), s, consts)

    def test_numpy_action_is_checked(self):
        # action_fits admits numpy's float64, so a numpy float reaches the monitor
        ctrl = parse_program("a := *; ?(a <= A & x <= 0)", frozenset({"A"}))
        code = controller_code(Module(), ctrl, None)
        s = {Ident("x"): -1.0}
        for value, expected in ((10.0, False), (1.0, True)):
            for a in (make_action(ctrl, [value]), APair(AReal(np.float64(value)), UNIT)):
                assert action_fits(derive_action_space(ctrl), a)
                for ev in (interpreted(ctrl), code):
                    assert (ctrl_monitor(ev, s, a, {"A": 3.0}) is not None) is expected

    def test_acas_numpy_actions_match_floats(self, specs, shields):
        spec = specs["acas"]
        code = shields["acas"].code.ctrl
        ref = interpreted(spec.ctrl)
        consts = dict(tm=40.0, T=1.0, A=3.0, Aint=3.0, R=500.0, V=50.0,
                      H=2000.0, sigv=2.0, sigh=20.0, p=1e-4)
        accepted = 0
        for h in (-800.0, 0.0, 800.0):
            s = {Ident("h"): h, Ident("v"): 0.0, Ident("t"): 0.0,
                 Ident("hmint_lo"): -1600.0, Ident("hmint_up"): 1600.0}
            for value in (-3.0, -1.0, 0.0, 2.0, 3.0, 5.0):
                verdict = ctrl_monitor(ref, s, make_action(spec.ctrl, [value]), consts) is not None
                accepted += verdict
                a = make_action(spec.ctrl, [np.float64(value)])
                a = APair(AReal(np.float64(value)), a.right)
                assert type(a.left.value) is np.float64
                assert (ctrl_monitor(ref, s, a, consts) is not None) is verdict
                assert (ctrl_monitor(code, s, a, consts) is not None) is verdict
        assert 0 < accepted < 18

    def test_guarded_fallback_picks_matching_case(self, specs):
        spec = specs["acas"]
        consts = dict(tm=40.0, T=1.0, A=3.0, Aint=3.0, R=500.0, V=50.0,
                      H=2000.0, sigv=2.0, sigh=20.0, p=1e-4)
        base = {Ident("h"): 0.0, Ident("v"): 0.0, Ident("t"): 0.0,
                Ident("t0"): 0.0, Ident("hnext"): 0.0, Ident("vnext"): 0.0,
                Ident("tleft"): 0.0, Ident("c_lo"): 0.0,
                Ident("vint_lo"): -50.0, Ident("vint_up"): 50.0,
                Ident("hint_lo"): -2000.0, Ident("hint_up"): 2000.0,
                Ident("h0int_lo"): -500.0, Ident("h0int_up"): 500.0}
        up = {**base, Ident("hmint_lo"): -1600.0, Ident("hmint_up"): 1600.0}
        a, _ = resolve_fallback(interpreted(spec.ctrl, spec.fallback), up, consts)
        assert a == make_action(spec.ctrl, [3.0])  # climb case holds
        down = {**base, Ident("hmint_lo"): -1600.0, Ident("hmint_up"): 4000.0}
        a, _ = resolve_fallback(interpreted(spec.ctrl, spec.fallback), down, consts)
        assert a == make_action(spec.ctrl, [-3.0])


def directives_of(ctrl, a) -> list:
    """The pre-order directive list that selects action ``a``."""
    t = type(ctrl)
    if t is Seq:
        return directives_of(ctrl.left, a.left) + directives_of(ctrl.right, a.right)
    if t is Choice:
        if type(a) is ALeft:
            return ["left"] + directives_of(ctrl.left, a.action)
        return ["right"] + directives_of(ctrl.right, a.action)
    if t is AssignAny:
        return [a.value]
    return []


class TestDirectives:
    def test_round_trip(self):
        gen = ControllerGen(31)
        for _ in range(300):
            ctrl = gen.controller()
            a = gen.action_for(ctrl)
            assert make_action(ctrl, directives_of(ctrl, a)) == a

    @pytest.mark.parametrize("directives", [
        ["up"], [], ["left"], ["left", 1.0, 2.0], ["right", "left"],
    ])
    def test_malformed_list_is_a_structure_error(self, directives):
        ctrl = parse_program("{x := *; ?(x > 0)} ++ x := 0")
        with pytest.raises(StructureError):
            make_action(ctrl, directives)
