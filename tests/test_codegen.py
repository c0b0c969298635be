"""Generated code against the reference semantics.

``eval_term``, ``eval_formula`` and ``strategy._lin`` are the reference;
the code a ``Module`` generates must give the same value, bit for bit, or
raise the same error, on any input: random trees, valuations with holes,
UNDEF, NaN, infinities, signed zeros and numpy floats, and the controller
monitor, controller execution and fallback of every bundled spec and of
random controllers with random fallbacks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adashield.actions import (
    ALeft, APair, AReal, ARight, FallbackViolation, SpaceProd, SpaceReal, SpaceSum, UNIT,
    controller_code, ctrl_exec, ctrl_monitor, derive_action_space, interpreted,
    resolve_fallback,
)
from adashield.dl import (
    Abs, And, App, BinOp, BoolLit, Choice, Cmp, Forall, Ident, Imp, Lit,
    Module, Neg, Not, Or, Test, UNDEF, Var, eval_formula, eval_term,
    ordered_free_vars, parse_term,
)
from adashield.dl.codegen import MAX_DEPTH
from adashield.specfile import FallbackDecl
from adashield.strategy import (
    Aggregate, AggregateAction, Bound, CompiledStrategy, DictValuation, DistExpr, InferAssign,
    _lin, eval_sbi, interpret_strategy, template_code,
)

from test_monitor import ControllerGen, directives_of

# NaN and infinite numpy operands warn; both sides compute the same values
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

NAMES = ("i", "k")
POS = {name: k for k, name in enumerate(NAMES)}
IDENTS = (Ident("x"), Ident("y"), Ident("x", 1), Ident("y", 2), Ident("x", "i"),
          Ident("y", "k"), Ident("x", "m"))
VALUES = (0.0, -0.0, 1.5, -2.0, 3.0, 0.1, -7.3, 1e200, -1e-300, math.nan, math.inf, -math.inf,
          np.float64(2.0), np.float64(-0.0), np.float64(math.nan))
INTERP = {"f": lambda *a: a[0] * 2.0 - a[-1], "h": lambda *a: math.inf,
          "k0": lambda: 0.5, "c": 2.0, "z": -0.0}
#: every index a template read can land on: a history index or an unbound name
KEYS = [Ident(x, i) for x in "xy" for i in (None, -1, 0, 1, 2, 3, "m")]


def _terms(idents=IDENTS):
    leaves = st.one_of(
        st.sampled_from(VALUES).map(Lit),
        st.sampled_from(idents).map(Var),
        st.sampled_from(("k0", "c", "z", "g")).map(App))

    def extend(sub):
        return st.one_of(
            st.tuples(st.sampled_from(("+", "-", "*", "/", "min", "max")), sub, sub)
            .map(lambda a: BinOp(*a)),
            st.tuples(sub, st.sampled_from((0.0, 2.0, 3.0, 0.5, -1.0, math.inf)))
            .map(lambda a: BinOp("^", a[0], Lit(a[1]))),
            st.tuples(sub, sub).map(lambda a: BinOp("%", *a)),
            sub.map(Neg), sub.map(Abs),
            st.tuples(st.sampled_from(("f", "h", "c", "g")), st.lists(sub, min_size=1, max_size=2))
            .map(lambda a: App(a[0], tuple(a[1]))))

    return st.recursive(leaves, extend, max_leaves=12)


def _formulas():
    atoms = st.one_of(
        st.tuples(st.sampled_from(("=", "<", "<=", ">=", ">")), _terms(), _terms())
        .map(lambda a: Cmp(*a)),
        st.sampled_from((True, False)).map(BoolLit),
        st.just(Forall(Ident("q"), BoolLit(True))))

    def extend(sub):
        return st.one_of(sub.map(Not), st.tuples(st.sampled_from((And, Or, Imp)), sub, sub)
                         .map(lambda a: a[0](a[1], a[2])))

    return st.recursive(atoms, extend, max_leaves=8)


def _valuations():
    """Every key set, to a value or to UNDEF, or left out (None)."""
    return st.fixed_dictionaries({k: st.sampled_from(VALUES + (UNDEF, None)) for k in KEYS}) \
        .map(lambda d: {k: v for k, v in d.items() if v is not None})


def _same(a, b) -> bool:
    """The same outcome: the same error, UNDEF, the same bool object, or
    floats of the same type equal bit for bit, NaN equal to NaN."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if a is UNDEF or b is UNDEF or a is None or b is None or isinstance(a, (bool, type)):
        return a is b
    if type(a) is not type(b):
        return False
    if isinstance(a, str) or not isinstance(a, (float, np.floating)):
        return a == b
    return (math.isnan(a) and math.isnan(b)) or (
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


def _outcome(f):
    try:
        return f()
    except Exception as e:
        return type(e), str(e)


class TestTermsAndFormulas:
    @settings(max_examples=400, deadline=None)
    @given(t=_terms(), val=_valuations())
    def test_term_over_a_dict(self, t, val):
        fn = Module().term(t)
        assert _same(_outcome(lambda: fn(val, INTERP)),
                     _outcome(lambda: eval_term(t, INTERP, val)))

    @settings(max_examples=400, deadline=None)
    @given(f=_formulas(), val=_valuations())
    def test_formula_over_a_dict(self, f, val):
        fn = Module().formula(f)
        assert _same(_outcome(lambda: fn(val, INTERP)),
                     _outcome(lambda: eval_formula(f, INTERP, val)))

    @settings(max_examples=300, deadline=None)
    @given(t=_terms(), f=_formulas(), val=_valuations(),
           j=st.tuples(st.integers(-1, 3), st.integers(-1, 3)))
    def test_under_index_names(self, t, f, val, j):
        # x@i and y@k read at j, x@m (no such name) and x@1 as written
        ref = Bound(DictValuation(val), POS, j)
        fns = Module().term(t, NAMES), Module().formula(f, NAMES)
        got = DictValuation(val)
        assert _same(_outcome(lambda: fns[0](got, j, INTERP)),
                     _outcome(lambda: eval_term(t, INTERP, ref)))
        assert _same(_outcome(lambda: fns[1](got, j, INTERP)),
                     _outcome(lambda: eval_formula(f, INTERP, ref)))

    @pytest.mark.parametrize("f, val, expected", [
        (And(Cmp("<", Var(Ident("x")), Lit(0.0)), BoolLit(False)), {}, False),  # UNDEF & false
        (And(BoolLit(False), Forall(Ident("q"), BoolLit(True))), {}, False),  # never raises
        (Or(Cmp(">", BinOp("/", Lit(1.0), Var(Ident("x"))), Lit(0.0)), BoolLit(True)),
         {Ident("x"): -0.0}, True),
        (Imp(Cmp("=", Var(Ident("x")), Lit(1.0)), Cmp("<", Var(Ident("y")), Lit(0.0))),
         {Ident("x"): UNDEF}, UNDEF),
        (Cmp("<=", Var(Ident("x")), Lit(3.0)), {Ident("x"): np.float64(1.0)}, True),
    ])
    def test_kleene_cases(self, f, val, expected):
        fn = Module().formula(f)
        assert fn(val, INTERP) is expected
        assert eval_formula(f, INTERP, val) is expected

    def test_deeper_than_a_block_allows(self):
        # right-nested connectives and choices go into functions of their
        # own past MAX_DEPTH; a long left-nested sum stays flat
        n = 3 * MAX_DEPTH
        f = BoolLit(True)
        for k in range(n):
            f = (And, Or, Imp)[k % 3](Cmp("<", Var(Ident("x")), Lit(float(k))), f)
        s = Lit(0.0)
        for k in range(400):
            s = BinOp("+", s, Var(Ident("x")))
        ctrl = Test(BoolLit(True))
        for k in range(n):
            ctrl = Choice(Test(Cmp(">", Var(Ident("x")), Lit(float(k)))), ctrl)
        a = UNIT
        for k in range(n):
            a = ARight(a)
        fns = Module().formula(f), Module().term(s)
        code = controller_code(Module(), ctrl, None)
        for x in (-1.0, float(n) / 2, math.nan):
            val = {Ident("x"): x}
            assert _same(fns[0](val, {}), eval_formula(f, {}, val))
            assert _same(fns[1](val, {}), eval_term(s, {}, val))
            assert ctrl_monitor(code, val, a) is ctrl_monitor(interpreted(ctrl), val, a)


NOISE = (Ident("eta", "i"), Ident("nu"))


def _noise_terms():
    """Terms linear in the noise variables most of the time."""
    idents = IDENTS + NOISE
    leaves = st.one_of(st.sampled_from(VALUES).map(Lit), st.sampled_from(idents).map(Var),
                       st.just(App("c")))

    def extend(sub):
        return st.one_of(
            st.tuples(st.sampled_from(("+", "-", "*", "/", "min")), sub, sub)
            .map(lambda a: BinOp(*a)),
            sub.map(Neg), sub.map(Abs),
            st.tuples(st.sampled_from(("f", "c")), sub).map(lambda a: App(a[0], (a[1],))))

    return st.recursive(leaves, extend, max_leaves=10)


class TestLinearization:
    @settings(max_examples=400, deadline=None)
    @given(t=_noise_terms(), val=_valuations(), j=st.tuples(st.integers(-1, 3), st.integers(-1, 3)))
    def test_equals_lin(self, t, val, j):
        keys = {NOISE[0]: Ident("eta", j[0]), NOISE[1]: NOISE[1]}
        ref = Bound(DictValuation(val), POS, j)
        fn = Module().lin(t, NOISE, NAMES)
        assert _same(_outcome(lambda: fn(DictValuation(val), j, INTERP, keys)),
                     _outcome(lambda: _lin(t, INTERP, ref, keys)))


    def test_same_name_noise_variables_keep_the_reference(self):
        # eta@i and eta@3 share a key when i is bound to 3, so the template
        # keeps the reference _lin, which merges their coefficients
        strategy = (InferAssign(Ident("p"), Aggregate(("i",), parse_term("w@i"),
                                                      parse_term("eta@i + eta@3"))),)
        noise = {"eta": DistExpr("normal", (Lit(0.0), Lit(1.0)))}
        compiled = CompiledStrategy(strategy, {}, noise, ordered_free_vars)
        t, = compiled.templates
        code = {t: template_code(Module(), t)}
        for j in (3, 4):
            sa, = interpret_strategy(strategy, (AggregateAction(0.1, ((1.0, (j,)),)),), {},
                                     noise, compiled)
            val = {Ident("w", j): 1.0}
            assert eval_sbi(sa.sbi, {}, val, code=code) == eval_sbi(sa.sbi, {}, val)


# ---------------------------------------------------------------------------
# Bundled specs: monitor, execution and fallback

def _actions(space, malformed: bool):
    """Actions of ``space``; with ``malformed``, any node may have the
    wrong shape."""
    def node(sp):
        t = type(sp)
        if t is SpaceProd:
            out = st.tuples(node(sp.left), node(sp.right)).map(lambda a: APair(*a))
        elif t is SpaceSum:
            out = st.one_of(node(sp.left).map(ALeft), node(sp.right).map(ARight))
        elif t is SpaceReal:
            out = st.sampled_from(VALUES).map(AReal)
        else:
            out = st.just(UNIT)
        if malformed:
            out = st.one_of(out, st.sampled_from((UNIT, AReal(1.0), APair(UNIT, UNIT),
                                                  ALeft(UNIT), ARight(UNIT))))
        return out
    return node(space)


class TestBundledControllers:
    @pytest.mark.parametrize("name", ["train_local", "sisyphean", "train_global",
                                      "river", "acas"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_monitor_exec_and_fallback(self, specs, shields, name, data):
        spec = specs[name]
        code = shields[name].code
        malformed = data.draw(st.booleans())
        a = data.draw(_actions(derive_action_space(spec.ctrl), malformed))
        interp = {c: data.draw(st.sampled_from((0.5, 2.0, 3.0, 40.0, np.float64(1.0))))
                  for c in spec.consts}
        keys = sorted({Ident(v.name) for v in spec.state_vars} | set(spec.param_idents))
        state = {k: data.draw(st.one_of(st.floats(-1e3, 1e3), st.sampled_from(VALUES)))
                 for k in keys if data.draw(st.integers(0, 9))}
        ref = interpreted(spec.ctrl, spec.fallback)
        for f in (ctrl_monitor, ctrl_exec):
            assert _same(_outcome(lambda: f(code.ctrl, state, a, interp)),
                         _outcome(lambda: f(ref, state, a, interp)))
        # repr tells 2.0 from np.float64(2.0) and -0.0 from 0.0
        assert repr(_outcome(lambda: resolve_fallback(code.ctrl, state, interp))) \
            == repr(_outcome(lambda: resolve_fallback(ref, state, interp)))

    def test_random_controllers(self):
        # with a random fallback: a guarded case and an unguarded one
        gen = ControllerGen(77)
        resolved = violations = 0
        for _ in range(300):
            ctrl = gen.controller()
            a = gen.action_for(ctrl)
            s = gen.terms.valuation()
            fb = FallbackDecl(((gen.terms.formula(1), _fallback_case(gen, ctrl)),
                               (None, _fallback_case(gen, ctrl))))
            code = controller_code(Module(), ctrl, fb)
            ref = interpreted(ctrl, fb)
            assert ctrl_monitor(code, s, a) is ctrl_monitor(ref, s, a)
            assert _same(ctrl_exec(code, s, a), ctrl_exec(ref, s, a))
            got = _outcome(lambda: resolve_fallback(code, s))
            assert repr(got) == repr(_outcome(lambda: resolve_fallback(ref, s)))
            failed = type(got) is tuple and got[0] is FallbackViolation
            violations += failed
            resolved += not failed
        assert resolved and violations


def _fallback_case(gen: ControllerGen, ctrl) -> tuple:
    """The directive list of a random action of ``ctrl``, with a random
    term for each ``x := *``."""
    return tuple(d if isinstance(d, str) else gen.terms.term(2)
                 for d in directives_of(ctrl, gen.action_for(ctrl)))
