"""Generated code against the reference semantics.

``eval_term``, ``eval_formula`` and ``strategy._lin`` are the reference;
the code a ``Module`` generates must give the same value, bit for bit, or
raise the same error, on any input: random trees, valuations with holes,
UNDEF, NaN, infinities, signed zeros and numpy floats, and the controller
replay and fallback of every bundled spec and of random controllers with
random fallbacks.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from adashield.actions import (
    ALeft, APair, AReal, ARight, FallbackViolation, SpaceProd, SpaceReal, SpaceSum, UNIT,
    controller_code, ctrl_exec, ctrl_monitor, derive_action_space, interpreted,
    make_action, resolve_fallback,
)
from adashield.dl import (
    Abs, And, App, Assign, AssignAny, BinOp, BoolLit, Choice, Cmp, Forall, Ident, Imp,
    Lit, Module, Neg, Not, Or, Seq, Test, UNDEF, Var, eval_formula, eval_term,
    ordered_free_vars, parse_formula, parse_program, parse_term,
)
from adashield.dl.codegen import MAX_DEPTH
from adashield.specfile import FallbackDecl
from adashield.runtime import KahanLedger, Shield
from adashield.strategy import (
    BOTTOM, Aggregate, AggregateAction, Best, Bound, CompiledStrategy, DictValuation, Direct,
    DistExpr, InferAssign, TIGHTENED, WindowSBI, _lin, eval_sbi, interpret_strategy,
    template_code,
)
from adashield.strategy import interpreted as reference_evaluator

from dl_oracle import AtStep, per_entry_window
from test_adversarial import _hostile_slot
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
        fn = Module(INTERP).term(t)
        assert _same(_outcome(lambda: fn(val)),
                     _outcome(lambda: eval_term(t, INTERP, val)))

    @settings(max_examples=400, deadline=None)
    @given(f=_formulas(), val=_valuations())
    def test_formula_over_a_dict(self, f, val):
        fn = Module(INTERP).formula(f)
        assert _same(_outcome(lambda: fn(val)),
                     _outcome(lambda: eval_formula(f, INTERP, val)))

    @settings(max_examples=300, deadline=None)
    @given(t=_terms(), f=_formulas(), val=_valuations(),
           j=st.tuples(st.integers(-1, 3), st.integers(-1, 3)))
    def test_under_index_names(self, t, f, val, j):
        # x@i and y@k read at j, x@m (no such name) and x@1 as written
        ref = Bound(DictValuation(val), POS, j)
        m = Module(INTERP)
        fns = (m.function("val, j", NAMES, None,
                          lambda b: b.emit(f"return {b.term(t, 'return UNDEF')}")),
               m.function("val, j", NAMES, None,
                          lambda b: b.emit(f"return {b.formula(f)}")))
        got = DictValuation(val)
        assert _same(_outcome(lambda: fns[0](got, j)),
                     _outcome(lambda: eval_term(t, INTERP, ref)))
        assert _same(_outcome(lambda: fns[1](got, j)),
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
        fn = Module(INTERP).formula(f)
        assert fn(val) is expected
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
        # the innermost choice's test fails at x <= 0, in a function of its
        # own, and the assignments after it still run
        ctrl = Seq(Test(Cmp(">", Var(Ident("x")), Lit(0.0))), Assign(Ident("y"), Var(Ident("x"))))
        a = APair(UNIT, UNIT)
        for k in range(n):
            ctrl = Choice(Test(Cmp(">", Var(Ident("x")), Lit(float(k)))), ctrl)
            a = ARight(a)
        ctrl, a = Seq(ctrl, Assign(Ident("z"), Lit(1.0))), APair(a, UNIT)
        fns = Module({}).formula(f), Module({}).term(s)
        code = controller_code(Module({}), ctrl, None)
        verdicts = []
        for x in (-1.0, float(n) / 2, math.nan):
            val = {Ident("x"): x}
            assert _same(fns[0](val), eval_formula(f, {}, val))
            assert _same(fns[1](val), eval_term(s, {}, val))
            got = _replayed(code, val, a)
            assert _same(got, _replayed(interpreted(ctrl), val, a))
            assert _same(got[1], {Ident("x"): x, Ident("y"): x, Ident("z"): 1.0})
            verdicts.append(got[0])
        assert verdicts == [False, True, False]


NOISE = (Ident("eta", "i"), Ident("nu"))


def _noise_terms(noise=NOISE):
    """Terms linear in the noise variables most of the time."""
    idents = IDENTS + noise
    leaves = st.one_of(st.sampled_from(VALUES).map(Lit), st.sampled_from(idents).map(Var),
                       st.just(App("c")))

    def extend(sub):
        return st.one_of(
            st.tuples(st.sampled_from(("+", "-", "*", "/", "min")), sub, sub)
            .map(lambda a: BinOp(*a)),
            sub.map(Neg), sub.map(Abs),
            st.tuples(st.sampled_from(("f", "c")), sub).map(lambda a: App(a[0], (a[1],))))

    return st.recursive(leaves, extend, max_leaves=10)


def _lin_code(t, noise: tuple, names: tuple):
    """``_lin(t, INTERP, val, k)`` as ``f(val, j, k)``: the code
    ``Body.lin`` emits inline in an aggregate, as a function of its own."""
    def emit(b):
        r = b.lin(t, noise, "return None")
        if r is not None:
            c0, cs = r
            b.emit(f"return {c0}, {{{', '.join(f'k[{b.const(v)}]: {c}' for v, c in cs)}}}")

    return Module(INTERP).function("val, j, k", names, None, emit)


class TestLinearization:
    @settings(max_examples=400, deadline=None)
    @given(t=_noise_terms(), val=_valuations(), j=st.tuples(st.integers(-1, 3), st.integers(-1, 3)))
    def test_equals_lin(self, t, val, j):
        keys = {NOISE[0]: Ident("eta", j[0]), NOISE[1]: NOISE[1]}
        ref = Bound(DictValuation(val), POS, j)
        fn = _lin_code(t, NOISE, NAMES)
        assert _same(_outcome(lambda: fn(DictValuation(val), j, keys)),
                     _outcome(lambda: _lin(t, INTERP, ref, keys)))


    def test_same_name_noise_variables_keep_the_reference(self):
        # eta@i and eta@3 share a key when i is bound to 3, so the template
        # keeps the reference _lin, which merges their coefficients
        strategy = (InferAssign(Ident("p"), Aggregate(("i",), parse_term("w@i"),
                                                      parse_term("eta@i + eta@3"))),)
        noise = {"eta": DistExpr("normal", (Lit(0.0), Lit(1.0)))}
        compiled = CompiledStrategy(strategy, {}, noise, ordered_free_vars)
        t, = compiled.templates
        code = {t: template_code(Module({}), t, frozenset({"w"}))}
        for j in (3, 4):
            sa, = interpret_strategy(strategy, (AggregateAction(0.1, ((1.0, (j,)),)),), {},
                                     noise, compiled)
            val = {Ident("w", j): 1.0}
            assert eval_sbi(sa.sbi, {}, val, code=code) == eval_sbi(sa.sbi, {}, val)


# ---------------------------------------------------------------------------
# One evaluator per template: generated against the reference

_MISSING = object()


class _Surfaced(DictValuation):
    """Observations kept apart, as ``runtime.StepValuation`` keeps those it
    surfaced: ``obs`` sees them, ``at`` does not."""

    __slots__ = ("surfaced",)

    def __init__(self, values: dict, surfaced: dict):
        super().__init__(values)
        self.surfaced = surfaced

    def obs(self, key, i):
        x = self.surfaced.get((key[0], i), _MISSING)
        return self.at(key, i) if x is _MISSING else x


#: the observation name of the templates below: ``y``, read only through ``obs``
OBS = frozenset({"y"})
#: hyperparameters per distribution kind, mostly in its domain: constants, a
#: callable constant and state variables, which an indexed noise variable
#: reads at its index
_P = frozenset(INTERP)
DISTS = st.one_of(
    st.tuples(st.sampled_from(("0", "-0.0", "x", "k0")),
              st.sampled_from(("1", "0", "x^2 + 1", "k0", "c", "abs(y)", "x"))
              ).map(lambda p: DistExpr("normal", tuple(parse_term(q, _P) for q in p))),
    st.tuples(st.sampled_from(("-1", "0", "-c", "x")),
              st.sampled_from(("1", "c", "x^2 + 1", "abs(y)"))
              ).map(lambda p: DistExpr("uniform", tuple(parse_term(q, _P) for q in p))),
    st.sampled_from(("0.3", "0", "1", "k0", "min(abs(x), 1)", "g")
                    ).map(lambda q: DistExpr("bernoulli", (parse_term(q, _P),))))


def _observables():
    """Terms with no operator that raises, over the index names and not."""
    leaves = st.one_of(st.sampled_from(VALUES[:8]).map(Lit), st.sampled_from(IDENTS).map(Var),
                       st.sampled_from(("k0", "c")).map(App))

    def extend(sub):
        return st.one_of(
            st.tuples(st.sampled_from(("+", "-", "*", "min")), sub, sub).map(lambda a: BinOp(*a)),
            sub.map(Neg), sub.map(Abs), sub.map(lambda a: App("f", (a,))))

    return st.recursive(leaves, extend, max_leaves=8)


def _template(observable, noise, guard, decls, tail):
    strategy = (InferAssign(Ident("p"), Aggregate(NAMES, observable, noise), guard),)
    compiled = CompiledStrategy(strategy, {Ident("p"): tail}, decls, ordered_free_vars)
    return compiled.templates[0]


def _both(t, val, dist, eps, interp=INTERP):
    """The generated evaluator's outcome and the reference's."""
    gen = template_code(Module(interp), t, OBS)
    ref = reference_evaluator(t, interp)
    return (_outcome(lambda: gen(val, dist, eps)),
            _outcome(lambda: ref(val, dist, eps)))


class TestTemplateEvaluators:
    @settings(max_examples=500, deadline=None)
    @given(obs_term=_observables(), noise=_noise_terms(NOISE + (Ident("eta", "k"), Ident("eta", 1))),
           guard=st.one_of(
               st.just(BoolLit(True)), _formulas(),
               st.tuples(st.sampled_from(("<", ">=")), _observables(), _observables())
               .map(lambda a: Cmp(*a))),
           eta=DISTS, nu=DISTS, val=_valuations(), surfaced=st.dictionaries(
               st.tuples(st.just("y"), st.integers(-1, 3)), st.sampled_from(VALUES + (UNDEF,))),
           dist=st.lists(st.tuples(st.sampled_from((1.0, 0.5, 0.25, 1e-3, 3.0, 0.0, -0.0)),
                                   st.tuples(st.integers(-1, 3), st.integers(-1, 3))),
                         min_size=1, max_size=6),
           eps=st.sampled_from((0.0, 5e-324, 1e-9, 0.05, 0.5, 1.0)),
           tail=st.sampled_from(("up", "lo")))
    def test_aggregate_equals_reference(self, obs_term, noise, guard, eta, nu, val,
                                        surfaced, dist, eps, tail):
        # random guards, observables and noise terms over eta@i, eta@k,
        # eta@1 and nu, of any two kinds, with hyperparameters that read an
        # index name (eta@i's, from a state variable) or not, pairs that
        # repeat and eta keys that meet; the observation y surfaced apart
        t = _template(obs_term, noise, guard, {"eta": eta, "nu": nu}, tail)
        got, want = _both(t, _Surfaced(val, surfaced), tuple(dist), eps)
        assert _same(got, want), (got, want)

    @pytest.mark.parametrize("noise, eta, nu, dist, val", [
        # a pair repeated, with eta@i's variance read at its index
        ("eta@i", ("normal", "0", "x^2 + 1"), None, ((0.5, (1, 0)), (0.25, (1, 0)), (0.25, (2, 0))),
         {Ident("x", 1): 2.0, Ident("x", 2): 3.0}),
        # zero and signed-zero coefficients, which invccdf does not see
        ("0*eta@i + -0.0*nu + 0.5*eta@i", ("uniform", "-1", "1"), ("bernoulli", "0.3"),
         ((0.5, (1, 0)), (0.5, (2, 0))), {}),
        ("-0.0*eta@i - nu", ("bernoulli", "0.2"), ("normal", "0", "c"),
         ((1.0, (1, 0)),), {}),
        # uniform, Bernoulli and Gaussian mixes
        ("eta@i + nu", ("uniform", "0", "x"), ("bernoulli", "0.5"),
         ((0.5, (1, 0)), (0.5, (2, 0))), {Ident("x", 1): 1.0, Ident("x", 2): 2.0}),
        ("eta@i - 2*nu", ("normal", "1", "k0"), ("uniform", "-c", "c"),
         ((0.25, (1, 0)), (0.75, (3, 0))), {}),
        ("eta@i*abs(x@i) + nu", ("bernoulli", "0.9"), ("normal", "0", "1"),
         ((0.5, (1, 0)), (0.5, (1, 0))), {Ident("x", 1): -3.0}),
        # nu's variance reads the index name i, though nu has no index
        ("2*nu", None, ("normal", "0", "x@i^2 + 1"),
         ((0.5, (1, 0)), (0.5, (2, 0))), {Ident("x", 1): 1.0, Ident("x", 2): 2.0}),
        # eta@i and eta@k meet at the first pair and part at the second
        ("c*eta@i + eta@k", ("normal", "0", "1"), None, ((0.5, (0, 0)), (0.5, (1, 0))), {}),
        # x*0 in the guard and x*-0 in the observable are equal as trees,
        # but x*-0 is -0.0: on the lower tail the bound of a zero noise sum
        # is -0.0, so the value keeps the observable's sign of zero
        ("0*eta@i", ("normal", "0", "1"), None, ((1.0, (1, 0)),), {Ident("y", 1): -0.0}),
        # eta@3, eta@4 and eta read no index name, but their variances
        # differ: each keeps a Dist of its own
        ("eta@3 + 2*eta@4", ("normal", "0", "x^2 + 1"), None, ((1.0, (1, 0)),),
         {Ident("x", 3): 1.0, Ident("x", 4): 10.0}),
        ("eta + eta@3", ("uniform", "-1", "x^2 + 1"), None, ((0.5, (1, 0)), (0.5, (2, 0))),
         {Ident("x", 3): 3.0}),
    ])
    @pytest.mark.parametrize("eps", [1e-9, 0.05])
    @pytest.mark.parametrize("tail", ["up", "lo"])
    def test_aggregate_cases(self, noise, eta, nu, dist, val, eps, tail):
        decls = {name: DistExpr(d[0], tuple(parse_term(p, _P) for p in d[1:]))
                 for name, d in (("eta", eta), ("nu", nu)) if d is not None}
        t = _template(parse_term("y@i + x*-0"), parse_term(noise, _P), parse_formula("x*0 >= 0"),
                      decls, tail)
        val = {Ident("x"): 0.5, **{Ident("y", j[0]): 0.1 * j[0] for _, j in dist}, **val}
        got, want = _both(t, DictValuation(val), dist, eps)
        assert _same(got, want) and got[0] is not BOTTOM, (got, want)

    def test_guard_undefined_then_false(self):
        # the guards are conjoined left to right: UNDEF on the first pair,
        # False on the second, and the third never evaluated
        calls = []
        interp = {"f": lambda x: calls.append(x) or x}
        t = _template(parse_term("y@i"), parse_term("eta@i"), parse_formula("f(x@i) > 0"),
                      {"eta": DistExpr("normal", (Lit(0.0), Lit(1.0)))}, "up")
        val = DictValuation({Ident("x", 2): -1.0, Ident("x", 3): 1.0, Ident("y", 3): 1.0})
        dist = ((0.25, (1, 0)), (0.5, (2, 0)), (0.25, (3, 0)))
        for f in (template_code(Module(interp), t, OBS), reference_evaluator(t, interp)):
            calls.clear()
            assert f(val, dist, 0.1) == (BOTTOM, None)
            assert calls == [-1.0]

    def test_bound_equals_reference(self, specs):
        # the fused guard and body of every direct and best template, over a
        # window of two entries, or the one entry of a direct template
        for spec in specs.values():
            shield_templates = CompiledStrategy(spec.infer, spec.directions, spec.noise_decls,
                                                spec.free_vars).templates
            for t in shield_templates:
                if isinstance(t.assign.body, Aggregate):
                    continue
                interp = {c: 2.0 for c in spec.consts}
                gen = template_code(Module(interp), t, spec.obs_names)
                ref = reference_evaluator(t, interp)
                js = ((1,) * len(t.names), (2,) * len(t.names)) if t.names else ((),)
                for x in VALUES + (UNDEF,):
                    values = {(v.name, i): x for v in spec.state_vars for i in (None, 1, 2)}
                    a, b = DictValuation(dict(values)), DictValuation(dict(values))
                    assert _same(_outcome(lambda: tuple(gen(a, js))),
                                 _outcome(lambda: tuple(ref(b, js))))
                    assert _same(a.current, b.current)

    def test_ten_thousand_pairs_through_the_shield(self, specs):
        spec = specs["train_local"]
        consts = {"F": 3.0, "k": 0.0025, "sigma": 0.5}
        shield = Shield(spec, consts)
        n = 10_000
        act = AggregateAction(1e-6, tuple((1.0 / n, (i,)) for i in range(1, n + 1)))
        val = {Ident("x"): 0.0}
        for i in range(1, n + 1):
            val[Ident("x", i)] = float(i)
            val[Ident("w", i)] = 0.1 * i
        sa = interpret_strategy(spec.infer, (None, (), act), spec.directions, spec.noise_decls,
                                shield.strategy)[-1]
        got = eval_sbi(sa.sbi, consts, val, code=shield.code.templates)
        assert _same(got, eval_sbi(sa.sbi, consts, val)) and got[1] == "gaussian"

    def test_constant_evaluated_once_per_call(self, specs):
        # k, a callable constant, is read at every pair of the observable
        # w@i + k*abs(x - x@i): the generated aggregate calls it once
        spec = specs["train_local"]
        calls = []
        consts = {"F": 3.0, "k": lambda: calls.append(1) or 0.0025, "sigma": 0.5}
        shield = Shield(spec, consts)
        act = AggregateAction(1e-3, tuple((0.2, (i,)) for i in range(1, 6)))
        val = {Ident("x"): 0.0, **{Ident(x, i): 0.1 * i for x in "xw" for i in range(1, 6)}}
        sa = interpret_strategy(spec.infer, (None, (), act), spec.directions, spec.noise_decls,
                                shield.strategy)[-1]
        for _ in range(2):
            calls.clear()
            v, method = eval_sbi(sa.sbi, shield.interp, val, code=shield.code.templates)
            assert v is not BOTTOM and method == "gaussian" and len(calls) == 1


# ---------------------------------------------------------------------------
# What the constants decide at generation: generated against the reference

class _Calls:
    """A callable constant that logs each call under its name."""

    def __init__(self, name: str, log: list, value=0.5):
        self.name, self.log, self.value = name, log, value

    def __call__(self, *args):
        self.log.append((self.name, args))
        return self.value


class TestConstantBinding:
    @pytest.mark.parametrize("text", [
        "g + x", "x + g", "x*g(x, y)", "f(g, x)", "g^2", "c + g",  # g is unbound
        "k0 + x*k0", "f(x, k0) - k0", "k0^2", "x/k0", "abs(k0)",  # k0 is callable
        "c*x", "x - c", "-c", "z*x",  # bound to reals
    ])
    def test_unbound_and_callable_constants(self, text):
        # an unbound symbol fails where it is evaluated, before its
        # arguments; a callable one is called on every use, in the same
        # order as the reference calls it
        t = parse_term(text, frozenset(INTERP) | {"g"})
        for x in (1.5, -0.0, math.nan, UNDEF):
            got_log, ref_log = [], []
            val = {Ident("x"): x, Ident("y"): 2.0}
            got = Module({**INTERP, "k0": _Calls("k0", got_log)}).term(t)
            ref = {**INTERP, "k0": _Calls("k0", ref_log)}
            assert _same(_outcome(lambda: got(val)), _outcome(lambda: eval_term(t, ref, val)))
            assert got_log == ref_log

    @pytest.mark.parametrize("divisor", [0, 0.0, -0.0, 2, 2.0, np.float64(-0.0), math.nan,
                                         math.inf])
    def test_literal_divisors(self, divisor):
        # no zero test for a divisor other than zero; a division by zero
        # fails once the dividend is defined, as in the reference
        t = BinOp("/", Var(Ident("x")), Lit(divisor))
        fn = Module({}).term(t)
        f = Module({}).formula(Cmp(">=", t, Lit(0.0)))
        for x in VALUES + (UNDEF,):
            val = {Ident("x"): x}
            assert _same(_outcome(lambda: fn(val)), _outcome(lambda: eval_term(t, {}, val)))
            assert _same(_outcome(lambda: f(val)),
                         _outcome(lambda: eval_formula(Cmp(">=", t, Lit(0.0)), {}, val)))

    @pytest.mark.parametrize("divisor", ["0", "-0.0", "2", "c", "z"])
    def test_literal_divisors_in_a_noise_term(self, divisor):
        t = parse_term(f"(x + eta@i)/{divisor} + nu", _P)
        keys = {NOISE[0]: Ident("eta", 1), NOISE[1]: NOISE[1]}
        fn = _lin_code(t, NOISE, NAMES)
        for x in VALUES + (UNDEF,):
            val = {Ident("x"): x}
            assert _same(_outcome(lambda: fn(DictValuation(val), (1, 0), keys)),
                         _outcome(lambda: _lin(t, INTERP, Bound(DictValuation(val), POS, (1, 0)),
                                               keys)))

    @pytest.mark.parametrize("base", [1e200, -1e200, math.inf, -math.inf, math.nan, 2.0, -0.0,
                                      np.float64(1e200), np.float64(math.nan)])
    @pytest.mark.parametrize("exponent", [0.0, 1.0, 2.0, 3, 0.5, -1.0, math.inf, math.nan])
    def test_literal_powers(self, base, exponent):
        # x ^ n inline: the base as a literal, a constant and a variable
        for t, interp, val in ((BinOp("^", Lit(base), Lit(exponent)), {}, {}),
                               (BinOp("^", App("b"), Lit(exponent)), {"b": base}, {}),
                               (BinOp("^", Var(Ident("x")), Lit(exponent)), {},
                                {Ident("x"): base})):
            with np.errstate(over="ignore", invalid="ignore"):
                got = _outcome(lambda: Module(interp).term(t)(val))
                assert _same(got, _outcome(lambda: eval_term(t, interp, val))), (t, got)

    @pytest.mark.parametrize("n", [2, 3, 307, 308, 400, 1000])
    def test_int_constant_to_a_large_power(self, n):
        # an int constant's power is an int; past the float range the
        # finiteness test raises OverflowError in both, as power() does
        t = BinOp("^", App("m"), Lit(float(n)))
        interp = {"m": 10}
        got = _outcome(lambda: Module(interp).term(t)({}))
        assert _same(got, _outcome(lambda: eval_term(t, interp, {})))
        assert (type(got) is tuple) is (n > 308)

    @pytest.mark.parametrize("eta, nu, fails", [
        (("normal", "0", "g"), None, True),  # a hyperparameter reads an unbound symbol
        (("normal", "0", "-1"), None, True),  # a negative variance
        (("normal", "0", "-c"), None, True),
        (("uniform", "c", "0"), None, True),  # an empty support
        (("bernoulli", "2"), None, True),  # p outside [0, 1]
        (("bernoulli", "g"), None, True),
        (("normal", "0", "c^2"), ("bernoulli", "c"), True),  # the second one fails
        (("bernoulli", "c"), ("normal", "0", "c^2"), True),  # the first one fails
        (("normal", "0", "k0"), ("uniform", "1", "-1"), True),  # after a callable one
        (("uniform", "1", "-1"), ("normal", "0", "k0"), True),  # before a callable one
        (("normal", "0", "c^2"), ("uniform", "-c", "c"), False),  # both built
        (("normal", "0", "c^2"), ("normal", "0", "k0"), False),  # one built
    ])
    def test_closed_hyperparameters(self, eta, nu, fails):
        # a Dist whose hyperparameters read no variable is built once;
        # undefined or outside its domain it is BOTTOM at the same stage:
        # the observable's callable has run, the noise term's has not
        decls = {name: DistExpr(d[0], tuple(parse_term(p, _P | {"g"}) for p in d[1:]))
                 for name, d in (("eta", eta), ("nu", nu)) if d is not None}
        noise = "eta@i*f(x@i) + nu" if nu else "f(x@i)*eta@i"
        t = _template(parse_term("f(y@i, x)", _P), parse_term(noise, _P), BoolLit(True), decls, "up")
        val = DictValuation({Ident("x"): 0.5, Ident("x", 1): 2.0, Ident("y", 1): 1.0,
                             Ident("x", 2): 3.0, Ident("y", 2): 4.0})
        dist = ((0.5, (1, 0)), (0.5, (2, 0)))
        logs = []
        for gen in (True, False):
            log = []
            interp = {"c": 2.0, "f": _Calls("f", log), "k0": _Calls("k0", log)}
            f = template_code(Module(interp), t, OBS) if gen else reference_evaluator(t, interp)
            logs.append((_outcome(lambda: f(val, dist, 0.05)), log))
        assert _same(logs[0][0], logs[1][0]) and logs[0][1] == logs[1][1], logs
        (value, _), log = logs[0]
        assert (value is BOTTOM) is fails
        # f(y@i, x) of the observable ran at both pairs; f(x@i) of the noise
        # term ran only where the Dists were all built
        assert [len(args) for name, args in log if name == "f"] == [2, 2] + [1, 1] * (not fails)


# ---------------------------------------------------------------------------
# A window: generated, reference, and one SBI per entry

def _ledger(adds) -> KahanLedger:
    led = KahanLedger(1.0)
    for x in adds:
        led.add(x)
    return led


def _budget_loops(sbis, values: dict, n: int, interp, adds, code) -> list:
    """The window SBIs ``sbis`` run in order three ways, each on its own
    copies of ``values`` and of a ledger after ``adds``: as the budget loop
    runs them, one ledger add and one call per SBI, with ``code``'s
    evaluators, generated against ``interp``, and with the reference ones,
    and one SBI per entry.  Per way, per SBI its entries' outcomes (or what
    it raised), ``val.current`` and the ledger's state."""
    runs = []
    for how in ("generated", "reference", "per entry"):
        val, led = AtStep(dict(values), n), _ledger(adds)

        def run():
            outcomes = []
            for sbi in sbis:
                t = sbi.template
                if how == "per entry":
                    outcomes.append(tuple(per_entry_window(t, sbi.js, val, interp, led)))
                    continue
                led.add(0.0)
                f = code[t] if how == "generated" else reference_evaluator(t, interp)
                outcomes.append(tuple(f(val, sbi.js)))
            return tuple(outcomes)

        runs.append((_outcome(run), val.current, (led._sum, led._comp)))
    return runs


#: history indices a window entry may hold past those in range; big ints
#: are well formed
_ODD_INDICES = (0, -1, 2 ** 70, -(2 ** 70), 10 ** 30, -(10 ** 30))
_ADDS = st.lists(st.one_of(st.floats(0.0, 1e-2), st.sampled_from(
    [0.0, 5e-324, 1e-300, 1e-7, 0.1, 1 / 3])), max_size=6)


def _window(data, width: int, n: int) -> tuple:
    """A best slot of ``width``-long index tuples, with entries in and past
    the history of step ``n`` and repeated ones, or, one time in four, a
    slot of ``_hostile_slot``; and whether the slot is malformed."""
    if data.draw(st.integers(0, 3)) == 0:
        return data.draw(_hostile_slot("best", width)), True
    index = st.one_of(st.integers(-1, n + 1), st.sampled_from(_ODD_INDICES))
    js = data.draw(st.lists(st.tuples(*[index] * width), max_size=8))
    if js and data.draw(st.booleans()):
        js += js[:data.draw(st.integers(1, len(js)))]
    return tuple(js), False


def _check_windows(strategy, compiled, code, action, malformed, values, n, interp, adds):
    """``action`` interpreted: a malformed slot gives the direct SBIs
    alone, and the window SBIs run the same three ways, bit for bit."""
    sas = interpret_strategy(strategy, action, {}, {}, compiled)
    if malformed:
        assert sas == list(compiled.empty)
    sbis = [sa.sbi for sa in sas if type(sa.sbi) is WindowSBI]
    assert all(sbi.js for sbi in sbis)  # an empty best slot makes no SBI
    gen, ref, per_entry = _budget_loops(sbis, values, n, interp, adds, code)
    assert _same(gen, ref), (gen, ref)
    assert _same(gen, per_entry), (gen, per_entry)


class TestWindows:
    @pytest.mark.parametrize("name", ["train_local", "sisyphean", "train_global",
                                      "river", "acas"])
    @settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
    @given(data=st.data())
    def test_bundled_templates(self, specs, name, data):
        # the direct and best templates of each bundled spec, in strategy
        # order, over valuations with holes, UNDEF, NaN, infinities and
        # signed zeros, and windows with odd, repeated or hostile entries
        spec = specs[name]
        n = data.draw(st.integers(1, 4))
        names = sorted({v.name for v in spec.state_vars} | {p.name for p in spec.param_idents})
        keys = [Ident(x, i) for i in [None, *range(-1, n + 2)] for x in names]
        drawn = data.draw(st.lists(st.sampled_from(VALUES + (UNDEF, None)),
                                   min_size=len(keys), max_size=len(keys)))
        values = {k: v for k, v in zip(keys, drawn) if v is not None}
        interp = {c: data.draw(st.sampled_from((0.5, 2.0, -0.0, math.inf, 3.0))) for c in spec.consts}
        shield = Shield(spec, interp)
        action, malformed = [], False
        for kind, width in shield.strategy.space:
            slot = None
            if kind == "best":
                slot, malformed = _window(data, width, n)
            action.append(slot)
        _check_windows(spec.infer, shield.strategy, shield.code.templates, tuple(action),
                       malformed, values, n, interp, data.draw(_ADDS))

    @settings(max_examples=400, deadline=None, suppress_health_check=list(HealthCheck))
    @given(term=_terms(), guard=st.one_of(st.just(BoolLit(True)), _formulas()),
           tail=st.sampled_from(("up", "lo")), val=_valuations(), data=st.data())
    def test_synthetic_best_templates(self, term, guard, tail, val, data):
        # random guards and terms over x, which is the target, x@1, x@i and
        # y@k, read at n as x is when an entry's index is n, after a direct
        # assignment of the same target
        strategy = (InferAssign(Ident("x"), Direct(Lit(data.draw(st.sampled_from(VALUES))))),
                    InferAssign(Ident("x"), Best(NAMES, term), guard))
        compiled = CompiledStrategy(strategy, {Ident("x"): tail}, {}, ordered_free_vars)
        m = Module(INTERP)
        code = {t: template_code(m, t, OBS) for t in compiled.templates}
        n = data.draw(st.integers(1, 3))
        direct = data.draw(st.sampled_from([None, None, ()]))
        slot, malformed = _window(data, len(NAMES), n)
        _check_windows(strategy, compiled, code, (direct, slot), malformed, val, n, INTERP,
                       data.draw(_ADDS))

    def test_target_is_never_hoisted(self):
        # fbar and fbar@2 read the target, which each entry tightens, so
        # neither is kept in a slot: at n = 2 each entry reads what the one
        # before it left
        strategy = (InferAssign(Ident("fbar"),
                                Best(("i",), parse_term("x@i + (fbar + fbar@2)/2 - 1"))),)
        compiled = CompiledStrategy(strategy, {}, {}, ordered_free_vars)
        t, = compiled.templates
        code = {t: template_code(Module({}), t, frozenset())}
        values = {Ident("fbar"): 10.0, Ident("x", 1): 0.0, Ident("x", 3): 0.0}
        sa, = interpret_strategy(strategy, (((1,), (3,), (1,)),), {}, {}, compiled)
        gen, ref, per_entry = _budget_loops([sa.sbi], values, 2, {}, [], code)
        assert _same(gen, ref) and _same(gen, per_entry)
        outcomes, current, _ = gen
        assert outcomes == ((TIGHTENED,) * 3,)
        assert current[Ident("fbar")] == 7.0


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
    def test_monitor_exec_and_fallback(self, specs, name, data):
        spec = specs[name]
        malformed = data.draw(st.booleans())
        a = data.draw(_actions(derive_action_space(spec.ctrl), malformed))
        interp = {c: data.draw(st.sampled_from((0.5, 2.0, 3.0, 40.0, np.float64(1.0))))
                  for c in spec.consts}
        code = controller_code(Module(interp), spec.ctrl, spec.fallback)
        keys = sorted({Ident(v.name) for v in spec.state_vars} | set(spec.param_idents))
        state = {k: data.draw(st.one_of(st.floats(-1e3, 1e3), st.sampled_from(VALUES)))
                 for k in keys if data.draw(st.integers(0, 9))}
        ref = interpreted(spec.ctrl, spec.fallback, interp)
        for f in (ctrl_monitor, ctrl_exec):
            assert _same(_outcome(lambda: f(code, state, a)),
                         _outcome(lambda: f(ref, state, a)))
        # repr tells 2.0 from np.float64(2.0) and -0.0 from 0.0
        assert repr(_outcome(lambda: resolve_fallback(code, state))) \
            == repr(_outcome(lambda: resolve_fallback(ref, state)))

    def test_random_controllers(self):
        # with a random fallback: a guarded case and an unguarded one
        gen = ControllerGen(77)
        resolved = violations = past_failures = 0
        for _ in range(300):
            ctrl = gen.controller()
            a = gen.action_for(ctrl)
            s = gen.terms.valuation()
            fb = FallbackDecl(((gen.terms.formula(1), _fallback_case(gen, ctrl)),
                               (None, _fallback_case(gen, ctrl))))
            code = controller_code(Module({}), ctrl, fb)
            ref = interpreted(ctrl, fb)
            assert _same(_replayed(code, s, a), _replayed(ref, s, a))
            past_failures += _assigns_after_a_failing_test(ctrl, s, a)
            got = _outcome(lambda: resolve_fallback(code, s))
            assert repr(got) == repr(_outcome(lambda: resolve_fallback(ref, s)))
            failed = type(got) is tuple and got[0] is FallbackViolation
            violations += failed
            resolved += not failed
        assert resolved and violations
        assert past_failures > 0


class TestUndefinedAssignment:
    """An assignment whose value is UNDEF fails the replay as a failing
    test does, with or without a test after it, and a fallback whose path
    runs one raises ``FallbackViolation``: generated and reference alike."""

    @pytest.mark.parametrize("text, directives, ok", [
        # an undeclared symbol, before a test that holds
        ("y := min(m0n(y, fbar), fbar); {?(x <= 0); a := A ++ a := -A}", ["left"], False),
        ("y := min(m0n(y, fbar), fbar); {?(x <= 0); a := A ++ a := -A}", ["right"], False),
        # a constant the interpretation does not bind, with no test after it
        ("{?(x <= 0); a := B ++ a := -A}", ["left"], False),
        ("{?(x <= 0); a := B ++ a := -A}", ["right"], True),
        # a division by zero, an unset variable, and a defined value
        ("a := x / z; ?(x <= 0)", [], False),
        ("a := w", [], False),
        ("a := z * x; ?(x <= 0)", [], True),
    ])
    def test_generated_and_reference_replays_agree(self, text, directives, ok):
        ctrl = parse_program(text, frozenset({"A", "B"}))
        interp = {"A": 2.0}
        fb = FallbackDecl(((None, tuple(directives)),))
        code = controller_code(Module(interp), ctrl, fb)
        ref = interpreted(ctrl, fb, interp)
        a = make_action(ctrl, directives)
        state = {Ident("x"): -1.0, Ident("y"): 1.0, Ident("fbar"): 2.0, Ident("z"): 0.0}
        got = _replayed(code, state, a)
        assert _same(got, _replayed(ref, state, a))
        assert got[0] is ok
        assert _same(_outcome(lambda: ctrl_monitor(code, state, a)),
                     _outcome(lambda: ctrl_monitor(ref, state, a)))
        fallback = _outcome(lambda: resolve_fallback(code, state))
        assert repr(fallback) == repr(_outcome(lambda: resolve_fallback(ref, state)))
        assert (fallback[0] is FallbackViolation) is not ok


def _replayed(ev, state: dict, a) -> tuple:
    """The verdict and post-state of ``ev``'s replay of ``a`` from ``state``."""
    out = dict(state)
    return ev.replay(out, a), out


def _assigns_after_a_failing_test(ctrl, state: dict, a) -> bool:
    """Whether the path of ``a`` through ``ctrl`` runs an assignment after a
    test that does not hold in its intermediate state."""
    cur = dict(state)
    failed = False
    todo = [(ctrl, a)]
    while todo:
        p, act = todo.pop()
        t = type(p)
        if t is Seq:
            todo += [(p.right, act.right), (p.left, act.left)]
        elif t is Choice:
            todo.append((p.left, act.action) if type(act) is ALeft else (p.right, act.action))
        elif t is Test:
            r = eval_formula(p.cond, {}, cur)
            failed = failed or r is UNDEF or not r
        elif failed:
            return True
        else:
            cur[p.var] = float(act.value) if t is AssignAny else eval_term(p.term, {}, cur)
    return False


def _fallback_case(gen: ControllerGen, ctrl) -> tuple:
    """The directive list of a random action of ``ctrl``, with a random
    term for each ``x := *``."""
    return tuple(d if isinstance(d, str) else gen.terms.term(2)
                 for d in directives_of(ctrl, gen.action_for(ctrl)))
