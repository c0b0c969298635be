"""Strategy interpretation and staged evaluation of bound instantiations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from adashield import tailbounds
from adashield.dl import (
    BinOp, Ident, Lit, UNDEF, conj, eval_formula, eval_term, free_vars,
    ordered_free_vars, parse_formula, parse_term, tag_with_index,
)
from adashield.runtime import Shield
from adashield.strategy import (
    FAILED, KEPT, TIGHTENED, Aggregate, AggregateAction, AggregateSBI, BOTTOM,
    CompiledStrategy, Direct, DistExpr, InferAssign, WindowSBI, empty_action, eval_sbi,
    _lin, interpret_strategy, observation_reads,
    referenced_indices, referenced_observations, strategy_action_space,
)
from adashield.tailbounds import Dist

from dl_oracle import instantiate_indices


def _z(eps):
    return math.sqrt(2.0) * float(special.erfinv(1 - 2 * eps))


def _read(strategy, action, dirs, noise, compiled=None):
    """What ``interpret_strategy`` makes of ``action``: per SBI its target,
    its kind and index bindings, and its tolerance."""
    return [(str(sa.param), type(sa.sbi), sa.sbi[1:], sa.eps)
            for sa in interpret_strategy(strategy, action, dirs, noise, compiled)]


def _changed(agg: AggregateAction, **fields) -> AggregateAction:
    """``agg`` with ``fields`` set after construction, past its checks."""
    for name, value in fields.items():
        object.__setattr__(agg, name, value)
    return agg


@pytest.fixture
def train_strategy(specs):
    spec = specs["train_local"]
    return spec, spec.infer, spec.directions, spec.noise_decls


class TestActionSpace:
    def test_descriptor(self, train_strategy):
        _, strategy, _, _ = train_strategy
        assert strategy_action_space(strategy) == (
            ("direct", 0), ("best", 1), ("aggregate", 1))

    def test_expanded_sugar_slots(self, specs):
        spec = specs["train_global"]
        assert strategy_action_space(spec.infer) == (
            ("aggregate", 2), ("aggregate", 2), ("aggregate", 1))

    def test_empty_strategy(self):
        assert strategy_action_space(()) == ()
        assert empty_action(()) == ()

    def test_shape_validation(self, train_strategy):
        _, strategy, dirs, noise = train_strategy
        empty = _read(strategy, empty_action(strategy), dirs, noise)
        assert empty == [("fbar", WindowSBI, (((),),), 0.0)]
        assert _read(strategy, (None, None), dirs, noise) == empty
        assert _read(strategy, (None, ((1, 2),), None), dirs, noise) == empty
        assert _read(strategy, (None, ((1,), (1, 2)), None), dirs, noise) == empty
        # an empty best slot makes no SBI; a non-empty one makes one
        assert _read(strategy, (None, (), None), dirs, noise) == empty
        fits = _read(strategy, (None, ((1,), (2,)), None), dirs, noise)
        assert fits == empty + [("fbar", WindowSBI, (((1,), (2,)),), 0.0)]

    @pytest.mark.parametrize("action", [
        None, [None, (), None], (None, ((1.0,),), None), (None, (("i",),), None),
        (None, (([1],),), None), (None, [(1,)], None),
        (None, (), AggregateAction(0.1, ((1.0, ("j",)),))),
        (None, (), _changed(AggregateAction(0.1, ((0.5, (1,)), (0.5, (2,)))),
                            dist=((1e308, (1,)), (1e308, (2,))))),
    ])
    def test_malformed_actions_rejected(self, train_strategy, action):
        # a malformed action reads as the empty one: the direct assignment
        _, strategy, dirs, noise = train_strategy
        empty = [("fbar", WindowSBI, (((),),), 0.0)]
        assert _read(strategy, action, dirs, noise) == empty
        compiled = CompiledStrategy(strategy, dirs, noise, ordered_free_vars)
        assert _read(strategy, action, dirs, noise, compiled) == empty


class TestAggregateAction:
    def test_weights_normalized(self):
        a = AggregateAction(0.1, ((2.0, (1,)), (6.0, (2,))))
        assert a.dist == ((0.25, (1,)), (0.75, (2,)))

    def test_positive_weights_required(self):
        with pytest.raises(ValueError):
            AggregateAction(0.1, ((0.0, (1,)), (1.0, (2,))))

    def test_eps_in_unit_interval(self):
        with pytest.raises(ValueError):
            AggregateAction(1.5, ((1.0, (1,)),))


class TestInterpret:
    def test_direct(self, train_strategy):
        spec, strategy, dirs, noise = train_strategy
        out = interpret_strategy(strategy, (None, (), None), dirs, noise)
        assert len(out) == 1
        sa = out[0]
        assert str(sa.param) == "fbar" and sa.eps == 0.0
        assert type(sa.sbi) is WindowSBI and sa.sbi.js == ((),)
        assert sa.sbi.template.assign is strategy[0]
        val = {}
        assert eval_sbi(sa.sbi, {"F": 3.0}, val) == ([TIGHTENED], None)
        assert val == {Ident("fbar"): 3.0}

    def test_best_two_instances(self, train_strategy):
        # one SBI for the window; its first entry tightens fbar, and its
        # second, which reads nothing at 7, is BOTTOM
        spec, strategy, dirs, noise = train_strategy
        out = interpret_strategy(strategy, (None, ((3,), (7,)), None), dirs, noise)
        assert len(out) == 2
        best = out[1]
        assert best.eps == 0.0 and best.sbi.js == ((3,), (7,))
        assert referenced_indices([best]) == {3, 7}
        val = {Ident("x"): 0.0, Ident("x", 3): 0.0, Ident("fbar", 3): 1.5}
        assert eval_sbi(best.sbi, {"k": 1.0}, val) == ([TIGHTENED, FAILED], None)
        assert val[Ident("fbar")] == 1.5
        val[Ident("fbar")] = 1.0
        assert eval_sbi(best.sbi, {"k": 1.0}, val) == ([KEPT, FAILED], None)
        assert val[Ident("fbar")] == 1.0

    def test_aggregate_eps_accounting(self, train_strategy):
        spec, strategy, dirs, noise = train_strategy
        act = AggregateAction(1e-8, ((0.3, (2,)), (0.7, (5,))))
        out = interpret_strategy(strategy, (None, (), act), dirs, noise)
        agg = out[-1]
        assert agg.eps == 1e-8
        assert type(agg.sbi) is AggregateSBI
        assert agg.sbi.dist == act.dist and agg.sbi.eps == 1e-8
        assert [str(v) for v, _ in agg.sbi.template.noise] == ["eta@i"]
        assert agg.sbi.template.tail == "up"
        reads = observation_reads([sa.sbi.template for sa in out], frozenset({"w"}))
        assert referenced_observations(out, reads) == {2: {"w"}, 5: {"w"}}

    def test_lower_bound_dual_tail(self, specs):
        spec = specs["river"]
        act = AggregateAction(0.01, ((1.0, (1,)),))
        out = interpret_strategy(spec.infer, (act, act), spec.directions,
                                 spec.noise_decls)
        tails = {str(sa.param): sa.sbi.template.tail for sa in out}
        assert tails == {"yb_lo": "lo", "yb_up": "up"}


def _actions(space, min_index=1, max_index=30):
    """Hypothesis strategy for well-formed actions of ``space``."""
    def index_tuple(n):
        return st.tuples(*[st.integers(min_index, max_index)] * n)

    def slot(kind, n):
        if kind == "direct":
            return st.none()
        if kind == "best":
            return st.none() | st.lists(index_tuple(n), max_size=6).map(tuple)
        dist = st.lists(st.tuples(st.floats(0.01, 1.0), index_tuple(n)),
                        min_size=1, max_size=4).map(tuple)
        return st.none() | st.builds(AggregateAction, st.floats(0.0, 1.0), dist)

    return st.tuples(*[slot(kind, n) for kind, n in space])


def _shape(sa):
    """A symbolic assignment with its template named by its assignment."""
    return sa.param, sa.eps, type(sa.sbi), sa.sbi.template.assign, sa.sbi[1:]


class TestCompiledStrategy:
    @pytest.mark.parametrize("name", ["train_local", "sisyphean", "train_global",
                                      "river", "acas"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_warm_equals_cold(self, specs, name, data):
        # a sequence of actions, the first one repeated at the end, through one
        # compiled strategy gives the SBIs a fresh interpretation gives
        spec = specs[name]
        compiled = CompiledStrategy(spec.infer, spec.directions, spec.noise_decls,
                                    spec.free_vars)
        actions = data.draw(st.lists(_actions(compiled.space), min_size=1, max_size=3))
        for action in actions + actions[:1]:
            warm = interpret_strategy(spec.infer, action, spec.directions,
                                      spec.noise_decls, compiled)
            cold = interpret_strategy(spec.infer, action, spec.directions,
                                      spec.noise_decls)
            assert [_shape(sa) for sa in warm] == [_shape(sa) for sa in cold]
            assert all(sa.sbi.template in compiled.templates for sa in warm)

    def test_state_dependent_noise_parameters(self):
        # a noise scale that mentions a state variable reads it at the
        # observation's index, and that index counts as referenced
        strategy = (InferAssign(Ident("p"), Aggregate(("i",), parse_term("w@i"),
                                                      parse_term("eta@i"))),)
        noise = {"eta": DistExpr("normal", (Lit(0.0), parse_term("x^2 + 1")))}
        act = AggregateAction(0.1, ((0.5, (3,)), (0.5, (4,))))
        sa, = interpret_strategy(strategy, (act,), {}, noise)
        assert referenced_indices([sa]) == {3, 4}
        val = {Ident("x"): 100.0, Ident("x", 3): 1.0, Ident("x", 4): 2.0,
               Ident("w", 3): 0.0, Ident("w", 4): 0.0}
        v, method = eval_sbi(sa.sbi, {}, val)
        # variance 0.25*(1 + 1) + 0.25*(4 + 1) of the weighted noise
        z = math.sqrt(2.0) * float(special.erfinv(0.8))
        assert abs(v - math.sqrt(1.75) * z) < 1e-9 and method == "gaussian"

    def test_sliding_window_reuses_instances(self, train_strategy):
        # the direct assignment is built once; a best slot's SBI binds the
        # shared template to the slot's tuple, as the action holds it
        _, strategy, dirs, noise = train_strategy
        compiled = CompiledStrategy(strategy, dirs, noise, ordered_free_vars)
        first = interpret_strategy(strategy, (None, ((1,), (2,), (3,)), None),
                                   dirs, noise, compiled)
        window = ((2,), (3,), (4,))
        second = interpret_strategy(strategy, (None, window, None), dirs, noise, compiled)
        assert second[0] is first[0]  # the direct assignment
        assert len(second) == 2 and second[1].sbi == WindowSBI(compiled.templates[1], window)
        assert second[1].sbi.template is first[1].sbi.template
        assert second[1].sbi.js is window

    def test_rejects_another_strategy(self, specs):
        spec = specs["train_local"]
        compiled = CompiledStrategy(spec.infer, spec.directions, spec.noise_decls,
                                    spec.free_vars)
        spec = specs["river"]
        with pytest.raises(ValueError):
            interpret_strategy(spec.infer, (None, None), spec.directions,
                               spec.noise_decls, compiled)


def _oracle(assign, slot, direction_of, noise_decls, interp, val):
    """The SBIs of one assignment instantiated as trees and evaluated with
    the term semantics: the reference for index-bound evaluation.  A list
    with what ``eval_sbi`` gives for the slot's SBI, if it has one: a
    window's outcomes, after tightening the target in ``val``, or an
    aggregate's ``(value, method)``, ``method`` the tail bound's or None."""
    body = assign.body
    names = list(getattr(body, "indices", ()))

    def guarded(guard, term):
        g = eval_formula(guard, interp, val)
        if g is UNDEF or not g:
            return BOTTOM
        r = eval_term(term, interp, val)
        return BOTTOM if r is UNDEF else r

    if not isinstance(body, Aggregate):
        # the budget loop run one SBI per entry: one evaluation per index tuple, each
        # one tightening the target in val for the next
        up = direction_of.get(assign.target) != "lo"
        out = []
        for j in (slot if names else ((),)):
            r = guarded(instantiate_indices(assign.guard, names, list(j)),
                        instantiate_indices(body.term, names, list(j)))
            if r is BOTTOM or not math.isfinite(r):
                out.append(FAILED)
                continue
            c = val.get(assign.target)
            if c is None or (r < c if up else r > c):
                val[assign.target] = r
                out.append(TIGHTENED)
            else:
                out.append(KEPT)
        return [(out, None)] if out else []

    guards, obs_sum, noise_sum, dists = [], None, None, {}
    for w, j in slot.dist:
        guards.append(instantiate_indices(assign.guard, names, list(j)))
        obs = BinOp("*", Lit(w), instantiate_indices(body.observable, names, list(j)))
        noise = BinOp("*", Lit(w), instantiate_indices(body.noise, names, list(j)))
        obs_sum = obs if obs_sum is None else BinOp("+", obs_sum, obs)
        noise_sum = noise if noise_sum is None else BinOp("+", noise_sum, noise)
        for v in free_vars(noise):
            if v.name in noise_decls:
                dists[v] = noise_decls[v.name]
    s = guarded(conj(guards), obs_sum)
    if s is BOTTOM:
        return [(BOTTOM, None)]
    for v, dx in dists.items():
        params = [eval_term(tag_with_index(t, v.index), interp, val) for t in dx.params]
        if UNDEF in params:
            return [(BOTTOM, None)]
        try:
            dists[v] = Dist(dx.kind, *params)
        except ValueError:
            return [(BOTTOM, None)]
    lin = _lin(noise_sum, interp, val, {v: v for v in dists})
    if lin is None:
        return [(BOTTOM, None)]
    c0, coeffs = lin
    r = tailbounds.invccdf([(c, dists[v]) for v, c in coeffs.items() if c != 0.0], c0, slot.eps,
                           tail="lo" if direction_of.get(assign.target) == "lo" else "up")
    if r is None:
        return [(BOTTOM, None)]
    return [(BOTTOM if not math.isfinite(r[0]) else s + r[0], r[1])]


def _outcome(f):
    """``f()``, or the type and text of what it raised."""
    try:
        return f()
    except Exception as e:
        return type(e), str(e)


def _exact(a, b) -> bool:
    """Equal values, bit for bit for floats; NaN equals NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return repr(a) == repr(b)
    return a is b or a == b


class TestIndexBoundDifferential:
    @pytest.mark.parametrize("name", ["train_local", "sisyphean", "train_global",
                                      "river", "acas"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_instantiated_oracle(self, specs, name, data):
        # random well-formed actions with indices in [-3, n + 3], duplicate
        # index tuples, and valuations with missing, NaN and infinite
        # values: index-bound evaluation, walking the templates' trees or
        # running the shield's generated code, gives the instantiated trees'
        # value, BOTTOM or raise, and the same tail methods
        spec = specs[name]
        n = data.draw(st.integers(1, 5))
        space = strategy_action_space(spec.infer)
        action = data.draw(_actions(space, min_index=-3, max_index=n + 3))
        interp = {c: data.draw(st.floats(0.01, 10.0)) for c in spec.consts}
        shield = Shield(spec, interp)
        names = sorted({v.name for v in spec.state_vars} | {p.name for p in spec.param_idents}
                       | set(spec.obs_names))
        keys = [Ident(x, i) for i in [None, *range(-3, n + 4)] for x in names]
        values = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(keys),
                                    max_size=len(keys)))
        val = dict(zip(keys, values))
        holes = data.draw(st.lists(st.tuples(st.sampled_from(keys), st.sampled_from(
            [None, 0.0, -0.0, math.nan, math.inf, -math.inf])), max_size=8))
        for key, value in holes:
            if value is None:
                val.pop(key, None)
            else:
                val[key] = value
        out = interpret_strategy(spec.infer, action, spec.directions, spec.noise_decls)
        expected = []
        for assign, slot in zip(spec.infer, action):
            if slot is not None or not getattr(assign.body, "indices", ()):
                after = dict(val)
                r = _outcome(lambda: _oracle(
                    assign, slot, spec.directions, spec.noise_decls, interp, after))
                expected.extend([(x, after) for x in r] if isinstance(r, list) else [(r, after)])
        compiled = interpret_strategy(spec.infer, action, spec.directions, spec.noise_decls,
                                      shield.strategy)
        assert len(out) == len(compiled) == len(expected)
        for sa, sc, (want, after) in zip(out, compiled, expected):
            # each SBI on its own copy of the valuation, which a window tightens
            for sbi, code in ((sa.sbi, None), (sc.sbi, shield.code.templates)):
                cur = dict(val)
                got = _outcome(lambda: eval_sbi(sbi, interp, cur, code=code))
                if isinstance(want, tuple) and isinstance(want[0], type):
                    assert got == want
                elif type(sbi) is WindowSBI:
                    assert list(got[0]) == want[0] and got[1] is None, (got, want)
                    assert list(cur) == list(after), (cur, after)
                    assert all(_exact(cur[k], after[k]) for k in cur), (cur, after)
                else:
                    assert _exact(got[0], want[0]) and got[1] == want[1], (got, want)


def _fit_slot(slot, kind, n):
    """``slot`` with every index tuple ``n`` long."""
    if slot is None or kind != "aggregate":
        return None
    return AggregateAction(slot.eps, tuple((w, j * n) for w, j in slot.dist))


class TestEvalSBI:
    def test_guard_false_is_bottom(self):
        strategy = (InferAssign(Ident("p"), Direct(Lit(5.0)), parse_formula("1 > 2")),)
        sa, = interpret_strategy(strategy, (None,), {}, {})
        val = {}
        assert eval_sbi(sa.sbi, {}, val) == ([FAILED], None) and val == {}

    def test_unbound_observation_is_bottom(self, train_strategy):
        spec, strategy, dirs, noise = train_strategy
        act = AggregateAction(1e-2, ((1.0, (3,)),))
        out = interpret_strategy(strategy, (None, (), act), dirs, noise)
        consts = {"F": 3.0, "k": 0.0025, "sigma": 0.1}
        val = {Ident("x"): 0.0, Ident("x", 3): 0.0}  # w@3 missing
        v, _ = eval_sbi(out[-1].sbi, consts, val)
        assert v is BOTTOM

    def test_two_point_gaussian_aggregate(self, train_strategy):
        # 0.3*(w2 + k|x-x2|) + 0.7*(w5 + k|x-x5|) + sqrt(0.34)... evaluated
        # at x = x2 = x5, sigma = 1, eps = 0.025: 1.7 + sqrt(0.58)*z_{0.025}
        spec, strategy, dirs, noise = train_strategy
        act = AggregateAction(0.025, ((0.3, (2,)), (0.7, (5,))))
        out = interpret_strategy(strategy, (None, (), act), dirs, noise)
        consts = {"F": 3.0, "k": 123.0, "sigma": 1.0}
        val = {Ident("x"): 4.0, Ident("x", 2): 4.0, Ident("x", 5): 4.0,
               Ident("w", 2): 1.0, Ident("w", 5): 2.0}
        v, method = eval_sbi(out[-1].sbi, consts, val)
        expected = 1.7 + math.sqrt(0.58) * _z(0.025)
        assert abs(v - expected) < 1e-9
        assert abs(v - 3.1926641) < 1e-6
        assert method == "gaussian"

    def test_gaussian_closed_form_property(self, train_strategy):
        # engine output == sum(li*(wi + k|x-xi|)) + sqrt(sum li^2)*sigma*z_eps
        spec, strategy, dirs, noise = train_strategy
        rng = np.random.default_rng(42)
        consts = {"F": 3.0, "k": 0.02, "sigma": 0.0}
        for trial in range(1000):
            n = int(rng.integers(1, 8))
            lam = rng.random(n) + 1e-6
            lam /= lam.sum()
            eps = float(rng.uniform(1e-9, 0.49))
            sigma = float(rng.uniform(0.01, 3.0))
            consts = {"F": 3.0, "k": float(rng.uniform(0, 0.1)), "sigma": sigma}
            idx = [int(i) for i in rng.choice(50, size=n, replace=False)]
            act = AggregateAction(eps, tuple((float(l), (i,)) for l, i in zip(lam, idx)))
            out = interpret_strategy(strategy, (None, (), act), dirs, noise)
            x = float(rng.uniform(-100, 100))
            val = {Ident("x"): x}
            for i in idx:
                val[Ident("x", i)] = float(rng.uniform(-100, 100))
                val[Ident("w", i)] = float(rng.uniform(-1, 1))
            v, _ = eval_sbi(out[-1].sbi, consts, val)
            expected = sum(
                w * (val[Ident("w", i)] + consts["k"] * abs(x - val[Ident("x", i)]))
                for w, (i,) in act.dist)
            expected += math.sqrt(sum(w * w for w, _ in act.dist)) * sigma * _z(eps)
            assert abs(v - expected) < 1e-9

    def test_ten_thousand_observation_aggregate(self, train_strategy):
        # observations w@i = 0.1*i at x@i = i, x = 0, uniform weights: the
        # mean of w@i + k*i plus sigma/sqrt(n) times the Gaussian quantile
        _, strategy, dirs, noise = train_strategy
        n, eps = 10_000, 1e-6
        consts = {"F": 3.0, "k": 0.0025, "sigma": 0.5}
        act = AggregateAction(eps, tuple((1.0 / n, (i,)) for i in range(1, n + 1)))
        val = {Ident("x"): 0.0}
        for i in range(1, n + 1):
            val[Ident("x", i)] = float(i)
            val[Ident("w", i)] = 0.1 * i
        out = interpret_strategy(strategy, (None, (), act), dirs, noise)
        v, method = eval_sbi(out[-1].sbi, consts, val)
        expected = sum((0.1 * i + consts["k"] * i) / n for i in range(1, n + 1))
        expected += consts["sigma"] / math.sqrt(n) * _z(eps)
        assert abs(v - expected) <= 1e-9 * abs(expected)
        assert method == "gaussian"

    @pytest.mark.parametrize("name", ["train_local", "sisyphean", "river", "acas"])
    def test_no_tolerance_raises(self, specs, name):
        # every eps in [0, 1] gives a value or BOTTOM, down to the least
        # positive float, for Gaussian, uniform and Bernoulli aggregates;
        # some tail bound is reached on each spec
        spec = specs[name]
        interp = {c: 0.5 for c in spec.consts}
        shield = Shield(spec, interp)
        keys = {v.name for t in shield.strategy.templates for v in t.fixed} | {
            name for t in shield.strategy.templates for name, _ in t.indexed}
        val = {Ident(x, i): 0.5 for x in keys | set(spec.obs_names) for i in (None, 1, 2)}
        methods = set()
        for eps in (0.0, 5e-324, 1e-310, 1e-17, 5.6e-17, 1e-16, 1e-9, 0.5, 1.0):
            act = AggregateAction(eps, ((0.5, (1,)), (0.5, (2,))))
            slots = tuple(act if kind == "aggregate" else None
                          for kind, _ in shield.strategy.space)
            slots = tuple(_fit_slot(slot, kind, n)
                          for slot, (kind, n) in zip(slots, shield.strategy.space))
            for sa in interpret_strategy(spec.infer, slots, spec.directions,
                                         spec.noise_decls, shield.strategy):
                for code in (None, shield.code.templates):
                    v, method = eval_sbi(sa.sbi, interp, dict(val), code=code)
                    if type(sa.sbi) is WindowSBI:
                        assert set(v) <= {KEPT, TIGHTENED, FAILED}
                    else:
                        assert v is BOTTOM or math.isfinite(v)
                    methods.add(method)
        assert methods - {None}

    def test_state_dependent_noise_scale(self, specs):
        # the river noise component |x_i| * eta_i picks up the historical
        # position as a coefficient
        spec = specs["river"]
        act = AggregateAction(0.025, ((1.0, (4,)),))
        out = interpret_strategy(spec.infer, (act, act), spec.directions,
                                 spec.noise_decls)
        consts = {"V": 2.0, "W": 1.0, "T": 1.0, "sigma": 1.0}
        val = {Ident("x", 4): -3.0, Ident("w", 4): 10.0}
        hi, _ = eval_sbi(out[1].sbi, consts, val)  # yb_up
        lo, _ = eval_sbi(out[0].sbi, consts, val)  # yb_lo
        assert abs(hi - (10.0 + 3.0 * _z(0.025))) < 1e-9
        assert abs(lo - (10.0 - 3.0 * _z(0.025))) < 1e-9

    def test_nonlinear_noise_is_bottom(self):
        strategy = (InferAssign(Ident("p"), Aggregate(("i",), Lit(0.0),
                                                      parse_term("eta@i * eta@i"))),)
        noise = {"eta": DistExpr("normal", (Lit(0.0), Lit(1.0)))}
        sa, = interpret_strategy(strategy, (AggregateAction(0.1, ((1.0, (1,)),)),),
                                 {}, noise)
        assert eval_sbi(sa.sbi, {}, {}) == (BOTTOM, None)

    def test_linearize_distributes(self):
        t = parse_term("(w@2 - w@1)/(u@2 - u@1)")
        val = {Ident("u", 1): 1.0, Ident("u", 2): 3.0}
        out = _lin(t, {}, val, {Ident("w", 1): Ident("w", 1), Ident("w", 2): Ident("w", 2)})
        c0, coeffs = out
        assert c0 == 0.0
        assert coeffs == {Ident("w", 2): 0.5, Ident("w", 1): -0.5}


class TestSoundnessDeskCheck:
    def test_gaussian_aggregate_violation_rate(self, train_strategy):
        # resample 10k histories with a fixed ground truth; the evaluated
        # bound may undershoot it with frequency at most eps (+3 MC sigmas)
        spec, strategy, dirs, noise = train_strategy
        eps = 0.05
        sigma = 0.7
        rng = np.random.default_rng(7)
        consts = {"F": 3.0, "k": 0.0025, "sigma": sigma}
        f_true = 1.23
        n_obs, trials = 6, 10_000
        act = AggregateAction(eps, tuple((1.0 / n_obs, (i,)) for i in range(1, n_obs + 1)))
        out = interpret_strategy(strategy, (None, (), act), dirs, noise)
        sbi = out[-1].sbi
        x = 0.0
        violations = 0
        for _ in range(trials):
            val = {Ident("x"): x}
            etas = rng.normal(0.0, sigma, n_obs)
            for i in range(1, n_obs + 1):
                val[Ident("x", i)] = x  # co-located, so the bound is exact
                val[Ident("w", i)] = f_true - etas[i - 1]
            v, _ = eval_sbi(sbi, consts, val)
            assert v is not BOTTOM
            if f_true > v:
                violations += 1
        limit = eps + 3 * math.sqrt(eps * (1 - eps) / trials)
        assert violations / trials <= limit
