"""Strategy interpretation and staged evaluation of bound instantiations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from adashield.dl import BoolLit, Ident, Lit, parse_formula, parse_term
from adashield.strategy import (
    ActionShapeError, Aggregate, AggregateAction, BOTTOM, CompiledStrategy,
    DistExpr, GuardedSBI, InferAssign, InvCCDFNode, SumSBI, TermSBI,
    empty_action, eval_sbi,
    interpret_strategy, linearize, sbi_free_vars, strategy_action_space,
    validate_action,
)


def _z(eps):
    return math.sqrt(2.0) * float(special.erfinv(1 - 2 * eps))


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
        _, strategy, _, _ = train_strategy
        with pytest.raises(ActionShapeError):
            validate_action(strategy, (None, None))
        with pytest.raises(ActionShapeError):
            validate_action(strategy, (None, ((1, 2),), None))
        validate_action(strategy, (None, ((1,), (2,)), None))

    @pytest.mark.parametrize("action", [
        None, [None, (), None], (None, ((1.0,),), None), (None, (("i",),), None),
        (None, (([1],),), None), (None, [(1,)], None),
        (None, (), AggregateAction(0.1, ((1.0, ("j",)),))),
    ])
    def test_malformed_actions_rejected(self, train_strategy, action):
        _, strategy, dirs, noise = train_strategy
        with pytest.raises(ActionShapeError):
            validate_action(strategy, action)
        with pytest.raises(ActionShapeError):
            interpret_strategy(strategy, action, dirs, noise)


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
        assert sa.sbi == GuardedSBI(TermSBI(parse_term("F", symbols=frozenset({"F"}))),
                                    BoolLit(True))

    def test_best_two_instances(self, train_strategy):
        spec, strategy, dirs, noise = train_strategy
        out = interpret_strategy(strategy, (None, ((3,), (7,)), None), dirs, noise)
        assert len(out) == 3
        bests = out[1:]
        assert all(sa.eps == 0.0 for sa in bests)
        assert Ident("fbar", 3) in sbi_free_vars(bests[0].sbi)
        assert Ident("fbar", 7) in sbi_free_vars(bests[1].sbi)

    def test_aggregate_eps_accounting(self, train_strategy):
        spec, strategy, dirs, noise = train_strategy
        act = AggregateAction(1e-8, ((0.3, (2,)), (0.7, (5,))))
        out = interpret_strategy(strategy, (None, (), act), dirs, noise)
        agg = out[-1]
        assert agg.eps == 1e-8
        assert isinstance(agg.sbi, GuardedSBI)
        assert isinstance(agg.sbi.body, SumSBI)
        node = agg.sbi.body.right
        assert isinstance(node, InvCCDFNode)
        assert [str(k) for k, _ in node.bindings] == ["eta@2", "eta@5"]
        assert node.tail == "up"

    def test_lower_bound_dual_tail(self, specs):
        spec = specs["river"]
        act = AggregateAction(0.01, ((1.0, (1,)),))
        out = interpret_strategy(spec.infer, (act, act), spec.directions,
                                 spec.noise_decls)
        tails = {str(sa.param): sa.sbi.body.right.tail for sa in out}
        assert tails == {"yb_lo": "lo", "yb_up": "up"}


def _actions(space, max_index=30):
    """Hypothesis strategy for well-formed actions of ``space``."""
    def index_tuple(n):
        return st.tuples(*[st.integers(1, max_index)] * n)

    def slot(kind, n):
        if kind == "direct":
            return st.none()
        if kind == "best":
            return st.none() | st.lists(index_tuple(n), max_size=6).map(tuple)
        dist = st.lists(st.tuples(st.floats(0.01, 1.0), index_tuple(n)),
                        min_size=1, max_size=4).map(tuple)
        return st.none() | st.builds(AggregateAction, st.floats(0.0, 1.0), dist)

    return st.tuples(*[slot(kind, n) for kind, n in space])


class TestCompiledStrategy:
    @pytest.mark.parametrize("name", ["train_local", "sisyphean", "train_global",
                                      "river", "acas"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_warm_equals_cold(self, specs, name, data):
        # a sequence of actions, the first one repeated at the end, through one
        # compiled strategy gives the SBIs a fresh interpretation gives, and
        # every assignment carries its SBI's free variables
        spec = specs[name]
        compiled = CompiledStrategy(spec.infer)
        actions = data.draw(st.lists(_actions(compiled.space), min_size=1, max_size=3))
        for action in actions + actions[:1]:
            warm = interpret_strategy(spec.infer, action, spec.directions,
                                      spec.noise_decls, compiled)
            cold = interpret_strategy(spec.infer, action, spec.directions,
                                      spec.noise_decls)
            assert warm == cold
            for sa in warm:
                assert sa.free_vars == sbi_free_vars(sa.sbi)

    def test_state_dependent_noise_parameters(self):
        # a noise scale that mentions a state variable is tagged with the
        # observation's index, and its variables are free in the SBI
        strategy = (InferAssign(Ident("p"), Aggregate(("i",), parse_term("w@i"),
                                                      parse_term("eta@i"))),)
        noise = {"eta": DistExpr("normal", (Lit(0.0), parse_term("x^2 + 1")))}
        act = AggregateAction(0.1, ((0.5, (3,)), (0.5, (4,))))
        sa, = interpret_strategy(strategy, (act,), {}, noise)
        assert sa.free_vars == sbi_free_vars(sa.sbi)
        assert {Ident("x", 3), Ident("x", 4)} <= sa.free_vars

    def test_best_memo_holds_two_interpretations(self, train_strategy):
        # 10^4 fresh indices on each of 5 steps: only the last two steps'
        # instantiations stay
        _, strategy, dirs, noise = train_strategy
        compiled = CompiledStrategy(strategy)
        n = 10_000
        for step in range(5):
            window = tuple((step * n + i,) for i in range(1, n + 1))
            out = interpret_strategy(strategy, (None, window, None), dirs, noise, compiled)
            assert len(out) == n + 1
            held = {**compiled.previous, **compiled.current}
            assert len(held) <= 2 * n
        assert {j[0] for _, j in held} == set(range(3 * n + 1, 5 * n + 1))

    def test_sliding_window_reuses_instances(self, train_strategy):
        _, strategy, dirs, noise = train_strategy
        compiled = CompiledStrategy(strategy)
        first = interpret_strategy(strategy, (None, ((1,), (2,), (3,)), None),
                                   dirs, noise, compiled)
        second = interpret_strategy(strategy, (None, ((2,), (3,), (4,)), None),
                                    dirs, noise, compiled)
        assert second[1] is first[2] and second[2] is first[3]
        assert second[0] is first[0]  # the direct assignment

    def test_rejects_another_strategy(self, specs):
        compiled = CompiledStrategy(specs["train_local"].infer)
        spec = specs["river"]
        with pytest.raises(ValueError):
            interpret_strategy(spec.infer, (None, None), spec.directions,
                               spec.noise_decls, compiled)


class TestEvalSBI:
    def test_guard_false_is_bottom(self):
        sbi = GuardedSBI(TermSBI(Lit(5.0)), parse_formula("1 > 2"))
        v, _ = eval_sbi(sbi, {}, {})
        assert v is BOTTOM

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
        v, meta = eval_sbi(out[-1].sbi, consts, val)
        expected = 1.7 + math.sqrt(0.58) * _z(0.025)
        assert abs(v - expected) < 1e-9
        assert abs(v - 3.1926641) < 1e-6
        assert meta["methods"] == ["gaussian"]

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
            lam = [w for w, _ in out[-1].sbi.body.left.term and act.dist]
            expected = sum(
                w * (val[Ident("w", i)] + consts["k"] * abs(x - val[Ident("x", i)]))
                for w, (i,) in act.dist)
            expected += math.sqrt(sum(w * w for w, _ in act.dist)) * sigma * _z(eps)
            assert abs(v - expected) < 1e-9

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
        node = InvCCDFNode(
            bindings=((Ident("eta", 1), DistExpr("normal", (Lit(0.0), Lit(1.0)))),),
            target=parse_term("eta@1 * eta@1"),
            eps=Lit(0.1))
        v, _ = eval_sbi(node, {}, {})
        assert v is BOTTOM

    def test_linearize_distributes(self):
        t = parse_term("(w@2 - w@1)/(u@2 - u@1)")
        val = {Ident("u", 1): 1.0, Ident("u", 2): 3.0}
        out = linearize(t, {}, val, frozenset({Ident("w", 1), Ident("w", 2)}))
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
