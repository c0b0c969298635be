"""Spec-file parsing and static well-formedness checking."""

from collections import Counter

import pytest

from adashield.dl import Ident, ParseError, transform
from adashield.obligations import gen_obligations
from adashield.runtime import Shield
from adashield.specfile import load_spec, parse_spec
from adashield.checks import (
    ARITY_MISMATCH, ASSUMPTION_FREE_VARS, CTRL_STRUCTURE, FALLBACK_MISSING,
    FALLBACK_SHAPE, LOCAL_IN_INVARIANT, LOCAL_WITHOUT_DEFAULT,
    MODIFIES_NONSTATE, NOISE_HYPERPARAMS, NOISE_IN_AGG_OBSERVABLE,
    OBS_IN_AGG_NOISE, PARAM_IN_BOUND, PARAM_IN_OBS, PARAM_IN_PLANT,
    PARAM_IN_SAFE, UNDECLARED_INDEX, UNKNOWN_IN_CTRL, UNKNOWN_IN_STRATEGY,
    check_spec,
)
from adashield.cli import bundled_spec_path

from conftest import BUNDLED


class TestParseBundled:
    def test_train_local(self, specs):
        spec = specs["train_local"]
        assert spec.unknowns == (("f", 1),)
        assert len(spec.bounds) == 1
        b = spec.bounds[0]
        assert (str(b.param), b.direction, b.locality) == ("fbar", "up", "local")
        assert len(spec.infer) == 3

    def test_train_global(self, specs):
        spec = specs["train_global"]
        assert len(spec.bounds) == 3
        assert all(b.locality == "global" for b in spec.bounds)
        dirs = {str(b.param): b.direction for b in spec.bounds}
        assert dirs == {"theta_lo": "lo", "theta_up": "up", "phi_up": "up"}
        # merged-assignment sugar expands to one assignment per target
        assert [str(a.target) for a in spec.infer] == ["theta_lo", "theta_up", "phi_up"]

    def test_river(self, specs):
        spec = specs["river"]
        assert {b.param: b.locality for b in spec.bounds} == {
            Ident("yb_lo"): "global", Ident("yb_up"): "global"}
        assert len(spec.infer) == 2

    def test_acas_classification(self, specs):
        # bounds at the running time t are local; bounds at the fixed times
        # 0 and tm (and on c) are global
        spec = specs["acas"]
        locality = {str(b.param): b.locality for b in spec.bounds}
        assert locality == {
            "c_lo": "global",
            "vint_lo": "local", "vint_up": "local",
            "hint_lo": "local", "hint_up": "local",
            "h0int_lo": "global", "h0int_up": "global",
            "hmint_lo": "global", "hmint_up": "global",
        }
        assert len(spec.infer) == 15

    def test_all_bundled_check_clean(self, specs):
        for name, spec in specs.items():
            assert check_spec(spec) == [], name

    def test_state_var_inference(self, specs):
        spec = specs["sisyphean"]
        assert spec.state_vars == frozenset(
            {Ident("x"), Ident("v"), Ident("y"), Ident("a"), Ident("t")})


def _bundled(name: str) -> str:
    with open(bundled_spec_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


class TestParseErrors:
    def test_section_out_of_order(self):
        text = """
        constant A
        infer
          p := A
        bound p: p >= A
        controller x := 1
        plant {x' = 1}
        safe x <= 1
        invariant x <= 1
        """
        with pytest.raises(ParseError) as e:
            parse_spec(text)
        assert "out of order" in str(e.value)

    def test_duplicate_section(self):
        with pytest.raises(ParseError) as e:
            parse_spec("constant A constant B controller x := 1 plant {x' = 1} "
                       "safe x <= 1 invariant x <= 1")
        assert "duplicate" in str(e.value)

    def test_missing_required_section(self):
        with pytest.raises(ParseError) as e:
            parse_spec("constant A")
        assert "missing required section" in str(e.value)

    def test_error_carries_location(self):
        try:
            parse_spec("controller x := ;")
        except ParseError as e:
            assert e.line >= 1 and e.col >= 1
        else:
            pytest.fail("expected a parse error")

    @pytest.mark.parametrize("old, new, verb", [
        ("controller\n  vx := *;", "controller\n  V := *; vx := *;", "assign to"),
        ("plant\n  t := 0;", "plant\n  V := 0; t := 0;", "assign to"),
        ("t' = 1 & t <= T}", "t' = 1, V' = 1 & t <= T}", "evolve"),
    ])
    def test_assigning_to_a_symbol_is_a_parse_error(self, old, new, verb):
        # V is a declared constant of river.shield
        text = _mutated(_bundled("river"), old, new)
        at = text.index(new) + new.index("V")
        with pytest.raises(ParseError) as e:
            parse_spec(text)
        assert f"cannot {verb} declared symbol 'V'" in str(e.value)
        assert (e.value.line, e.value.col) == (text.count("\n", 0, at) + 1,
                                               at - text.rfind("\n", 0, at))

    def test_direction_not_inferrable(self):
        text = ("unknown q bound p: p*p <= q controller x := 1 plant {x' = 1} "
                "safe x <= 1 invariant x <= 1")
        with pytest.raises(ParseError) as e:
            parse_spec(text)
        assert "not inferrable" in str(e.value)




def _mutated(source: str, old: str, new: str) -> str:
    assert old in source, f"mutation anchor {old!r} missing"
    return source.replace(old, new, 1)


@pytest.fixture(scope="module")
def source():
    with open(bundled_spec_path("train_local"), "r", encoding="utf-8") as fh:
        return fh.read()


class TestCheckMutations:
    """Each single-clause violation of the rules fires exactly its diagnostic."""

    def _diag_codes(self, text):
        return [d.code for d in check_spec(parse_spec(text))]

    def test_local_param_in_invariant(self, source):
        text = _mutated(source, "invariant\n  v >= 0", "invariant\n  fbar >= 0 & v >= 0")
        assert self._diag_codes(text) == [LOCAL_IN_INVARIANT]

    def test_local_param_without_default(self, source):
        text = _mutated(source, "fbar := F;\n", "")
        assert self._diag_codes(text) == [LOCAL_WITHOUT_DEFAULT]

    def test_guarded_default_rejected(self, source):
        text = _mutated(source, "fbar := F;", "fbar := F when v >= 0;")
        assert self._diag_codes(text) == [LOCAL_WITHOUT_DEFAULT]

    def test_param_in_plant(self, source):
        text = _mutated(source, "v' = a + f(x)", "v' = a + fbar")
        assert PARAM_IN_PLANT in self._diag_codes(text)

    def test_param_in_safe(self, source):
        text = _mutated(source, "safe x <= 0", "safe x <= fbar")
        assert PARAM_IN_SAFE in self._diag_codes(text)

    def test_param_in_observation(self, source):
        text = _mutated(source, "observe w = f(x) - eta", "observe w = fbar - eta")
        assert PARAM_IN_OBS in self._diag_codes(text)

    def test_unknown_in_controller(self, source):
        text = _mutated(source, "y := min(y, fbar);", "y := min(y, f(x));")
        assert UNKNOWN_IN_CTRL in self._diag_codes(text)

    def test_controller_ode_rejected(self, source):
        text = _mutated(source, "y := min(y, fbar);", "{y' = 1}; y := min(y, fbar);")
        assert CTRL_STRUCTURE in self._diag_codes(text)

    def test_controller_quantified_test_rejected(self, source):
        text = _mutated(source, "?(x + v*T", "?(\\forall q q >= 0); ?(x + v*T")
        assert CTRL_STRUCTURE in self._diag_codes(text)

    def test_assignment_to_parameter_rejected(self, source):
        text = _mutated(source, "y := min(y, fbar);", "fbar := 0; y := min(y, fbar);")
        assert MODIFIES_NONSTATE in self._diag_codes(text)

    def test_assumption_with_free_variable(self, source):
        text = _mutated(source, "assume\n  A > 0", "assume\n  x0 > 0, A > 0")
        assert ASSUMPTION_FREE_VARS in self._diag_codes(text)

    def test_noise_hyperparameter_restriction(self, source):
        text = _mutated(source, "eta ~ N(0, sigma^2)", "eta ~ N(0, fbar^2)")
        assert NOISE_HYPERPARAMS in self._diag_codes(text)

    def test_indexed_noise_hyperparameter_rejected(self):
        # an aggregate reads hyperparameters at its noise variable's index,
        # which an indexed variable already carries
        with open(bundled_spec_path("acas"), "r", encoding="utf-8") as fh:
            text = _mutated(fh.read(), "etav ~ N(0, sigv^2)", "etav ~ N(0, sigv^2 + 0*h@3)")
        assert NOISE_HYPERPARAMS in self._diag_codes(text)

    def test_noise_in_observable_component(self, source):
        text = _mutated(source, "aggregate i: w@i + k*abs(x - x@i) and eta@i",
                        "aggregate i: w@i + eta@i and eta@i")
        assert NOISE_IN_AGG_OBSERVABLE in self._diag_codes(text)

    def test_observation_in_noise_component(self, source):
        text = _mutated(source, "aggregate i: w@i + k*abs(x - x@i) and eta@i",
                        "aggregate i: w@i and w@i + eta@i")
        assert OBS_IN_AGG_NOISE in self._diag_codes(text)

    def test_undeclared_index_name(self, source):
        text = _mutated(source, "fbar := best i: fbar@i + k*abs(x - x@i)",
                        "fbar := best i: fbar@j + k*abs(x - x@i)")
        assert UNDECLARED_INDEX in self._diag_codes(text)

    def test_arity_mismatch(self, source):
        text = _mutated(source, "observe w = f(x) - eta", "observe w = f(x, v) - eta")
        assert ARITY_MISMATCH in self._diag_codes(text)

    @pytest.mark.parametrize("old, new, n", [
        ("assume V > 0", "assume V(1) > 0", 1),
        ("yb_lo: yb_lo <= yb,", "yb_lo: yb_lo <= yb(1),", 1),
        ("abs(vx) <= V &", "abs(vx) <= V(1) &", 1),
        ("t' = 1 & t <= T}", "t' = 1 & t <= T(1)}", 1),
        ("safe x = 0 -> y >= yb - W", "safe x = 0 -> y >= yb - W(1)", 1),
        ("invariant x = 0 -> y >= yb_up - W", "invariant x = 0 -> y >= yb_up - W(1)", 1),
        ("N(0, sigma^2)", "N(0, sigma(1)^2)", 1),
        ("observe w = yb -", "observe w = yb(1) -", 1),
        ("fallback 0, 0, 0", "fallback V(1), 0, 0", 1),
        ("fallback 0, 0, 0", "fallback\n  when V(1) > 0: 0, 0, 0\n  else: 0, 0, 0", 1),
        ("initial yb_lo = -10", "initial yb_lo = -W(2)", 1),
        # the merged assignment is one per target, yb_lo and yb_up
        ("and abs(x@i)*eta@i", "and abs(x@i)*eta@i*T(1)", 2),
        ("and abs(x@i)*eta@i", "and abs(x@i)*eta@i when T(1) > 0", 2),
    ])
    def test_arity_mismatch_in_every_section(self, old, new, n):
        text = _mutated(_bundled("river"), old, new)
        assert self._diag_codes(text) == [ARITY_MISMATCH] * n

    def test_unknown_in_strategy(self, source):
        text = _mutated(source, "fbar := best i: fbar@i + k*abs(x - x@i)",
                        "fbar := best i: f(x@i) + k*abs(x - x@i)")
        assert UNKNOWN_IN_STRATEGY in self._diag_codes(text)

    def test_fallback_missing(self, source):
        text = _mutated(source, "fallback right\n", "")
        assert FALLBACK_MISSING in self._diag_codes(text)

    def test_fallback_wrong_shape(self, source):
        text = _mutated(source, "fallback right", "fallback right, 1")
        assert FALLBACK_SHAPE in self._diag_codes(text)

    def test_foreign_param_in_bound(self):
        text = """
        constant A
        unknown q, r
        assume A > 0
        bound p: p >= q, p2: p2 >= r + p
        controller x := A
        plant {x' = 1}
        safe x >= 0
        invariant x >= 0
        fallback
        """
        # fallback section with an empty template is a shape error too, so
        # check only for the bound diagnostic
        with pytest.raises(ParseError):
            parse_spec(text)  # empty fallback template does not parse

    def test_foreign_param_in_bound_diagnostic(self):
        text = """
        constant A
        unknown q, r
        assume A > 0
        bound p: p >= q, p2: p2 >= r + p
        controller x := A
        plant {x' = 1}
        safe x >= 0
        invariant x >= 0
        """
        codes = [d.code for d in check_spec(parse_spec(text))]
        assert PARAM_IN_BOUND in codes


class TestClassification:
    def test_definitional_property(self, specs):
        # local iff the bound mentions a state variable other than the param
        import random
        from adashield.dl import free_vars
        for spec in specs.values():
            state_names = {v.name for v in spec.state_vars}
            for b in spec.bounds:
                has_state = any(v.name in state_names and v.name != b.param.name
                                for v in free_vars(b.formula))
                assert (b.locality == "local") == has_state


class TestFreeVariableWalks:
    @staticmethod
    def _counting(monkeypatch) -> Counter:
        """Count the walks of ``transform._walk``, which gives every tree's
        free variables and applied symbols, by the identity of the tree."""
        walks, depth = Counter(), [0]
        real = transform._walk

        def walk(e, fv, syms, bound):
            if not depth[0]:
                walks[id(e)] += 1
            depth[0] += 1
            try:
                real(e, fv, syms, bound)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(transform, "_walk", walk)
        return walks

    @pytest.mark.parametrize("name", BUNDLED)
    def test_each_tree_is_walked_once_per_load(self, name, monkeypatch):
        # loading, checking, obligations and the shield's templates share
        # one free-variable walk per tree of the spec
        walks = self._counting(monkeypatch)
        spec = load_spec(bundled_spec_path(name))
        assert check_spec(spec) == []
        gen_obligations(spec)
        Shield(spec, {})
        trees = {id(node) for node in spec.nodes()}
        assert all(walks[t] == 1 for t in trees)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_load_walks_each_tree_once_and_checks_walk_none(self, name, monkeypatch):
        # loading walks every tree of spec.nodes() once and nothing else;
        # check_spec reads free variables and symbols from those walks
        walks = self._counting(monkeypatch)
        spec = load_spec(bundled_spec_path(name))
        assert walks == Counter({id(node): 1 for node in spec.nodes()})
        walks.clear()
        assert check_spec(spec) == []
        assert sum(walks.values()) == 0

    def test_shields_walk_no_tree(self, monkeypatch):
        # a noise hyperparameter that reads a state variable is tagged with
        # the noise variable's index for every shield; what the tagged tree
        # reads comes from the spec's walk, so the spec keeps no new tree
        with open(bundled_spec_path("train_local"), encoding="utf-8") as fh:
            text = fh.read()
        spec = parse_spec(text.replace("N(0, sigma^2)", "N(0, sigma^2 + 0*x)"))
        walks = self._counting(monkeypatch)
        kept = dict(spec.walks)
        template = [Shield(spec, {}) for _ in range(3)][-1].strategy.templates[-1]
        assert sum(walks.values()) == 0 and spec.walks == kept
        assert ("x", 0) in template.indexed
