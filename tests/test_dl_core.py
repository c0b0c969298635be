"""Evaluation, substitution, index tagging and print/parse round-trips."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from adashield.dl import (
    And, BoolLit, Choice, Forall, Imp, Seq, Ident, Lit, ParseError, StructuralError, UNDEF,
    Var, eval_formula, eval_term, free_vars, instantiate_indices,
    parse_formula, parse_program, parse_term, pretty_print, substitute,
    symbols, tag_with_index,
)
from adashield.dl.transform import SubstitutionError

from conftest import TermGen


class TestEvalTerm:
    def test_literal_arithmetic(self):
        t = parse_term("min(2, 3) + abs(-4)")
        assert eval_term(t, {}, {}) == 6.0

    def test_linear_disturbance_form(self):
        t = parse_term("theta*u + phi", symbols=frozenset({"theta", "phi"}))
        v = eval_term(t, {"theta": 1.5, "phi": -0.5}, {Ident("u"): 2.0})
        assert v == 2.5

    def test_unbound_variable_is_undefined(self):
        t = parse_term("x + y")
        assert eval_term(t, {}, {Ident("x"): 1.0}) is UNDEF

    def test_division_by_zero_is_undefined(self):
        assert eval_term(parse_term("1/0"), {}, {}) is UNDEF

    def test_non_natural_power_is_rejected_at_parse(self):
        with pytest.raises(ParseError):
            parse_term("x^y")
        with pytest.raises(ParseError):
            parse_term("x^1.5")

    def test_power(self):
        assert eval_term(parse_term("3^2"), {}, {}) == 9.0
        assert eval_term(parse_term("x^0"), {}, {Ident("x"): 7.0}) == 1.0


class TestEvalFormula:
    def test_braking_init_condition(self):
        f = parse_formula("x + v^2/(2*B) <= e")
        v = {Ident("x"): 0.0, Ident("v"): 30.0, Ident("B"): 4.0, Ident("e"): 120.0}
        assert eval_formula(f, {}, v) is True

    def test_partial_op_propagates(self):
        assert eval_formula(parse_formula("1/0 > 0"), {}, {}) is UNDEF

    def test_quantifier_is_structural_error(self):
        with pytest.raises(StructuralError):
            eval_formula(parse_formula("\\forall x x >= 0"), {}, {})

    def test_kleene_absorption(self):
        # a decided operand absorbs an undefined one
        undef = parse_formula("1/0 > 0")
        t = BoolLit(True)
        f = BoolLit(False)
        assert eval_formula(Or(t, undef), {}, {}) is True
        assert eval_formula(And(f, undef), {}, {}) is False
        assert eval_formula(Or(f, undef), {}, {}) is UNDEF
        assert eval_formula(And(t, undef), {}, {}) is UNDEF

    def test_guarded_division_disjunction(self):
        f = parse_formula("vx = 0 | !(vx = 0) & 1/vx > 0")
        assert eval_formula(f, {}, {Ident("vx"): 0.0}) is True


from adashield.dl import Or  # noqa: E402


class TestSubstitute:
    def test_constant_instantiation(self):
        ctrl = parse_program("a := -B ++ { ?(x > 0); a := A }",
                             symbols=frozenset({"A", "B"}))
        out = substitute(ctrl, {"A": Lit(4.0), "B": Lit(4.0)})
        assert symbols(out) == set()
        assert pretty_print(out) == "a := -4 ++ ?(x > 0); a := 4"

    def test_bound_parameter_substitution(self):
        bound = parse_formula("f(x) <= fbar", symbols=frozenset({"f"}))
        out = substitute(bound, {Ident("fbar"): parse_term("theta", symbols=frozenset({"theta"}))})
        assert pretty_print(out) == "f(x) <= theta"

    def test_binders_untouched(self):
        prog = parse_program("x := *")
        assert substitute(prog, {Ident("y"): Lit(1.0)}) == prog
        with pytest.raises(SubstitutionError):
            substitute(prog, {Ident("x"): Lit(1.0)})

    def test_capture_is_rejected(self):
        f = Forall(Ident("x"), parse_formula("x >= y"))
        with pytest.raises(SubstitutionError):
            substitute(f, {Ident("y"): Var(Ident("x"))})

    def test_substitution_lemma(self):
        # eval(subst(t, x->s)) == eval(t) with x bound to eval(s), 1000 cases
        gen = TermGen(seed=99)
        checked = 0
        for _ in range(1000):
            t = gen.term(3)
            s = gen.term(2)
            val = gen.valuation()
            x = Ident("x")
            lhs = eval_term(substitute(t, {x: s}), {}, val)
            sval = eval_term(s, {}, val)
            if sval is UNDEF:
                continue
            rhs = eval_term(t, {}, {**val, x: sval})
            if lhs is UNDEF or rhs is UNDEF:
                assert lhs is rhs
            else:
                assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)
            checked += 1
        assert checked > 900


class TestIndexing:
    def test_tag_valuation(self):
        v = {Ident("x"): 0.0, Ident("y"): 1.0}
        assert tag_with_index(v, 2) == {Ident("x", 2): 0.0, Ident("y", 2): 1.0}

    def test_tag_formula_symbolic(self):
        f = parse_formula("x > 0")
        assert pretty_print(tag_with_index(f, "i")) == "x@i > 0"

    def test_tag_empty(self):
        assert tag_with_index({}, 3) == {}

    def test_instantiate(self):
        f = parse_formula("x@i + x@j > 0")
        assert pretty_print(instantiate_indices(f, ["i", "j"], [2, 3])) == "x@2 + x@3 > 0"

    def test_instantiate_identity(self):
        t = parse_term("x + y")
        assert instantiate_indices(t, ["i"], [5]) == t

    def test_instantiate_lipschitz_summand(self):
        t = parse_term("w@i + k*abs(x - x@i)")
        out = instantiate_indices(t, ["i"], [5])
        assert pretty_print(out) == "w@5 + k * abs(x - x@5)"

    def test_length_mismatch(self):
        with pytest.raises(SubstitutionError):
            instantiate_indices(parse_term("x@i"), ["i", "j"], [1])

    def test_tag_then_instantiate_commutes_with_substitution(self):
        gen = TermGen(seed=5, variables=("x", "y"))
        for _ in range(200):
            t = gen.term(3)
            # tag with a fresh symbolic index, then instantiate; substitution
            # on a disjoint variable (z, absent from t) commutes
            tagged = instantiate_indices(tag_with_index(t, "i"), ["i"], [7])
            direct = tag_with_index(t, 7)
            assert tagged == direct


class TestFreeVarsSymbols:
    def test_assignment_target_is_free(self):
        assert free_vars(parse_program("x := v + a")) == {Ident("x"), Ident("v"), Ident("a")}

    def test_quantifier_binds(self):
        assert free_vars(parse_formula("\\forall x x >= y")) == {Ident("y")}

    def test_symbols(self):
        t = parse_term("theta*u + phi", symbols=frozenset({"theta", "phi"}))
        assert symbols(t) == {("theta", 0), ("phi", 0)}


class TestPrinter:
    def test_choice_program(self):
        p = parse_program("a := -B ++ { ?(Q > 0); a := A }")
        assert parse_program(pretty_print(p)) == p

    def test_ode(self):
        p = parse_program("{x' = v, v' = a & t <= T}")
        assert pretty_print(p) == "{x' = v, v' = a & t <= T}"

    def test_bundled_specs_roundtrip(self, specs):
        for spec in specs.values():
            syms = frozenset(spec.symbol_names)
            for node, parse in ((spec.ctrl, parse_program),
                                (spec.plant, parse_program),
                                (spec.safe, parse_formula),
                                (spec.invariant, parse_formula),
                                *(((a, parse_formula)) for a in
                                  [(f, parse_formula) for f in spec.assumptions])):
                pass  # structured below for clarity
            assert parse_program(pretty_print(spec.ctrl), syms) == spec.ctrl
            assert parse_program(pretty_print(spec.plant), syms) == spec.plant
            assert parse_formula(pretty_print(spec.safe), syms) == spec.safe
            assert parse_formula(pretty_print(spec.invariant), syms) == spec.invariant
            for f in spec.assumptions:
                assert parse_formula(pretty_print(f), syms) == f
            for b in spec.bounds:
                assert parse_formula(pretty_print(b.formula), syms) == b.formula

    def test_random_term_roundtrip(self):
        gen = TermGen(seed=1234, partial_ops=True)
        for _ in range(1000):
            t = gen.term(4)
            assert parse_term(pretty_print(t)) == t

    def test_random_formula_roundtrip(self):
        gen = TermGen(seed=4321, partial_ops=True)
        for _ in range(1000):
            f = gen.formula(3)
            assert parse_formula(pretty_print(f)) == f

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_literal_roundtrip(self, x):
        t = Lit(x)
        back = parse_term(pretty_print(t))
        assert back == t

    def test_eval_total_on_defined_closed_terms(self):
        gen = TermGen(seed=7, partial_ops=False)
        for _ in range(500):
            t = gen.term(4)
            val = gen.valuation()
            r1 = eval_term(t, {}, val)
            r2 = eval_term(t, {}, val)
            if r1 is not UNDEF:  # only ^ overflow can yield UNDEF here
                assert math.isfinite(r1) and r1 == r2


class TestParserNesting:
    @pytest.mark.parametrize("parse, text", [
        (parse_term, "(" * 400 + "1" + ")" * 400),
        (parse_term, "-" * 400 + "x"),
        (parse_formula, "!" * 400 + "x > 0"),
        (parse_formula, "(" * 400 + "x > 0" + ")" * 400),
        (parse_program, "{" * 400 + "x := 1" + "}" * 400),
    ])
    def test_deep_nesting_is_a_parse_error(self, parse, text):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert "nesting deeper than" in str(info.value)
        assert info.value.line == 1 and info.value.col > 1

    def test_nesting_below_the_limit_parses(self):
        assert parse_term("(" * 60 + "x" + ")" * 60) == Var(Ident("x"))

    @pytest.mark.parametrize("parse, text, ctor", [
        (parse_program, "; ".join(["x := 1"] * 400), Seq),
        (parse_program, " ++ ".join(["x := 1"] * 400), Choice),
        (parse_formula, " -> ".join(["x > 0"] * 400), Imp),
    ])
    def test_long_chains_do_not_nest(self, parse, text, ctor):
        # ';', '++' and '->' associate to the right without the parser recursing
        node, links = parse(text), 0
        while isinstance(node, ctor):
            node, links = node.right, links + 1
        assert links == 399

    @pytest.mark.parametrize("parse, text", [
        (parse_term, " + ".join(["x"] * 2000)),
        (parse_formula, " & ".join(["x > k"] * 2000)),
        # chains at different bracket levels add up
        (parse_term, "(" * 60 + " * ".join(["x"] * 480) + ")" * 60 + " + k" * 30),
    ])
    def test_too_deep_trees_are_a_parse_error(self, parse, text):
        with pytest.raises(ParseError) as info:
            parse(text, frozenset({"k"}))
        assert "deeper than 500 levels" in str(info.value)
        assert (info.value.line, info.value.col) == (1, 1)

    def test_long_sum_below_the_limit_loads(self):
        t = parse_term(" + ".join(["x"] * 400), frozenset({"k"}))
        assert eval_term(t, {}, {Ident("x"): 1.0}) == 400.0
