"""Evaluation, substitution, index tagging, symbol resolution and print/parse
round-trips."""

import math
import random
from typing import get_args

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adashield.dl import (
    And, App, BoolLit, Box, Choice, Cmp, Exists, Forall, Formula, Imp, Seq, Ident, Lit, Module, ODE,
    ParseError, StructuralError, Term, UNDEF, Var, eval_formula, eval_term, free_vars,
    instantiate_indices, ordered_free_vars, parse_formula, parse_program, parse_term,
    pretty_print, substitute, symbols, tag_with_index,
)
from adashield.dl.parser import Parser
from adashield.dl.transform import SubstitutionError

from conftest import TermGen
from test_monitor import ControllerGen


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

    def test_power_overflow_is_undefined(self):
        # float ** int raises OverflowError where float * float gives inf
        t = parse_term("x^2")
        fn = Module().term(t)
        with np.errstate(over="ignore"):  # numpy gives inf, with a warning
            for x in (1e200, -1e200, np.float64(1e200)):
                assert eval_term(t, {}, {Ident("x"): x}) is UNDEF
                assert fn({Ident("x"): x}, {}) is UNDEF


class TestEvalFormula:
    def test_braking_init_condition(self):
        f = parse_formula("x + v^2/(2*B) <= e")
        v = {Ident("x"): 0.0, Ident("v"): 30.0, Ident("B"): 4.0, Ident("e"): 120.0}
        assert eval_formula(f, {}, v) is True

    def test_partial_op_propagates(self):
        assert eval_formula(parse_formula("1/0 > 0"), {}, {}) is UNDEF

    def test_numpy_comparisons_are_python_bools(self):
        # a numpy bool is neither ``True`` nor ``False`` to the connectives
        f = parse_formula("a <= A & x <= 0", frozenset({"A"}))
        interp = {"A": 3.0}
        for a, expected in ((np.float64(10.0), False), (np.float64(1.0), True)):
            val = {Ident("a"): a, Ident("x"): -1.0}
            assert eval_formula(f, interp, val) is expected
            assert eval_formula(parse_formula("a = 10"), {}, val) is bool(a == 10.0)

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
    def test_tag_formula_symbolic(self):
        f = parse_formula("x > 0")
        assert pretty_print(tag_with_index(f, "i")) == "x@i > 0"

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

    def test_ordered_free_vars(self):
        # first occurrences, left to right, across the nodes in turn
        f = parse_formula("y@i > x & \\forall z z < y")
        assert ordered_free_vars(f, parse_term("w + x@i + y@i")) == [
            Ident("y", "i"), Ident("x"), Ident("y"), Ident("w"), Ident("x", "i")]
        assert ordered_free_vars() == []


NAMES = ("x", "y", "z", "v")


def _resolved_both_ways(parse, text: str, syms) -> tuple:
    """``text`` parsed with ``syms`` resolved as it is read, and parsed
    plainly with ``syms`` substituted after; "rejected" for a
    ``ParseError`` or a ``SubstitutionError``."""
    def outcome(run):
        try:
            return run()
        except (ParseError, SubstitutionError):
            return "rejected"
    return (outcome(lambda: parse(text, frozenset(syms))),
            outcome(lambda: substitute(parse(text), {Ident(n): App(n, ()) for n in syms})))


_binders = st.lists(st.tuples(st.sampled_from((Forall, Exists)), st.sampled_from(NAMES),
                              st.sampled_from((And, Imp))), max_size=3)


class TestSymbolResolution:
    """Resolving symbols while parsing equals substituting an arity-0
    application for each symbol after a plain parse: a quantified variable
    shadows a symbol of its name, and assigning to or evolving a symbol is
    rejected."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), syms=st.sets(st.sampled_from(NAMES)),
           binders=_binders)
    def test_formulas(self, seed, syms, binders):
        gen = TermGen(seed, partial_ops=True)
        f = gen.formula(2)
        for quantifier, name, conn in binders:
            f = conn(gen.formula(1), quantifier(Ident(name), f))
        resolved, after = _resolved_both_ways(parse_formula, pretty_print(f), syms)
        assert resolved == after

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), syms=st.sets(st.sampled_from(NAMES)),
           binders=_binders, ode=st.booleans())
    def test_controllers(self, seed, syms, binders, ode):
        gen = ControllerGen(seed)
        prog = gen.controller()
        if ode:
            x = Ident(gen.rng.choice("xyz"))
            prog = Seq(prog, ODE(((x, gen.terms.term(2)),), gen.terms.formula(1)))
        resolved, after = _resolved_both_ways(parse_program, pretty_print(prog), syms)
        assert resolved == after
        f = Box(prog, gen.terms.formula(1))
        for quantifier, name, conn in binders:
            f = conn(gen.terms.formula(1), quantifier(Ident(name), f))
        resolved, after = _resolved_both_ways(parse_formula, pretty_print(f), syms)
        assert resolved == after

    def test_rejections_point_at_the_symbol(self):
        for parse, text, col in ((parse_program, "x := 1; V := *", 9),
                                 (parse_program, "{x' = 1, V' = x}", 10),
                                 (parse_formula, "\\forall x [V := x] x > 0", 12),
                                 # inside brackets, which read as a formula or a term
                                 (parse_formula, "x > 0 & ([V := x] x > 0)", 11)):
            with pytest.raises(ParseError) as info:
                parse(text, frozenset({"V"}))
            assert (info.value.line, info.value.col) == (1, col)
            assert "declared symbol 'V'" in str(info.value)

    def test_quantifier_shadows_and_assigns(self):
        # under \\forall V, V is a variable again: it may be assigned
        f = parse_formula("V > 0 & \\forall V [V := V + 1] V > 0", frozenset({"V"}))
        assert f.left.left == App("V", ())
        assert free_vars(f) == set()


class TestPrinter:
    def test_choice_program(self):
        p = parse_program("a := -B ++ { ?(Q > 0); a := A }")
        assert parse_program(pretty_print(p)) == p

    def test_ode(self):
        p = parse_program("{x' = v, v' = a & t <= T}")
        assert pretty_print(p) == "{x' = v, v' = a & t <= T}"

    def test_bundled_specs_roundtrip(self, specs):
        # every term, formula and program of every section
        for spec in specs.values():
            syms = frozenset(spec.symbol_arities)
            for node in spec.nodes():
                parse = (parse_term if type(node) in get_args(Term) else
                         parse_formula if type(node) in get_args(Formula) else
                         parse_program)
                assert parse(pretty_print(node), syms) == node

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


class TestParserLookahead:
    @pytest.fixture
    def atoms(self, monkeypatch):
        """The number of ``Parser._atom`` calls so far."""
        calls = [0]
        real = Parser._atom

        def counted(parser):
            calls[0] += 1
            return real(parser)

        monkeypatch.setattr(Parser, "_atom", counted)
        return calls

    def test_brackets_in_formula_position_are_read_once(self, atoms):
        # a bracket in formula position that is not a formula was read
        # again as a term, once per level: 2081 calls here, against 64
        brackets = "(" * 63 + "x" + ")" * 63
        assert parse_term(brackets) == Var(Ident("x"))
        term_calls, atoms[0] = atoms[0], 0
        assert parse_formula(brackets + " > 0") == Cmp(">", Var(Ident("x")), Lit(0.0))
        assert atoms[0] <= 2 * term_calls

    def test_unparsable_brackets_are_read_linearly(self, atoms):
        # neither reading parses; the term reading got further and reports
        with pytest.raises(ParseError) as info:
            parse_formula("(" * 63 + "x +" + ")" * 63 + " > 0")
        assert "expected term" in str(info.value) and info.value.col == 67
        assert atoms[0] <= 64

    @pytest.mark.parametrize("text", ["{x@", "x := 1; {x@"])
    def test_index_cut_short_in_braces(self, text):
        # the lookahead for an ODE read past the end of the tokens
        with pytest.raises(ParseError, match="expected index after '@'"):
            parse_program(text)


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
