"""Obligation generation: counts, printed forms, emission determinism."""

import os

import pytest

from adashield.dl import Imp, conj, pretty_print
from adashield.obligations import (
    ObligationError, emit_obligation_files, gen_inference_obligations,
    gen_model_obligations, gen_obligations,
)
from adashield.specfile import parse_spec

from dl_oracle import conjuncts

EXPECTED_COUNTS = {"sisyphean": 7, "train_local": 7, "river": 6, "acas": 19,
                   "train_global": 7}


def _norm(f):
    """Associativity-insensitive view of an implication chain of conjunctions."""
    if isinstance(f, Imp):
        return ("imp", tuple(sorted(map(pretty_print, conjuncts(f.left)))),
                _norm(f.right))
    return ("leaf", pretty_print(f))


class TestCounts:
    def test_bundled_counts(self, specs):
        for name, expected in EXPECTED_COUNTS.items():
            assert len(gen_obligations(specs[name])) == expected, name

    def test_kind_breakdown(self, specs):
        for name, spec in specs.items():
            kinds = [o.kind for o in gen_obligations(spec)]
            assert kinds.count("safe") == 1
            assert kinds.count("preserved") == 1
            assert kinds.count("totality") == 1
            assert kinds.count("bound_monotone") == 1
            assert kinds.count("inference") == len(spec.infer)

    def test_acas_has_fifteen_inference_entries(self, specs):
        assert len(gen_inference_obligations(specs["acas"])) == 15

    def test_empty_strategy_only_model_side(self):
        text = """
        constant A
        unknown q
        assume A > 0
        bound p: p >= q
        controller x := A
        plant {x' = 1}
        safe x >= 0
        invariant x >= 0
        fallback 0
        """
        # fallback needs a directive only for stars/choices; "0" is extra, so
        # drop it by giving the controller an unconstrained assignment
        text = text.replace("controller x := A", "controller x := *")
        spec = parse_spec(text)
        obls = gen_obligations(spec)
        assert sorted(o.kind for o in obls) == [
            "bound_monotone", "preserved", "safe", "totality"]


class TestPrintedForms:
    """The emitted formulas match the published shapes up to associativity."""

    def test_safe_form(self, specs):
        spec = specs["sisyphean"]
        safe = next(o for o in gen_model_obligations(spec) if o.kind == "safe")
        expected = Imp(conj(list(spec.assumptions) + [spec.invariant]), spec.safe)
        assert _norm(safe.formula) == _norm(expected)
        # no parameter bound appears: fbar is local, so GBound is empty
        assert "fbar" not in pretty_print(safe.formula)

    def test_safe_includes_global_bounds(self, specs):
        spec = specs["river"]
        safe = next(o for o in gen_model_obligations(spec) if o.kind == "safe")
        hyps = set(map(pretty_print, conjuncts(safe.formula.left)))
        assert "yb_lo <= yb" in hyps and "yb_up >= yb" in hyps

    def test_acas_safe_has_exactly_global_bounds(self, specs):
        spec = specs["acas"]
        safe = next(o for o in gen_model_obligations(spec) if o.kind == "safe")
        text = pretty_print(safe.formula.left)
        for p in ("h0int_lo", "h0int_up", "c_lo", "hmint_lo", "hmint_up"):
            assert p in text
        for p in ("vint_lo", "vint_up", "hint_lo", "hint_up"):
            assert p not in text

    def test_monotonicity_form(self, specs):
        spec = specs["sisyphean"]
        mono = next(o for o in gen_model_obligations(spec)
                    if o.kind == "bound_monotone")
        assert (pretty_print(mono.formula)
                == "fbar@1 <= fbar@2 -> f(x) <= fbar@1 -> f(x) <= fbar@2")

    def test_monotonicity_joint_over_all_params(self, specs):
        mono = next(o for o in gen_model_obligations(specs["river"])
                    if o.kind == "bound_monotone")
        assert (pretty_print(mono.formula)
                == "yb_lo@1 >= yb_lo@2 & yb_up@1 <= yb_up@2 -> "
                   "yb_lo@1 <= yb & yb_up@1 >= yb -> yb_lo@2 <= yb & yb_up@2 >= yb")

    def test_preserved_and_totality_forms(self, specs):
        spec = specs["sisyphean"]
        by_kind = {o.kind: o for o in gen_model_obligations(spec)}
        preserved = pretty_print(by_kind["preserved"].formula)
        assert preserved.endswith("] (v >= 0 & x + v^2 / (2 * (B - min(F, y + "
                                  "k * v^2 / (2 * (B - F))))) <= 0 & y >= f(x))")
        assert "f(x) <= fbar" in preserved
        assert pretty_print(by_kind["totality"].formula).endswith("> true")

    def test_direct_inference_normal_form(self, specs):
        spec = specs["sisyphean"]
        obls = gen_inference_obligations(spec)
        hyps = conjuncts(obls[0].formula.left)
        assert pretty_print(hyps[-1]) == "fbar = F"
        assert pretty_print(obls[0].formula.right) == "f(x) <= fbar"

    def test_aggregate_inference_includes_observation_definition(self, specs):
        spec = specs["sisyphean"]
        agg = gen_inference_obligations(spec)[2]
        hyps = list(map(pretty_print, conjuncts(agg.formula.left)))
        assert "fbar = w@i + k * abs(x - x@i) + eta@i" in hyps
        assert "w@i = f(x@i) - eta@i" in hyps
        assert pretty_print(agg.formula.right) == "f(x) <= fbar"

    def test_best_inference_includes_tagged_bound(self, specs):
        spec = specs["sisyphean"]
        best = gen_inference_obligations(spec)[1]
        hyps = list(map(pretty_print, conjuncts(best.formula.left)))
        assert "fbar = fbar@i + k * abs(x - x@i)" in hyps
        assert "f(x@i) <= fbar@i" in hyps

    def test_guard_and_untagged_bound_hypotheses(self, specs):
        # the second aggregate of the continuous train mentions the current
        # upper bound on the response slope, whose definition is included
        spec = specs["train_global"]
        phi = gen_inference_obligations(spec)[2]
        hyps = list(map(pretty_print, conjuncts(phi.formula.left)))
        assert "theta_up >= theta" in hyps
        assert hyps[-1] == "u@i <= 0"  # the when-guard closes the hypothesis list
        assert "w@i = theta * u@i + phi - eta@i" in hyps

    def test_acas_guarded_direct_forms(self, specs):
        spec = specs["acas"]
        obls = gen_inference_obligations(spec)
        text = pretty_print(obls[11].formula)  # first hmint_up rule
        assert "c_lo <= 0 | h0int_up >= 0" in text
        assert text.endswith("hmint_up >= hint(tm)")
        evidence = pretty_print(obls[10].formula)
        assert "c_lo = 0 + (1 - etac@i)" in evidence
        assert "wc@i = min(1, c + etac@i)" in evidence
        assert "wc@i = 1" in evidence
        assert evidence.endswith("c_lo <= c")

    def test_undefined_free_variable_fails_loudly(self):
        text = """
        constant A
        unknown q
        assume A > 0
        bound p: p >= q
        controller x := *
        plant {x' = 1}
        safe x >= 0
        invariant x >= 0
        noise nz ~ N(0, 1)
        observe w = q - nz
        infer p := w + nz
        """
        spec = parse_spec(text)
        with pytest.raises(ObligationError):
            gen_inference_obligations(spec)


class TestInvariantMonotone:
    def test_opt_in_entries(self, specs):
        spec = specs["river"]
        obls = gen_model_obligations(spec, include_invariant_monotone=True)
        inv_mono = [o for o in obls if o.kind == "invariant_monotone"]
        # both globals occur in the invariant
        assert len(inv_mono) == 2
        text = pretty_print(inv_mono[0].formula)
        assert "->" in text and "@1" in text and "@2" in text

    def test_default_emission_matches_published_counts(self, specs):
        for name, expected in EXPECTED_COUNTS.items():
            assert len(gen_obligations(specs[name])) == expected


class TestEmission:
    def test_files_and_determinism(self, specs, tmp_path):
        spec = specs["sisyphean"]
        obls = gen_obligations(spec)
        paths1 = emit_obligation_files(obls, tmp_path / "a", spec)
        paths2 = emit_obligation_files(obls, tmp_path / "b", spec)
        assert len(paths1) == 7
        for p1, p2 in zip(paths1, paths2):
            assert os.path.basename(p1) == os.path.basename(p2)
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                assert f1.read() == f2.read()

    def test_file_contents(self, specs, tmp_path):
        spec = specs["river"]
        paths = emit_obligation_files(gen_obligations(spec), tmp_path, spec)
        with open(paths[0], "r", encoding="utf-8") as fh:
            text = fh.read()
        assert text.startswith("/* obligation: safe_0")
        assert "kind: safe" in text
        assert 'ArchiveEntry "river/safe_0"' in text
        assert "Real yb;" in text  # the unknown symbol
        assert "\\forall" in text  # explicit universal closure
        assert text.rstrip().endswith("End.")

    def test_stable_order_and_names(self, specs, tmp_path):
        spec = specs["acas"]
        paths = emit_obligation_files(gen_obligations(spec), tmp_path, spec)
        names = [os.path.basename(p) for p in paths]
        assert names[:4] == ["safe_0.kyx", "preserved_0.kyx", "totality_0.kyx",
                             "bound_monotone_0.kyx"]
        assert names[4:] == [f"inference_{i}.kyx" for i in range(15)]
