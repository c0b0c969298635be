"""Proof-obligation generation and file emission.

The model-side set follows the four standard requirements (postcondition,
preservation, totality, monotonicity); the inference side emits one
obligation per strategy assignment in the normal form

    Assum /\\ Inv /\\ p = body /\\ defs... /\\ guard  ->  Bound_p

where ``defs`` expands the definitions of the observation variables and
bound parameters that occur free in the assignment (index-tagged for indexed
occurrences).  State variables are covered by the single ``Inv`` hypothesis
and noise variables are left universally quantified.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .dl import (
    And, BinOp, BoolLit, Box, Cmp, Dia, Formula, Ident, Imp, Seq, Term, Var,
    free_vars, index_tags, pretty_print, substitute, symbols, tag_with_index,
)
from .dl.syntax import conj
from .specfile import ShieldSpec
from .strategy import Best, Direct, InferAssign


@dataclass(frozen=True)
class Obligation:
    name: str
    kind: str  # safe | preserved | totality | bound_monotone | invariant_monotone | inference
    formula: Formula


class ObligationError(Exception):
    pass


def _bound_with(spec: ShieldSpec, p: Ident, value: Term) -> Formula:
    return substitute(spec.bound_formulas[p], {p: value})


def gen_model_obligations(spec: ShieldSpec,
                          include_invariant_monotone: bool = False) -> list[Obligation]:
    """Postcondition, preservation, totality and joint bound monotonicity."""
    assum = list(spec.assumptions)
    gbound = [spec.bound_formulas[p] for p in spec.global_params]
    bound = [b.formula for b in spec.bounds]
    inv = spec.invariant

    out = [
        Obligation("safe_0", "safe",
                   Imp(conj(assum + gbound + [inv]), spec.safe)),
        Obligation("preserved_0", "preserved",
                   Imp(conj(assum + bound + [inv]),
                       Box(Seq(spec.ctrl, spec.plant), inv))),
        Obligation("totality_0", "totality",
                   Imp(conj(assum + bound + [inv]), Dia(spec.ctrl, BoolLit(True)))),
    ]

    if spec.bounds:
        tighter, before, after = [], [], []
        for b in spec.bounds:
            p1, p2 = Var(Ident(b.param.name, 1)), Var(Ident(b.param.name, 2))
            op = "<=" if b.direction == "up" else ">="
            tighter.append(Cmp(op, p1, p2))
            before.append(_bound_with(spec, b.param, p1))
            after.append(_bound_with(spec, b.param, p2))
        out.append(Obligation(
            "bound_monotone_0", "bound_monotone",
            Imp(conj(tighter), Imp(conj(before), conj(after)))))

    if include_invariant_monotone:
        idx = 0
        inv_params = {v.name for v in spec.free_vars(inv)}
        for b in spec.bounds:
            if b.locality != "global" or b.param.name not in inv_params:
                continue
            p1, p2 = Var(Ident(b.param.name, 1)), Var(Ident(b.param.name, 2))
            op = "<=" if b.direction == "up" else ">="
            out.append(Obligation(
                f"invariant_monotone_{idx}", "invariant_monotone",
                Imp(Cmp(op, p1, p2),
                    Imp(substitute(inv, {b.param: p1}),
                        substitute(inv, {b.param: p2})))))
            idx += 1

    return out


def gen_inference_obligations(spec: ShieldSpec) -> list[Obligation]:
    """One obligation per strategy assignment, in strategy order."""
    out = []
    for i, assign in enumerate(spec.infer):
        out.append(Obligation(f"inference_{i}", "inference",
                              _inference_formula(spec, assign)))
    return out


def _inference_formula(spec: ShieldSpec, assign: InferAssign) -> Formula:
    body = assign.body
    if isinstance(body, (Direct, Best)):
        body_term: Term = body.term
    else:
        body_term = BinOp("+", body.observable, body.noise)

    p = assign.target
    hyps: list[Formula] = list(spec.assumptions)
    hyps.append(spec.invariant)
    hyps.append(Cmp("=", Var(p), body_term))
    hyps.extend(_definition_hypotheses(
        spec, assign.terms, assign.guard, p,
        noise_ok=not isinstance(body, (Direct, Best))))
    if assign.guard != BoolLit(True):
        hyps.append(assign.guard)
    return Imp(conj(hyps), spec.bound_formulas[p])


def _definition_hypotheses(spec: ShieldSpec, terms: tuple[Term, ...], guard: Formula,
                           target: Ident, noise_ok: bool = True) -> list[Formula]:
    """Defs for free observation variables and bound parameters, guard
    variables first, in order of appearance, deduplicated."""
    param_names = {q.name: q for q in spec.param_idents}
    obs_defs = spec.obs_defs
    noise_names = spec.noise_names
    state_names = {v.name for v in spec.state_vars}

    hyps: list[Formula] = []
    for v in spec.free_vars(guard, *terms):
        if v.name == target.name and v.index is None:
            continue  # the assigned parameter itself is defined by p = body
        if v.name in obs_defs:
            eq = Cmp("=", Var(Ident(v.name)), obs_defs[v.name])
            hyps.append(tag_with_index(eq, v.index) if v.index is not None else eq)
        elif v.name in param_names:
            # a tree of the spec, tagged from the free variables it has
            f = spec.bound_formulas[param_names[v.name]]
            hyps.append(substitute(f, index_tags(spec.free_vars(f), v.index))
                        if v.index is not None else f)
        elif v.name in noise_names:
            # noise stays universally quantified, but only an aggregate's
            # tail handling can discharge it at runtime
            if not noise_ok:
                raise ObligationError(
                    f"noise variable {v} in a direct/best assignment body "
                    "has no definition")
        elif v.name in state_names:
            continue  # states are covered by the invariant hypothesis
        else:
            raise ObligationError(
                f"free variable {v} of an inference assignment has no definition")
    return hyps


def gen_obligations(spec: ShieldSpec,
                    include_invariant_monotone: bool = False) -> list[Obligation]:
    return (gen_model_obligations(spec, include_invariant_monotone)
            + gen_inference_obligations(spec))


# ---------------------------------------------------------------------------
# Emission

def spec_hash(spec: ShieldSpec) -> str:
    return hashlib.sha256(spec.source_text.encode("utf-8")).hexdigest()[:16]


def emit_obligation_files(obligations: list[Obligation], out_dir, spec: ShieldSpec) -> list:
    """One text file per obligation under ``out_dir/<specname>/``; stable
    naming and byte-identical output for identical input."""
    import os

    target = os.path.join(str(out_dir), spec.name)
    os.makedirs(target, exist_ok=True)
    digest = spec_hash(spec)
    paths = []
    for ob in obligations:
        path = os.path.join(target, f"{ob.name}.kyx")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_obligation(ob, spec, digest))
        paths.append(path)
    return paths


def render_obligation(ob: Obligation, spec: ShieldSpec, digest: str) -> str:
    lines = [
        f"/* obligation: {ob.name}",
        f"   kind: {ob.kind}",
        f"   spec: {spec.name} (sha256/16: {digest})",
        "*/",
        f'ArchiveEntry "{spec.name}/{ob.name}"',
        "Definitions",
    ]
    arities = spec.symbol_arities
    used = {n: a for n, a in symbols(ob.formula) if n in arities}
    for name in sorted(used):
        args = ", ".join(["Real"] * used[name])
        lines.append(f"  Real {name}({args});" if used[name] else f"  Real {name};")
    lines.append("End.")
    lines.append("ProgramVariables")
    fv = sorted(free_vars(ob.formula), key=str)
    for v in fv:
        lines.append(f"  Real {v};")
    lines.append("End.")
    lines.append("Problem")
    closed = pretty_print(ob.formula)
    quants = " ".join(f"\\forall {v}" for v in fv)
    lines.append(f"  {quants} ({closed})" if quants else f"  {closed}")
    lines.append("End.")
    lines.append("End.")
    return "\n".join(lines) + "\n"
