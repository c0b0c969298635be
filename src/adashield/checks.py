"""Static well-formedness diagnostics for parsed shield specifications."""

from __future__ import annotations

from dataclasses import dataclass

from .dl import (
    Assign, AssignAny, BoolLit, Choice, Ident, Loop, ODE, Seq, Test,
    is_runtime_evaluable,
)
from .actions import StructureError, walk_directives
from .specfile import ShieldSpec
from .strategy import Aggregate, Direct

# diagnostic codes, one per statically checkable clause
LOCAL_IN_INVARIANT = "local-param-in-invariant"
PARAM_IN_PLANT = "param-in-plant"
PARAM_IN_SAFE = "param-in-safe"
PARAM_IN_OBS = "param-in-observation"
PARAM_IN_BOUND = "foreign-param-in-bound"
UNKNOWN_IN_CTRL = "unknown-in-controller"
CTRL_STRUCTURE = "controller-structure"
MODIFIES_NONSTATE = "modifies-non-state-variable"
ASSUMPTION_FREE_VARS = "assumption-with-free-variables"
NOISE_HYPERPARAMS = "noise-hyperparameters"
OBS_IN_AGG_NOISE = "observation-in-noise-component"
NOISE_IN_AGG_OBSERVABLE = "noise-in-observable-component"
LOCAL_WITHOUT_DEFAULT = "local-param-without-default"
FALLBACK_SHAPE = "fallback-shape"
FALLBACK_MISSING = "fallback-missing"
UNDECLARED_INDEX = "undeclared-index-name"
INDEX_COLLISION = "indexed-name-collision"
ARITY_MISMATCH = "symbol-arity-mismatch"
UNKNOWN_IN_STRATEGY = "unknown-in-strategy"
GUARD_NOT_EVALUABLE = "guard-not-runtime-evaluable"
INITIAL_NOT_GLOBAL = "initial-value-for-non-global"
INFER_TARGET = "inference-target-not-bound-parameter"
NOISE_OUTSIDE_AGG = "noise-outside-aggregate"
INDEXED_IN_OBS = "indexed-variable-in-observation"
UNDECLARED_SYMBOL = "undeclared-symbol"


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.message}"


def check_spec(spec: ShieldSpec) -> list[Diagnostic]:
    """Empty list iff every statically checkable constraint holds."""
    out: list[Diagnostic] = []
    params = set(spec.param_idents)
    param_names = {p.name for p in params}
    state_names = {v.name for v in spec.state_vars}
    declared_arity = spec.symbol_arities
    unknown_names = {n for n, _ in spec.unknowns}

    # bound formulas mention no parameter other than their own
    for b in spec.bounds:
        foreign = {v for v in spec.free_vars(b.formula)
                   if v.name in param_names and v.name != b.param.name}
        if foreign:
            out.append(Diagnostic(
                PARAM_IN_BOUND,
                f"bound for {b.param} mentions other parameter(s) "
                f"{sorted(map(str, foreign))}"))

    # invariant: global parameters only
    for v in spec.free_vars(spec.invariant):
        if v.name in param_names and Ident(v.name) in set(spec.local_params):
            out.append(Diagnostic(
                LOCAL_IN_INVARIANT, f"local parameter {v.name} in invariant"))

    # plant: no parameters; safe: no parameters
    for code, tree, what in ((PARAM_IN_PLANT, spec.plant, "plant"),
                             (PARAM_IN_SAFE, spec.safe, "safety condition")):
        for v in spec.free_vars(tree):
            if v.name in param_names:
                out.append(Diagnostic(code, f"parameter {v.name} in {what}"))

    # observations: no bound parameters, and no variable at an index, since
    # an observation is read at the index its own use gives it
    for o in spec.obs:
        for v in spec.free_vars(o.definition):
            if v.name in param_names:
                out.append(Diagnostic(
                    PARAM_IN_OBS, f"observation {o.var} mentions parameter {v.name}"))
            if v.index is not None:
                out.append(Diagnostic(
                    INDEXED_IN_OBS, f"observation {o.var} reads indexed variable {v}"))

    # controller: no unknowns, monitorable structure, assigns state vars only
    for name, arity in spec.symbols(spec.ctrl):
        if name in unknown_names:
            out.append(Diagnostic(UNKNOWN_IN_CTRL, f"unknown {name} in controller"))
    out.extend(_check_ctrl_structure(spec.ctrl))
    out.extend(_check_modified(spec.ctrl, state_names, "controller"))
    out.extend(_check_modified(spec.plant, state_names, "plant"))

    # assumptions: symbols only, no free variables
    for f in spec.assumptions:
        fv = spec.free_vars(f)
        if fv:
            out.append(Diagnostic(
                ASSUMPTION_FREE_VARS,
                f"assumption has free variable(s) {sorted(map(str, fv))}"))

    # noise hyperparameters: constants and unindexed state variables only;
    # an aggregate reads them at its noise variable's index
    for n in spec.noise:
        for t in n.dist.params:
            bad = {v for v in spec.free_vars(t) if v.name not in state_names or v.index is not None}
            if bad:
                out.append(Diagnostic(
                    NOISE_HYPERPARAMS,
                    f"noise {n.var} hyperparameters mention {sorted(map(str, bad))}"))

    # base names must not collide with indexed uses (x vs x@i)
    declared = state_names | param_names | set(spec.obs_names) | set(spec.noise_names)
    for v in spec.free_vars(*spec.nodes()):
        if v.index is not None and v.name not in declared:
            out.append(Diagnostic(
                INDEX_COLLISION,
                f"indexed variable {v} has no declared base name"))

    # every application is of a declared symbol, at its declared arity: an
    # undeclared one has no value, so a controller assignment of it would
    # hand UNDEF to the plant
    undeclared: set[str] = set()
    for node in spec.nodes():
        for name, arity in spec.symbols(node):
            want = declared_arity.get(name)
            if want is None and name not in undeclared:
                undeclared.add(name)
                out.append(Diagnostic(
                    UNDECLARED_SYMBOL,
                    f"symbol {name} is applied but declared under neither constant nor unknown"))
            elif want is not None and want != arity:
                out.append(Diagnostic(
                    ARITY_MISMATCH,
                    f"symbol {name} declared with arity {want}, used with {arity}"))

    out.extend(_check_strategy(spec, unknown_names))
    out.extend(_check_fallback(spec))

    if spec.initial_global_bounds:
        globals_ = set(spec.global_params)
        for p in spec.initial_global_bounds:
            if p not in globals_:
                out.append(Diagnostic(
                    INITIAL_NOT_GLOBAL,
                    f"initial value given for non-global parameter {p}"))

    return out


def _check_ctrl_structure(prog) -> list[Diagnostic]:
    out = []

    def walk(p):
        t = type(p)
        if t in (Loop, ODE):
            out.append(Diagnostic(
                CTRL_STRUCTURE, f"controller contains {t.__name__.lower()}"))
        elif t is Test:
            if not is_runtime_evaluable(p.cond):
                out.append(Diagnostic(
                    CTRL_STRUCTURE,
                    "controller test contains a quantifier or modality"))
        elif t in (Choice, Seq):
            walk(p.left)
            walk(p.right)

    walk(prog)
    return out


def _check_modified(prog, state_names: set[str], where: str) -> list[Diagnostic]:
    out = []

    def walk(p):
        t = type(p)
        if t in (Assign, AssignAny):
            if p.var.name not in state_names or p.var.index is not None:
                out.append(Diagnostic(
                    MODIFIES_NONSTATE, f"{where} modifies non-state variable {p.var}"))
        elif t is ODE:
            for x, _ in p.eqs:
                if x.name not in state_names:
                    out.append(Diagnostic(
                        MODIFIES_NONSTATE, f"{where} evolves non-state variable {x}"))
        elif t in (Choice, Seq):
            walk(p.left)
            walk(p.right)
        elif t is Loop:
            walk(p.body)

    walk(prog)
    return out


def _check_strategy(spec: ShieldSpec, unknown_names: set[str]) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    local = set(spec.local_params)
    local_names = {p.name for p in local}
    params = set(spec.param_idents)
    seen_first: dict[Ident, bool] = {}

    for a in spec.infer:
        body = a.body
        # the runtime tightens each target in the valuation the monitor
        # checks, so any other target would replace what the monitor reads
        if a.target.index is not None or a.target not in params:
            out.append(Diagnostic(
                INFER_TARGET,
                f"inference target {a.target} is not an unindexed declared bound parameter"))
        nodes = (*a.terms, a.guard)
        for t in nodes:
            for name, _arity in spec.symbols(t):
                if name in unknown_names:
                    out.append(Diagnostic(
                        UNKNOWN_IN_STRATEGY,
                        f"assignment to {a.target} mentions unknown {name}"))
        if not is_runtime_evaluable(a.guard):
            out.append(Diagnostic(
                GUARD_NOT_EVALUABLE,
                f"guard of assignment to {a.target} is not runtime-evaluable"))

        declared_idx = set(getattr(body, "indices", ()))
        for t in nodes:
            for v in spec.free_vars(t):
                if isinstance(v.index, str) and v.index not in declared_idx:
                    out.append(Diagnostic(
                        UNDECLARED_INDEX,
                        f"index name {v.index!r} in assignment to {a.target} "
                        "is not declared by the assignment"))

        if not isinstance(body, Aggregate):
            # only an aggregate's tail bound accounts for noise
            outside, where = nodes, "direct or best assignment"
        else:
            # and only in its noise component: a guard reads it as undefined
            outside, where = (a.guard,), "guard of aggregate assignment"
            for v in spec.free_vars(body.observable):
                if v.name in spec.noise_names:
                    out.append(Diagnostic(
                        NOISE_IN_AGG_OBSERVABLE,
                        f"noise variable {v} in observable component of {a.target}"))
            for v in spec.free_vars(body.noise):
                if v.name in spec.obs_names:
                    out.append(Diagnostic(
                        OBS_IN_AGG_NOISE,
                        f"observation variable {v} in noise component of {a.target}"))
        for v in spec.free_vars(*outside):
            if v.name in spec.noise_names:
                out.append(Diagnostic(
                    NOISE_OUTSIDE_AGG, f"noise variable {v} in {where} to {a.target}"))

        if a.target in local and a.target not in seen_first:
            seen_first[a.target] = _is_valid_default(a, spec, local_names)

    for p in spec.local_params:
        if not seen_first.get(p, False):
            out.append(Diagnostic(
                LOCAL_WITHOUT_DEFAULT,
                f"local parameter {p} is not given an unguarded default value "
                "by its first assignment"))
    return out


def _is_valid_default(a, spec: ShieldSpec, local_names: set[str]) -> bool:
    """First assignment to a local parameter must be an unguarded direct
    assignment free of observations, indexed variables and other locals."""
    if not isinstance(a.body, Direct):
        return False
    if a.guard != BoolLit(True):
        return False
    for v in spec.free_vars(a.body.term):
        if v.index is not None:
            return False
        if v.name in spec.obs_names:
            return False
        if v.name in local_names and v.name != a.target.name:
            return False
    return True


def _check_fallback(spec: ShieldSpec) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    if spec.fallback is None:
        out.append(Diagnostic(FALLBACK_MISSING, "no fallback template declared"))
        return out
    for guard, template in spec.fallback.cases:
        err = _template_shape_error(spec.ctrl, template)
        if err:
            out.append(Diagnostic(FALLBACK_SHAPE, err))
        if guard is not None and not is_runtime_evaluable(guard):
            out.append(Diagnostic(FALLBACK_SHAPE, "fallback guard not evaluable"))
    return out


def _template_shape_error(ctrl, template) -> str | None:
    """Walk the controller along the template; every choice consumes a branch
    directive, every unconstrained assignment consumes a term."""
    try:
        walk_directives(ctrl, template, _term_directive)
    except StructureError as e:
        return f"fallback template: {e}"
    return None


def _term_directive(p, d) -> float:
    if isinstance(d, str):
        raise StructureError(f"expected a term for {p.var} := *")
    return 0.0
