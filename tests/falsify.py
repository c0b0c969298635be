"""Numeric falsification sweeps for generated obligations.

For each evaluable obligation (quantifier-free apart from the globally
certified assumptions), the sweep samples valuations that satisfy the
hypotheses by construction: ground-truth unknowns are resampled per trial,
states are drawn per environment, observation variables and the assigned
parameter are derived from their equality hypotheses, bound parameters are
derived from their bound shapes with a nonnegative margin, and the invariant
is arranged to hold.  The conclusion must then hold on every non-vacuous
trial.  Noise variables are drawn from widened distributions, which only
strengthens the probe since the obligations are plain implications over the
reals.

Conclusions are checked with a tiny relative slack (1e-9): deriving a
variable from an equality hypothesis commits to one floating-point rounding,
so a real-arithmetic-valid obligation can numerically miss by an ulp.
"""

from adashield.dl import (
    And, Cmp, Ident, Imp, Not, Or, UNDEF, Var, eval_formula, eval_term,
)
from adashield.dl.semantics import StructuralError
from adashield.dl.syntax import BoolLit
from adashield.specfile import ShieldSpec

from dl_oracle import conjuncts

CONCL_RTOL = 1e-9


def _index_symbols(formula):
    from adashield.dl import free_vars
    return sorted({v.index for v in free_vars(formula) if isinstance(v.index, str)})


def robust_true(f, interp, val, tol=CONCL_RTOL):
    """Three-valued truth with a relative slack on comparisons."""
    t = type(f)
    if t is Cmp:
        a = eval_term(f.left, interp, val)
        b = eval_term(f.right, interp, val)
        if a is UNDEF or b is UNDEF:
            return UNDEF
        slack = tol * max(1.0, abs(a), abs(b))
        if f.op == "=":
            return abs(a - b) <= slack
        if f.op in ("<", "<="):
            return a <= b + slack
        return a >= b - slack
    if t is BoolLit:
        return f.value
    if t is Not:
        r = robust_true(f.arg, interp, val, tol)
        return UNDEF if r is UNDEF else not r
    if t is And:
        l = robust_true(f.left, interp, val, tol)
        if l is False:
            return False
        r = robust_true(f.right, interp, val, tol)
        if r is False:
            return False
        return UNDEF if UNDEF in (l, r) else True
    if t is Or:
        l = robust_true(f.left, interp, val, tol)
        if l is True:
            return True
        r = robust_true(f.right, interp, val, tol)
        if r is True:
            return True
        return UNDEF if UNDEF in (l, r) else False
    if t is Imp:
        return robust_true(Or(Not(f.left), f.right), interp, val, tol)
    raise StructuralError(f"not robustly evaluable: {f!r}")


def sweep_obligation(spec: ShieldSpec, obligation, sampler, rng,
                     trials: int = 10_000, min_live_fraction: float = 0.05):
    """Return (live, vacuous, counterexamples) for one obligation.

    ``sampler(rng, idx_syms)`` must return ``(valuation, interp)`` with the
    trial's ground-truth interpretation.
    """
    hyps = conjuncts(obligation.formula.left)
    concl = obligation.formula.right
    idx_syms = _index_symbols(obligation.formula)
    live = vacuous = 0
    counterexamples = []

    defined = {h.left.ident for h in hyps
               if isinstance(h, Cmp) and h.op == "=" and isinstance(h.left, Var)}

    for _ in range(trials):
        val, interp = sampler(rng, idx_syms)
        for ident in defined:  # equality hypotheses own these definitions
            val.pop(ident, None)
        _derive_params(spec, obligation.formula, val, interp, rng, hyps)
        # derive equality-defined variables to a fixpoint (definitions may
        # reference each other in either order)
        pending = [h for h in hyps
                   if isinstance(h, Cmp) and h.op == "=" and
                   isinstance(h.left, Var) and h.left.ident not in val]
        progress = True
        while pending and progress:
            progress = False
            for h in list(pending):
                r = eval_term(h.right, interp, val)
                if r is not UNDEF:
                    val[h.left.ident] = r
                    pending.remove(h)
                    progress = True
        ok = True
        for h in hyps:
            try:
                r = eval_formula(h, interp, val)
            except StructuralError:
                continue  # quantified assumption, certified by the environment
            if r is UNDEF or not r:
                ok = False
                break
        if not ok:
            vacuous += 1
            continue
        live += 1
        if robust_true(concl, interp, val) is not True:
            counterexamples.append(dict(val))
            if len(counterexamples) >= 3:
                break

    assert live >= trials * min_live_fraction, (
        f"{obligation.name}: only {live}/{trials} non-vacuous trials")
    return live, vacuous, counterexamples


def _derive_params(spec, formula, val, interp, rng, hyps):
    """Give every referenced bound parameter a value satisfying its bound,
    with a nonnegative random margin.

    Parameters defined by an equality hypothesis (the assigned parameter and
    observation definitions) are left to be derived from it.  A parameter
    tagged @2 whose @1 twin exists is tightened relative to the twin so that
    monotonicity hypotheses fire on most trials.
    """
    from adashield.dl import free_vars, substitute, tag_with_index
    params = {p.name: p for p in spec.param_idents}
    defined = {h.left.ident for h in hyps
               if isinstance(h, Cmp) and h.op == "=" and isinstance(h.left, Var)}
    todo = sorted((v for v in free_vars(formula)
                   if v not in val and v not in defined and v.name in params),
                  key=lambda v: (str(v.index), v.name))
    for v in todo:
        param = params[v.name]
        if v.index == 2 and Ident(v.name, 1) in val:
            margin = abs(rng.normal(0.0, 1.0))
            base = val[Ident(v.name, 1)]
            val[v] = base + margin if spec.directions[param] == "up" \
                else base - margin
            continue
        bound = spec.bound_formulas[param]
        if v.index is None:
            pass
        elif isinstance(v.index, int):
            bound = substitute(bound, {param: Var(Ident(v.name, v.index))})
        else:
            bound = tag_with_index(bound, v.index)
        value = _satisfy_bound(bound, Ident(v.name, v.index), val, interp, rng)
        if value is not None:
            val[v] = value


def _satisfy_bound(bound, ident, val, interp, rng):
    if not isinstance(bound, Cmp):
        return None
    margin = abs(rng.normal(0.0, 1.0))
    if isinstance(bound.left, Var) and bound.left.ident == ident:
        other = eval_term(bound.right, interp, val)
        if other is UNDEF:
            return None
        if bound.op in ("<=", "<"):
            return other - margin
        return other + margin
    if isinstance(bound.right, Var) and bound.right.ident == ident:
        other = eval_term(bound.left, interp, val)
        if other is UNDEF:
            return None
        if bound.op in ("<=", "<"):
            return other + margin
        return other - margin
    return None


# -- per-environment base samplers -------------------------------------------

def train_sampler(env):
    """States satisfying the train invariant, with indexed history copies;
    the track phase is resampled per trial in meta mode."""
    c = env.cfg
    B, F, k = c.B, c.F, c.k

    def sample(rng, idx_syms):
        env.reset(rng)
        f = env.unknowns()["f"]
        interp = {**env.consts, **env.unknowns()}
        v = rng.uniform(0.0, 40.0)
        y_extra = abs(rng.normal(0.0, 1.0))
        slack = abs(rng.normal(0.0, 200.0))
        x = -slack - 1.0
        for _ in range(3):
            y = f(x) + y_extra
            beta = v * v / (2.0 * (B - min(F, y + k * v * v / (2.0 * (B - F)))))
            x = -beta - slack - 1.0
        y = f(x) + y_extra
        val = {Ident("x"): x, Ident("v"): v, Ident("y"): y,
               Ident("a"): rng.uniform(-c.A, c.A), Ident("t"): rng.uniform(0, c.T)}
        for s in idx_syms:
            xi = x + rng.uniform(-300.0, 300.0)
            val[Ident("x", s)] = xi
            val[Ident("v", s)] = rng.uniform(0.0, 40.0)
            val[Ident("y", s)] = f(xi) + abs(rng.normal(0.0, 1.0))
            if c.noise_kind == "uniform":
                val[Ident("eta", s)] = rng.uniform(-c.eta_r, c.eta_r)
            else:
                val[Ident("eta", s)] = rng.normal(0.0, c.sigma)
        return val, interp

    return sample


def river_sampler(env):
    c = env.cfg
    env.meta_mode = True

    def sample(rng, idx_syms):
        env.reset(rng)
        yb = env.unknowns()["yb"]
        interp = {**env.consts, **env.unknowns()}
        on_river = rng.random() < 0.3
        yb_up = yb + abs(rng.normal(0.0, 2.0))
        yb_lo = yb - abs(rng.normal(0.0, 2.0))
        if on_river:
            x = 0.0
            y = rng.uniform(yb_up - c.W, yb_lo + c.W) if yb_up - c.W <= yb_lo + c.W \
                else yb
        else:
            x = rng.uniform(-20.0, 20.0) or 1.0
            y = rng.uniform(-20.0, 20.0)
        val = {Ident("x"): x, Ident("y"): y, Ident("t"): rng.uniform(0, c.T),
               Ident("vx"): rng.uniform(-c.V, c.V),
               Ident("vy"): rng.uniform(-c.V, c.V),
               Ident("l"): float(rng.random() < 0.5),
               Ident("yb_up"): yb_up, Ident("yb_lo"): yb_lo}
        for s in idx_syms:
            val[Ident("x", s)] = rng.uniform(-20.0, 20.0)
            val[Ident("y", s)] = rng.uniform(-20.0, 20.0)
            val[Ident("eta", s)] = rng.normal(0.0, c.sigma)
        return val, interp

    return sample


def acas_sampler(env):
    c = env.cfg
    env.meta_mode = True

    def sample(rng, idx_syms):
        env._intruder = None
        env.reset(rng)
        it = env._intruder
        interp = {**env.consts, **env.unknowns()}
        t = rng.uniform(0.0, c.tm)
        v = rng.uniform(-20.0, 20.0)
        hm_up = it.h(c.tm) + abs(rng.normal(0.0, 50.0))
        hm_lo = it.h(c.tm) - abs(rng.normal(0.0, 50.0))
        # choose a branch of the invariant and place the ownship on it
        if rng.random() < 0.5:
            h = hm_up + c.R - v * (c.tm - t) - c.A * (c.tm - t) ** 2 / 2 \
                + abs(rng.normal(0.0, 100.0))
        else:
            h = hm_lo - c.R - v * (c.tm - t) + c.A * (c.tm - t) ** 2 / 2 \
                - abs(rng.normal(0.0, 100.0))
        val = {Ident("h"): h, Ident("v"): v, Ident("t"): t,
               Ident("t0"): max(0.0, t - c.T),
               Ident("hnext"): rng.normal(0.0, 100.0),
               Ident("vnext"): rng.normal(0.0, 10.0),
               Ident("tleft"): max(c.tm - t - c.T, 0.0),
               Ident("hmint_up"): hm_up, Ident("hmint_lo"): hm_lo}
        for s in idx_syms:
            ti = rng.uniform(0.0, t) if rng.random() < 0.8 else rng.uniform(0.0, c.tm)
            val[Ident("t", s)] = ti
            val[Ident("etav", s)] = rng.normal(0.0, c.sigv)
            val[Ident("etah", s)] = rng.normal(0.0, c.sigh)
            # widened boolean noise probes both branches of the evidence rule
            val[Ident("etac", s)] = float(rng.random() < 0.5)
        return val, interp

    return sample
