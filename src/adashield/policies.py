"""Hardcoded control and inference policies.

These stand in for learned policies: they consume only the policy-facing
view (state features, bound values, availability, budget progress) and emit
shield-level actions.  A learned policy would implement the same callables.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .dl import Ident
from .actions import make_action
from .runtime import PolicyView, Shield
from .strategy import AggregateAction

_X, _Y = Ident("x"), Ident("y")


def fraction_rule(steps_since_last: int, total_steps: int, remaining: float) -> float:
    """Tolerance for one aggregation in fixed-budget runs: the fraction of the
    remaining budget equal to the fraction of the run elapsed since the last
    aggregation."""
    return (steps_since_last / total_steps) * remaining


def _clamp(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def _fill_slots(shield: Shield, best, agg) -> tuple:
    """One slot per assignment: ``best`` in best slots, ``agg`` in aggregate
    slots, nothing in direct ones."""
    return tuple(None if kind == "direct" else best if kind == "best" else agg
                 for kind, _ in shield.strategy.space)


def _uniform(indices: list[int]) -> tuple:
    w = 1.0 / len(indices)
    return tuple((w, (i,)) for i in indices)


# ---------------------------------------------------------------------------
# Control policies

def greedy_train_control(shield: Shield, env) -> Callable[[PolicyView], object]:
    """Always propose acceleration; the shield overrides with braking."""
    accel = make_action(shield.spec.ctrl, ["left"])

    def policy(view: PolicyView):
        return accel

    return policy


def river_control(shield: Shield, env) -> Callable[[PolicyView], object]:
    """Scripted search-then-cross: sit near the river with the lamp on, sweep
    along it until the bound corridor opens, then head through."""
    ctrl = shield.spec.ctrl
    V = env.consts["V"]
    W = env.consts["W"]
    yb_lo, yb_up = Ident("yb_lo"), Ident("yb_up")

    def policy(view: PolicyView):
        x = view.state[_X]
        y = view.state[_Y]
        lo, up = view.bounds[yb_lo], view.bounds[yb_up]
        sgn = math.copysign(1.0, x) if x != 0.0 else 1.0
        if up - lo <= 2 * W:  # crossing corridor is nonempty
            target = 0.5 * (lo + up)
            if abs(y - target) <= 0.4 * W:
                vx = -sgn * min(V, abs(x) + 0.5)
                vy = _clamp(target - y, -V, V)
            else:
                vx = -sgn * min(V, max(0.0, abs(x) - 0.5))
                vy = _clamp(target - y, -V, V)
            lamp = 0.0
        else:
            vx = -sgn * min(V, max(0.0, abs(x) - 0.5))
            span = 48.0
            pos = (view.step * V) % span
            target = -12.0 + (pos if pos < span / 2 else span - pos)
            vy = _clamp(target - y, -V, V)
            lamp = 1.0 if abs(x) <= 6.0 else 0.0
        return make_action(ctrl, [vx, vy, lamp])

    return policy


def river_naive_control(shield: Shield, env) -> Callable[[PolicyView], object]:
    """Head straight for the river and cross at the current bound midpoint
    without waiting for evidence; safe only under a shield."""
    ctrl = shield.spec.ctrl
    V = env.consts["V"]
    yb_lo, yb_up = Ident("yb_lo"), Ident("yb_up")

    def policy(view: PolicyView):
        x = view.state[_X]
        y = view.state[_Y]
        target = 0.5 * (view.bounds[yb_lo] + view.bounds[yb_up])
        sgn = math.copysign(1.0, x) if x != 0.0 else 1.0
        vx = -sgn * min(V, abs(x) + 0.5)
        vy = _clamp(target - y, -V, V)
        return make_action(ctrl, [vx, vy, 0.0])

    return policy


def acas_control(shield: Shield, env) -> Callable[[PolicyView], object]:
    """Propose level flight; avoidance maneuvers come from the fallback."""
    level = make_action(shield.spec.ctrl, [0.0])

    def policy(view: PolicyView):
        return level

    return policy


# ---------------------------------------------------------------------------
# Inference policies

def skip_inference(shield: Shield, env) -> Callable[[PolicyView], tuple]:
    empty = shield.empty_action

    def policy(view: PolicyView):
        return empty

    return policy


def sisyphean_inference(shield: Shield, env, n_obs: int = 10,
                        radius: float = 100.0, total_steps: int = 80_000,
                        best_window: int = 25) -> Callable:
    """Aggregate whenever ``n_obs`` fresh observations lie within ``radius``
    of the current position, spending a run-fraction of the remaining budget.

    The greedy stand-in agent passes through any radius faster than a
    learning agent would, so the default batch is 10; the 20-observation
    variant is available through ``n_obs``."""
    def policy(view: PolicyView):
        x = view.state[_X]
        fresh = [hv.index for hv in view.history
                 if "w" in hv.available and abs(hv.state[_X] - x) <= radius]
        agg: Optional[AggregateAction] = None
        if len(fresh) >= n_obs:
            consumed_at = [hv.index for hv in view.history if not hv.available]
            since = view.step - (max(consumed_at) if consumed_at else 0)
            eps = fraction_rule(max(since, 1), total_steps, view.budget_remaining)
            agg = AggregateAction(eps, _uniform(fresh[-n_obs:]))
        best = tuple((hv.index,) for hv in view.history[-best_window:])
        return _fill_slots(shield, best, agg)

    return policy


def periodic_train_inference(shield: Shield, env, every: int = 20,
                             eps: Optional[float] = None,
                             best_window: int = 25) -> Callable:
    """Aggregate all available observations every ``every`` steps with a fixed
    per-aggregation tolerance (defaults to budget * every / max_steps)."""
    def policy(view: PolicyView):
        agg = None
        if (view.step + 1) % every == 0:
            fresh = [hv.index for hv in view.history if "w" in hv.available]
            if fresh:
                e = eps if eps is not None else view.budget_initial * every / view.max_steps
                agg = AggregateAction(min(e, 1.0), _uniform(fresh))
        best = tuple((hv.index,) for hv in view.history[-best_window:])
        return _fill_slots(shield, best, agg)

    return policy


def river_inference(shield: Shield, env, eps: float = 1e-8) -> Callable:
    """Aggregate every available bridge observation as soon as it exists."""

    def policy(view: PolicyView):
        fresh = [hv.index for hv in view.history if "w" in hv.available]
        if not fresh:
            return (None, None)
        agg = AggregateAction(eps, _uniform(fresh))
        return (agg, agg)

    return policy


def acas_inference(shield: Shield, env, eps_track: float = 5e-10,
                   eps_evidence: float = 1e-8) -> Callable:
    """Track intruder position/velocity off the freshest measurement each
    cycle and claim compliance once both evidence observations are in.

    Tracking aggregates avoid evidence-bearing entries so that surfacing a
    position measurement never burns unused compliance evidence.
    """
    def policy(view: PolicyView):
        track = None
        evidence = None
        candidates = [hv for hv in view.history
                      if "wv" in hv.available and "wc" not in hv.available]
        if candidates:
            track = AggregateAction(eps_track, ((1.0, (candidates[-1].index,)),))
        pending = [hv.index for hv in view.history if "wc" in hv.available]
        if len(pending) >= 2:
            evidence = AggregateAction(eps_evidence, _uniform(pending[-2:]))
        # strategy order: four tracking aggregates, then the evidence one
        aggs = iter((track, track, track, track, evidence))
        return tuple(next(aggs) if kind == "aggregate" else None
                     for kind, _ in shield.strategy.space)

    return policy


CONTROL_POLICIES = {
    "greedy-train": greedy_train_control,
    "river-scripted": river_control,
    "river-naive": river_naive_control,
    "acas-level": acas_control,
}

#: control policy used by --unshielded runs (a naive agent with no shield)
UNSHIELDED_CONTROL = {
    "river": "river-naive",
}

INFERENCE_POLICIES = {
    "skip": skip_inference,
    "sisyphean-infer": sisyphean_inference,
    "aggregate-every-20": lambda s, e: periodic_train_inference(s, e, every=20),
    "aggregate-every-1": lambda s, e: periodic_train_inference(s, e, every=1),
    "river-infer": river_inference,
    "acas-infer": acas_inference,
}

DEFAULT_POLICIES = {
    "sisyphean": ("greedy-train", "sisyphean-infer"),
    "versatile": ("greedy-train", "aggregate-every-20"),
    "versatile-small": ("greedy-train", "aggregate-every-20"),
    "river": ("river-scripted", "river-infer"),
    "acas": ("acas-level", "acas-infer"),
}
