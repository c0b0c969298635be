"""Shielded-environment runtime: budgeted inference, monitoring, fallback
override and episode/experiment execution.

A transition runs in the documented order: interpret the inference strategy
under the policy's action, surface referenced historical measurements
(burning their availability so nothing is reused across control cycles),
execute the budgeted symbolic assignments, refresh the bound instantiations,
then monitor the proposed control action and override it with the fallback
when rejected, and finally step the underlying environment.

Measurements are taken eagerly when a history entry is created and cached
privately; the cache is never exposed through any policy-facing surface.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from .dl import (
    Assign, AssignAny, Choice, Ident, Module, Seq, UNDEF, eval_formula, eval_term,
    is_runtime_evaluable,
)
from .specfile import ShieldSpec
from .actions import (
    ALeft, APair, AReal, ARight, AUnit,
    ControlAction, ControllerEvaluators, FallbackViolation, action_fits,
    controller_code, ctrl_exec, ctrl_monitor, derive_action_space,
    resolve_fallback,
)
# referenced_indices is not called per step; shieldbench's tracer wraps it here
from .strategy import (  # noqa: F401
    FAILED, TIGHTENED, CompiledStrategy, InferenceAction, WindowSBI,
    empty_action, eval_sbi, interpret_strategy, observation_reads, referenced_indices,
    referenced_observations, template_code, tighten,
)

TRACE_SCHEMA_VERSION = 2

_MISSING = object()

#: what is still available at a history entry that surfacing burnt
_BURNT = frozenset()


class InitialConditionViolation(Exception):
    pass


class LocalParamUnset(Exception):
    """A local parameter ended an inference cycle without a value; the static
    default-assignment check should have ruled this out."""


class KahanLedger:
    """Compensated accumulator for spent tolerance, against a budget in
    [0, 1]: under a NaN budget no spending would ever be refused."""

    __slots__ = ("initial", "_sum", "_comp")

    def __init__(self, initial: float):
        self.initial = float(initial)
        if not 0.0 <= self.initial <= 1.0:
            raise ValueError(f"budget must lie in [0, 1], got {self.initial}")
        self._sum = 0.0
        self._comp = 0.0

    def add(self, x: float) -> float:
        """Spend ``x``; the budget that remains."""
        y = x - self._comp
        t = self._sum + y
        self._comp = (t - self._sum) - y
        self._sum = t
        return self.initial - t

    @property
    def spent(self) -> float:
        return self._sum

    @property
    def remaining(self) -> float:
        return self.initial - self._sum


class HistoryView(NamedTuple):
    """The policy-facing part of a history entry: its index, a read-only
    view of its state and the observations still available at it.  A
    tuple, so that no field can be reassigned, not even through
    ``object.__setattr__``."""

    index: int
    state: Mapping
    available: frozenset


@dataclass
class HistoryEntry:
    """A history entry: the state mapping its view shares, its local bounds
    and its private measurements."""

    state: dict
    local_bounds: dict
    cache: dict = field(default_factory=dict, repr=False)


@dataclass
class ShieldedState:
    """The one record of an episode, which each transition updates in
    place.  ``state`` is ``env.state_map(env_state)``, computed once per
    env state; ``bounds`` the bounds in force, global and the last entry's
    local ones; ``views[i - 1]`` the view of history entry ``i``, the only
    record of what is still available at it."""

    env_state: object
    state: dict
    bounds: dict
    global_bounds: dict
    ledger: KahanLedger
    history: list = field(default_factory=list)
    views: list = field(default_factory=list)


class AssignmentRecord(NamedTuple):
    """What one SBI did, or that it was skipped for lack of budget: how
    many entries it evaluated (a window's index tuples, or 1 for an
    aggregate), and how many of them were BOTTOM or not finite and how
    many tightened the target.  So a record's size does not grow with the
    agent's window."""

    param: str
    eps: float
    skipped: bool
    entries: int
    bottom: int
    tightened: int
    method: Optional[str]


@dataclass
class StepRecord:
    episode: int
    step: int
    #: the control action as checked, None if it did not fit
    proposed: object
    overridden: bool
    executed: object
    bounds_before: dict
    bounds_after: dict
    assignments: list
    consumed: list
    availability: list
    reward: float
    safe: bool
    terminal: bool

    def to_json(self) -> dict:
        def enc(a):
            t = type(a)
            if t is AUnit:
                return "*"
            if t is AReal:
                return a.value
            if t is APair:
                return [enc(a.left), enc(a.right)]
            if t is ALeft:
                return {"left": enc(a.action)}
            if t is ARight:
                return {"right": enc(a.action)}
            return str(a)

        return {
            "v": TRACE_SCHEMA_VERSION,
            "episode": self.episode,
            "step": self.step,
            "proposed": enc(self.proposed),
            "overridden": self.overridden,
            "executed": enc(self.executed),
            "bounds_before": {str(k): v for k, v in self.bounds_before.items()},
            "bounds_after": {str(k): v for k, v in self.bounds_after.items()},
            "assignments": [a._asdict() for a in self.assignments],
            "consumed": self.consumed,
            "availability": self.availability,
            "reward": self.reward,
            "safe": self.safe,
            "terminal": self.terminal,
        }


@dataclass(frozen=True)
class PolicyView:
    """Policy-facing projection of a shielded state.

    Carries state features, current bound values, step/budget progress and
    per-entry observation availability; never any measurement value.  It is
    a snapshot the policy cannot write through: the history views are the
    runtime's own, but frozen and read-only, and ``state`` and ``bounds``
    are copies.
    """

    state: dict
    bounds: dict
    step: int
    max_steps: int
    budget_remaining: float
    budget_initial: float
    history: tuple


class ShieldCode(NamedTuple):
    """What a step evaluates, as code generated against a ``Shield``'s
    constants, which no generated function takes: per strategy template its
    evaluator (``template_code``), and the controller's
    ``ControllerEvaluators``, fallback included; per template that reads an
    observation, the observations it reads (``observation_reads``); and per
    template its target's printed name."""

    templates: dict
    ctrl: ControllerEvaluators
    reads: dict
    targets: dict


class Shield:
    """A checked spec compiled against an environment's constants.

    Everything that depends on the spec alone is worked out here once, not
    on every step: both action spaces, the empty inference action and the
    compiled strategy, whose templates every step's SBIs bind, and the
    state variables an environment's state map must give.  The
    generated code of ``code`` is specialized to the constants ``interp``,
    read-only so that they cannot change after, and compiled on first use,
    which is the first transition, so that a shield that never steps does
    not pay for it.
    """

    def __init__(self, spec: ShieldSpec, consts: dict):
        self.spec = spec
        self.interp = MappingProxyType(dict(consts))
        self.ctrl_space = derive_action_space(spec.ctrl)
        self.strategy = CompiledStrategy(spec.infer, spec.directions, spec.noise_decls,
                                         spec.free_vars)
        self.empty_action = empty_action(spec.infer)
        #: every state variable but those the controller assigns
        self.mapped = tuple(sorted(spec.state_vars - _assigned(spec.ctrl), key=str))

    @cached_property
    def code(self) -> ShieldCode:
        """One module, generated against ``interp``, for every term and
        formula a step evaluates: the strategy templates, the controller and
        the fallback."""
        m = Module(self.interp)
        spec = self.spec
        ts = self.strategy.templates
        return ShieldCode(
            {t: template_code(m, t, spec.obs_names) for t in ts},
            controller_code(m, spec.ctrl, spec.fallback),
            observation_reads(ts, spec.obs_names),
            {t: str(t.assign.target) for t in ts})

    def initial_globals(self, env) -> dict:
        if self.spec.initial_global_bounds:
            out = {}
            for p, t in self.spec.initial_global_bounds.items():
                v = eval_term(t, self.interp, {})
                if v is UNDEF:
                    raise InitialConditionViolation(
                        f"initial value for {p} is not a closed constant term")
                out[p] = v
            return out
        env_defaults = env.initial_global_bounds()
        if env_defaults is None and self.spec.global_params:
            raise InitialConditionViolation(
                "no initial global bound instantiation available")
        return dict(env_defaults or {})


def init_shielded_state(shield: Shield, env, ledger: KahanLedger, rng) -> ShieldedState:
    """Reset the environment and verify the initial-state contract against
    ground truth (a simulation-only privilege)."""
    spec = shield.spec
    s0 = env.reset(rng)
    b_g = shield.initial_globals(env)
    missing = [p for p in spec.global_params if p not in b_g]
    if missing:
        raise InitialConditionViolation(
            f"initial global bounds missing for {sorted(map(str, missing))}")

    audit_interp = {**shield.interp, **env.unknowns()}
    state = env.state_map(s0)
    missing = [v for v in shield.mapped if v not in state]
    if missing:
        raise InitialConditionViolation(
            f"the environment's state maps no state variable(s) {list(map(str, missing))}")
    val = {**state, **b_g}
    for name, f in _initial_conjuncts(spec):
        r = eval_formula(f, audit_interp, val)
        if r is UNDEF or not r:
            raise InitialConditionViolation(f"initial state violates {name}")

    return ShieldedState(s0, state, dict(b_g), b_g, ledger)


def _assigned(p) -> frozenset:
    """The variables the controller ``p`` assigns."""
    t = type(p)
    if t is Choice or t is Seq:
        return _assigned(p.left) | _assigned(p.right)
    return frozenset({p.var}) if t is Assign or t is AssignAny else frozenset()


def _initial_conjuncts(spec: ShieldSpec):
    for f in spec.assumptions:
        if is_runtime_evaluable(f):
            yield "an assumption", f
    for p in spec.global_params:
        yield f"the bound for {p}", spec.bound_formulas[p]
    yield "the invariant", spec.invariant


def make_policy_view(shield: Shield, env, st: ShieldedState, step: int,
                     max_steps: int) -> PolicyView:
    # shield and env go unread; the benchmark's tracer reads step as the
    # fourth positional argument
    return PolicyView(
        state=dict(st.state),
        bounds=dict(st.bounds),
        step=step,
        max_steps=max_steps,
        budget_remaining=st.ledger.remaining,
        budget_initial=st.ledger.initial,
        history=tuple(st.views),
    )


class StepValuation:
    """What the SBIs of step ``n`` read (see ``strategy.DictValuation``).
    ``x`` and ``x@n`` resolve to ``current``: the state, the global bounds
    and the bounds assigned so far this step.  ``x@i`` for ``1 <= i < n``
    resolves from history entry ``i``: through ``obs``, an observation
    surfaced at this step, else, as through ``at``, its local bounds, else
    its state.  Any other index resolves to nothing.  Reading the entry is
    one lookup, so nothing is copied per step."""

    __slots__ = ("current", "history", "n", "surfaced")

    def __init__(self, current: dict, history: list, n: int):
        self.current = current
        self.history = history
        self.n = n
        #: ``(name, i)`` -> value of each observation surfaced this step,
        #: all at history indices ``1 <= i < n``
        self.surfaced: dict = {}

    def at(self, key: Ident, i: int):
        """The unindexed state variable or bound ``key`` at history index
        ``i``, or UNDEF."""
        if i == self.n:
            return self.current.get(key, UNDEF)
        if not 0 < i < self.n:
            return UNDEF
        entry = self.history[i - 1]
        x = entry.local_bounds.get(key, _MISSING)
        return entry.state.get(key, UNDEF) if x is _MISSING else x

    def obs(self, key: Ident, i: int):
        """``at(key, i)``, where an observation surfaced at ``i`` comes
        first."""
        x = self.surfaced.get((key[0], i), _MISSING)
        return self.at(key, i) if x is _MISSING else x


def shielded_transition(shield: Shield, st: ShieldedState, env,
                        a_ctrl: ControlAction, a_inf: InferenceAction,
                        env_rng, measure_rng, episode: int, step: int,
                        unshielded: bool = False):
    """One transition of the shielded environment, made on ``st`` in place.

    Returns ``(record, timing)`` where timing is ``(shield_seconds,
    env_seconds)``.  The record holds the reward, whether the episode
    ended, and copies of the bounds, not the dicts the next step reads.
    """
    spec = shield.spec
    interp = shield.interp
    t0 = time.perf_counter()
    code = shield.code

    # a malformed inference action reads as the empty one
    assignments = interpret_strategy(spec.infer, a_inf, spec.directions,
                                     spec.noise_decls, shield.strategy)

    history = st.history
    views = st.views
    n = len(history) + 1
    sval = st.state
    v: dict = dict(sval)
    v.update(st.global_bounds)
    val = StepValuation(v, history, n)

    consumed: list = []
    for i, names in sorted(referenced_observations(assignments, code.reads).items()):
        if not 1 <= i < n:
            continue
        hv = views[i - 1]
        if not hv.available:
            continue
        cache = history[i - 1].cache
        for name in sorted(names) if len(names) > 1 else names:
            if name in hv.available:
                val.surfaced[(name, i)] = cache[name]
                consumed.append((i, name))
        # nothing at this step may be reused later; the view is built past
        # HistoryView's Python-level constructor
        views[i - 1] = tuple.__new__(HistoryView, (i, hv.state, _BURNT))

    ledger = st.ledger
    remaining = ledger.remaining
    targets = code.targets
    templates = code.templates
    arecs: list[AssignmentRecord] = []
    for param, sbi, eps in assignments:
        t = sbi.template
        # a direct or best SBI spends nothing, so it runs even when rounding
        # has left the remaining budget a hair below zero
        if eps and eps > remaining:
            arecs.append(AssignmentRecord(targets[t], eps, True, 0, 0, 0, None))
            continue
        # one add per SBI: after one add of 0.0, the next leaves the ledger
        # as it is, so a window's entries need no add of their own
        remaining = ledger.add(eps)
        r, method = eval_sbi(sbi, interp, val, templates)
        # a window tightened its target and gave its entries' outcomes; an
        # aggregate's tightening is its one outcome.  The record is built
        # past AssignmentRecord's Python-level constructor, a call per SBI
        if sbi.__class__ is not WindowSBI:
            r = (tighten(v, param, r, t.tail == "up"),)
        arecs.append(tuple.__new__(AssignmentRecord, (
            targets[t], eps, False, len(r), r.count(FAILED), r.count(TIGHTENED), method)))

    local_params = spec.local_params
    b_l = {p: v[p] for p in local_params if p in v}
    if len(b_l) != len(local_params):
        unset = [str(p) for p in local_params if p not in b_l]
        raise LocalParamUnset(f"local parameter(s) {unset} not assigned this cycle")
    b_g = {p: v[p] for p in spec.global_params}

    env_state = st.env_state
    availability = env.obs_available(env_state)
    history.append(HistoryEntry(sval, b_l, env.measure(env_state, measure_rng)))
    views.append(HistoryView(n, MappingProxyType(sval), frozenset(availability)))

    bounds = {**b_g, **b_l}
    # v holds the state and every bound now: what {**sval, **bounds} would
    mval = v
    # the one read of the control action; one that does not fit, of the
    # wrong shape or with a value not of an exact real type or past the
    # float range, cannot be run even unshielded, and is overridden like
    # one the monitor rejects.  The replay that checks an action runs it
    proposed = executed = a_ctrl if action_fits(shield.ctrl_space, a_ctrl) else None
    exec_vals = None
    if proposed is not None and not unshielded:
        exec_vals = ctrl_monitor(code.ctrl, mval, proposed)
    elif proposed is not None:
        exec_vals = ctrl_exec(code.ctrl, mval, proposed)
        # a path that assigns an undefined value cannot be run either
        if any(x is UNDEF for x in exec_vals.values()):
            exec_vals = None
    overridden = exec_vals is None
    if overridden:
        executed, exec_vals = resolve_fallback(code.ctrl, mval)

    t1 = time.perf_counter()
    s2, reward, terminal = env.step(env_state, exec_vals, env_rng)
    t2 = time.perf_counter()
    if not terminal:
        reward += env.shaping(bounds, ledger.remaining)

    record = StepRecord(
        episode=episode, step=step, proposed=proposed, overridden=overridden,
        executed=executed, bounds_before=st.bounds, bounds_after=dict(bounds),
        assignments=arecs, consumed=consumed,
        availability=sorted(availability),
        reward=reward, safe=env.ground_truth_safe(s2), terminal=terminal)

    st.env_state = s2
    st.state = env.state_map(s2)
    st.bounds = bounds
    st.global_bounds = b_g
    return record, (t1 - t0 + time.perf_counter() - t2, t2 - t1)


@dataclass
class EpisodeStats:
    episode: int
    steps: int
    ret: float
    crash: bool
    overrides: int
    eps_spent: float
    ledger_error: float
    reuse_violations: int
    shield_seconds: float
    env_seconds: float


def run_episode(shield: Shield, env, control_policy, inference_policy,
                ledger: KahanLedger, max_steps: int, seed_seq, episode: int = 0,
                unshielded: bool = False,
                record_sink: Optional[Callable] = None) -> EpisodeStats:
    """Run one episode; audits the tolerance ledger and observation reuse on
    the fly.  ``ledger_error`` is the largest of: the ledger's spending
    against the records' spent eps, any spent eps's distance from [0, 1],
    and how far the ledger passes its budget beyond rounding.  A policy
    that raises is treated as one that sent a malformed action: the
    control action is overridden, the inference action counts as empty.  A
    contract failure is raised again naming the episode and, past the
    initial state, the step."""
    reset_ss, env_ss, meas_ss = seed_seq.spawn(3)
    reset_rng = np.random.default_rng(reset_ss)
    env_rng = np.random.default_rng(env_ss)
    measure_rng = np.random.default_rng(meas_ss)

    try:
        st = init_shielded_state(shield, env, ledger, reset_rng)
    except InitialConditionViolation as e:
        raise InitialConditionViolation(f"episode {episode}: {e}") from e
    spent_before = ledger.spent

    total = 0.0
    overrides = 0
    crash = not env.ground_truth_safe(st.env_state)
    spent_records: list[float] = []
    seen_pairs: set = set()
    reuse = 0
    shield_s = env_s = 0.0
    steps = 0

    for step in range(max_steps):
        t0 = time.perf_counter()
        view = make_policy_view(shield, env, st, step, max_steps)
        shield_s += time.perf_counter() - t0
        try:
            a_ctrl = control_policy(view)
        except Exception:
            a_ctrl = None  # fits no action space, so the fallback runs
        try:
            a_inf = inference_policy(view)
        except Exception:
            a_inf = shield.empty_action
        try:
            rec, (ts, te) = shielded_transition(
                shield, st, env, a_ctrl, a_inf, env_rng, measure_rng,
                episode, step, unshielded)
        except (FallbackViolation, LocalParamUnset) as e:
            raise type(e)(f"episode {episode}, step {step}: {e}") from e
        shield_s += ts
        env_s += te
        total += rec.reward
        steps += 1
        overrides += 1 if rec.overridden else 0
        crash = crash or not rec.safe
        for a in rec.assignments:
            # a zero adds nothing to the sum and lies in [0, 1]
            if a.eps and not a.skipped:
                spent_records.append(a.eps)
        for pair in rec.consumed:
            key = tuple(pair)
            if key in seen_pairs:
                reuse += 1
            seen_pairs.add(key)
        if record_sink is not None:
            record_sink(rec)
        if rec.terminal:
            break

    # max(-e, e - 1) is e's distance from [0, 1] outside it, negative inside
    ledger_error = max(abs((ledger.spent - spent_before) - math.fsum(spent_records)),
                       max((max(-e, e - 1.0) for e in spent_records), default=0.0),
                       ledger.spent - ledger.initial - 4 * math.ulp(ledger.initial))
    return EpisodeStats(
        episode=episode, steps=steps, ret=total, crash=crash,
        overrides=overrides, eps_spent=ledger.spent - spent_before,
        ledger_error=ledger_error, reuse_violations=reuse,
        shield_seconds=shield_s, env_seconds=env_s)


@dataclass
class ExperimentConfig:
    spec_name: str
    env_factory: Callable
    control_policy: Callable  # factory: (shield, env) -> policy
    inference_policy: Callable
    episodes: int = 100
    max_steps: Optional[int] = None
    budget: float = 1e-3
    mode: str = "fixed"  # 'fixed' | 'meta'
    seed: int = 0
    unshielded: bool = False
    non_adaptive: bool = False


@dataclass
class ExperimentStats:
    episodes: list
    crashes: int
    mean_return: float
    overrides: int
    eps_spent: float
    ledger_error: float
    reuse_violations: int
    shield_seconds: float
    env_seconds: float
    steps: int


def run_episodes(shield: Shield, cfg: ExperimentConfig, episodes: range,
                 record_sink: Optional[Callable] = None) -> list[EpisodeStats]:
    """Run the episodes numbered ``episodes`` on one fresh environment and
    pair of policies.  In fixed mode one ledger spans the range and the
    environment's unknowns stay fixed; in meta mode both reset every
    episode, whose seed comes from ``cfg.seed`` and its number alone, so
    disjoint ranges can run in separate processes.  A non-adaptive run's
    inference policy sends the empty action."""
    env = cfg.env_factory()
    meta = env.meta_mode = cfg.mode == "meta"
    max_steps = env.max_steps if cfg.max_steps is None else cfg.max_steps
    control = cfg.control_policy(shield, env)
    if cfg.non_adaptive:
        inference = lambda view: shield.empty_action  # noqa: E731
    else:
        inference = cfg.inference_policy(shield, env)

    shared = None if meta else KahanLedger(cfg.budget)
    return [run_episode(shield, env, control, inference,
                        KahanLedger(cfg.budget) if meta else shared, max_steps,
                        np.random.SeedSequence(entropy=(cfg.seed, ep)),
                        episode=ep, unshielded=cfg.unshielded, record_sink=record_sink)
            for ep in episodes]


def aggregate_stats(episodes: list) -> ExperimentStats:
    """The experiment's totals over ``episodes``, kept in the given order."""
    rets = [e.ret for e in episodes]
    return ExperimentStats(
        episodes=episodes,
        crashes=sum(1 for e in episodes if e.crash),
        mean_return=float(np.mean(rets)) if rets else 0.0,
        overrides=sum(e.overrides for e in episodes),
        eps_spent=math.fsum(e.eps_spent for e in episodes),
        ledger_error=max((e.ledger_error for e in episodes), default=0.0),
        reuse_violations=sum(e.reuse_violations for e in episodes),
        shield_seconds=sum(e.shield_seconds for e in episodes),
        env_seconds=sum(e.env_seconds for e in episodes),
        steps=sum(e.steps for e in episodes))


def run_experiment(shield: Shield, cfg: ExperimentConfig,
                   record_sink: Optional[Callable] = None) -> ExperimentStats:
    """Run all ``cfg.episodes`` episodes in this process and aggregate them."""
    return aggregate_stats(run_episodes(shield, cfg, range(cfg.episodes),
                                        record_sink))
