"""Hostile agents: actions that change between reads, lie in comparisons,
raise when printed, or are random trees of anything.

The shield reads each agent action once, at the boundary, and passes only
exact builtin types on.  Whatever the agent sends, an episode finishes, the
ledger stays exact and within its budget, no observation is reused and no
ground-truth violation happens.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from adashield.actions import (
    UNIT, ALeft, APair, AReal, ARight, SpaceProd, SpaceReal, SpaceUnit, make_action,
)
from adashield.dl import Ident
from adashield.envs import (
    Environment, make_acas, make_crossing_river, make_sisyphean_train,
    make_versatile_train,
)
from adashield.policies import (
    acas_control, acas_inference, greedy_train_control, river_control,
    river_inference, river_naive_control, sisyphean_inference,
)
from adashield import runtime
from adashield.runtime import (
    ExperimentConfig, KahanLedger, Shield, StepValuation, init_shielded_state,
    run_episode, run_experiment, shielded_transition,
)
from adashield.strategy import AggregateAction, interpret_strategy

from dl_oracle import per_entry_window

_FBAR = Ident("fbar")


def _map_values(a, f):
    """The control action ``a`` with every real value ``v`` replaced by
    ``f(v)``."""
    t = type(a)
    if t is AReal:
        return AReal(f(a.value))
    if t is APair:
        return APair(_map_values(a.left, f), _map_values(a.right, f))
    if t is ALeft or t is ARight:
        return t(_map_values(a.action, f))
    return a


class ShiftingEps(AggregateAction):
    """An aggregate action whose ``eps`` reads 1e-9 on its first two reads
    after ``reset``, then -0.5."""

    @property
    def eps(self):
        n = self.__dict__["reads"] = self.__dict__.get("reads", 0) + 1
        return 1e-9 if n <= 2 else -0.5

    @eps.setter
    def eps(self, value):
        pass

    def reset(self):
        self.__dict__["reads"] = 0
        return self


class ShiftingIndices(tuple):
    """Index tuples that iterate as built once, then as ``("a",)``."""

    def __iter__(self):
        n = self.__dict__["iterations"] = self.__dict__.get("iterations", 0) + 1
        return super().__iter__() if n == 1 else iter([("a",)])


class Agreeable(float):
    """A float whose comparisons all hold and whose arithmetic stays
    agreeable."""

    def __lt__(self, other):
        return True

    __le__ = __gt__ = __ge__ = __eq__ = __ne__ = __lt__
    __hash__ = float.__hash__


def _agreeing(op):
    return lambda self, *args: Agreeable(getattr(float, op)(self, *args))


for _op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__pow__"):
    setattr(Agreeable, _op, _agreeing(_op))


class Unprintable:
    def __str__(self):
        raise RuntimeError("no printing")

    __repr__ = __str__


def _river(specs, control, inference, episodes, records=None):
    cfg = ExperimentConfig(
        spec_name="river", env_factory=make_crossing_river,
        control_policy=control, inference_policy=inference,
        episodes=episodes, budget=1e-7, mode="meta", seed=0)
    shield = Shield(specs["river"], make_crossing_river().consts)
    return run_experiment(shield, cfg, record_sink=records)


class TestProbes:
    def test_eps_that_changes_between_reads(self, specs):
        # an aggregate whose eps reads differently on a later read cannot
        # credit the agent's budget: it is not an AggregateAction, so the
        # action counts as empty
        sent = []

        def hostile(shield, env):
            honest = river_inference(shield, env)

            def policy(view):
                action = honest(view)
                if action[0] is None:
                    return action
                sent.append(view.step)
                return tuple(ShiftingEps(1e-9, a.dist).reset() for a in action)
            return policy

        records = []
        stats = _river(specs, river_control, hostile, 5, records.append)
        assert sent and len(stats.episodes) == 5
        assert all(e.eps_spent >= 0.0 for e in stats.episodes)
        assert stats.ledger_error <= 1e-12
        assert all(r.assignments == [] and r.consumed == [] for r in records)
        assert stats.crashes == 0 and stats.reuse_violations == 0

    def test_negative_eps_on_a_future_index(self, specs):
        # eps set to -0.5 after construction, over an index not yet in the
        # history, so that evaluation reads nothing and the tail bound never
        # runs: only the boundary's eps check and the audit stand between
        # the agent and a credited budget
        def hostile(shield, env):
            def policy(view):
                agg = AggregateAction(1e-9, ((1.0, (view.step + 5,)),))
                object.__setattr__(agg, "eps", -0.5)
                return (agg, agg)
            return policy

        records = []
        stats = _river(specs, river_control, hostile, 3, records.append)
        assert stats.ledger_error <= 1e-12
        assert all(e.eps_spent == 0.0 for e in stats.episodes)
        assert all(r.assignments == [] for r in records)

    def test_index_tuples_that_change_between_reads(self, specs):
        sent = []

        def hostile(shield, env):
            honest = sisyphean_inference(shield, env)

            def policy(view):
                action = honest(view)
                kinds = [kind for kind, _ in shield.strategy.space]
                k = kinds.index("best")
                if not action[k]:
                    return action
                sent.append(view.step)
                return action[:k] + (ShiftingIndices(action[k]),) + action[k + 1:]
            return policy

        records = []
        cfg = ExperimentConfig(
            spec_name="sisyphean", env_factory=make_sisyphean_train,
            control_policy=greedy_train_control, inference_policy=hostile,
            episodes=2, max_steps=30, budget=1e-3, mode="fixed", seed=0)
        shield = Shield(specs["sisyphean"], make_sisyphean_train().consts)
        stats = run_experiment(shield, cfg, record_sink=records.append)
        assert sent and len(stats.episodes) == 2
        directs = sum(kind == "direct" for kind, _ in shield.strategy.space)
        hit = [r for r in records if r.step in sent]
        assert all(len(r.assignments) == directs and r.consumed == [] for r in hit)
        assert stats.ledger_error <= 1e-12 and stats.eps_spent == 0.0
        assert stats.crashes == 0 and stats.reuse_violations == 0

    def test_zero_tolerance_sbis_run_past_a_rounded_out_budget(self, specs):
        # four aggregates spend the whole 1e-7 at step 0, the last two the
        # 6.5031674675321824e-09 a fresh ledger reports as left after the
        # first two; compensated summation then leaves the remaining budget
        # at -1.3e-23, and the direct defaults of step 1, which spend
        # nothing, must still run
        eps = (2.556406168757196e-08, 6.793277084489586e-08,
               6.5031674675321824e-09, 6.5031674675321824e-09)
        env = make_acas()
        env.meta_mode = True
        shield = Shield(specs["acas"], env.consts)
        tracking = [k for k, (kind, _) in enumerate(shield.strategy.space)
                    if kind == "aggregate"][:4]

        def inference(view):
            if view.step:
                return shield.empty_action
            slots = list(shield.empty_action)
            for k, e in zip(tracking, eps):
                slots[k] = AggregateAction(e, ((1.0, (1,)),))
            return tuple(slots)

        ledger = KahanLedger(1e-7)
        records = []
        stats = run_episode(shield, env, acas_control(shield, env), inference, ledger, 5,
                            np.random.SeedSequence(0), record_sink=records.append)
        assert ledger.remaining < 0.0
        assert stats.steps == 5 and stats.ledger_error <= 1e-12
        step1 = records[1]
        assert not any(a.skipped for a in step1.assignments)
        assert set(shield.spec.local_params) <= set(step1.bounds_after)

    def test_control_values_that_agree_with_every_test(self, specs):
        # the naive river agent, with values that pass any comparison, is
        # overridden on every step and never crashes
        def hostile(shield, env):
            naive = river_naive_control(shield, env)
            return lambda view: _map_values(naive(view), Agreeable)

        records = []
        stats = _river(specs, hostile, river_inference, 20, records.append)
        assert stats.crashes == 0
        assert stats.overrides == stats.steps > 0
        assert all(r.proposed is None for r in records)

    def test_control_action_that_raises_when_printed(self, specs):
        lines = []

        def hostile(shield, env):
            honest = river_control(shield, env)
            return lambda view: Unprintable() if view.step % 2 else honest(view)

        stats = _river(specs, hostile, river_inference, 4,
                       lambda rec: lines.append(json.dumps(rec.to_json())))
        assert len(lines) == stats.steps and stats.crashes == 0
        odd = [json.loads(line) for line in lines if json.loads(line)["step"] % 2]
        assert odd and all(d["overridden"] and d["proposed"] == "None" for d in odd)

    def test_numpy_control_values_are_checked(self, specs):
        # numpy's float64 passes the boundary and enters the state as a
        # float, so the env answers, and the trace records, in builtins
        def numpy_valued(shield, env):
            honest = river_control(shield, env)
            return lambda view: _map_values(honest(view), np.float64)

        records = []
        stats = _river(specs, numpy_valued, river_inference, 4, records.append)
        honest = _river(specs, river_control, river_inference, 4)
        assert stats.crashes == 0
        assert [e.ret for e in stats.episodes] == [e.ret for e in honest.episodes]
        assert any(not r.overridden for r in records)
        assert all(type(r.safe) is bool and type(r.terminal) is bool for r in records)
        for r in records:
            json.dumps(r.to_json())

    def test_int_past_the_float_range(self, specs):
        # acas computes with the value before its first test; an int whose
        # arithmetic would raise makes the path undefined, so overridden
        env = make_acas()
        shield = Shield(specs["acas"], env.consts)
        level = acas_control(shield, env)
        huge = lambda view: _map_values(level(view), lambda v: 10 ** 400)  # noqa: E731
        stats = run_episode(shield, env, huge, acas_inference(shield, env), KahanLedger(1e-7),
                            5, np.random.SeedSequence(0))
        assert stats.steps == stats.overrides == 5 and not stats.crash

    def test_int_past_the_float_range_unshielded(self, specs):
        # unshielded, no monitor runs; the value does not fit at the
        # boundary, so the action is overridden as when shielded
        env = make_acas()
        shield = Shield(specs["acas"], env.consts)
        level = acas_control(shield, env)
        huge = lambda view: _map_values(level(view), lambda v: 10 ** 400)  # noqa: E731
        records = []
        stats = run_episode(shield, env, huge, acas_inference(shield, env), KahanLedger(1e-7),
                            3, np.random.SeedSequence(0), unshielded=True,
                            record_sink=records.append)
        assert stats.steps == stats.overrides == 3 and len(records) == 3
        assert all(rec.proposed is None and rec.overridden for rec in records)


class TestLedgerAudit:
    """``ledger_error`` does not trust the boundary: it also reports a spent
    eps outside [0, 1] and spending past the budget."""

    def _episode(self, specs, ledger=None):
        env = make_crossing_river()
        shield = Shield(specs["river"], env.consts)
        return run_episode(shield, env, river_control(shield, env),
                           river_inference(shield, env), ledger or KahanLedger(1e-7),
                           env.max_steps, np.random.SeedSequence(0))

    def test_honest_run_has_no_error(self, specs):
        stats = self._episode(specs)
        assert stats.eps_spent > 0.0 and stats.ledger_error == 0.0

    def test_negative_eps_past_the_boundary(self, specs, monkeypatch):
        # stand in for a boundary that let a negative eps through
        real = runtime.interpret_strategy

        def credit(*args):
            return [sa._replace(eps=-0.5) if sa.eps else sa for sa in real(*args)]

        monkeypatch.setattr(runtime, "interpret_strategy", credit)
        stats = self._episode(specs)
        assert stats.eps_spent < 0.0 and stats.ledger_error == 0.5

    def test_spending_past_the_budget(self, specs):
        ledger = KahanLedger(1e-7)
        ledger.add(3e-7)  # spent before this episode, as a shared ledger may be
        stats = self._episode(specs, ledger)
        assert stats.ledger_error == pytest.approx(2e-7)


# ---------------------------------------------------------------------------
# Random hostile agents over every bundled spec

_X, _V, _U, _E, _T = (Ident(n) for n in ("x", "v", "u", "e", "t"))


class LinearTrain(Environment):
    """The train of train_global.shield: the commanded acceleration ``u``
    acts as ``theta*u + phi`` for unknown ``theta`` and ``phi``, and the
    train must stop before ``e = 0``.  The state is ``(x, v, u)``."""

    consts = {"A": 2.0, "B": 4.0, "T": 1.0, "sigma": 0.1}
    theta, phi = 1.0, -0.5
    max_steps = 15

    def reset(self, rng):
        return (-150.0, 15.0, 0.0)

    def step(self, state, exec_vals, rng):
        x, v, _ = state
        u = exec_vals[_U]
        a = self.theta * u + self.phi
        tau = -v / a if a < 0.0 and v + a * self.consts["T"] < 0.0 else self.consts["T"]
        x2, v2 = x + v * tau + a * tau * tau / 2, max(0.0, v + a * tau)
        crash = x2 > 0.0
        return (x2, v2, u), -10.0 if crash else -0.01, crash or v2 == 0.0

    def state_map(self, state):
        x, v, u = state
        return {_X: x, _V: v, _U: u, _E: 0.0, _T: 0.0}

    def obs_available(self, state):
        return frozenset({"w"})

    def measure(self, state, rng):
        eta = rng.normal(0.0, self.consts["sigma"])
        return {"w": self.theta * state[2] + self.phi - eta}

    def ground_truth_safe(self, state):
        return state[0] <= 0.0

    def unknowns(self):
        return {"theta": self.theta, "phi": self.phi}

    def initial_global_bounds(self):
        return {Ident("theta_lo"): 0.5, Ident("theta_up"): 1.5,
                Ident("phi_up"): 0.0}


ENVS = {
    "sisyphean": make_sisyphean_train,
    "train_local": make_versatile_train,
    "train_global": LinearTrain,
    "river": make_crossing_river,
    "acas": make_acas,
}


class Raise:
    """Drawn instead of an action: the policy raises."""


class Index(int):
    pass


class Tuple(tuple):
    pass


class Real(float):
    pass


class Subclassed(AggregateAction):
    pass


class Action(AReal):
    pass


_JUNK_VALUES = (
    None, True, 0, 1.0, "a", (), ((),), [(1,)], Raise(), Unprintable(),
    UNIT, AReal(1.0), Tuple(((1,),)), np.int64(1), Fraction(1, 2),
)
_JUNK = st.sampled_from(_JUNK_VALUES)

_FLOATS = st.floats(allow_nan=True, allow_infinity=True)

_VALUES = st.one_of(
    _FLOATS, st.integers(), st.booleans(),
    st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 63, 5e-324, -0.0]),
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-9, 9).map(np.int64),
    _FLOATS.map(Agreeable), _FLOATS.map(Real), st.integers(-9, 9).map(Index),
    st.just(Fraction(1, 3)), st.just(Unprintable()))


def _fitting(space):
    """Control actions of ``space``'s shape with hostile values."""
    t = type(space)
    if t is SpaceUnit:
        return st.just(UNIT)
    if t is SpaceReal:
        return st.one_of(st.builds(AReal, _VALUES), st.builds(Action, _VALUES))
    if t is SpaceProd:
        return st.builds(APair, _fitting(space.left), _fitting(space.right))
    return st.one_of(st.builds(ALeft, _fitting(space.left)),
                     st.builds(ARight, _fitting(space.right)))


#: a well-formed index: an int, often past the history or out of range, and
#: sometimes far past any float's exact range
_INDEX = st.one_of(st.integers(-2, 20), st.sampled_from([10 ** 30, -(10 ** 30)]))

#: an index no well-formed action has: anything but an exact int, which
#: may be as big as it likes
_HOSTILE_INDEX = st.one_of(
    st.sampled_from([True, 1.0]),
    st.integers(0, 20).map(Index), st.integers(0, 20).map(np.int64))

#: junk that fills no slot: None is the empty slot of every kind, and ()
#: the empty window of a best one
_HOSTILE_JUNK = st.sampled_from(tuple(x for x in _JUNK_VALUES if x is not None))
_HOSTILE_WINDOW_JUNK = st.sampled_from(
    tuple(x for x in _JUNK_VALUES if x is not None and not (type(x) is tuple and not x)))

#: tolerances at the edges; the episode's budget is 1e-6
_EPS = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 1e-17, 1e-16, 1e-9, 1e-7, 5e-7, -0.0]),
    st.floats(0.0, 1e-6))

_HOSTILE_EPS = st.sampled_from(
    [-0.5, -5e-324, 1.0000000000000002, math.nan, math.inf, -math.inf, 1, 0, True,
     Real(1e-9)])


def _tuples(n):
    return st.tuples(*[_INDEX] * n)


@st.composite
def _aggregate(draw, n):
    """A well-formed aggregate action: a few pairs, or far more pairs than
    any history has entries, with duplicate indices allowed."""
    pairs = draw(st.lists(st.tuples(st.floats(1e-3, 1e3), _tuples(n)), min_size=1,
                          max_size=draw(st.sampled_from([4, 4, 300]))))
    return AggregateAction(draw(_EPS), tuple(pairs))


@st.composite
def _hostile_slot(draw, kind, n):
    """A slot no well-formed action has: a changed, subclassed or shifting
    aggregate, index tuples of the wrong type, length or content, or junk."""
    j = draw(_tuples(n))
    bad_j = draw(st.sampled_from(
        [j[:-1], j + (1,), list(j), Tuple(j), j[:-1] + (draw(_HOSTILE_INDEX),)] if n else
        [(1,), [], Tuple()]))
    if kind == "best":
        return draw(st.sampled_from([
            (j, bad_j), Tuple((j,)), [j], ShiftingIndices((j,)), draw(_HOSTILE_WINDOW_JUNK)]))
    if kind == "direct":
        return draw(st.one_of(_HOSTILE_JUNK, _aggregate(n)))
    agg = draw(_aggregate(n))
    w, j0 = agg.dist[0]
    how = draw(st.sampled_from(["eps", "dist", "weight", "index", "subclass", "shifting",
                                "junk"]))
    if how == "eps":
        object.__setattr__(agg, "eps", draw(_HOSTILE_EPS))
    elif how == "dist":
        object.__setattr__(agg, "dist", draw(st.sampled_from(
            [(), list(agg.dist), Tuple(agg.dist), ((0.5, j0),), ((1, j0),),
             ((Real(1.0), j0),), ((1.0,),), (Tuple((1.0, j0)),), ((1.0, j0, 0),),
             ((1e308, j0), (1e308, j0))])))
    elif how == "weight":
        # past (0, 2), so no other weight can make the sum 1
        w = draw(st.one_of(st.floats(max_value=0.0), st.floats(min_value=2.0),
                           st.just(math.nan)))
        object.__setattr__(agg, "dist", ((w, j0),) + agg.dist[1:])
    elif how == "index":
        object.__setattr__(agg, "dist", ((w, bad_j),) + agg.dist[1:])
    elif how == "subclass":
        agg = Subclassed(agg.eps, agg.dist)
    elif how == "shifting":
        agg = ShiftingEps(1e-9, agg.dist).reset()
    else:
        agg = draw(_HOSTILE_JUNK)
    return agg


def _well_formed(space):
    """Well-formed inference actions for ``space``."""
    return st.tuples(*[
        st.none() if kind == "direct" else
        st.one_of(st.none(), st.lists(_tuples(n), max_size=6).map(tuple)) if kind == "best" else
        st.one_of(st.none(), _aggregate(n))
        for kind, n in space])


def _inference(space):
    """Inference actions for ``space``: well formed, with one hostile slot,
    of the wrong container type or length, or junk."""
    valid = _well_formed(space)

    @st.composite
    def one_hostile(draw):
        a = list(draw(valid))
        k = draw(st.integers(0, len(a) - 1))
        a[k] = draw(_hostile_slot(*space[k]))
        return tuple(a)

    return st.one_of(valid, valid, one_hostile(), one_hostile(), valid.map(list),
                     valid.map(Tuple), valid.map(lambda a: a + (None,)),
                     valid.map(lambda a: a[:-1]), _JUNK)


def _policy(data, actions):
    def policy(view):
        a = data.draw(actions)
        if type(a) is Raise:
            raise RuntimeError("hostile policy")
        return a
    return policy


@pytest.mark.parametrize("name", sorted(ENVS))
@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_random_hostile_agents(specs, name, data):
    env = ENVS[name]()
    shield = Shield(specs[name], env.consts)
    control = _policy(data, st.one_of(_fitting(shield.ctrl_space), _fitting(shield.ctrl_space),
                                      _JUNK))
    inference = _policy(data, _inference(shield.strategy.space))
    stats = run_episode(shield, env, control, inference, KahanLedger(1e-6), 12,
                        np.random.SeedSequence(data.draw(st.integers(0, 3))),
                        record_sink=lambda rec: json.dumps(rec.to_json()))
    assert stats.ledger_error <= 1e-12
    assert 0.0 <= stats.eps_spent <= 1e-6
    assert stats.reuse_violations == 0
    assert not stats.crash


@pytest.mark.parametrize("name", sorted(ENVS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_hostile_slots_are_malformed(specs, name, data):
    # each slot _hostile_slot draws, in an otherwise well-formed action,
    # leaves the direct assignments alone
    shield = Shield(specs[name], ENVS[name]().consts)
    spec, compiled = shield.spec, shield.strategy
    valid = data.draw(_well_formed(compiled.space))
    for k, slot_space in enumerate(compiled.space):
        action = valid[:k] + (data.draw(_hostile_slot(*slot_space)),) + valid[k + 1:]
        got = interpret_strategy(spec.infer, action, spec.directions, spec.noise_decls,
                                 compiled)
        assert got == list(compiled.empty), (k, action[k])


class TestHostileWindows:
    """A best window of any length and any int entries is one SBI: it
    raises nothing, gives one record per entry, and leaves the bounds and
    the ledger as one SBI per entry does.  A malformed entry anywhere makes
    the action the empty one."""

    def _state(self, specs, steps: int = 12):
        """A sisyphean shield after ``steps`` steps that aggregate three
        observations at a time, so that some past bounds lie below the
        default, with its environment and the next step."""
        env = make_sisyphean_train()
        shield = Shield(specs["sisyphean"], env.consts)
        reset, env_rng, measure = (np.random.default_rng(s) for s in (0, 1, 2))
        st = init_shielded_state(shield, env, KahanLedger(1e-3), reset)
        infer = sisyphean_inference(shield, env, n_obs=3)
        brake = make_action(shield.spec.ctrl, ["right"])
        for step in range(steps):
            view = runtime.make_policy_view(shield, env, st, step, env.max_steps)
            shielded_transition(shield, st, env, brake, infer(view), env_rng, measure, 0, step)
        return shield, env, st, lambda a_inf: shielded_transition(
            shield, st, env, brake, a_inf, env_rng, measure, 0, steps)

    def _per_entry(self, shield, env, st, window):
        """The records, bounds and ledger state of the direct default and
        the window run one SBI per entry, on copies of the step's values."""
        val = StepValuation({**st.state, **st.global_bounds},
                            st.history, len(st.history) + 1)
        led = KahanLedger(st.ledger.initial)
        led._sum, led._comp = st.ledger._sum, st.ledger._comp
        direct, best, _ = shield.strategy.templates
        recs = per_entry_window(direct, ((),), val, shield.interp, led)
        recs += per_entry_window(best, window, val, shield.interp, led)
        return recs, val.current[_FBAR], (led._sum, led._comp)

    @pytest.mark.parametrize("entries", [
        "all", (0,), (-1,), ("n",), ("n+1",), (2 ** 70,), (1, 1, 1), (3, 1, 3, "n", 3)])
    def test_odd_and_repeated_entries(self, specs, entries):
        shield, env, st, step = self._state(specs)
        n = len(st.history) + 1
        named = {"n": n, "n+1": n + 1}
        if entries == "all":
            # 100,000 entries cycling through every odd index and the history
            cycle = [0, -1, n, n + 1, 2 ** 70, *range(1, n)]
            entries = [cycle[k % len(cycle)] for k in range(100_000)]
        window = tuple((named.get(i, i),) for i in entries)
        recs, fbar, ledger = self._per_entry(shield, env, st, window)
        _, _, rec, _ = step((None, window, None))
        assert len(rec.assignments) == 1 + len(window)
        assert rec.assignments == recs
        if len(window) > 5:
            assert any(r.updated for r in recs[1:]) and any(r.bottom for r in recs)
        assert repr(rec.bounds_after[_FBAR]) == repr(fbar)
        assert (repr(st.ledger._sum), repr(st.ledger._comp)) == tuple(map(repr, ledger))

    @pytest.mark.parametrize("bad", [(1.0,), (True,), (np.int64(1),), [1], (1, 2), (),
                                     (Index(1),), Tuple((1,))])
    @pytest.mark.parametrize("where", [0, 50_000, 99_999])
    def test_one_malformed_entry_empties_the_action(self, specs, bad, where):
        shield, env, st, step = self._state(specs)
        window = [(1 + k % 5,) for k in range(100_000)]
        window[where] = bad
        recs, fbar, _ = self._per_entry(shield, env, st, ())
        _, _, rec, _ = step((None, tuple(window), None))
        assert rec.assignments == recs and len(recs) == 1
        assert rec.bounds_after[_FBAR] == fbar == shield.interp["F"]
