"""Shielded-transition mechanics: budget, non-reuse, overrides, determinism."""

import hashlib
import json
import math
import time
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from adashield import runtime
from adashield.cli import bundled_spec_path
from adashield.dl import UNDEF, Ident
from adashield.actions import ALeft, APair, AReal, UNIT, FallbackViolation, make_action
from adashield.runtime import (
    ExperimentConfig, HistoryView, InitialConditionViolation, KahanLedger,
    PolicyView, Shield, ShieldedState, StepValuation, init_shielded_state,
    make_policy_view, run_episode, run_experiment, shielded_transition,
)
from adashield.specfile import load_spec, parse_spec
from adashield.strategy import (
    BOTTOM, AggregateAction, WindowSBI, eval_sbi, interpret_strategy,
    observation_reads, referenced_indices, referenced_observations,
)
from adashield.envs import (
    REGISTRY, make_acas, make_crossing_river, make_sisyphean_train,
)
from adashield.policies import (
    CONTROL_POLICIES, DEFAULT_POLICIES, INFERENCE_POLICIES,
    greedy_train_control, river_control, river_inference,
    sisyphean_inference, skip_inference,
)

from dl_oracle import AtStep


@pytest.fixture
def train_setup(specs):
    env = make_sisyphean_train()
    shield = Shield(specs["sisyphean"], env.consts)
    return shield, env


def _rngs(seed=0, ep=0):
    ss = np.random.SeedSequence(entropy=(seed, ep))
    return [np.random.default_rng(s) for s in ss.spawn(3)]


def _init(shield, env, budget, rng):
    return init_shielded_state(shield, env, KahanLedger(budget), rng)


def _step(shield, env, st, a_ctrl, a_inf, rngs, step=0, unshielded=False):
    """One transition of ``st``, in place: its record and its timing."""
    _, env_rng, meas_rng = rngs
    return shielded_transition(shield, st, env, a_ctrl, a_inf, env_rng,
                               meas_rng, 0, step, unshielded)


class TestInit:
    def test_constants_are_read_only(self, train_setup):
        # the generated code is specialized to them, and the initial bounds
        # and the audit read them too
        shield, env = train_setup
        with pytest.raises(TypeError):
            shield.interp["F"] = 0.0
        assert dict(shield.interp) == env.consts

    def test_valid_initial_state(self, train_setup):
        shield, env = train_setup
        reset_rng, _, _ = _rngs()
        st = _init(shield, env, 1e-3, reset_rng)
        assert st.history == [] and st.ledger.remaining == 1e-3
        assert st.global_bounds == {}  # the only parameter is local

    def test_initial_bound_violation(self):
        from adashield.specfile import load_spec, parse_spec
        from adashield.cli import bundled_spec_path
        env = make_crossing_river()
        spec = load_spec(bundled_spec_path("river"))
        # shrink the declared initial values so the ground-truth bridge
        # position falls outside them
        from adashield.dl import Lit
        spec.initial_global_bounds[Ident("yb_up")] = Lit(-11.0)
        shield = Shield(spec, env.consts)
        reset_rng, _, _ = _rngs()
        with pytest.raises(InitialConditionViolation):
            _init(shield, env, 1e-7, reset_rng)

    def test_initial_invariant_violation(self, train_setup):
        shield, env = train_setup
        env.cfg.x0 = 10.0  # beyond the stopping point
        reset_rng, _, _ = _rngs()
        with pytest.raises(InitialConditionViolation):
            _init(shield, env, 1e-3, reset_rng)

    def test_contract_failures_name_episode_and_step(self, train_setup, monkeypatch):
        shield, env = train_setup
        control, inference = greedy_train_control(shield, env), skip_inference(shield, env)

        def episode(n):
            run_episode(shield, env, control, inference, KahanLedger(1e-3), 100,
                        np.random.SeedSequence(0), episode=n)

        def rejected(*args):
            raise runtime.FallbackViolation("fallback rejected")

        monkeypatch.setattr(runtime, "resolve_fallback", rejected)
        with pytest.raises(runtime.FallbackViolation,
                           match=r"^episode 4, step \d+: fallback rejected$"):
            episode(4)
        env.cfg.x0 = 10.0
        with pytest.raises(InitialConditionViolation,
                           match=r"^episode 7: initial state violates "):
            episode(7)


class TestBudget:
    def test_skip_when_budget_too_small(self, train_setup, specs):
        shield, env = train_setup
        rngs = _rngs()
        st = _init(shield, env, 1e-9, rngs[0])
        accel = make_action(shield.spec.ctrl, ["left"])
        # warm one step to get an observation into history
        empty = (None, (), None)
        _step(shield, env, st, accel, empty, rngs, 0)
        agg = AggregateAction(1e-8, ((1.0, (1,)),))
        rec, _ = _step(shield, env, st, accel, (None, (), agg), rngs, 1)
        arec = rec.assignments[-1]
        assert arec.skipped and arec.eps == 1e-8
        assert st.ledger.remaining == 1e-9  # unchanged
        assert rec.bounds_after[Ident("fbar")] == 3.0  # default only

    def test_deduct_even_on_bottom(self, train_setup):
        shield, env = train_setup
        rngs = _rngs()
        st = _init(shield, env, 1e-3, rngs[0])
        accel = make_action(shield.spec.ctrl, ["left"])
        # index 5 does not exist yet: evaluation fails but the budget is spent
        agg = AggregateAction(1e-5, ((1.0, (5,)),))
        rec, _ = _step(shield, env, st, accel, (None, (), agg), rngs, 0)
        arec = rec.assignments[-1]
        assert arec.bottom and not arec.skipped
        assert st.ledger.spent == pytest.approx(1e-5, abs=0)

    def test_ledger_exactness(self, train_setup):
        shield, env = train_setup
        ledger = KahanLedger(1.0)
        spends = [1e-7, 3e-9, 2.5e-8] * 40_000
        for e in spends:
            ledger.add(e)
        assert abs(ledger.spent - math.fsum(spends)) < 1e-12

    @settings(max_examples=500, deadline=None)
    @given(budget=hst.floats(0.0, 1.0), adds=hst.lists(hst.one_of(
        hst.floats(0.0, 1.0), hst.floats(0.0, 1e-6),
        hst.sampled_from([0.0, 5e-324, 1e-300, 1e-17, 1e-7, 0.1, 1 / 3])), max_size=30))
    def test_a_zero_add_after_a_zero_add_changes_nothing(self, budget, adds):
        # a compensated add of 0.0 may move the sum and its compensation,
        # but the next one leaves both as they are: the first one's error
        # term is exact, so adding it back rounds to the same sum
        ledger = KahanLedger(budget)
        for x in adds:
            ledger.add(x)
        ledger.add(0.0)
        state = (repr(ledger._sum), repr(ledger._comp))
        for _ in range(3):
            assert ledger.add(0.0) == ledger.remaining
            assert (repr(ledger._sum), repr(ledger._comp)) == state

    def test_empty_best_slot_makes_no_sbi_record_or_add(self, train_setup):
        shield, env = train_setup
        spec = shield.spec
        adds = []

        class Counting(KahanLedger):
            def add(self, x):
                adds.append(x)
                return super().add(x)

        rngs = _rngs()
        st = init_shielded_state(shield, env, Counting(1e-3), rngs[0])
        accel = make_action(spec.ctrl, ["left"])
        empty = (None, (), None)
        assert len(interpret_strategy(spec.infer, empty, spec.directions, spec.noise_decls)) == 1
        rec, _ = _step(shield, env, st, accel, empty, rngs, 0)
        assert len(rec.assignments) == 1 and adds == [0.0]
        # a window of two entries: one SBI, one add, one record of both
        rec, _ = _step(shield, env, st, accel, (None, ((1,), (1,)), None), rngs, 1)
        assert len(rec.assignments) == 2 and adds == [0.0] * 3
        assert rec.assignments[1].entries == 2

    @pytest.mark.parametrize("env_name", ["sisyphean", "versatile"])
    def test_seeded_run_spends_as_one_add_per_entry(self, env_name, monkeypatch):
        # a window SBI adds 0.0 once; every ledger of a seeded run ends bit
        # for bit where one add per entry, in record order, ends
        made = []

        class Recorded(KahanLedger):
            def __init__(self, initial):
                super().__init__(initial)
                self.adds = 0
                made.append(self)

            def add(self, x):
                self.adds += 1
                return super().add(x)

        monkeypatch.setattr(runtime, "KahanLedger", Recorded)
        factory, stem, budget, mode = REGISTRY[env_name]
        env = factory()
        shield = Shield(load_spec(bundled_spec_path(stem)), env.consts)
        ctrl_name, inf_name = DEFAULT_POLICIES[env_name]
        cfg = ExperimentConfig(stem, factory, CONTROL_POLICIES[ctrl_name],
                               INFERENCE_POLICIES[inf_name], episodes=3, max_steps=200,
                               budget=budget, mode=mode, seed=4)
        replays: dict = {}
        replayed = 0

        def replay(rec):
            nonlocal replayed
            led = replays.setdefault(0 if mode == "fixed" else rec.episode, KahanLedger(budget))
            for a in rec.assignments:
                for _ in range(0 if a.skipped else a.entries):
                    led.add(a.eps)
                    replayed += 1

        run_experiment(shield, cfg, record_sink=replay)
        assert len(made) == len(replays) == (1 if mode == "fixed" else 3)
        for k, led in enumerate(made):
            ref = replays[k]
            assert (repr(led._sum), repr(led._comp)) == (repr(ref._sum), repr(ref._comp))
            assert ref.spent > 0.0
        # windows of more than one entry ran, with one add each
        assert sum(led.adds for led in made) < replayed / 5

    @pytest.mark.parametrize("budget", [math.nan, -1e-9, 1.5, math.inf])
    def test_budget_outside_the_unit_interval_is_refused(self, budget):
        # under a NaN budget ``eps > remaining`` never holds, so nothing
        # would ever be skipped for lack of budget
        with pytest.raises(ValueError, match=r"budget must lie in \[0, 1\]"):
            KahanLedger(budget)


class TestNonReuse:
    def test_observation_consumed_once(self, train_setup):
        shield, env = train_setup
        rngs = _rngs()
        st = _init(shield, env, 1e-3, rngs[0])
        accel = make_action(shield.spec.ctrl, ["left"])
        empty = (None, (), None)
        _step(shield, env, st, accel, empty, rngs, 0)
        agg = AggregateAction(1e-6, ((1.0, (1,)),))
        rec1, _ = _step(shield, env, st, accel, (None, (), agg), rngs, 1)
        assert rec1.consumed == [(1, "w")]
        assert not rec1.assignments[-1].bottom
        # referencing the same index again: the measurement is gone for good
        rec2, _ = _step(shield, env, st, accel, (None, (), agg), rngs, 2)
        assert rec2.consumed == []
        assert rec2.assignments[-1].bottom
        assert rec2.assignments[-1].eps == 1e-6  # spent regardless

    def test_availability_burned_even_if_unconsumed(self, specs):
        # referencing any observation at a step burns the whole entry
        env = make_acas()
        shield = Shield(specs["acas"], env.consts)
        rngs = _rngs(3)
        st = _init(shield, env, 1e-7, rngs[0])
        level = make_action(shield.spec.ctrl, [0.0])
        empty = tuple(None for _ in shield.spec.infer)
        _step(shield, env, st, level, empty, rngs, 0)
        assert st.views[0].available == {"wv", "wh"}
        slots = list(empty)
        slots[4] = AggregateAction(1e-9, ((1.0, (1,)),))  # references wv@1
        rec, _ = _step(shield, env, st, level, tuple(slots), rngs, 1)
        assert rec.consumed == [(1, "wv")]
        assert st.views[0].available == set()  # wh gone as well


class TestTightening:
    def test_updates_only_when_tighter(self, train_setup):
        shield, env = train_setup
        rngs = _rngs(11)
        st = _init(shield, env, 1e-3, rngs[0])
        accel = make_action(shield.spec.ctrl, ["left"])
        empty = (None, (), None)
        _step(shield, env, st, accel, empty, rngs, 0)
        agg = AggregateAction(1e-4, ((1.0, (1,)),))
        rec, _ = _step(shield, env, st, accel, (None, (), agg), rngs, 1)
        fbar = rec.bounds_after[Ident("fbar")]
        assert fbar < 3.0  # a single observation beats the global default
        assert rec.assignments[-1].tightened == 1

    def test_within_cycle_order_is_monotone(self, train_setup):
        # the default sets fbar = F first, later assignments only lower it
        shield, env = train_setup
        rngs = _rngs(12)
        st = _init(shield, env, 1e-3, rngs[0])
        accel = make_action(shield.spec.ctrl, ["left"])
        for step in range(6):
            view_bounds = []
            rec, _ = _step(
                shield, env, st, accel,
                (None, tuple((i,) for i in range(1, len(st.history) + 1)), None),
                rngs, step)
            assert rec.bounds_after[Ident("fbar")] <= 3.0


def _state_near_stop(shield, env):
    """A train 50 m from the stopping point at full speed; the invariant does
    not hold here, so the shielded state is built directly."""
    from adashield.envs.train import TrainState
    s = TrainState(-50.0, 30.0, 3.0, 0.0, 0.0, env.cfg.phase)
    return ShieldedState(s, env.state_map(s), {}, {}, KahanLedger(1e-3))


def _count_replays(shield) -> list:
    """Make ``shield``'s controller replay append to the returned list on
    every call."""
    code = shield.code
    replay = code.ctrl.replay
    calls: list = []

    def counted(*args):
        calls.append(args[1])
        return replay(*args)

    shield.code = code._replace(ctrl=code.ctrl._replace(replay=counted))
    return calls


class TestOverride:
    def test_near_stop_acceleration_is_overridden(self, train_setup):
        # x = -50, v = 30 with only the conservative default bound: the
        # acceleration guard fails and the executed action is braking
        shield, env = train_setup
        rngs = _rngs()
        st = _state_near_stop(shield, env)
        accel = make_action(shield.spec.ctrl, ["left"])
        rec, _ = _step(shield, env, st, accel, (None, (), None), rngs, 0)
        assert rec.overridden
        assert rec.executed == make_action(shield.spec.ctrl, ["right"])
        assert st.env_state.v < 30.0  # braking happened

    def test_unshielded_flag_disables_override(self, train_setup):
        shield, env = train_setup
        rngs = _rngs()
        st = _state_near_stop(shield, env)
        accel = make_action(shield.spec.ctrl, ["left"])
        rec, _ = _step(shield, env, st, accel, (None, (), None), rngs, 0,
                       unshielded=True)
        assert not rec.overridden
        assert st.env_state.v > 30.0

    @pytest.mark.parametrize("case, replays", [
        ("accepted", 1), ("rejected", 2), ("unfit", 1), ("unshielded", 1)])
    def test_each_action_run_is_replayed_once(self, train_setup, case, replays):
        # the replay that checks an action is its execution: a rejected
        # proposal is replayed once, and the fallback once to check and run it
        shield, env = train_setup
        calls = _count_replays(shield)
        rngs = _rngs()
        near_stop = case in ("rejected", "unshielded")
        st = _state_near_stop(shield, env) if near_stop else _init(shield, env, 1e-3, rngs[0])
        accel = None if case == "unfit" else make_action(shield.spec.ctrl, ["left"])
        rec, _ = _step(shield, env, st, accel, (None, (), None), rngs, 0,
                       unshielded=case == "unshielded")
        assert rec.overridden is (case in ("rejected", "unfit"))
        assert len(calls) == replays

    def test_an_episode_replays_each_step_once_and_each_override_twice(self, train_setup):
        shield, env = train_setup
        calls = _count_replays(shield)
        stats = run_episode(shield, env, greedy_train_control(shield, env),
                            sisyphean_inference(shield, env), KahanLedger(1e-3),
                            env.max_steps, np.random.SeedSequence(3))
        assert 0 < stats.overrides < stats.steps
        assert len(calls) == stats.steps + stats.overrides

    def _variant(self, old, new):
        """The sisyphean shield with ``old`` replaced by ``new`` in its
        spec, which the static checks would refuse, and its environment."""
        src = open(bundled_spec_path("sisyphean")).read()
        assert src.count(old) == 1
        env = make_sisyphean_train()
        return Shield(parse_spec(src.replace(old, new)), env.consts), env

    @pytest.mark.parametrize("unshielded", [False, True])
    def test_undefined_control_value_is_overridden(self, unshielded):
        # accelerating assigns a := A + m0n(v), UNDEF, after the test that
        # guards it: the monitor rejects it and the fallback brakes.  An
        # unshielded run cannot run it either
        shield, env = self._variant("a := A }", "a := A + m0n(v) }")
        accel = make_action(shield.spec.ctrl, ["left"])
        stepped = []
        env.step = lambda s, vals, rng, step=env.step: stepped.append(vals) or step(s, vals, rng)
        stats = run_episode(shield, env, lambda view: accel, lambda view: shield.empty_action,
                            KahanLedger(1e-3), 20, np.random.SeedSequence(0),
                            unshielded=unshielded)
        assert stats.steps == stats.overrides == len(stepped) == 20
        assert all(vals[Ident("a")] == -env.consts["B"] for vals in stepped)

    def test_undefined_fallback_value_is_a_contract_failure(self):
        # the fallback's own path assigns y := min(m0n(y, fbar), fbar)
        shield, env = self._variant("y := min(y, fbar);", "y := min(m0n(y, fbar), fbar);")
        stepped = []
        env.step = lambda *args: stepped.append(args)
        with pytest.raises(FallbackViolation, match=r"^episode 0, step 0: fallback action "
                                                    r"rejected by the controller monitor"):
            run_episode(shield, env, greedy_train_control(shield, env),
                        lambda view: shield.empty_action, KahanLedger(1e-3), 20,
                        np.random.SeedSequence(0))
        assert stepped == []

    def test_non_adaptive_keeps_defaults(self, specs):
        # a non-adaptive run never calls its inference policy: each step
        # runs the direct default alone and spends nothing
        called = []

        def inference(shield, env):
            called.append("built")
            return lambda view: called.append(view.step)

        records = []
        cfg = ExperimentConfig(
            spec_name="sisyphean", env_factory=make_sisyphean_train,
            control_policy=greedy_train_control, inference_policy=inference,
            episodes=2, max_steps=20, budget=1e-3, mode="fixed", seed=13,
            non_adaptive=True)
        shield = Shield(specs["sisyphean"], make_sisyphean_train().consts)
        stats = run_experiment(shield, cfg, record_sink=records.append)
        assert called == [] and stats.steps == len(records) > 0
        assert stats.eps_spent == 0.0
        for rec in records:
            assert [(a.param, a.eps) for a in rec.assignments] == [("fbar", 0.0)]
            assert rec.bounds_after[Ident("fbar")] == 3.0


class TestZeroTrust:
    @pytest.mark.parametrize("bad", [
        AReal(1.0), UNIT, ALeft(UNIT), APair(UNIT, ALeft(UNIT)),
        APair(UNIT, ALeft(APair(UNIT, AReal(1.0)))), None, "left",
    ])
    @pytest.mark.parametrize("unshielded", [False, True])
    def test_malformed_control_action_is_overridden(self, train_setup, bad, unshielded):
        shield, env = train_setup
        rngs = _rngs()
        st = _init(shield, env, 1e-3, rngs[0])
        rec, _ = _step(shield, env, st, bad, (None, (), None), rngs, 0,
                       unshielded=unshielded)
        assert rec.overridden and rec.proposed is None
        assert rec.executed == make_action(shield.spec.ctrl, ["right"])
        json.dumps(rec.to_json())

    def test_non_real_control_value_is_overridden(self, specs):
        env = make_acas()
        shield = Shield(specs["acas"], env.consts)
        rngs = _rngs(3)
        st = _init(shield, env, 1e-7, rngs[0])
        level = make_action(shield.spec.ctrl, [0.0])

        def swap(a):
            t = type(a)
            if t is AReal:
                return AReal("level")
            if t is APair:
                return APair(swap(a.left), swap(a.right))
            if hasattr(a, "action"):
                return t(swap(a.action))
            return a

        rec, _ = _step(shield, env, st, swap(level), shield.empty_action, rngs, 0)
        assert rec.overridden

    @pytest.mark.parametrize("bad", [
        (None, None), None, [None, (), None], (None, ((1, 2),), None),
        (None, (("a",),), None), (None, (([1],),), None),
        (None, ((1, 2),), AggregateAction(1e-5, ((1.0, (1,)),))),
    ])
    def test_malformed_inference_action_is_empty(self, train_setup, bad):
        shield, env = train_setup
        rngs = _rngs()
        st = _init(shield, env, 1e-3, rngs[0])
        accel = make_action(shield.spec.ctrl, ["left"])
        _step(shield, env, st, accel, (None, (), None), rngs, 0)
        rec, _ = _step(shield, env, st, accel, bad, rngs, 1)
        assert [(a.param, a.eps) for a in rec.assignments] == [("fbar", 0.0)]
        assert st.ledger.spent == 0.0
        assert rec.consumed == [] and st.views[0].available == {"w"}


    def test_raising_policies_do_not_end_the_run(self, specs):
        # a raising control policy is overridden like a malformed action, and
        # a raising inference policy counts as the empty action
        def raising(factory, every):
            def make(shield, env):
                policy = factory(shield, env)

                def call(view):
                    if view.step % every == 1:
                        raise ZeroDivisionError("division by zero")
                    return policy(view)
                return call
            return make

        records = []
        cfg = ExperimentConfig(
            spec_name="river", env_factory=make_crossing_river,
            control_policy=raising(river_control, 3),
            inference_policy=raising(river_inference, 4),
            episodes=20, budget=1e-7, mode="meta", seed=0)
        shield = Shield(specs["river"], make_crossing_river().consts)
        stats = run_experiment(shield, cfg, record_sink=records.append)
        assert len(stats.episodes) == 20
        control_raised = [r for r in records if r.step % 3 == 1]
        inference_raised = [r for r in records if r.step % 4 == 1]
        assert control_raised and inference_raised
        assert all(r.overridden and r.proposed is None for r in control_raised)
        assert all(r.assignments == [] and r.consumed == [] for r in inference_raised)
        assert any(r.consumed for r in records)
        assert stats.crashes == 0 and stats.reuse_violations == 0

    @pytest.mark.parametrize("field, value", [
        ("eps", -0.5), ("eps", math.nan), ("dist", "negative weight")])
    def test_mutated_aggregate_action_is_empty(self, specs, field, value):
        # a frozen AggregateAction changed after construction is checked
        # again at the boundary: it counts as the empty action and no
        # tolerance is credited or spent for it
        mutated = []

        def hostile(shield, env):
            honest = river_inference(shield, env)

            def policy(view):
                action = honest(view)
                if view.step % 2 == 1:
                    # one slot's action is mutated, the others stay as built
                    agg = next((a for a in action if isinstance(a, AggregateAction)), None)
                    if agg is not None:
                        new = value
                        if field == "dist":
                            (w, j), *rest = agg.dist
                            new = ((-w, j), *rest)
                        object.__setattr__(agg, field, new)
                        mutated.append(view.step)
                return action
            return policy

        records = []
        cfg = ExperimentConfig(
            spec_name="river", env_factory=make_crossing_river,
            control_policy=river_control, inference_policy=hostile,
            episodes=10, budget=1e-7, mode="meta", seed=0)
        shield = Shield(specs["river"], make_crossing_river().consts)
        stats = run_experiment(shield, cfg, record_sink=records.append)
        assert mutated and len(stats.episodes) == 10
        assert stats.ledger_error <= 1e-12
        assert all(e.eps_spent >= 0.0 for e in stats.episodes)
        hit = [r for r in records if r.step % 2 == 1 and r.step in mutated]
        assert hit and all(r.assignments == [] and r.consumed == [] for r in hit)
        assert any(r.assignments for r in records if r.step % 2 == 0)
        assert stats.crashes == 0 and stats.reuse_violations == 0


def _run_digest(specs, inference_policy, episodes=4):
    """Results digest, overrides and spent tolerance of a seeded train run."""
    records = []
    cfg = ExperimentConfig(
        spec_name="sisyphean", env_factory=make_sisyphean_train,
        control_policy=greedy_train_control, inference_policy=inference_policy,
        episodes=episodes, budget=1e-3, mode="fixed", seed=0)
    shield = Shield(specs["sisyphean"], make_sisyphean_train().consts)
    stats = run_experiment(shield, cfg, record_sink=lambda r: records.append(
        json.dumps(r.to_json())))
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    return digest, stats.overrides, stats.eps_spent


class TestPolicyBarrier:
    def test_policy_cannot_write_through_the_view(self, specs):
        refused = []

        def hostile_inference(shield, env):
            honest = sisyphean_inference(shield, env)

            def policy(view):
                action = honest(view)
                for hv in view.history:
                    try:
                        hv.state[Ident("x")] = -1e9
                    except TypeError:
                        refused.append(hv.index)
                    try:  # would un-burn the entry's observations
                        object.__setattr__(hv, "available", frozenset({"w"}))
                    except AttributeError:
                        refused.append(hv.index)
                view.state[Ident("x")] = -1e9
                view.bounds.clear()
                return action

            return policy

        hostile = _run_digest(specs, hostile_inference)
        assert refused
        assert hostile == _run_digest(specs, sisyphean_inference)
        assert hostile[2] > 0.0

    @pytest.mark.parametrize("env_name", ["sisyphean", "river"])
    def test_writes_to_views_and_records_do_not_reach_the_shield(self, env_name):
        # once they have chosen, the control policy adds a key to the view's
        # state and bounds, and the inference policy, which sees the same
        # view after it, overwrites every value as well; the sink writes
        # into the record's bounds once the trace line is encoded.  The run
        # is the untouched one
        factory, stem, budget, mode = REGISTRY[env_name]
        shield = Shield(load_spec(bundled_spec_path(stem)), factory().consts)
        ctrl_name, inf_name = DEFAULT_POLICIES[env_name]

        def writing(make, overwrite):
            def build(shield, env):
                policy = make(shield, env)

                def call(view):
                    action = policy(view)
                    for d in (view.state, view.bounds):
                        for k in list(d) if overwrite else ():
                            d[k] = -1e9
                        d[Ident("planted")] = 0.0
                    return action
                return call
            return build

        def run(write):
            lines = []

            def sink(rec):
                lines.append(json.dumps(rec.to_json()))
                if write:
                    for d in (rec.bounds_before, rec.bounds_after):
                        for k in list(d):
                            d[k] = math.nan
                        d[Ident("planted")] = 1.0

            control, inference = CONTROL_POLICIES[ctrl_name], INFERENCE_POLICIES[inf_name]
            if write:
                control, inference = writing(control, False), writing(inference, True)
            cfg = ExperimentConfig(stem, factory, control, inference, episodes=4,
                                   max_steps=60, budget=budget, mode=mode, seed=6)
            stats = run_experiment(shield, cfg, record_sink=sink)
            return [(e.steps, e.ret, e.crash, e.overrides, e.eps_spent, e.ledger_error,
                     e.reuse_violations) for e in stats.episodes], lines

        written, untouched = run(True), run(False)
        assert written == untouched
        assert untouched[1] and any(json.loads(line)["bounds_after"] for line in untouched[1])


    def test_view_invariant_under_cache_perturbation(self, train_setup):
        shield, env = train_setup
        rngs = _rngs(21)
        st = _init(shield, env, 1e-3, rngs[0])
        accel = make_action(shield.spec.ctrl, ["left"])
        for step in range(3):
            _step(shield, env, st, accel, (None, (), None), rngs, step)
        view1 = make_policy_view(shield, env, st, 3, 100)
        for entry in st.history:
            for k in entry.cache:
                entry.cache[k] += 1e6  # corrupt every private measurement
        view2 = make_policy_view(shield, env, st, 3, 100)
        assert view1 == view2

    def test_view_has_no_measurement_fields(self, train_setup):
        shield, env = train_setup
        rngs = _rngs(22)
        st = _init(shield, env, 1e-3, rngs[0])
        accel = make_action(shield.spec.ctrl, ["left"])
        _step(shield, env, st, accel, (None, (), None), rngs, 0)
        view = make_policy_view(shield, env, st, 1, 100)
        blob = repr(view)
        assert "cache" not in blob
        assert view.history[0].available == frozenset({"w"})


def _reference_policy_view(env, st, step, max_steps) -> PolicyView:
    """The policy view built from scratch off the history entries on every
    step: the reference for the incrementally kept one."""
    bounds = dict(st.global_bounds)
    if st.history:
        bounds.update(st.history[-1].local_bounds)
    views = [HistoryView(i, MappingProxyType(e.state), frozenset(hv.available))
             for i, (e, hv) in enumerate(zip(st.history, st.views), start=1)]
    return PolicyView(
        state=env.state_map(st.env_state), bounds=bounds, step=step,
        max_steps=max_steps, budget_remaining=st.ledger.remaining,
        budget_initial=st.ledger.initial, history=tuple(views))


def _reference_history_valuation(history, assignments) -> dict:
    """Every state variable and local bound of each referenced entry, tagged
    with the entry's index: the reference for ``StepValuation``."""
    v: dict = {}
    for i in sorted(referenced_indices(assignments)):
        if 1 <= i <= len(history):
            entry = history[i - 1]
            for k, x in entry.state.items():
                v[Ident(k.name, i)] = x
            for k, x in entry.local_bounds.items():
                v[Ident(k.name, i)] = x
    return v


def _same(a, b) -> bool:
    return a is b or a == b or (
        isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b))


def _check_valuations(shield, env, st, a_inf) -> int:
    """Evaluate the step's assignments in order under the lazy valuation and
    under a dict of every referenced entry's values, tightening both alike
    (a window SBI tightens its target itself); the number of assignments
    that read history."""
    assignments = interpret_strategy(shield.spec.infer, a_inf, shield.spec.directions,
                                     shield.spec.noise_decls)
    history = st.history
    n = len(history) + 1
    current = {**env.state_map(st.env_state), **st.global_bounds}
    surfaced = {}
    reads = observation_reads({sa.sbi.template for sa in assignments}, shield.spec.obs_names)
    for i, names in referenced_observations(assignments, reads).items():
        for name in names:
            if 1 <= i <= len(history) and name in st.views[i - 1].available:
                surfaced[Ident(name, i)] = history[i - 1].cache[name]
    full = dict(current)
    full.update(_reference_history_valuation(history, assignments))
    full.update(surfaced)
    ref = AtStep(full, n)
    lazy = StepValuation(dict(current), history, n)
    lazy.surfaced.update(surfaced)
    for ident in [*full, *(Ident(k.name, n) for k in current)]:
        if ident.index is None:
            got, x = lazy.current.get(ident), full[ident]
        else:
            got, x = lazy.obs(Ident(ident.name), ident.index), ref.obs(ident, ident.index)
            if ident.name not in shield.spec.obs_names:
                # a state variable or bound reads the same past the surfaced
                assert _same(lazy.at(Ident(ident.name), ident.index), got)
        assert _same(got, x)
    for k in current:
        for i in (-1, 0, n + 1):
            assert lazy.at(k, i) is UNDEF and lazy.obs(k, i) is UNDEF

    read = 0
    for sa in assignments:
        r, method = eval_sbi(sa.sbi, shield.interp, ref)
        r_lazy, method_lazy = eval_sbi(sa.sbi, shield.interp, lazy)
        assert _same(r_lazy, r) and method_lazy == method
        read += bool(referenced_indices([sa]))
        if type(sa.sbi) is WindowSBI:
            assert _same(lazy.current.get(sa.param), full.get(sa.param))
            continue
        if r is BOTTOM or not math.isfinite(r):
            continue
        up = shield.spec.directions.get(sa.param) != "lo"
        cur = full.get(sa.param)
        if cur is None or (r < cur if up else r > cur):
            full[sa.param] = r
            lazy.current[sa.param] = r
    return read


class TestIncrementalState:
    @pytest.mark.parametrize("env_name, episodes", [
        ("sisyphean", 3), ("versatile", 2), ("river", 12), ("acas", 3)])
    def test_matches_from_scratch_reference(self, env_name, episodes):
        factory, stem, budget, mode = REGISTRY[env_name]
        env = factory()
        env.meta_mode = mode == "meta"
        shield = Shield(load_spec(bundled_spec_path(stem)), env.consts)
        ctrl_name, inf_name = DEFAULT_POLICIES[env_name]
        cp = CONTROL_POLICIES[ctrl_name](shield, env)
        ip = INFERENCE_POLICIES[inf_name](shield, env)
        burned = read = 0
        ledger = KahanLedger(budget)
        for ep in range(episodes):
            rngs = _rngs(5, ep)
            st = init_shielded_state(shield, env, ledger, rngs[0])
            for step in range(env.max_steps):
                view = make_policy_view(shield, env, st, step, env.max_steps)
                assert view == _reference_policy_view(env, st, step, env.max_steps)
                a_ctrl, a_inf = cp(view), ip(view)
                read += _check_valuations(shield, env, st, a_inf)
                rec, _ = _step(shield, env, st, a_ctrl, a_inf, rngs, step)
                burned += len(rec.consumed)
                if rec.terminal:
                    break
        assert burned > 0 and read > 0

    def test_each_env_state_is_mapped_once(self, train_setup):
        shield, env = train_setup
        mapped = []
        state_map = env.state_map
        env.state_map = lambda s: mapped.append(s) or state_map(s)
        stats = run_episode(shield, env, greedy_train_control(shield, env),
                            sisyphean_inference(shield, env), KahanLedger(1e-3), 40,
                            np.random.SeedSequence(2))
        assert stats.steps > 1 and len(mapped) == stats.steps + 1

    def test_shield_seconds_include_the_policy_view(self, train_setup, monkeypatch):
        shield, env = train_setup
        real = runtime.make_policy_view

        def slow(*args):
            time.sleep(0.01)
            return real(*args)

        monkeypatch.setattr(runtime, "make_policy_view", slow)
        stats = run_episode(shield, env, greedy_train_control(shield, env),
                            skip_inference(shield, env), KahanLedger(1e-3), 5,
                            np.random.SeedSequence(1))
        assert stats.steps == 5 and stats.shield_seconds >= 5 * 0.01


class TestDeterminism:
    def test_identical_seeds_identical_traces(self, specs):
        def collect():
            env = make_crossing_river()
            shield = Shield(specs["river"], env.consts)
            records = []
            cfg = ExperimentConfig(
                spec_name="river", env_factory=make_crossing_river,
                control_policy=river_control, inference_policy=river_inference,
                episodes=12, budget=1e-7, mode="meta", seed=99)
            stats = run_experiment(shield, cfg,
                                   record_sink=lambda r: records.append(
                                       json.dumps(r.to_json())))
            return stats, records

        s1, r1 = collect()
        s2, r2 = collect()
        assert r1 == r2
        assert [e.ret for e in s1.episodes] == [e.ret for e in s2.episodes]

    def test_fixed_mode_budget_monotone_across_episodes(self, specs):
        env = make_sisyphean_train()
        shield = Shield(specs["sisyphean"], env.consts)
        cfg = ExperimentConfig(
            spec_name="sisyphean", env_factory=make_sisyphean_train,
            control_policy=greedy_train_control,
            inference_policy=sisyphean_inference,
            episodes=12, budget=1e-3, mode="fixed", seed=5)
        stats = run_experiment(shield, cfg)
        assert all(e.eps_spent >= 0 for e in stats.episodes)
        assert stats.eps_spent <= 1e-3
        assert stats.ledger_error <= 1e-12
        assert stats.reuse_violations == 0

    def test_global_bounds_tighten_monotonically(self, specs):
        # within an episode, an upper global bound never increases and a
        # lower one never decreases
        env = make_crossing_river()
        env.meta_mode = True
        shield = Shield(specs["river"], env.consts)
        cp, ip = river_control(shield, env), river_inference(shield, env)
        from adashield.runtime import make_policy_view
        for ep in range(10):
            rngs = _rngs(31, ep)
            st = _init(shield, env, 1e-7, rngs[0])
            ups, los = [], []
            for step in range(50):
                view = make_policy_view(shield, env, st, step, 50)
                rec, _ = _step(shield, env, st, cp(view), ip(view), rngs, step)
                ups.append(rec.bounds_after[Ident("yb_up")])
                los.append(rec.bounds_after[Ident("yb_lo")])
                if rec.terminal:
                    break
            assert all(b <= a for a, b in zip(ups, ups[1:]))
            assert all(b >= a for a, b in zip(los, los[1:]))

    def test_meta_mode_resamples_unknowns(self, specs):
        env = make_crossing_river()
        env.meta_mode = True
        rng = np.random.default_rng(1)
        s1 = env.reset(rng)
        s2 = env.reset(rng)
        assert s1.yb != s2.yb

    def test_zero_step_episode(self, train_setup):
        shield, env = train_setup
        stats = run_episode(shield, env, greedy_train_control(shield, env),
                            skip_inference(shield, env), KahanLedger(1e-3), 0,
                            np.random.SeedSequence(1))
        assert stats.steps == 0 and stats.ret == 0.0 and not stats.crash
