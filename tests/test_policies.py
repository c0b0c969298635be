"""Hardcoded policies: protocol behavior, determinism and budget discipline."""

import pytest

from adashield.dl import Ident
from adashield.runtime import (
    ExperimentConfig, HistoryView, PolicyView, Shield, run_experiment,
)
from adashield.strategy import AggregateAction
from adashield.envs import make_acas, make_crossing_river, make_sisyphean_train
from adashield.policies import (
    acas_inference, fraction_rule, greedy_train_control, periodic_train_inference,
    river_inference, sisyphean_inference, skip_inference,
)


def train_view(shield, xs, step=30, budget=(1e-3, 1e-3), x_now=0.0,
               consumed_at=()):
    history = []
    for i, x in enumerate(xs, start=1):
        avail = frozenset() if i in consumed_at else frozenset({"w"})
        history.append(HistoryView(i, {Ident("x"): x}, avail))
    return PolicyView(state={Ident("x"): x_now}, bounds={Ident("fbar"): 3.0},
                      step=step, max_steps=100, budget_remaining=budget[1],
                      budget_initial=budget[0], history=tuple(history))


class TestFractionRule:
    def test_stated_example(self):
        # 40 steps since the last aggregation in an 80000-step run with the
        # whole 1e-3 budget remaining
        assert fraction_rule(40, 80_000, 1e-3) == pytest.approx((40 / 80_000) * 1e-3)

    def test_never_exceeds_remaining(self):
        assert fraction_rule(80_000, 80_000, 0.5) <= 0.5


class TestSisypheanProtocol:
    def test_uniform_weights_over_twenty(self, specs):
        env = make_sisyphean_train()
        shield = Shield(specs["sisyphean"], env.consts)
        policy = sisyphean_inference(shield, env, n_obs=20, radius=100.0)
        view = train_view(shield, xs=[float(-30 + i) for i in range(25)],
                          x_now=0.0)
        action = policy(view)
        agg = action[2]
        assert isinstance(agg, AggregateAction)
        assert len(agg.dist) == 20
        assert all(abs(w - 1 / 20) < 1e-12 for w, _ in agg.dist)

    def test_radius_filter(self, specs):
        env = make_sisyphean_train()
        shield = Shield(specs["sisyphean"], env.consts)
        policy = sisyphean_inference(shield, env, n_obs=5, radius=100.0)
        xs = [-500.0, -400.0, -90.0, -50.0, -20.0, -10.0]  # only 4 in radius
        action = policy(train_view(shield, xs=xs, x_now=0.0))
        assert action[2] is None

    def test_no_observations_skips(self, specs):
        env = make_sisyphean_train()
        shield = Shield(specs["sisyphean"], env.consts)
        policy = sisyphean_inference(shield, env)
        action = policy(train_view(shield, xs=[]))
        assert action[2] is None
        assert action[0] is None and action[1] == ()

    def test_epsilon_follows_fraction_rule(self, specs):
        env = make_sisyphean_train()
        shield = Shield(specs["sisyphean"], env.consts)
        policy = sisyphean_inference(shield, env, n_obs=5, total_steps=80_000)
        view = train_view(shield, xs=[-3.0, -2.5, -2.0, -1.5, -1.0],
                          step=40, budget=(1e-3, 1e-3))
        agg = policy(view)[2]
        assert agg.eps == pytest.approx((40 / 80_000) * 1e-3)

    def test_determinism(self, specs):
        env = make_sisyphean_train()
        shield = Shield(specs["sisyphean"], env.consts)
        policy = sisyphean_inference(shield, env)
        view = train_view(shield, xs=[-5.0 * i for i in range(30)])
        assert policy(view) == policy(view)


class TestPeriodicProtocol:
    def test_every_20(self, specs):
        env = make_sisyphean_train()
        shield = Shield(specs["train_local"], env.consts)
        policy = periodic_train_inference(shield, env, every=20)
        xs = [-10.0 * i for i in range(30)]
        fired = policy(train_view(shield, xs=xs, step=19, budget=(1e-7, 1e-7)))
        assert isinstance(fired[2], AggregateAction)
        assert fired[2].eps == pytest.approx(1e-7 * 20 / 100)
        assert len(fired[2].dist) == 30  # all available observations
        idle = policy(train_view(shield, xs=xs, step=10))
        assert idle[2] is None


class TestBudgetDiscipline:
    def test_sisyphean_never_exceeds_grant(self, specs):
        env = make_sisyphean_train()
        shield = Shield(specs["sisyphean"], env.consts)
        cfg = ExperimentConfig(
            spec_name="sisyphean", env_factory=make_sisyphean_train,
            control_policy=greedy_train_control,
            inference_policy=sisyphean_inference,
            episodes=80, budget=1e-3, mode="fixed", seed=11)
        stats = run_experiment(shield, cfg)
        assert 0 < stats.eps_spent <= 1e-3

    def test_acas_respects_episode_budget(self, specs):
        env = make_acas()
        shield = Shield(specs["acas"], env.consts)
        cfg = ExperimentConfig(
            spec_name="acas", env_factory=make_acas,
            control_policy=__import__("adashield.policies", fromlist=["acas_control"]).acas_control,
            inference_policy=acas_inference,
            episodes=40, budget=1e-7, mode="meta", seed=12)
        stats = run_experiment(shield, cfg)
        assert all(e.eps_spent <= 1e-7 + 1e-20 for e in stats.episodes)
        assert stats.reuse_violations == 0

    def test_river_skips_when_budget_gone(self, specs):
        env = make_crossing_river()
        shield = Shield(specs["river"], env.consts)
        policy = river_inference(shield, env, eps=1e-8)
        view = PolicyView(
            state={Ident("x"): -1.0, Ident("y"): 0.0}, bounds={},
            step=5, max_steps=50, budget_remaining=0.0, budget_initial=1e-7,
            history=(HistoryView(1, {Ident("x"): -1.0}, frozenset({"w"})),))
        action = policy(view)
        # the policy still emits the aggregate; the runtime's budget guard
        # is responsible for skipping it
        assert isinstance(action[0], AggregateAction)


class TestSkipPolicy:
    def test_empty_action_shape(self, specs):
        env = make_acas()
        shield = Shield(specs["acas"], env.consts)
        policy = skip_inference(shield, env)
        view = PolicyView(state={}, bounds={}, step=0, max_steps=1,
                          budget_remaining=1.0, budget_initial=1.0,
                          history=())
        assert policy(view) == tuple(None for _ in specs["acas"].infer)
