"""Environment fidelity: plant conformance, observation distributions,
assumption certification and configured constants."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.integrate import solve_ivp

from adashield.dl import Assign, Ident, ODE, Seq, UNDEF, eval_formula, eval_term
from adashield.envs import (
    AcasConfig, RiverConfig, TrainConfig, load_env_config, make_acas,
    make_crossing_river, make_sisyphean_train, make_versatile_train,
)
from adashield.envs.train import G, TrainState
from adashield.actions import make_action, ctrl_exec
from adashield.runtime import Shield

RTOL = 1e-6


def split_plant(plant):
    """Leading discrete assignments and the closing ODE of a plant program."""
    assigns = []
    node = plant
    while isinstance(node, Seq):
        assert isinstance(node.left, Assign)
        assigns.append(node.left)
        node = node.right
    assert isinstance(node, ODE)
    return assigns, node


def integrate_plant(spec, interp, start: dict, duration: float):
    """High-precision reference integration of the spec's plant, returning
    the endpoint valuation and a dense trace for domain checking."""
    assigns, ode = split_plant(spec.plant)
    val = dict(start)
    for a in assigns:
        val[a.var] = eval_term(a.term, interp, val)
    evolved = [x for x, _ in ode.eqs]
    rhs_terms = {x: rhs for x, rhs in ode.eqs}

    def field(_t, y):
        local = dict(val)
        local.update(zip(evolved, y))
        return [eval_term(rhs_terms[x], interp, local) for x in evolved]

    y0 = [val[x] for x in evolved]
    if duration == 0.0:
        return val, [dict(val)]
    sol = solve_ivp(field, (0.0, duration), y0, rtol=1e-10, atol=1e-12,
                    dense_output=True, max_step=duration / 16)
    assert sol.success
    trace = []
    # sample strictly inside the interval: the endpoint often sits exactly on
    # the domain boundary and interpolation roundoff would cross it
    for t in np.linspace(0.0, duration, 101) * (1.0 - 1e-9):
        point = dict(val)
        point.update(zip(evolved, sol.sol(t)))
        trace.append(point)
    end = dict(val)
    end.update(zip(evolved, sol.y[:, -1]))
    return end, trace


def audit_transition(spec, env, state, exec_vals, next_state, unknowns=None):
    """The environment endpoint matches the plant within RTOL and the whole
    trace stays inside the evolution domain."""
    interp = {**env.consts, **(env.unknowns() if unknowns is None else unknowns)}
    _, ode = split_plant(spec.plant)
    after = env.state_map(next_state)
    clock = next(x for x, rhs in ode.eqs
                 if getattr(rhs, "value", None) == 1.0)
    assigns, _ = split_plant(spec.plant)
    start_clock = dict(exec_vals)
    for a in assigns:
        start_clock[a.var] = eval_term(a.term, interp, start_clock)
    duration = after[clock] - start_clock[clock]
    assert duration >= -1e-12
    end, trace = integrate_plant(spec, interp, exec_vals, max(duration, 0.0))
    for x, _ in ode.eqs:
        scale = max(1.0, abs(end[x]))
        assert abs(end[x] - after[x]) <= RTOL * scale, (x, end[x], after[x])
    # untouched state variables carry over from the post-controller state
    evolved = set(dict(ode.eqs)) | {a.var for a in assigns}
    for k in after:
        if k in exec_vals and k not in evolved:
            assert after[k] == exec_vals[k], k
    for point in trace:
        r = eval_formula(ode.domain, interp, point)
        assert r is not UNDEF and bool(r)
    return True


def rollout_transitions(spec, env, policy_directives, episodes, seed, steps=30):
    """Collect (state, exec_vals, next_state) triples by stepping the env
    with directive-built actions (no shield in the loop)."""
    out = []
    rng = np.random.default_rng(seed)
    env.meta_mode = True
    shield = Shield(spec, env.consts)
    for _ in range(episodes):
        s = env.reset(rng)
        for _ in range(steps):
            directives = policy_directives(env, s, rng)
            bounds = policy_directives.bounds(env, s)
            mval = {**env.state_map(s), **bounds}
            a = make_action(spec.ctrl, directives)
            exec_vals = ctrl_exec(spec.ctrl, mval, a, shield.interp)
            s2, _, term = env.step(s, exec_vals, rng)
            out.append((s, exec_vals, s2, env.unknowns()))
            if term:
                break
            s = s2
    return out


class TrainDriver:
    def __call__(self, env, s, rng):
        return ["left" if rng.random() < 0.5 else "right"]

    def bounds(self, env, s):
        return {Ident("fbar"): env.cfg.F}


class RiverDriver:
    def __call__(self, env, s, rng):
        v = env.cfg.V
        return [rng.uniform(-v, v), rng.uniform(-v, v), float(rng.random() < 0.5)]

    def bounds(self, env, s):
        return {Ident("yb_lo"): -10.0, Ident("yb_up"): 10.0}


class AcasDriver:
    def __call__(self, env, s, rng):
        return [rng.uniform(-env.cfg.A, env.cfg.A)]

    def bounds(self, env, s):
        return {Ident("c_lo"): 0.0, Ident("vint_lo"): -50.0, Ident("vint_up"): 50.0,
                Ident("hint_lo"): -2000.0, Ident("hint_up"): 2000.0,
                Ident("h0int_lo"): -500.0, Ident("h0int_up"): 500.0,
                Ident("hmint_lo"): -1600.0, Ident("hmint_up"): 1600.0}


class TestPlantConformance:
    @pytest.mark.parametrize("name,factory,driver", [
        ("sisyphean", make_sisyphean_train, TrainDriver()),
        ("train_local", lambda: make_versatile_train(None, "k_sigma_large"), TrainDriver()),
        ("river", make_crossing_river, RiverDriver()),
        ("acas", make_acas, AcasDriver()),
    ])
    def test_thousand_transitions(self, specs, name, factory, driver):
        spec = specs[name]
        env = factory()
        transitions = rollout_transitions(spec, env, driver, episodes=40, seed=17)
        assert len(transitions) >= 1000
        for s, exec_vals, s2, unknowns in transitions[:1000]:
            audit_transition(spec, env, s, exec_vals, s2, unknowns)

    def test_braking_stops_exactly_at_zero_speed(self, specs):
        env = make_sisyphean_train()
        env.cfg.v0 = 2.0
        rng = np.random.default_rng(0)
        s = env.reset(rng)
        mval = {**env.state_map(s), Ident("fbar"): 3.0}
        spec = specs["sisyphean"]
        exec_vals = ctrl_exec(spec.ctrl, mval, make_action(spec.ctrl, ["right"]),
                              env.consts)
        s2, _, _ = env.step(s, exec_vals, rng)
        assert s2.v == 0.0
        assert s2.t < env.cfg.T  # the run ended when the speed hit zero
        audit_transition(spec, env, s, exec_vals, s2)


def _reference_slope(cfg, phase, x):
    """The track slope as ``TrainEnv._slope_at`` computes it."""
    u = cfg.C * cfg.omega * math.cos(cfg.omega * x + phase)
    return G * u / math.sqrt(1.0 + u * u)


def _reference_rk4(cfg, x, v, a, phase, h):
    """The composed RK4 step the train environments used before the
    straight-line kernel: four slope calls, operations in source order."""
    f = lambda p, y: _reference_slope(cfg, p, y)
    k1x, k1v = v, a + f(phase, x)
    k2x, k2v = v + 0.5 * h * k1v, a + f(phase, x + 0.5 * h * k1x)
    k3x, k3v = v + 0.5 * h * k2v, a + f(phase, x + 0.5 * h * k2x)
    k4x, k4v = v + h * k3v, a + f(phase, x + h * k3x)
    return (x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x),
            v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v))


def _reference_integrate(cfg, x, v, a, phase):
    """One environment step's integration with the reference RK4, including
    the exact stop by bisection when v crosses 0."""
    h = cfg.T / cfg.substeps
    t = 0.0
    for _ in range(cfg.substeps):
        x2, v2 = _reference_rk4(cfg, x, v, a, phase, h)
        if v2 < 0.0:
            lo, hi = 0.0, h
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                _, vm = _reference_rk4(cfg, x, v, a, phase, mid)
                if vm < 0.0:
                    hi = mid
                else:
                    lo = mid
            x, _ = _reference_rk4(cfg, x, v, a, phase, lo)
            return x, 0.0, t + lo
        x, v = x2, v2
        t += h
        if v == 0.0:
            return x, v, t
    return x, v, t


def _bits(*values):
    return [float(z).hex() for z in values]


TRAIN_FACTORIES = {
    "sisyphean": make_sisyphean_train,
    "versatile-large": lambda: make_versatile_train(None, "k_sigma_large"),
    "versatile-small": lambda: make_versatile_train(None, "k_sigma_small"),
}

_Y, _A = Ident("y"), Ident("a")


def train_rollout(env, seed, episodes=12, steps=40):
    """Seeded rollouts stepping the env directly from random starts: each
    step brakes, accelerates, takes an in-between acceleration or, when the
    train is at rest, holds it there with a = -f(x).  Returns
    ``(kind, before, after)`` per step."""
    rng = np.random.default_rng(seed)
    env.meta_mode = True
    c = env.cfg
    out = []
    for _ in range(episodes):
        phase = env.reset(rng).phase
        s = TrainState(float(rng.uniform(-2000.0, -10.0)),
                       float(rng.uniform(0.0, 12.0)), c.F, 0.0, 0.0, phase)
        for _ in range(steps):
            u = rng.random()
            if s.v == 0.0 and u < 0.3:
                kind, a = "hold", -env._slope_at(s.phase, s.x)
            elif u < 0.55:
                kind, a = "brake", -c.B
            elif u < 0.85:
                kind, a = "accelerate", c.A
            else:
                kind, a = "between", float(rng.uniform(-c.B, c.A))
            s2, _, _ = env.step(s, {_Y: c.F, _A: a}, rng)
            out.append((kind, s, s2))
            s = s2
    return out


class TestTrainKernel:
    """The train dynamics are pinned bit for bit: a speedup of the RK4
    kernel may not move a single trajectory."""

    GOLDEN = {
        "sisyphean":
            "4149dfc969aa69692b817485ddbd7b86f530ceeb25535f089721f261cf4c1e05",
        "versatile-large":
            "be2eb63b04b1dcdf1ed6a37b5046278c82c696ae1653ab5c331fee63ac869354",
        "versatile-small":
            "557335c48261cb3f6764ab42d49d14e95ce707ce7a24bfdaa7d0135078c9aa85",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_trajectories(self, name):
        env = TRAIN_FACTORIES[name]()
        steps = train_rollout(env, seed=2024)
        h = env.cfg.T / env.cfg.substeps
        kinds = {k for k, _, _ in steps}
        assert kinds == {"hold", "brake", "accelerate", "between"}
        # the exact stop by bisection, from motion and from rest
        assert any(s2.v == 0.0 and 0.0 < s2.t < env.cfg.T and s.v > 0.0
                   for _, s, s2 in steps)
        assert any(s2.v == 0.0 and s2.t == 0.0 and k == "brake"
                   for k, s, s2 in steps)
        # the v == 0.0 early exit after one substep
        assert any(s2.v == 0.0 and s2.t == h and s2.x == s.x
                   for k, s, s2 in steps if k == "hold")
        digest = hashlib.sha256(
            "\n".join(repr(s2) for _, _, s2 in steps).encode()).hexdigest()
        assert digest == self.GOLDEN[name]

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(TRAIN_FACTORIES)),
           x=st.floats(-1e5, 1e3), v=st.floats(0.0, 40.0),
           a=st.floats(-4.0, 4.0), phase=st.floats(0.0, 2 * math.pi),
           h=st.one_of(st.floats(0.0, 0.01),
                       st.integers(1, 60).map(lambda n: 0.01 * 0.5 ** n)))
    def test_kernel_matches_reference_rk4(self, name, x, v, a, phase, h):
        from adashield.envs.train import _rk4_step
        cfg = TRAIN_FACTORIES[name]().cfg
        got = _rk4_step(x, v, a, h, cfg.C * cfg.omega, cfg.omega, phase)
        assert _bits(*got) == _bits(*_reference_rk4(cfg, x, v, a, phase, h))

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(TRAIN_FACTORIES)),
           x=st.floats(-1e5, 1e3), v=st.floats(0.0, 40.0),
           a=st.one_of(st.sampled_from([-4.0, 4.0]), st.floats(-4.0, 4.0)),
           phase=st.floats(0.0, 2 * math.pi))
    def test_step_matches_reference(self, name, x, v, a, phase):
        env = TRAIN_FACTORIES[name]()
        s = TrainState(x, v, env.cfg.F, 0.0, 0.0, phase)
        s2, _, _ = env.step(s, {_Y: env.cfg.F, _A: a}, None)
        assert _bits(s2.x, s2.v, s2.t) == _bits(
            *_reference_integrate(env.cfg, x, v, a, phase))

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(TRAIN_FACTORIES)),
           x=st.floats(-1e5, 1e3), phase=st.floats(0.0, 2 * math.pi))
    def test_kernel_slope_is_slope_at(self, name, x, phase):
        """``measure`` reads the slope through ``_slope_at``; the kernel
        computes it inline.  Holding a train at rest with a = -f(x) keeps it
        exactly still only if the two agree bit for bit, since a + f == 0.0
        exactly iff f == -a."""
        from adashield.envs.train import _rk4_step
        env = TRAIN_FACTORIES[name]()
        c = env.cfg
        f = env._slope_at(phase, x)
        assert f == _reference_slope(c, phase, x)
        got = _rk4_step(x, 0.0, -f, c.T / c.substeps, c.C * c.omega, c.omega,
                        phase)
        assert got == (x, 0.0)


class TestObservationConsistency:
    N = 100_000
    ALPHA = 1e-3

    def test_sisyphean_uniform(self):
        env = make_sisyphean_train()
        rng = np.random.default_rng(100)
        s = env.reset(rng)
        f = env.unknowns()["f"](s.x)
        samples = np.array([env.measure(s, rng)["w"] for _ in range(self.N)])
        res = stats.kstest(samples, "uniform",
                           args=(f - env.cfg.eta_r, 2 * env.cfg.eta_r))
        assert res.pvalue > self.ALPHA

    def test_versatile_gaussian(self):
        env = make_versatile_train(None, "k_sigma_small")
        rng = np.random.default_rng(101)
        s = env.reset(rng)
        f = env.unknowns()["f"](s.x)
        samples = np.array([env.measure(s, rng)["w"] for _ in range(self.N)])
        res = stats.kstest(samples, "norm", args=(f, env.cfg.sigma))
        assert res.pvalue > self.ALPHA

    def test_river_position_scaled_noise(self):
        env = make_crossing_river()
        rng = np.random.default_rng(102)
        s = env.reset(rng)
        s = type(s)(**{**s.__dict__, "x": -3.0})
        samples = np.array([env.measure(s, rng)["w"] for _ in range(self.N)])
        res = stats.kstest(samples, "norm", args=(s.yb, 3.0 * env.cfg.sigma))
        assert res.pvalue > self.ALPHA

    def test_acas_sensors_and_evidence(self):
        env = make_acas()
        rng = np.random.default_rng(103)
        s = env.reset(rng)
        wv = np.array([env.measure(s, rng)["wv"] for _ in range(self.N)])
        wh = np.array([env.measure(s, rng)["wh"] for _ in range(self.N)])
        it = s.intruder
        assert stats.kstest(wv, "norm", args=(it.v(0.0), env.cfg.sigv)).pvalue > self.ALPHA
        assert stats.kstest(wh, "norm", args=(it.h(0.0), env.cfg.sigh)).pvalue > self.ALPHA
        # evidence channel: when non-compliant, reads 1 with probability p
        env.cfg.p = 0.05  # raise the rate so the count is testable
        while s.intruder.compliant:
            env._intruder = None
            s = env.reset(rng)
        hits = sum(env.measure(s, rng)["wc"] == 1.0 for _ in range(20_000))
        res = stats.binomtest(hits, 20_000, 0.05)
        assert res.pvalue > self.ALPHA

    def test_acas_evidence_availability_rate(self):
        env = make_acas()
        rng = np.random.default_rng(104)
        arrived = 0
        trials = 20_000
        for _ in range(trials):
            env._intruder = None
            s = env.reset(rng)
            arrived += s.evidence[0]
        assert stats.binomtest(arrived, trials, 0.9).pvalue > self.ALPHA


class TestAssumptionCertification:
    def test_train_slope_envelope(self):
        env = make_sisyphean_train()
        f = env.unknowns()["f"]
        xs = np.linspace(-5000.0, 5000.0, 100_001)
        vals = np.array([f(x) for x in xs])
        amp = G * env.cfg.C * env.cfg.omega / math.sqrt(
            1 + (env.cfg.C * env.cfg.omega) ** 2)
        assert abs(amp - 0.0017913) < 1e-6
        assert np.max(np.abs(vals)) <= amp + 1e-12
        assert np.max(np.abs(vals)) <= env.cfg.F
        assert np.min(vals) >= -env.cfg.A
        # finite-difference Lipschitz estimate never exceeds the declared k
        slopes = np.abs(np.diff(vals) / np.diff(xs))
        assert np.max(slopes) <= env.cfg.k

    def test_acas_intruder_assumptions(self):
        env = make_acas()
        rng = np.random.default_rng(200)
        c = env.cfg
        for _ in range(300):
            env._intruder = None
            s = env.reset(rng)
            it = s.intruder
            ts = rng.uniform(0.0, c.tm, size=(200, 2))
            for t1, t2 in ts:
                assert abs(it.h(t2) - it.h(t1) - it.v(t1) * (t2 - t1)) \
                    <= c.Aint * (t2 - t1) ** 2 / 2 + 1e-9
                assert abs(it.v(t2) - it.v(t1)) <= c.Aint * abs(t2 - t1) + 1e-9
            grid = np.linspace(0.0, c.tm, 401)
            assert all(abs(it.v(t)) <= c.V + 1e-9 for t in grid)
            assert all(abs(it.h(t)) <= c.H + 1e-9 for t in grid)
            if it.compliant:
                hm = it.h(c.tm)
                for t in grid:
                    lin = it.h(t) + it.v(t) * (c.tm - t)
                    if it.h0 > 0:
                        assert hm >= lin - 1e-9
                    else:
                        assert hm <= lin + 1e-9

    def test_river_bridge_in_declared_range(self):
        env = make_crossing_river()
        env.meta_mode = True
        rng = np.random.default_rng(201)
        for _ in range(500):
            s = env.reset(rng)
            assert -10.0 <= s.yb <= 10.0
            assert s.x != 0.0


class TestConfiguredDefaults:
    def test_sisyphean_paper_values(self):
        cfg = make_sisyphean_train().cfg
        assert (cfg.A, cfg.B, cfg.T) == (4.0, 4.0, 1.0)
        assert (cfg.k, cfg.F, cfg.v0) == (0.0025, 3.0, 30.0)
        assert (cfg.C, cfg.omega, cfg.phase) == (0.22, 0.00083, math.pi / 2)
        assert cfg.noise_kind == "uniform" and cfg.eta_r == 0.3
        assert cfg.x0 == -1000.0 and cfg.max_steps == 100
        assert (cfg.reward_goal, cfg.reward_crash, cfg.reward_step) == (10.0, -10.0, -0.05)

    def test_versatile_settings(self):
        large = make_versatile_train(None, "k_sigma_large").cfg
        assert (large.k, large.sigma, large.C, large.omega) == (0.002, 0.001, 0.19, 0.0008)
        small = make_versatile_train(None, "k_sigma_small").cfg
        assert (small.k, small.sigma, small.C, small.omega) == (1e-5, 1.0, 38.2, 4e-6)
        assert small.F == 2.5 and small.budget_bonus == 0.1 and small.resample_phase

    def test_river_paper_values(self):
        cfg = make_crossing_river().cfg
        assert (cfg.V, cfg.W, cfg.lamp_radius, cfg.obs_period) == (2.0, 1.0, 5.0, 2)
        assert (cfg.yb_range, cfg.start_range, cfg.max_steps) == (10.0, 20.0, 50)
        assert (cfg.reward_goal, cfg.reward_crash) == (10.0, -10.0)
        assert (cfg.reward_step, cfg.reward_lamp) == (-0.1, -0.2)

    def test_acas_paper_values(self):
        cfg = make_acas().cfg
        assert (cfg.tm, cfg.A, cfg.Aint, cfg.V, cfg.H) == (40.0, 3.0, 3.0, 50.0, 2000.0)
        assert (cfg.sigv, cfg.sigh, cfg.p) == (2.0, 20.0, 1e-4)
        assert (cfg.R, cfg.collision_dist) == (500.0, 200.0)
        assert cfg.evidence_times == (5.0, 10.0)
        assert (cfg.reward_goal, cfg.reward_collision) == (10.0, -30.0)
        assert cfg.max_steps == 40

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(F=5.0).validate()  # F < B violated
        for bad in (0, -1, 2.5, 100.0, True, "100", None):
            with pytest.raises(ValueError, match="substeps"):
                TrainConfig(substeps=bad).validate()
            with pytest.raises(ValueError, match="max_steps"):
                TrainConfig(max_steps=bad).validate()
            with pytest.raises(ValueError, match="max_steps"):
                AcasConfig(max_steps=bad).validate()
            with pytest.raises(ValueError, match="obs_period"):
                RiverConfig(obs_period=bad).validate()
        assert TrainConfig(substeps=np.int64(3), max_steps=1).validate()
        with pytest.raises(ValueError):
            TrainConfig(C=5000.0).validate()  # slope amplitude above F
        with pytest.raises(ValueError):
            AcasConfig(collision_dist=900.0).validate()
        with pytest.raises(ValueError):
            make_versatile_train(None, "bogus")

    def test_config_file_overrides(self, tmp_path):
        path = tmp_path / "env.cfg"
        path.write_text("# comment\nv0 = 12.5\nmax_steps = 60\n")
        env = make_sisyphean_train(load_env_config(path))
        assert env.cfg.v0 == 12.5 and env.cfg.max_steps == 60
        path.write_text("bogus_key = 1\n")
        with pytest.raises(ValueError):
            make_sisyphean_train(load_env_config(path))


class TestRewardRules:
    def test_river_crossing_outcomes(self, specs):
        env = make_crossing_river()
        rng = np.random.default_rng(300)
        s = env.reset(rng)
        s = type(s)(**{**s.__dict__, "x": -1.0, "y": s.yb})
        vals = {Ident("vx"): 2.0, Ident("vy"): 0.0, Ident("l"): 0.0}
        s2, r, term = env.step(s, vals, rng)
        assert term and r == 10.0 and not s2.in_river
        s = type(s)(**{**s.__dict__, "x": -1.0, "y": s.yb + 5.0})
        s2, r, term = env.step(s, vals, rng)
        assert term and r == -10.0 and s2.in_river
        assert not env.ground_truth_safe(s2)

    def test_train_goal_window(self, specs):
        env = make_sisyphean_train()
        from adashield.envs.train import TrainState
        s = TrainState(-20.0, 2.0, 3.0, 0.0, 0.0, env.cfg.phase)
        rng = np.random.default_rng(301)
        vals = {Ident("y"): 3.0, Ident("a"): -4.0}
        s2, r, term = env.step(s, vals, rng)
        assert term and r == 10.0  # braked to below 1 m/s inside the window

    def test_acas_meeting_time_outcomes(self):
        env = make_acas()
        rng = np.random.default_rng(302)
        s = env.reset(rng)
        from adashield.envs.acas import AcasState
        near = AcasState(s.intruder.h(40.0) + 100.0, 0.0, 39.0, 38.0,
                         0.0, 0.0, 0.0, s.intruder, s.evidence)
        vals = {Ident("a"): 0.0, Ident("hnext"): 0.0, Ident("vnext"): 0.0,
                Ident("tleft"): 0.0}
        s2, r, term = env.step(near, vals, rng)
        assert term and r == -30.0
        assert not env.ground_truth_safe(s2)
        far = AcasState(s.intruder.h(40.0) + 600.0, 0.0, 39.0, 38.0,
                        0.0, 0.0, 0.0, s.intruder, s.evidence)
        s2, r, term = env.step(far, vals, rng)
        assert term and r == 10.0 and env.ground_truth_safe(s2)
