"""Acceptance suite.

Each criterion prints one PASS line when its assertions hold (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  The shielded runs
behind criteria 1-3 and 9-10 are executed once per environment/seed, in two
worker processes, and shared across criteria through module-scoped fixtures.
"""

import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import special

from adashield.dl import Ident, pretty_print
from adashield.actions import ARight, APair, AReal, UNIT, ALeft, ctrl_exec
from adashield.cli import bundled_spec_path
from adashield.obligations import gen_model_obligations, gen_obligations
from adashield.runtime import ExperimentConfig, Shield, run_experiment
from adashield.specfile import load_spec
from adashield.strategy import AggregateAction, BOTTOM, eval_sbi, interpret_strategy
from adashield.tailbounds import Dist, invccdf
from adashield.envs import (
    make_acas, make_crossing_river, make_sisyphean_train, make_versatile_train,
)
from adashield.policies import (
    CONTROL_POLICIES, INFERENCE_POLICIES, acas_control, acas_inference,
    greedy_train_control, river_control, river_inference, sisyphean_inference,
)

import falsify
from dl_oracle import conjuncts
from tail_oracle import variance

SEEDS = (0, 1, 2)
EPISODES = 1000

ENVS = {
    "sisyphean": dict(factory=make_sisyphean_train, spec="sisyphean",
                      control=greedy_train_control,
                      inference=sisyphean_inference, budget=1e-3, mode="fixed"),
    "versatile": dict(factory=lambda: make_versatile_train(None, "k_sigma_large"),
                      spec="train_local", control=greedy_train_control,
                      inference=INFERENCE_POLICIES["aggregate-every-20"],
                      budget=1e-7, mode="meta"),
    "river": dict(factory=make_crossing_river, spec="river",
                  control=river_control, inference=river_inference,
                  budget=1e-7, mode="meta"),
    "acas": dict(factory=make_acas, spec="acas", control=acas_control,
                 inference=acas_inference, budget=1e-7, mode="meta"),
}


def report(criterion: str, detail: str):
    print(f"[PASS] {criterion}: {detail}")


def _run(specs, name, seed, episodes=EPISODES, **overrides):
    cfg_info = ENVS[name]
    spec = specs[cfg_info["spec"]]
    env0 = cfg_info["factory"]()
    shield = Shield(spec, env0.consts)
    cfg = ExperimentConfig(
        spec_name=spec.name, env_factory=cfg_info["factory"],
        control_policy=cfg_info["control"], inference_policy=cfg_info["inference"],
        episodes=episodes, budget=cfg_info["budget"], mode=cfg_info["mode"],
        seed=seed, **overrides)
    return run_experiment(shield, cfg)


def _shielded_run(key):
    """One (env, seed) run of ``shielded_runs``, in a worker process."""
    name, seed = key
    stem = ENVS[name]["spec"]
    return _run({stem: load_spec(bundled_spec_path(stem))}, name, seed)


@pytest.fixture(scope="module")
def shielded_runs():
    # the runs are independent and seeded, so two worker processes give the
    # results one process does; spawned, as simulate --workers spawns, so
    # that no thread of this process is forked.  _elapsed is wall time
    t0 = time.time()
    keys = [(name, seed) for name in ENVS for seed in SEEDS]
    with ProcessPoolExecutor(max_workers=2,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        runs = list(pool.map(_shielded_run, keys))
    out = {name: {} for name in ENVS}
    for (name, seed), stats in zip(keys, runs):
        out[name][seed] = stats
    out["_elapsed"] = time.time() - t0
    return out


class TestCriterion1ZeroCrash:
    def test_zero_ground_truth_violations(self, shielded_runs):
        total_eps = 0
        for name in ENVS:
            for seed in SEEDS:
                stats = shielded_runs[name][seed]
                assert stats.crashes == 0, (name, seed)
                total_eps += len(stats.episodes)
        assert total_eps == len(ENVS) * len(SEEDS) * EPISODES
        elapsed = shielded_runs["_elapsed"]
        assert elapsed < 600.0, f"runs took {elapsed:.0f}s, budget is 10 min"
        report("criterion 1 (zero-crash safety)",
               f"0 violations across {total_eps} episodes "
               f"({elapsed:.0f}s wall time)")


class TestCriterion2UnshieldedContrast:
    def test_unshielded_targets_crash(self, specs):
        crashes = {}
        for name, control in (("river", CONTROL_POLICIES["river-naive"]),
                              ("sisyphean", greedy_train_control)):
            cfg_info = ENVS[name]
            env0 = cfg_info["factory"]()
            shield = Shield(specs[cfg_info["spec"]], env0.consts)
            cfg = ExperimentConfig(
                spec_name=cfg_info["spec"], env_factory=cfg_info["factory"],
                control_policy=control, inference_policy=cfg_info["inference"],
                episodes=200, budget=cfg_info["budget"], mode=cfg_info["mode"],
                seed=0, unshielded=True)
            stats = run_experiment(shield, cfg)
            crashes[name] = stats.crashes
            assert stats.crashes >= 1, name
        report("criterion 2 (unshielded contrast)",
               f"crashes within 200 episodes: {crashes}")


class TestCriterion3Adaptivity:
    def test_adaptive_beats_non_adaptive(self, shielded_runs, specs):
        adaptive = shielded_runs["sisyphean"][0].mean_return
        non_adaptive = _run(specs, "sisyphean", 0, non_adaptive=True).mean_return
        assert adaptive > non_adaptive
        report("criterion 3 (adaptivity benefit)",
               f"adaptive mean return {adaptive:.3f} > "
               f"non-adaptive {non_adaptive:.3f} on identical seeds")


class TestCriterion4MonitorCorrectness:
    def test_monitor_biconditional_and_exec_example(self):
        from test_monitor import ControllerGen, path_oracle
        from adashield.actions import ctrl_monitor, interpreted
        from adashield.dl import parse_program

        gen = ControllerGen(424242)
        probes = 0
        for _ in range(1000):
            ctrl = gen.controller()
            a = gen.action_for(ctrl)
            s = gen.terms.valuation()
            end = path_oracle(ctrl, s, a)
            assert ctrl_monitor(interpreted(ctrl), s, a) == (end is not None)
            if end is not None:
                assert ctrl_exec(interpreted(ctrl), s, a) == end
            probes += 1

        ctrl = parse_program(
            "{x := *; y := *; ?(x >= y)} ++ "
            "{x := 0; { {y := *; ?(y >= 0)} ++ y := -1 }}")
        a = ARight(APair(UNIT, ALeft(APair(AReal(8.0), UNIT))))
        out = ctrl_exec(interpreted(ctrl), {Ident("x"): 3.0, Ident("y"): 7.0}, a)
        assert out == {Ident("x"): 0.0, Ident("y"): 8.0}
        report("criterion 4 (monitor correctness)",
               f"{probes} random controllers agree with the path oracle; "
               "exec example (3,7) -> (0,8) exact")


class TestCriterion5ObligationFidelity:
    def test_counts_and_forms(self, specs):
        counts = {name: len(gen_obligations(specs[name]))
                  for name in ("sisyphean", "train_local", "river", "acas")}
        assert counts == {"sisyphean": 7, "train_local": 7, "river": 6,
                          "acas": 19}
        spec = specs["sisyphean"]
        by_kind = {o.kind: o for o in gen_model_obligations(spec)}
        assert (pretty_print(by_kind["bound_monotone"].formula)
                == "fbar@1 <= fbar@2 -> f(x) <= fbar@1 -> f(x) <= fbar@2")
        safe_hyps = set(map(pretty_print, conjuncts(by_kind["safe"].formula.left)))
        expected = set()
        for f in spec.assumptions:
            expected.update(map(pretty_print, conjuncts(f)))
        expected.update(map(pretty_print, conjuncts(spec.invariant)))
        assert safe_hyps == expected
        assert by_kind["safe"].formula.right == spec.safe
        report("criterion 5a (obligation counts/forms)",
               f"counts {counts}; published safe and monotonicity forms match")

    def test_falsification_sweep(self, specs):
        rng = np.random.default_rng(505)
        total_live = 0
        checked = 0
        versatile = make_versatile_train(None, "k_sigma_large")
        versatile.meta_mode = True
        cases = [
            ("sisyphean", falsify.train_sampler(make_sisyphean_train())),
            ("train_local", falsify.train_sampler(versatile)),
            ("river", falsify.river_sampler(make_crossing_river())),
            ("acas", falsify.acas_sampler(make_acas())),
        ]
        for spec_name, sampler in cases:
            spec = specs[spec_name]
            for ob in gen_obligations(spec):
                if ob.kind in ("preserved", "totality"):
                    continue  # modal formulas are not numerically evaluable
                live, _, cex = falsify.sweep_obligation(
                    spec, ob, sampler, rng, trials=10_000)
                assert not cex, (spec_name, ob.name, cex[:1])
                total_live += live
                checked += 1
        report("criterion 5b (falsification sweep)",
               f"{checked} obligations, {total_live} live probes, "
               "0 counterexamples")


class TestCriterion6TailBounds:
    N = 1_000_000

    def test_gaussian_exactness(self):
        rng = np.random.default_rng(606)
        for eps in (0.1, 0.01):
            coeffs = [(0.25, Dist("normal", 0.0, 1.0)),
                      (0.75, Dist("normal", 0.3, 2.0))]
            v, m = invccdf(coeffs, 0.1, eps)
            assert m == "gaussian"
            total = 0.1 + 0.25 * rng.normal(0, 1, self.N) \
                + 0.75 * rng.normal(0.3, math.sqrt(2.0), self.N)
            p = float(np.mean(total > v))
            tol = 3 * math.sqrt(eps * (1 - eps) / self.N)
            assert abs(p - eps) <= tol, (eps, p)
        report("criterion 6a (gaussian exactness)",
               "empirical tails match eps within 3 MC sigmas at N=1e6")

    def test_published_closed_forms_and_dominance(self):
        for eps in (0.0, 0.25, 1.0):
            v, _ = invccdf([(1.0, Dist("uniform", 0, 1))], 1.0, eps)
            assert v == 2.0 - eps
        v, _ = invccdf([(1.0, Dist("bernoulli", 0.3))], 0.0, 0.4)
        assert v == 0.0
        v, _ = invccdf([(1.0, Dist("bernoulli", 0.3))], 0.0, 0.2)
        assert v == 1.0

        rng = np.random.default_rng(607)
        for _ in range(300):
            n = int(rng.integers(1, 15))
            w = rng.random(n) + 1e-6
            w /= w.sum()
            half = float(rng.uniform(0.05, 3.0))
            coeffs = [(float(wi), Dist("uniform", -half, half)) for wi in w]
            for eps in (0.05, 0.01, 1e-3):
                hoeff = falsify_free_hoeffding(coeffs, eps)
                cheb = falsify_free_chebyshev(coeffs, eps)
                assert hoeff <= cheb

        for n in (5, 50):
            for method in (falsify_free_hoeffding, falsify_free_chebyshev):
                v1 = method([(1.0 / n, Dist("uniform", -0.3, 0.3))] * n, 0.01)
                v4 = method([(1.0 / (4 * n), Dist("uniform", -0.3, 0.3))] * (4 * n), 0.01)
                assert abs(v4 / v1 - 0.5) < 1e-9
        report("criterion 6b (uniform/bernoulli exactness, dominance, scaling)",
               "2-eps shift exact; thresholds exact; hoeffding <= chebyshev; "
               "1/sqrt(n) ratio within 1e-9")


def falsify_free_hoeffding(coeffs, eps):
    widths = sum((c * (d.b - d.a)) ** 2 for c, d in coeffs)
    return math.sqrt(widths) * math.sqrt(math.log(1.0 / eps) / 2.0)


def falsify_free_chebyshev(coeffs, eps):
    var = sum(c * c * variance(d) for c, d in coeffs)
    return math.sqrt(var / eps)


class TestCriterion7AggregateClosedForm:
    def test_thousand_random_gaussian_aggregates(self, specs):
        spec = specs["train_local"]
        rng = np.random.default_rng(707)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 10))
            lam = rng.random(n) + 1e-9
            lam /= lam.sum()
            eps = float(rng.uniform(1e-10, 0.49))
            sigma = float(rng.uniform(1e-3, 5.0))
            k = float(rng.uniform(0.0, 0.5))
            consts = {"F": 3.0, "k": k, "sigma": sigma}
            idx = [int(i) for i in rng.choice(60, size=n, replace=False)]
            act = AggregateAction(
                eps, tuple((float(l), (i,)) for l, i in zip(lam, idx)))
            out = interpret_strategy(spec.infer, (None, (), act),
                                     spec.directions, spec.noise_decls)
            x = float(rng.uniform(-500, 500))
            val = {Ident("x"): x}
            for i in idx:
                val[Ident("x", i)] = float(rng.uniform(-500, 500))
                val[Ident("w", i)] = float(rng.uniform(-3, 3))
            got, _ = eval_sbi(out[-1].sbi, consts, val)
            z = math.sqrt(2.0) * float(special.erfinv(1 - 2 * eps))
            want = sum(w * (val[Ident("w", i)] + k * abs(x - val[Ident("x", i)]))
                       for w, (i,) in act.dist)
            want += math.sqrt(sum(w * w for w, _ in act.dist)) * sigma * z
            worst = max(worst, abs(got - want))
        assert worst < 1e-9
        report("criterion 7 (aggregate closed form)",
               f"1000 random aggregates, worst deviation {worst:.2e} < 1e-9")


class TestCriterion8InferenceSoundness:
    def test_monte_carlo_violation_frequency(self, specs):
        spec = specs["train_local"]
        eps, trials, n_obs = 0.05, 10_000, 8
        sigma, f_true = 0.6, 0.9
        rng = np.random.default_rng(808)
        consts = {"F": 3.0, "k": 0.0025, "sigma": sigma}
        act = AggregateAction(
            eps, tuple((1.0 / n_obs, (i,)) for i in range(1, n_obs + 1)))
        out = interpret_strategy(spec.infer, (None, (), act),
                                 spec.directions, spec.noise_decls)
        sbi = out[-1].sbi
        violations = 0
        for _ in range(trials):
            val = {Ident("x"): 0.0}
            for i in range(1, n_obs + 1):
                val[Ident("x", i)] = 0.0
                val[Ident("w", i)] = f_true - rng.normal(0.0, sigma)
            v, _ = eval_sbi(sbi, consts, val)
            assert v is not BOTTOM
            if f_true > v:
                violations += 1
        limit = eps + 3 * math.sqrt(eps * (1 - eps) / trials)
        freq = violations / trials
        assert freq <= limit
        report("criterion 8 (inference soundness)",
               f"violation frequency {freq:.4f} <= {limit:.4f} "
               f"(eps = {eps}, {trials} resampled histories)")


class TestCriterion9LedgerAndNonReuse:
    def test_exact_accounting_and_zero_reuse(self, shielded_runs):
        worst_err = 0.0
        for name in ENVS:
            for seed in SEEDS:
                stats = shielded_runs[name][seed]
                assert stats.reuse_violations == 0, (name, seed)
                worst_err = max(worst_err, stats.ledger_error)
                grant = ENVS[name]["budget"] * (
                    1 if ENVS[name]["mode"] == "fixed" else EPISODES)
                assert stats.eps_spent <= grant + 1e-18, (name, seed)
        assert worst_err <= 1e-12
        report("criterion 9 (budget ledger and non-reuse)",
               f"worst per-episode ledger error {worst_err:.2e} <= 1e-12; "
               "0 observation reuses")


class TestCriterion10Overhead:
    def test_report_and_scaling(self, shielded_runs, specs):
        per_step = {}
        for name in ENVS:
            stats = shielded_runs[name][0]
            per_step[name] = 1e6 * stats.shield_seconds / max(stats.steps, 1)
        bypass = _run(specs, "sisyphean", 0, episodes=50, unshielded=True)
        bypass_us = 1e6 * bypass.shield_seconds / max(bypass.steps, 1)

        spec = specs["train_local"]
        consts = {"F": 3.0, "k": 0.0025, "sigma": 0.5}

        def time_batch(n, reps=300):
            act = AggregateAction(1e-6, tuple((1.0 / n, (i,)) for i in range(1, n + 1)))
            val = {Ident("x"): 0.0}
            for i in range(1, n + 1):
                val[Ident("x", i)] = float(i)
                val[Ident("w", i)] = 0.1 * i
            best = math.inf
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(reps):
                    out = interpret_strategy(spec.infer, (None, (), act),
                                             spec.directions, spec.noise_decls)
                    v, _ = eval_sbi(out[-1].sbi, consts, val)
                    assert v is not BOTTOM
                best = min(best, (time.perf_counter() - t0) / reps)
            return best

        t_small = time_batch(30)
        t_large = time_batch(300)
        ratio = t_large / t_small
        assert ratio < 15.0, f"aggregation scaling ratio {ratio:.1f}"
        report("criterion 10 (overhead sanity)",
               "shield cost per step: "
               + ", ".join(f"{k}={v:.0f}us" for k, v in per_step.items())
               + f"; bypassed={bypass_us:.0f}us; "
               f"10x aggregation batch -> {ratio:.1f}x inference time")
