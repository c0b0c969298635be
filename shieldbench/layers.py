"""Per-layer tracing from outside the program, and the aggregation probe.

``Tracer.installed`` rebinds the public functions of each layer where their
callers look them up (``runtime`` imports ``interpret_strategy``,
``eval_sbi``, ``ctrl_monitor`` and the rest by name, and ``strategy`` calls
``tailbounds.invccdf`` through the module) and restores them on exit.
Environments and policies are wrapped per instance as the experiment builds
them.  No file of the program changes.

A span has a layer, start, end, parent span and the ``(episode, step)`` it
belongs to.  Spans stay in memory until the run ends; a layer's self time is
its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import math
import statistics
import time
import traceback
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

from adashield import runtime, tailbounds
from adashield.cli import bundled_spec_path
from adashield.dl import Ident
from adashield.specfile import load_spec
from adashield.strategy import BOTTOM, AggregateAction, eval_sbi, interpret_strategy

#: layers with a self time and a call count per step, in reporting order
LAYERS = (
    "runtime.episode", "runtime.init", "runtime.policy_view",
    "policies.control", "policies.inference", "runtime.transition",
    "strategy.interpret", "strategy.refs", "strategy.eval",
    "actions.monitor", "actions.fallback", "actions.exec",
    "envs.reset", "envs.step", "envs.measure", "trace.encode",
)

#: methods ``tailbounds.invccdf`` can return
TAIL_METHODS = ("gaussian", "uniform", "hoeffding", "bernoulli", "chebyshev",
                "cantelli", "support")

SETUP_LAYERS = ("specfile.load_s", "checks.check_s", "obligations.gen_s")

PROBE_SIZES = (10, 100, 1_000, 10_000)


class Tracer:
    """Spans, one column per field so that a million spans fit in ~32 MB:
    layer id, start, end, parent span index (-1 for none), episode, step."""

    def __init__(self):
        self.layer_names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.span_layer = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_episode = array("q")
        self.span_step = array("q")
        self.counts: Counter = Counter()
        self.episode = -1
        self.step = -1
        self._open: list[int] = []

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return self._layer_ids[name]

    def wrap(self, fn, layer: str, before=None, after=None):
        """``fn`` recorded as a span of ``layer``.  ``before(args, kwargs)``
        runs ahead of the call; ``after(result)`` may return a more specific
        layer name."""
        lid = self.layer_id(layer)
        layers, starts, ends = self.span_layer, self.span_start, self.span_end
        parents, episodes, steps = self.span_parent, self.span_episode, self.span_step
        open_, clock = self._open, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = len(layers)
            layers.append(lid)
            parents.append(open_[-1] if open_ else -1)
            episodes.append(self.episode)
            steps.append(self.step)
            starts.append(0.0)
            ends.append(0.0)
            open_.append(i)
            t0 = clock()
            try:
                r = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                starts[i] = t0
                ends[i] = t1
            if after is not None:
                name = after(r)
                if name is not None:
                    layers[i] = self.layer_id(name)
            return r

        return traced

    # -- what the experiment builds ----------------------------------------

    def env_factory(self, factory):
        def make():
            env = factory()
            for meth in ("reset", "step", "measure"):
                setattr(env, meth, self.wrap(getattr(env, meth), f"envs.{meth}"))
            return env
        return make

    def policy_factory(self, factory, layer: str):
        return lambda shield, env: self.wrap(factory(shield, env), layer)

    def count_record(self, rec) -> None:
        """Waste counters from the public ``StepRecord``."""
        c = self.counts
        c["obs_measured"] += len(rec.availability)
        c["obs_consumed"] += len(rec.consumed)
        c["assignments"] += len(rec.assignments)
        c["assign_skipped"] += sum(1 for a in rec.assignments if a.skipped)

    # -- what the runtime calls by name --------------------------------------

    @contextmanager
    def installed(self):
        c = self.counts

        def set_episode(args, kwargs):
            self.episode, self.step = kwargs.get("episode", 0), -1

        def set_step(args, kwargs):
            self.step = args[3]

        def viewed(view):
            c["history_viewed"] += len(view.history)

        def interpreted(sbis):
            c["sbis"] += len(sbis)

        def evaluated(result):
            c["evaluations"] += 1
            if result[0] is BOTTOM:
                c["bottom"] += 1

        def tail_method(result):
            return f"tailbounds.{result[1] if result else 'none'}"

        targets = (
            (runtime, "run_episode", "runtime.episode", set_episode, None),
            (runtime, "init_shielded_state", "runtime.init", None, None),
            (runtime, "make_policy_view", "runtime.policy_view", set_step, viewed),
            (runtime, "shielded_transition", "runtime.transition", None, None),
            (runtime, "interpret_strategy", "strategy.interpret", None, interpreted),
            (runtime, "referenced_indices", "strategy.refs", None, None),
            (runtime, "referenced_observations", "strategy.refs", None, None),
            (runtime, "eval_sbi", "strategy.eval", None, evaluated),
            (runtime, "ctrl_monitor", "actions.monitor", None, None),
            (runtime, "resolve_fallback", "actions.fallback", None, None),
            (runtime, "ctrl_exec", "actions.exec", None, None),
            (tailbounds, "invccdf", "tailbounds", None, tail_method),
        )
        saved = [(mod, name, getattr(mod, name)) for mod, name, *_ in targets]
        try:
            for mod, name, layer, before, after in targets:
                setattr(mod, name, self.wrap(getattr(mod, name), layer, before, after))
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    # -- per-layer metrics -----------------------------------------------------

    def layer_metrics(self, steps: int, wall: float) -> dict:
        """Self time and calls per step of every layer, the counters, and
        the share of ``wall`` that no span covers."""
        dur = array("d", (b - a for a, b in zip(self.span_start, self.span_end)))
        covered = array("d", bytes(8 * len(dur)))
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += dur[i]
        names = self.layer_names
        is_tail = [name.startswith("tailbounds") for name in names]
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        roots = 0.0
        for i, (lid, parent) in enumerate(zip(self.span_layer, self.span_parent)):
            self_s[names[lid]] += dur[i] - covered[i]
            # the lower tail of invccdf recurses into the upper one
            if not (is_tail[lid] and parent >= 0 and is_tail[self.span_layer[parent]]):
                calls[names[lid]] += 1
            if parent < 0:
                roots += dur[i]

        out = {}
        for layer in LAYERS:
            out[f"{layer}.us_per_step"] = (1e6 * self_s[layer] / steps, "us/step")
            out[f"{layer}.calls_per_step"] = (calls[layer] / steps, "calls/step")
        tail_s = sum(s for layer, s in self_s.items() if layer.startswith("tailbounds"))
        out["tailbounds.us_per_step"] = (1e6 * tail_s / steps, "us/step")
        for m in TAIL_METHODS:
            layer = f"tailbounds.{m}"
            n = calls[layer]
            out[f"{layer}.us_per_call"] = (1e6 * self_s[layer] / n if n else 0.0, "us/call")
            out[f"{layer}.calls_per_step"] = (n / steps, "calls/step")
        c = self.counts
        out["runtime.policy_view.entries_per_step"] = (c["history_viewed"] / steps, "entries/step")
        out["strategy.interpret.sbis_per_step"] = (c["sbis"] / steps, "sbis/step")
        out["strategy.eval.bottom_ratio"] = (_ratio(c["bottom"], c["evaluations"]), "ratio")
        out["runtime.obs_used_ratio"] = (_ratio(c["obs_consumed"], c["obs_measured"]), "ratio")
        out["runtime.assign_skipped_ratio"] = (_ratio(c["assign_skipped"], c["assignments"]), "ratio")
        out["unattributed_frac"] = ((wall - roots) / wall, "ratio")
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Aggregation scaling probe

#: constants of the train_local spec used by the probe
PROBE_CONSTS = {"F": 3.0, "k": 0.0025, "sigma": 0.5}
PROBE_EPS = 1e-6


def _probe_expected(n: int) -> float:
    """Closed form of the probe's aggregate: observations w@i = 0.1*i at
    x@i = i, x = 0, uniform weights, Gaussian noise of variance sigma^2."""
    k, sigma = PROBE_CONSTS["k"], PROBE_CONSTS["sigma"]
    mean = sum((0.1 * i + k * i) / n for i in range(1, n + 1))
    z = statistics.NormalDist().inv_cdf(1.0 - PROBE_EPS)
    return mean + sigma / math.sqrt(n) * z


def aggregation_probe(seconds_per_size: float = 0.1, max_reps: int = 200):
    """Time ``interpret_strategy`` + ``eval_sbi`` on one n-observation
    ``train_local`` aggregate per size.  A size that raises is marked failed
    and timed up to the raise; a wrong value makes the probe incorrect.

    Returns ``(metrics, errors)``."""
    spec = load_spec(bundled_spec_path("train_local"))
    metrics, errors = {}, []
    for n in PROBE_SIZES:
        act = AggregateAction(PROBE_EPS, tuple((1.0 / n, (i,)) for i in range(1, n + 1)))
        val = {Ident("x"): 0.0}
        for i in range(1, n + 1):
            val[Ident("x", i)] = float(i)
            val[Ident("w", i)] = 0.1 * i
        expected = _probe_expected(n)
        times, failed = [], False
        while not failed and len(times) < max_reps and sum(times) < seconds_per_size:
            t0 = time.perf_counter()
            try:
                out = interpret_strategy(spec.infer, (None, (), act),
                                         spec.directions, spec.noise_decls)
                value, _ = eval_sbi(out[-1].sbi, PROBE_CONSTS, val)
            except Exception as e:
                failed = True
                print(f"aggregation probe n={n} failed: "
                      f"{traceback.format_exception_only(e)[-1].strip()}")
            times.append(time.perf_counter() - t0)
            if not failed and (value is BOTTOM
                               or abs(value - expected) > 1e-9 * max(1.0, abs(expected))):
                errors.append(f"aggregation probe n={n}: {value!r}, expected {expected!r}")
                break
        metrics[f"strategy.agg_us_per_obs.n{n}"] = (1e6 * statistics.median(times) / n, "us/obs")
        metrics[f"strategy.agg_failed.n{n}"] = (int(failed), "count")
    return metrics, errors
