"""Workload definitions and the closed-loop runner.

A workload is one agent: a single process and a single thread in which the
policies see the next view only after the previous transition has returned.
The agent goes through the public runtime API only (``Shield``,
``ExperimentConfig``, ``run_experiment`` and its ``record_sink`` hook); the
benchmark seed reaches the program only as ``ExperimentConfig.seed``.

One repetition is one ``run_experiment`` call over a fixed number of
episodes, so its results are a function of the seed alone.  A run repeats
it until its time is up; every repetition must reproduce the first one's
results digest.  Why each workload was chosen is recorded in
``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional

import numpy

from adashield.checks import check_spec
from adashield.cli import bundled_spec_path
from adashield.envs import REGISTRY
from adashield.obligations import gen_obligations
from adashield.policies import CONTROL_POLICIES, INFERENCE_POLICIES
from adashield.runtime import ExperimentConfig, Shield, run_experiment
from adashield.specfile import load_spec

#: an episode fails the gate above this tolerance-ledger error
LEDGER_TOLERANCE = 1e-12

#: share of a run's closed-loop time spent setting up again, between
#: repetitions, so that set-up is sampled across the whole run
SETUP_SHARE = 0.04

SHAPE = "closed loop: one agent, one process, one thread"


@dataclass(frozen=True)
class Workload:
    name: str
    env: str
    mode: str
    budget: float
    control: str
    inference: str
    #: episodes per repetition: enough that mean return and the slowest
    #: percent of steps vary little between seeds, few enough that a run
    #: holds ten or more repetitions for the quiet time to reach the floor
    episodes: int
    env_overrides: Optional[dict] = None
    #: encode a JSONL trace line per step, as ``simulate --trace`` does
    encode_trace: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        "train-fixed", env="sisyphean", mode="fixed", budget=1e-3,
        control="greedy-train", inference="sisyphean-infer", episodes=20),
    Workload(
        "acas", env="acas", mode="meta", budget=1e-7,
        control="acas-level", inference="acas-infer", episodes=100),
    Workload(
        "train-long", env="versatile", mode="meta", budget=1e-7,
        control="greedy-train", inference="aggregate-every-20", episodes=1,
        env_overrides={"x0": -1e5, "A": 0.2, "max_steps": 5000}),
    Workload(
        "river-trace", env="river", mode="meta", budget=1e-7,
        control="river-scripted", inference="river-infer", episodes=500,
        encode_trace=True),
)}


def machine_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


# ---------------------------------------------------------------------------
# Set-up

def set_up(w: Workload) -> tuple[Shield, dict]:
    """Load, check and generate obligations for the workload's spec, then
    build the shield, the env and both policies.  Returns the shield and
    the seconds each phase took."""
    clock = time.perf_counter
    factory, stem = REGISTRY[w.env][:2]
    t0 = clock()
    spec = load_spec(bundled_spec_path(stem))
    t1 = clock()
    diags = check_spec(spec)
    if diags:
        raise RuntimeError(f"bundled spec {stem} fails its checks: {diags}")
    t2 = clock()
    gen_obligations(spec)
    t3 = clock()
    env = factory(w.env_overrides)
    shield = Shield(spec, env.consts)
    CONTROL_POLICIES[w.control](shield, env)
    INFERENCE_POLICIES[w.inference](shield, env)
    t4 = clock()
    return shield, {"specfile.load_s": t1 - t0, "checks.check_s": t2 - t1,
                    "obligations.gen_s": t3 - t2, "setup_s": t4 - t0}


class SetUps:
    """Set-up times sampled across a run.  The first set-up gives the shield
    the run uses; ``keep_up`` sets up again between repetitions until set-up
    has taken ``SETUP_SHARE`` of the closed-loop time so far."""

    def __init__(self, w: Workload):
        self.w = w
        self.times: list[dict] = []
        self.spent = 0.0
        self.shield = self.once()

    def once(self) -> Shield:
        shield, times = set_up(self.w)
        self.times.append(times)
        self.spent += times["setup_s"]
        return shield

    def keep_up(self, elapsed: float) -> None:
        while self.spent < SETUP_SHARE * elapsed:
            self.once()

    def quiet(self) -> dict:
        """Per phase, the least time any set-up took.  Set-up is the same
        work every time and other load on the machine only adds time, so the
        least of many set-ups spread over the run is its own cost, as with
        ``quiet_intervals``; their median moves with the load of the moment."""
        return {k: min(t[k] for t in self.times) for k in self.times[0]}


# ---------------------------------------------------------------------------
# Closed loop

def encode_record(rec) -> str:
    """One JSONL trace line, exactly as ``simulate --trace`` writes it."""
    return json.dumps(rec.to_json()) + "\n"


class StepSink:
    """``record_sink`` that timestamps every step record and, for trace
    workloads, encodes and hashes the step's trace line."""

    def __init__(self, encode: Optional[Callable] = None,
                 on_record: Optional[Callable] = None):
        self.encode = encode
        self.on_record = on_record
        self.start()

    def start(self) -> None:
        """Begin a repetition."""
        self.times = [time.perf_counter()]
        self.in_episode: list[bool] = []
        self.trace_hash = hashlib.sha256()

    def __call__(self, rec) -> None:
        self.times.append(time.perf_counter())
        self.in_episode.append(rec.step > 0)
        if self.encode is not None:
            self.trace_hash.update(self.encode(rec).encode())
        if self.on_record is not None:
            self.on_record(rec)


def episode_ok(e) -> bool:
    return (not e.crash and e.reuse_violations == 0
            and e.ledger_error <= LEDGER_TOLERANCE)


def results_digest(stats) -> str:
    h = hashlib.sha256()
    for e in stats.episodes:
        h.update(repr((e.ret, e.steps, e.crash, e.overrides, e.eps_spent)).encode())
    return h.hexdigest()


def experiment_config(w: Workload, seed: int, tracer=None) -> ExperimentConfig:
    factory = REGISTRY[w.env][0]
    env_factory = lambda: factory(w.env_overrides)
    control = CONTROL_POLICIES[w.control]
    inference = INFERENCE_POLICIES[w.inference]
    if tracer is not None:
        env_factory = tracer.env_factory(env_factory)
        control = tracer.policy_factory(control, "policies.control")
        inference = tracer.policy_factory(inference, "policies.inference")
    return ExperimentConfig(
        spec_name=w.name, env_factory=env_factory, control_policy=control,
        inference_policy=inference, episodes=w.episodes, budget=w.budget,
        mode=w.mode, seed=seed)


class ClosedLoop:
    """One agent repeating the workload's experiment.  ``repeat`` runs one
    repetition, checks every episode and the repetition's digests against
    the first repetition's, and keeps the time up to each step record."""

    def __init__(self, w: Workload, shield: Shield, seed: int, tracer=None):
        self.w, self.shield = w, shield
        self.cfg = experiment_config(w, seed, tracer)
        encode = None
        if w.encode_trace:
            encode = encode_record if tracer is None else tracer.wrap(encode_record, "trace.encode")
        self.sink = StepSink(encode, tracer.count_record if tracer is not None else None)
        self.steps = 0
        self.repetitions = 0
        self.attempted = 0
        self.failed = 0
        #: per repetition, the seconds up to each step record and to the end
        self.intervals: list[list[float]] = []
        #: per record: whether its interval is a step latency sample (step >= 1)
        self.in_episode: list[bool] = []
        self.digest: Optional[str] = None
        self.trace_digest: Optional[str] = None
        self.first = None  # ExperimentStats of the first repetition
        self.errors: list[str] = []

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0 and self.first is not None

    def repeat(self) -> bool:
        """Run one repetition; False if it raised."""
        sink = self.sink
        self.attempted += self.w.episodes
        sink.start()
        try:
            stats = run_experiment(self.shield, self.cfg, record_sink=sink)
        except Exception:
            self.failed += self.w.episodes
            self.errors.append(traceback.format_exc())
            return False
        t = sink.times + [time.perf_counter()]
        self.intervals.append([b - a for a, b in zip(t, t[1:])])
        self.repetitions += 1
        self.steps += stats.steps
        self.failed += sum(1 for e in stats.episodes if not episode_ok(e))
        digest = results_digest(stats)
        trace_digest = sink.trace_hash.hexdigest() if sink.encode else None
        if self.first is None:
            self.first, self.digest, self.trace_digest = stats, digest, trace_digest
            self.in_episode = sink.in_episode
        elif (digest, trace_digest) != (self.digest, self.trace_digest):
            self.errors.append(f"repetition {self.repetitions} did not reproduce "
                               f"the first repetition's results")
        return True


def closed_loop(w: Workload, setups: SetUps, seed: int, seconds: float) -> ClosedLoop:
    """Repeat the workload's experiment until ``seconds`` have passed (at
    least once), setting up again between repetitions."""
    loop = ClosedLoop(w, setups.shield, seed)
    start = time.perf_counter()
    while loop.repeat():
        now = time.perf_counter()
        if now >= start + seconds:
            break
        setups.keep_up(now - start)
    return loop


def quiet_intervals(p: ClosedLoop) -> list[float]:
    """Per record of a repetition, the least time any repetition took to
    reach it.  Repetitions do identical work, and other load on the machine
    only ever adds time, so the least over repetitions is the program's own
    cost."""
    return [min(col) for col in zip(*p.intervals)]


def end_to_end_metrics(p: ClosedLoop, setup_times: dict) -> dict:
    quiet = quiet_intervals(p)
    samples_us = sorted(1e6 * dt for dt, inside in zip(quiet, p.in_episode) if inside)
    return {
        "steps_per_s": (p.first.steps / sum(quiet), "steps/s"),
        "step_us_p50": (statistics.median(samples_us), "us"),
        "step_us_p99": (statistics.quantiles(samples_us, n=100)[98], "us"),
        "setup_s": (setup_times["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((p.attempted - p.failed) / p.attempted, "ratio"),
        "mean_return": (p.first.mean_return, "reward"),
    }


def report_pass(w: Workload, seed: int, p: ClosedLoop, label: str) -> None:
    """Human-readable lines on stdout: digests, counts and any failure."""
    print(f"{w.name} seed={seed} {label}: {p.repetitions} repetition(s) of "
          f"{w.episodes} episode(s), {p.steps} steps, {sum(p.in_episode)} step "
          f"latency samples per repetition, {p.failed}/{p.attempted} episodes failed")
    if p.first is not None:
        print(f"{w.name} seed={seed} {label} override rate: "
              f"{p.first.overrides}/{p.first.steps} steps")
    print(f"{w.name} seed={seed} {label} digest: {p.digest}")
    if p.trace_digest:
        print(f"{w.name} seed={seed} {label} trace digest: {p.trace_digest}")
    for err in p.errors:
        print(err, file=sys.stderr)
