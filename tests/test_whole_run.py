"""Whole runs with the generated code against whole runs with the reference.

For each bundled environment and two seeds, the experiment ``simulate``
runs is run twice: with the ``Shield``'s generated code, and with
``dl_oracle.reference_code`` in its place, which walks the trees under the
same constants.  Every trace line, byte for byte, and every episode's stats
but their timing must be the same.  The per-function tests in
``test_codegen`` check each evaluator on its own; this test checks that the
step runs them as the reference would be run, over whole episodes.

A Hypothesis variant drives both with hostile agents: one sequence of
control and inference actions per example, drawn from the adversarial
suite's strategies, replayed step by step against each.
"""

import copy
import dataclasses
import functools
import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from adashield.cli import _experiment, build_parser, bundled_spec_path
from adashield.envs import REGISTRY
from adashield.runtime import run_experiment
from adashield.specfile import load_spec

from dl_oracle import reference_code
from test_adversarial import _JUNK, Raise, _fitting, _inference

#: episodes per run: river's are ~13 steps long, the others' up to a few
#: hundred
EPISODES = {"sisyphean": 20, "versatile": 20, "versatile-small": 20, "river": 100, "acas": 40}


def _experiment_of(env: str, seed: int, reference: bool, episodes: int):
    """The shield and config of ``simulate``'s run, with the generated code
    or the reference."""
    args = build_parser().parse_args(["simulate", "--env", env, "--seed", str(seed),
                                      "--episodes", str(episodes)])
    shield, cfg, _ = _experiment(args, load_spec(bundled_spec_path(REGISTRY[env][1])))
    if reference:
        shield.code = reference_code(shield)
    return shield, cfg


def _lines_and_stats(shield, cfg):
    """The trace lines and the untimed episode stats of one run."""
    lines: list = []
    stats = run_experiment(shield, cfg, record_sink=lambda rec: lines.append(
        json.dumps(rec.to_json())))
    return lines, [dataclasses.replace(e, shield_seconds=0.0, env_seconds=0.0)
                   for e in stats.episodes]


def _run(env: str, seed: int, reference: bool):
    return _lines_and_stats(*_experiment_of(env, seed, reference, EPISODES[env]))


def _assert_same(gen, ref) -> None:
    """Two runs' trace lines, byte for byte, and untimed stats are equal."""
    (gen_lines, gen_stats), (ref_lines, ref_stats) = gen, ref
    assert gen_lines and len(gen_lines) == len(ref_lines)
    first = next((k for k, (a, b) in enumerate(zip(gen_lines, ref_lines)) if a != b), None)
    assert first is None, (first, gen_lines[first], ref_lines[first])
    assert gen_stats == ref_stats


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("env", ["sisyphean", "versatile", "versatile-small", "river", "acas"])
def test_generated_run_equals_reference_run(env, seed):
    _assert_same(_run(env, seed, reference=False), _run(env, seed, reference=True))


@functools.lru_cache(maxsize=None)
def _shields(env: str) -> tuple:
    """The generated and the reference shield of ``env``, and its config."""
    shield, cfg = _experiment_of(env, 0, False, 2)
    return shield, _experiment_of(env, 0, True, 2)[0], cfg


def _replaying(actions: list):
    """A policy factory whose policy sends ``actions`` in turn, cycling,
    and raises where it meets a ``Raise``."""
    def factory(shield, env):
        it = itertools.cycle(actions)

        def policy(view):
            a = next(it)
            if type(a) is Raise:
                raise RuntimeError("hostile policy")
            return a
        return policy
    return factory


@pytest.mark.parametrize("env", ["sisyphean", "versatile", "versatile-small", "river", "acas"])
@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_hostile_run_equals_reference_run(env, data):
    # two episodes of up to 12 steps; every action is drawn before either
    # run, and each run gets its own copy, since some hostile actions
    # change as they are read
    gen, ref, cfg = _shields(env)
    space = gen.strategy.space
    steps = data.draw(st.integers(1, 24))
    control = data.draw(st.lists(st.one_of(_fitting(gen.ctrl_space), _fitting(gen.ctrl_space),
                                           _JUNK), min_size=steps, max_size=steps))
    inference = data.draw(st.lists(_inference(space), min_size=steps, max_size=steps))
    runs = []
    for shield, (c, i) in ((gen, copy.deepcopy((control, inference))),
                           (ref, copy.deepcopy((control, inference)))):
        hostile = dataclasses.replace(cfg, control_policy=_replaying(c),
                                      inference_policy=_replaying(i), max_steps=12)
        runs.append(_lines_and_stats(shield, hostile))
    _assert_same(*runs)
