"""Whole runs with the generated code against whole runs with the reference.

For each bundled environment and two seeds, the experiment ``simulate``
runs is run twice: with the ``Shield``'s generated code, and with
``dl_oracle.reference_code`` in its place, which walks the trees under the
same constants.  Every trace line, byte for byte, and every episode's stats
but their timing must be the same.  The per-function tests in
``test_codegen`` check each evaluator on its own; this test checks that the
step runs them as the reference would be run, over whole episodes.
"""

import dataclasses
import json

import pytest

from adashield.cli import _experiment, build_parser, bundled_spec_path
from adashield.envs import REGISTRY
from adashield.runtime import run_experiment
from adashield.specfile import load_spec

from dl_oracle import reference_code

#: episodes per run: river's are ~13 steps long, the others' up to a few
#: hundred
EPISODES = {"sisyphean": 20, "versatile": 20, "versatile-small": 20, "river": 100, "acas": 40}


def _run(env: str, seed: int, reference: bool):
    """The trace lines and the untimed episode stats of one run."""
    args = build_parser().parse_args(["simulate", "--env", env, "--seed", str(seed),
                                      "--episodes", str(EPISODES[env])])
    shield, cfg, _ = _experiment(args, load_spec(bundled_spec_path(REGISTRY[env][1])))
    if reference:
        shield.code = reference_code(shield)
    lines: list = []
    stats = run_experiment(shield, cfg, record_sink=lambda rec: lines.append(
        json.dumps(rec.to_json())))
    return lines, [dataclasses.replace(e, shield_seconds=0.0, env_seconds=0.0)
                   for e in stats.episodes]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("env", ["sisyphean", "versatile", "versatile-small", "river", "acas"])
def test_generated_run_equals_reference_run(env, seed):
    gen_lines, gen_stats = _run(env, seed, reference=False)
    ref_lines, ref_stats = _run(env, seed, reference=True)
    assert gen_lines and len(gen_lines) == len(ref_lines)
    first = next((k for k, (a, b) in enumerate(zip(gen_lines, ref_lines)) if a != b), None)
    assert first is None, (first, gen_lines[first], ref_lines[first])
    assert gen_stats == ref_stats
