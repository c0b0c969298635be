"""Golden digests of seeded ``simulate`` outputs.

For each bundled environment the test runs ``simulate --seed 0 --episodes 4
--trace`` with one worker and with two, and pins the sha256 of the summary
CSV and of the JSONL trace; for sisyphean and river it also pins the same
run with ``--unshielded``.  The trace holds every step's bounds, spent
tolerances and actions at full precision, so a change of one ulp in any
bound value changes its digest.  In fixed mode ``--workers 2`` runs
sequentially; both worker counts must give the same bytes either way.

A change that moves seeded outputs on purpose updates the digests here and
says why.
"""

import hashlib

import pytest

from adashield.cli import main

#: recorded at the commit before the inference boundary read each agent
#: action once
GOLDEN = {
    "sisyphean": (
        "6f44daf7178f2df08aea6bb6b5a675e50046f51b9fe1cd0b01153178d37850d1",
        "d4c8a4bf2f08d0ab4abe7b1bb02906723845cb361972e300f949791310caeb47"),
    "versatile": (
        "1592d6e7381596e844943593a5dc15209f95a214578dd54dc7c89fa001f28c79",
        "1776b4eec7058f46eba4134dad12bb929f80c17bfe6eaa9cdc823e41c63c22a9"),
    "river": (
        "d7b6411428de194d9ccdf226135b4b279b4fe20f6caa387c424ac1ee81d9083d",
        "80d26b452c738c476f0031ee23a18e5f75c7de7aae57faf2de6ad0e4dd3d3a41"),
    "acas": (
        "54a0a202277fe0e39b0b907f1f84a5e4771fbfeffd40e3efc26bddde2518b96b",
        "f95c1a47d0e4fce08131e815cbbdc2d247e5f61bce6341d61afdfcd788c7aafd"),
}


#: ``--unshielded`` runs, which execute every fitting proposal; river's
#: default control policy under the flag is ``river-naive``.  Recorded at
#: the commit before the monitor's replay became the execution
GOLDEN_UNSHIELDED = {
    "sisyphean": (
        "fc9da55c49f5552705d004f351e0e18b8906a77b5d9e5d937bb622de44286a52",
        "7c644723d642bdba905764eb077afd53465ebc05b67d8b86a312d95859ff6e6d"),
    "river": (
        "a88559808e2f05c3bcb58564251f606e2f3dca60b0431c4c0da628c1eea5b37f",
        "309d04aaa4ce44b0b2580c4a2882e7a965c6f13b84127c5da11bf93b9f7f831b"),
}


def _digests(tmp_path, capsys, env, workers, *flags):
    code = main(["simulate", "--env", env, "--seed", "0", "--episodes", "4",
                 "--trace", "--workers", workers, "--out", str(tmp_path), "--json", *flags])
    capsys.readouterr()
    assert code == 0
    return tuple(
        hashlib.sha256((tmp_path / f"{env}_seed0{suffix}").read_bytes()).hexdigest()
        for suffix in ("_summary.csv", ".jsonl"))


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("env", sorted(GOLDEN))
def test_seeded_outputs(tmp_path, capsys, env, workers):
    assert _digests(tmp_path, capsys, env, workers) == GOLDEN[env]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("env", sorted(GOLDEN_UNSHIELDED))
def test_seeded_unshielded_outputs(tmp_path, capsys, env, workers):
    assert _digests(tmp_path, capsys, env, workers, "--unshielded") == GOLDEN_UNSHIELDED[env]
