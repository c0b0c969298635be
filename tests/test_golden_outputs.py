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

#: (summary CSV, trace).  The CSVs were recorded at the commit before the
#: inference boundary read each agent action once, the traces when a
#: step's record became one per SBI with counts (trace schema v2)
GOLDEN = {
    "sisyphean": (
        "6f44daf7178f2df08aea6bb6b5a675e50046f51b9fe1cd0b01153178d37850d1",
        "99576335e2a0268ac4c7d9a4f4732f68b36fdffad9516f30cce4663b4085e9f0"),
    "versatile": (
        "1592d6e7381596e844943593a5dc15209f95a214578dd54dc7c89fa001f28c79",
        "d45acf2fda52b2fdf36833f9b177ff0da9be73ead6065f7038b2c8ff744e2ef6"),
    "river": (
        "d7b6411428de194d9ccdf226135b4b279b4fe20f6caa387c424ac1ee81d9083d",
        "f50d395ef888471726ade175424054fba071f5014ffec9c9421fb58f8f43a0e6"),
    "acas": (
        "54a0a202277fe0e39b0b907f1f84a5e4771fbfeffd40e3efc26bddde2518b96b",
        "094fcc0a4408e373c59f8050e3380f0b0e13123c03bbe223833e357daf57a387"),
}


#: ``--unshielded`` runs, which execute every fitting proposal; river's
#: default control policy under the flag is ``river-naive``.  The CSVs
#: were recorded at the commit before the monitor's replay became the
#: execution, the traces with trace schema v2
GOLDEN_UNSHIELDED = {
    "sisyphean": (
        "fc9da55c49f5552705d004f351e0e18b8906a77b5d9e5d937bb622de44286a52",
        "3453dc6504f9ae16f5181f6b6d8ab87d128b4c352a004bf32a041687651ea5cb"),
    "river": (
        "a88559808e2f05c3bcb58564251f606e2f3dca60b0431c4c0da628c1eea5b37f",
        "fcfc3ed700215e98c25aaeadf15387df0644aedaceb684eea887d98972a3c905"),
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
