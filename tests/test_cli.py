"""Command-line interface: exit codes, manifests, determinism, JSON output."""

import json
import os
import subprocess
import sys

import pytest

from adashield.cli import main, bundled_spec_path


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_well_formed_spec(self, capsys):
        code, out, _ = run_cli(["check", "sisyphean"], capsys)
        assert code == 0 and "ok" in out

    def test_broken_spec(self, tmp_path, capsys):
        src = open(bundled_spec_path("train_local")).read()
        bad = src.replace("invariant\n  v >= 0", "invariant\n  fbar >= 0 & v >= 0")
        path = tmp_path / "broken.shield"
        path.write_text(bad)
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 1 and "local-param-in-invariant" in out

    @pytest.mark.parametrize("old, new, verb, where", [
        ("controller\n  vx := *;", "controller\n  V := *; vx := *;", "assign to", (16, 3)),
        ("t' = 1 & t <= T}", "t' = 1, V' = 1 & t <= T}", "evolve", (23, 38)),
    ])
    def test_assigning_to_a_symbol_is_a_parse_error(self, tmp_path, capsys,
                                                    old, new, verb, where):
        src = open(bundled_spec_path("river")).read()
        path = tmp_path / "assigns_symbol.shield"
        path.write_text(src.replace(old, new, 1))
        code, out, err = run_cli(["check", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == (f"parse error: cannot {verb} declared symbol 'V' "
                       f"at line {where[0]}, column {where[1]}\n")

    @pytest.mark.parametrize("target", ["v", "T", "i", "nan", "x@0", "fbar@i"])
    def test_inference_target_must_be_a_bound_parameter(self, tmp_path, capsys, target):
        # the runtime tightens a target in the valuation the monitor checks:
        # an aggregate into the state variable v would have the monitor read
        # an inferred speed; a constant, an index name, an undeclared name or
        # an indexed target is refused as well
        src = open(bundled_spec_path("sisyphean")).read()
        old = "fbar := aggregate i:"
        assert src.count(old) == 1
        path = tmp_path / "target.shield"
        path.write_text(src.replace(old, f"{target} := aggregate i:"))
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 1
        assert out == (f"[inference-target-not-bound-parameter] inference target {target} "
                       "is not an unindexed declared bound parameter\n")
        code, _, err = run_cli(["simulate", "--env", "sisyphean", "--spec", str(path),
                                "--episodes", "1", "--out", str(tmp_path)], capsys)
        assert code == 1 and "inference-target-not-bound-parameter" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("old, new, diagnostic", [
        ("fbar := best i: fbar@i + k*abs(x - x@i);",
         "fbar := best i: fbar@i + k*abs(x - x@i) + eta@i;",
         "[noise-outside-aggregate] noise variable eta@i in direct or best assignment to fbar"),
        ("fbar := best i: fbar@i + k*abs(x - x@i);",
         "fbar := best i: fbar@i + k*abs(x - x@i) when eta@i <= 0;",
         "[noise-outside-aggregate] noise variable eta@i in direct or best assignment to fbar"),
        ("fbar := F;", "fbar := F + eta;",
         "[noise-outside-aggregate] noise variable eta in direct or best assignment to fbar"),
        ("observe w = f(x) - eta", "observe w = f(x) - eta + x@0",
         "[indexed-variable-in-observation] observation w reads indexed variable x@0"),
        ("y := min(y, fbar);", "y := min(m0n(y, fbar), fbar);",
         "[undeclared-symbol] symbol m0n is applied but declared under neither constant "
         "nor unknown"),
    ])
    def test_spec_that_checks_clean_can_be_run(self, tmp_path, capsys, old, new, diagnostic):
        # each of these used to check clean, then crash obligations (a noise
        # variable outside an aggregate, an indexed read in an observation)
        # or hand an undefined control value to env.step (m0n)
        src = open(bundled_spec_path("sisyphean")).read()
        assert src.count(old) == 1
        path = tmp_path / "variant.shield"
        path.write_text(src.replace(old, new))
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 1 and out == diagnostic + "\n"
        code, _, err = run_cli(["obligations", str(path), "--out", str(tmp_path)], capsys)
        assert code == 1 and err == diagnostic + "\n"
        code, _, err = run_cli(["simulate", "--env", "sisyphean", "--spec", str(path),
                                "--episodes", "1", "--out", str(tmp_path)], capsys)
        assert code == 1 and err == diagnostic + "\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_arity_in_fallback_and_initial_is_checked(self, tmp_path, capsys):
        src = open(bundled_spec_path("river")).read()
        path = tmp_path / "arity.shield"
        path.write_text(src.replace("fallback 0, 0, 0", "fallback V(1), 0, 0")
                        .replace("initial yb_lo = -10", "initial yb_lo = -W(2)"))
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 1 and out.count("symbol-arity-mismatch") == 2
        code, _, err = run_cli(["simulate", "--env", "river", "--spec", str(path),
                                "--policy-control", "river-naive", "--episodes", "2",
                                "--out", str(tmp_path)], capsys)
        assert code == 1 and err.count("symbol-arity-mismatch") == 2

    def test_diagnostic_order_does_not_depend_on_string_hashing(self, tmp_path):
        # a controller that applies four unary unknowns, and a constant to
        # two arguments: five diagnostics, in one order under every hash seed
        src = open(bundled_spec_path("train_local")).read()
        path = tmp_path / "unknowns.shield"
        path.write_text(src.replace("unknown f(*)", "unknown f(*), g(*), h(*), q(*)").replace(
            "  y := min(y, fbar);", "  y := min(y, fbar + f(x) + g(x) + h(x) + q(x) + A(x, v));"))
        outs = set()
        for seed in range(1, 6):
            proc = subprocess.run([sys.executable, "-m", "adashield.cli", "check", str(path)],
                                  capture_output=True, text=True,
                                  env={**os.environ, "PYTHONHASHSEED": str(seed)})
            assert proc.returncode == 1 and proc.stdout.count("\n") == 5
            outs.add(proc.stdout)
        assert len(outs) == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["check", "/nope/missing.shield"], capsys)
        assert code == 2 and "no such spec" in err

    def test_json_output(self, capsys):
        code, out, _ = run_cli(["check", "river", "--json"], capsys)
        doc = json.loads(out)
        assert code == 0 and doc["diagnostics"] == []


class TestObligations:
    def test_manifest_counts(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["obligations", "train_local", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "7 obligations" in out

    def test_acas_manifest_lists_fifteen_inference(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["obligations", "acas", "--out", str(tmp_path), "--json"], capsys)
        doc = json.loads(out)
        kinds = [o["kind"] for o in doc["obligations"]]
        assert kinds.count("inference") == 15
        assert len(doc["obligations"]) == 19

    def test_rerun_byte_identical(self, tmp_path, capsys):
        for sub in ("a", "b"):
            run_cli(["obligations", "river", "--out", str(tmp_path / sub)], capsys)
        a = sorted((tmp_path / "a" / "river").iterdir())
        b = sorted((tmp_path / "b" / "river").iterdir())
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()


class TestSimulate:
    def test_shielded_river_run(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["simulate", "--env", "river", "--episodes", "20", "--seed", "1",
             "--out", str(tmp_path), "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["crashes"] == 0
        assert os.path.exists(doc["summary_csv"])

    def test_unshielded_contrast(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["simulate", "--env", "river", "--episodes", "50", "--seed", "1",
             "--out", str(tmp_path), "--unshielded", "--json"], capsys)
        doc = json.loads(out)
        assert doc["crashes"] >= 1
        assert doc["control_policy"] == "river-naive"

    def test_non_adaptive_names_no_inference_policy(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["simulate", "--env", "sisyphean", "--episodes", "1", "--max-steps", "5",
             "--seed", "0", "--out", str(tmp_path), "--non-adaptive", "--json"], capsys)
        doc = json.loads(out)
        assert code == 0 and doc["non_adaptive"] and doc["eps_spent"] == 0.0
        assert doc["inference_policy"] is None
        assert doc["control_policy"] == "greedy-train"

    def test_trace_roundtrip(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["simulate", "--env", "sisyphean", "--episodes", "2", "--seed", "4",
             "--out", str(tmp_path), "--trace", "--json"], capsys)
        doc = json.loads(out)
        trace = tmp_path / "sisyphean_seed4.jsonl"
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert len(lines) == doc["steps"]
        assert all(rec["v"] == 2 for rec in lines)
        assert {"episode", "step", "proposed", "executed", "bounds_after",
                "assignments", "consumed", "availability", "reward", "safe"} <= set(lines[0])
        assert all(list(a) == ["param", "eps", "skipped", "entries", "bottom", "tightened",
                               "method"] for rec in lines for a in rec["assignments"])
        assert all(rec["availability"] == sorted(rec["availability"]) for rec in lines)

    def test_deterministic_outputs(self, tmp_path, capsys):
        outs = []
        for sub in ("a", "b"):
            run_cli(["simulate", "--env", "river", "--episodes", "10",
                     "--seed", "9", "--out", str(tmp_path / sub), "--trace"],
                    capsys)
            outs.append((tmp_path / sub / "river_seed9.jsonl").read_bytes()
                        + (tmp_path / sub / "river_seed9_summary.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_env_config_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "env.cfg"
        cfgfile.write_text("max_steps = 5\n")
        code, out, _ = run_cli(
            ["simulate", "--env", "sisyphean", "--episodes", "1", "--seed", "0",
             "--env-config", str(cfgfile), "--out", str(tmp_path), "--json"],
            capsys)
        assert json.loads(out)["steps"] <= 5

    @pytest.mark.parametrize("line,needle", [
        ("bogus = 1", "unknown config key 'bogus'"),
        ("substeps = 0", "substeps must be an integer >= 1"),
        ("substeps = 2.5", "substeps must be an integer >= 1"),
        ("v0 = fast", "cannot parse value 'fast'"),
        ("v0 12.5", "expected 'key = value'"),
        ("A = 'steep'", "not supported"),
        ("noise_kind = 'unifrom'", "noise_kind must be 'uniform' or 'gauss'"),
    ])
    def test_env_config_error_is_a_diagnostic(self, tmp_path, capsys, line,
                                              needle):
        cfgfile = tmp_path / "env.cfg"
        cfgfile.write_text(line + "\n")
        code, out, err = run_cli(
            ["simulate", "--env", "sisyphean", "--episodes", "1",
             "--env-config", str(cfgfile), "--out", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: --env-config: ")
        assert needle in err

    def test_missing_env_config_is_a_diagnostic(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["simulate", "--env", "sisyphean", "--episodes", "1",
             "--env-config", str(tmp_path / "missing.cfg"),
             "--out", str(tmp_path)], capsys)
        assert code == 2 and err.startswith("error: --env-config: ")


    @pytest.mark.parametrize("flag, value, needle", [
        ("--budget", "nan", "budget must lie in [0, 1], got nan"),
        ("--budget", "1.5", "budget must lie in [0, 1], got 1.5"),
        ("--budget", "-0.5", "budget must lie in [0, 1], got -0.5"),
        ("--episodes", "-3", "must be at least 0, got -3"),
        ("--max-steps", "-1", "must be at least 0, got -1"),
        ("--workers", "0", "must be at least 1, got 0"),
    ])
    def test_out_of_range_number_is_a_usage_error(self, tmp_path, capsys, flag,
                                                  value, needle):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["simulate", "--env", "river", "--episodes", "2", flag, value,
             "--out", str(out_dir)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {flag}: {needle}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", ["--policy-control", "--policy-infer"])
    def test_unknown_policy_is_a_usage_error(self, tmp_path, capsys, flag):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["simulate", "--env", "river", "--episodes", "2", flag, "bogus",
             "--out", str(out_dir)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag}: unknown policy 'bogus'; choose from [")
        assert err.count("\n") == 1
        assert not out_dir.exists()

    def test_zero_max_steps_runs_no_step(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["simulate", "--env", "river", "--episodes", "2", "--max-steps", "0",
             "--out", str(tmp_path), "--json"], capsys)
        assert code == 0 and json.loads(out)["steps"] == 0

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_contract_failure_is_a_diagnostic(self, tmp_path, capsys, workers):
        # a valid noise kind that the train_local spec has no constant for
        cfgfile = tmp_path / "env.cfg"
        cfgfile.write_text('noise_kind = "uniform"\n')
        code, out, err = run_cli(
            ["simulate", "--env", "versatile", "--episodes", "4",
             "--env-config", str(cfgfile), "--workers", workers,
             "--out", str(tmp_path)], capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: InitialConditionViolation: episode 0: ")

    def test_failed_run_leaves_no_trace(self, tmp_path, capsys):
        cfgfile = tmp_path / "env.cfg"
        cfgfile.write_text('noise_kind = "uniform"\n')
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            ["simulate", "--env", "versatile", "--episodes", "2", "--trace",
             "--env-config", str(cfgfile), "--out", str(out_dir)], capsys)
        assert code == 1 and err.startswith("error: InitialConditionViolation: ")
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("env,episodes,seed", [
        ("river", "40", "3"),
        ("acas", "6", "0"),
    ])
    def test_workers_match_sequential(self, tmp_path, capsys, env, episodes,
                                      seed):
        outs = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"w{workers}"
            code, _, _ = run_cli(
                ["simulate", "--env", env, "--episodes", episodes,
                 "--seed", seed, "--trace", "--workers", workers,
                 "--out", str(out_dir)], capsys)
            assert code == 0
            outs.append([(out_dir / f"{env}_seed{seed}{suffix}").read_bytes()
                         for suffix in (".jsonl", "_summary.csv")])
        assert outs[0] == outs[1]
        assert outs[0][0]


class TestMonitorEval:
    @pytest.fixture
    def docs(self, tmp_path):
        # with only the conservative bound the braking envelope at v = 30 is
        # 684.5 m, so "far" means anything beyond ~-720
        state = {"x": -900.0, "v": 30.0, "y": 3.0, "a": 0.0, "t": 0.0,
                 "fbar": 3.0}
        consts = {"A": 4.0, "B": 4.0, "T": 1.0, "k": 0.0025, "F": 3.0,
                  "eta_r": 0.3}
        spath = tmp_path / "state.json"
        cpath = tmp_path / "consts.json"
        spath.write_text(json.dumps(state))
        cpath.write_text(json.dumps(consts))
        return tmp_path, spath, cpath

    def test_far_from_stop_accelerate_safe(self, docs, capsys):
        tmp, spath, cpath = docs
        apath = tmp / "action.json"
        apath.write_text(json.dumps({"directives": ["left"]}))
        code, out, _ = run_cli(
            ["monitor-eval", "--spec", "sisyphean", "--state", str(spath),
             "--action", str(apath), "--consts", str(cpath)], capsys)
        assert code == 0 and out.startswith("SAFE")

    def test_near_stop_accelerate_unsafe(self, docs, capsys):
        tmp, spath, cpath = docs
        state = json.loads(spath.read_text())
        state["x"] = -50.0
        spath.write_text(json.dumps(state))
        apath = tmp / "action.json"
        apath.write_text(json.dumps({"directives": ["left"]}))
        code, out, _ = run_cli(
            ["monitor-eval", "--spec", "sisyphean", "--state", str(spath),
             "--action", str(apath), "--consts", str(cpath), "--json"], capsys)
        doc = json.loads(out)
        assert code == 1 and doc["verdict"] == "UNSAFE"
        assert any(t["holds"] is False for t in doc["tests"])

    def test_undefined_assignment_is_unsafe(self, docs, capsys):
        # the replay fails at an assignment it cannot evaluate, and lists it
        tmp, spath, cpath = docs
        src = open(bundled_spec_path("sisyphean")).read()
        path = tmp / "m0n.shield"
        path.write_text(src.replace("y := min(y, fbar);", "y := min(m0n(y, fbar), fbar);"))
        apath = tmp / "action.json"
        apath.write_text(json.dumps({"directives": ["right"]}))
        code, out, _ = run_cli(
            ["monitor-eval", "--spec", str(path), "--state", str(spath),
             "--action", str(apath), "--consts", str(cpath)], capsys)
        assert code == 1
        assert out == "UNSAFE\n  test 0: undefined  y := min(m0n(y, fbar), fbar)\n"

    def test_malformed_action(self, docs, capsys):
        tmp, spath, cpath = docs
        apath = tmp / "action.json"
        apath.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(
            ["monitor-eval", "--spec", "sisyphean", "--state", str(spath),
             "--action", str(apath)], capsys)
        assert code == 1 and "malformed" in err

    def test_real_at_a_test_is_a_shape_error(self, docs, capsys):
        # the replay checks the action's shape at every node, tests included
        tmp, spath, cpath = docs
        apath = tmp / "action.json"
        apath.write_text(json.dumps(["*", {"left": [1.0, "*"]}]))
        code, out, err = run_cli(
            ["monitor-eval", "--spec", "sisyphean", "--state", str(spath),
             "--action", str(apath), "--consts", str(cpath)], capsys)
        assert code == 1 and out == ""
        assert err == "error: test expects the unit action\n"

    @pytest.mark.parametrize("directives",[["sideways"], [], ["left", 1.0]])
    def test_bad_directives_are_malformed(self, docs, capsys, directives):
        tmp, spath, _ = docs
        apath = tmp / "action.json"
        apath.write_text(json.dumps({"directives": directives}))
        code, _, err = run_cli(
            ["monitor-eval", "--spec", "sisyphean", "--state", str(spath),
             "--action", str(apath)], capsys)
        assert code == 1 and err.startswith("error: malformed action: ")


    @pytest.mark.parametrize("flag, text, needle", [
        ("--state", '{"x@i": 1.0}', "x@i: the index must be an integer"),
        ("--state", '{"x": "fast"}', "x: not a number: 'fast'"),
        ("--state", '{"x": null}', "x: not a number: None"),
        ("--state", '{"x": ', "Expecting value"),
        ("--state", None, "No such file or directory"),
        ("--state", "[1.0, 2.0]", "expected a JSON object, got list"),
        ("--consts", '{"A": [4.0]}', "A: not a number: [4.0]"),
        ("--consts", "[4.0]", "expected a JSON object, got list"),
        ("--consts", None, "No such file or directory"),
        ("--action", '{"directives": ', "Expecting value"),
        ("--action", None, "No such file or directory"),
    ])
    def test_bad_input_file_is_a_usage_error(self, docs, capsys, flag, text, needle):
        tmp, spath, cpath = docs
        apath = tmp / "action.json"
        apath.write_text(json.dumps({"directives": ["left"]}))
        paths = {"--state": spath, "--consts": cpath, "--action": apath}
        bad = paths[flag] = tmp / "bad.json"
        if text is not None:
            bad.write_text(text)
        code, out, err = run_cli(
            ["monitor-eval", "--spec", "sisyphean",
             *(x for f, p in paths.items() for x in (f, str(p)))], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {flag}: ")
        assert needle in err


class TestConsoleEntry:
    def test_installed_script(self):
        proc = subprocess.run([sys.executable, "-m", "adashield.cli", "check",
                               "acas"], capture_output=True, text=True)
        assert proc.returncode == 0
