"""Command-line interface: check, obligations, simulate, monitor-eval."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from importlib import resources

from .dl import Ident, ParseError
from .specfile import load_spec
from .checks import check_spec
from .obligations import gen_obligations, emit_obligation_files
from .actions import (
    ALeft, APair, AReal, ARight, UNIT, FallbackViolation, StructureError,
    ctrl_monitor_trace, make_action,
)
from .runtime import (
    ExperimentConfig, ExperimentStats, InitialConditionViolation,
    LocalParamUnset, Shield, aggregate_stats, run_episodes, run_experiment,
)
from .envs import REGISTRY, load_env_config
from .policies import (
    CONTROL_POLICIES, DEFAULT_POLICIES, INFERENCE_POLICIES, UNSHIELDED_CONTROL,
)

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2


def bundled_spec_path(stem: str) -> str:
    return str(resources.files("adashield").joinpath(f"data/{stem}.shield"))


def _load(path: str):
    if not os.path.exists(path) and not path.endswith(".shield"):
        candidate = bundled_spec_path(path)
        if os.path.exists(candidate):
            path = candidate
    if not os.path.exists(path):
        print(f"error: no such spec file: {path}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    try:
        return load_spec(path)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_check(args) -> int:
    spec = _load(args.spec)
    diags = check_spec(spec)
    if args.json:
        print(json.dumps({"spec": spec.name,
                          "diagnostics": [vars(d) for d in diags]}))
    else:
        for d in diags:
            print(d)
        if not diags:
            print(f"{spec.name}: ok "
                  f"({len(spec.bounds)} bounds, {len(spec.infer)} inference assignments)")
    return EXIT_OK if not diags else EXIT_DIAGNOSTICS


def cmd_obligations(args) -> int:
    spec = _load(args.spec)
    diags = check_spec(spec)
    if diags:
        for d in diags:
            print(d, file=sys.stderr)
        return EXIT_DIAGNOSTICS
    obls = gen_obligations(spec, include_invariant_monotone=args.invariant_monotone)
    paths = emit_obligation_files(obls, args.out, spec)
    if args.json:
        print(json.dumps({"spec": spec.name,
                          "obligations": [{"name": o.name, "kind": o.kind} for o in obls],
                          "files": paths}))
    else:
        width = max(len(o.name) for o in obls)
        for o in obls:
            print(f"{o.name:<{width}}  {o.kind}")
        print(f"{len(obls)} obligations written to {os.path.join(args.out, spec.name)}")
    return EXIT_OK


def _resolve_policies(args, env_name: str):
    defaults = DEFAULT_POLICIES.get(env_name, ("greedy-train", "skip"))
    ctrl_name = args.policy_control or defaults[0]
    infer_name = args.policy_infer or defaults[1]
    if args.unshielded and not args.policy_control:
        ctrl_name = UNSHIELDED_CONTROL.get(env_name, ctrl_name)
    if ctrl_name not in CONTROL_POLICIES:
        raise SystemExit(f"unknown control policy {ctrl_name!r}; "
                         f"choose from {sorted(CONTROL_POLICIES)}")
    if infer_name not in INFERENCE_POLICIES:
        raise SystemExit(f"unknown inference policy {infer_name!r}; "
                         f"choose from {sorted(INFERENCE_POLICIES)}")
    return ctrl_name, infer_name


def _experiment(args, spec):
    """The shield, experiment config and policy names ``simulate`` runs;
    the main process and every ``--workers`` process build them here.  A
    bad ``--env-config`` raises OSError, TypeError or ValueError."""
    factory, _, default_budget, default_mode = REGISTRY[args.env]
    overrides = load_env_config(args.env_config) if args.env_config else None
    env = factory(overrides)
    ctrl_name, infer_name = _resolve_policies(args, args.env)
    cfg = ExperimentConfig(
        spec_name=spec.name,
        env_factory=lambda: factory(overrides),
        control_policy=CONTROL_POLICIES[ctrl_name],
        inference_policy=INFERENCE_POLICIES[infer_name],
        episodes=args.episodes, max_steps=args.max_steps,
        budget=default_budget if args.budget is None else args.budget,
        mode=args.mode or default_mode, seed=args.seed,
        unshielded=args.unshielded, non_adaptive=args.non_adaptive)
    return Shield(spec, env.consts), cfg, (ctrl_name, infer_name)


def _trace_line(rec) -> str:
    return json.dumps(rec.to_json()) + "\n"


def _worker(payload):
    """One ``--workers`` process: the episodes ``episodes`` of the experiment
    and, with ``--trace``, their trace lines."""
    args, spec_path, episodes = payload
    shield, cfg, _ = _experiment(args, _load(spec_path))
    lines: list = []
    sink = (lambda rec: lines.append(_trace_line(rec))) if args.trace else None
    return run_episodes(shield, cfg, episodes, sink), lines


def _run(args, spec_path, shield, cfg, trace_file) -> ExperimentStats:
    """Run the experiment here or, in meta mode with ``--workers`` > 1, as
    contiguous episode ranges in worker processes; either way through
    ``run_episodes`` and ``aggregate_stats``."""
    if args.workers <= 1 or cfg.mode != "meta":
        sink = (lambda rec: trace_file.write(_trace_line(rec))) if trace_file else None
        return run_experiment(shield, cfg, record_sink=sink)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, (cfg.episodes + args.workers - 1) // args.workers)
    payloads = [(args, spec_path, range(lo, min(lo + chunk, cfg.episodes)))
                for lo in range(0, cfg.episodes, chunk)]
    episodes: list = []
    # spawned workers import afresh instead of forking a process that may
    # run threads (numpy's BLAS pool)
    with ProcessPoolExecutor(max_workers=max(1, len(payloads)),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        for eps, lines in pool.map(_worker, payloads):
            episodes.extend(eps)
            if trace_file:
                trace_file.writelines(lines)
    return aggregate_stats(episodes)


def cmd_simulate(args) -> int:
    if args.env not in REGISTRY:
        print(f"error: unknown environment {args.env!r}; "
              f"choose from {sorted(REGISTRY)}", file=sys.stderr)
        return EXIT_USAGE
    spec_path = args.spec or bundled_spec_path(REGISTRY[args.env][1])
    spec = _load(spec_path)
    diags = check_spec(spec)
    if diags:
        for d in diags:
            print(d, file=sys.stderr)
        return EXIT_DIAGNOSTICS
    try:
        shield, cfg, (ctrl_name, infer_name) = _experiment(args, spec)
    except (OSError, TypeError, ValueError) as e:
        print(f"error: --env-config: {e}", file=sys.stderr)
        return EXIT_USAGE
    budget, mode = cfg.budget, cfg.mode

    os.makedirs(args.out, exist_ok=True)
    trace_file = None
    if args.trace:
        # the trace takes its name only once the run has finished, so a
        # failed run leaves none behind
        trace_path = os.path.join(args.out, f"{args.env}_seed{args.seed}.jsonl")
        trace_file = open(trace_path + ".tmp", "w", encoding="utf-8")
    if args.workers > 1 and mode == "fixed":
        print("note: fixed-mode budgets are sequential; running with 1 worker",
              file=sys.stderr)
    stats = None
    try:
        stats = _run(args, spec_path, shield, cfg, trace_file)
    except (InitialConditionViolation, LocalParamUnset, FallbackViolation) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    finally:
        if trace_file:
            trace_file.close()
            if stats is None:
                os.remove(trace_file.name)
            else:
                os.replace(trace_file.name, trace_path)

    csv_path = os.path.join(args.out, f"{args.env}_seed{args.seed}_summary.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["episode", "return", "steps", "crash", "overrides", "eps_spent"])
        for e in stats.episodes:
            wr.writerow([e.episode, repr(e.ret), e.steps, int(e.crash),
                         e.overrides, repr(e.eps_spent)])

    summary = {
        "env": args.env, "spec": spec.name, "episodes": args.episodes,
        "mode": mode, "budget": budget,
        "control_policy": ctrl_name, "inference_policy": infer_name,
        "unshielded": args.unshielded, "non_adaptive": args.non_adaptive,
        "crashes": stats.crashes, "mean_return": stats.mean_return,
        "overrides": stats.overrides, "eps_spent": stats.eps_spent,
        "override_rate": stats.overrides / max(stats.steps, 1),
        "steps": stats.steps,
        "shield_seconds": stats.shield_seconds,
        "env_seconds": stats.env_seconds,
        "ledger_error": stats.ledger_error,
        "reuse_violations": stats.reuse_violations,
        "summary_csv": csv_path,
    }
    if args.json:
        print(json.dumps(summary))
    else:
        print(f"env={args.env} episodes={args.episodes} mode={mode} budget={budget:g}")
        print(f"crashes={stats.crashes}  mean_return={stats.mean_return:.3f}  "
              f"override_rate={summary['override_rate']:.3f}  "
              f"eps_spent={stats.eps_spent:.3g}")
        print(f"shield time {stats.shield_seconds:.2f}s over {stats.steps} steps "
              f"({1e6 * stats.shield_seconds / max(stats.steps, 1):.0f} us/step); "
              f"summary: {csv_path}")
    return EXIT_OK


def _parse_action_json(doc):
    if doc == "*":
        return UNIT
    if isinstance(doc, (int, float)):
        return AReal(float(doc))
    if isinstance(doc, list) and len(doc) == 2:
        return APair(_parse_action_json(doc[0]), _parse_action_json(doc[1]))
    if isinstance(doc, dict) and "left" in doc:
        return ALeft(_parse_action_json(doc["left"]))
    if isinstance(doc, dict) and "right" in doc:
        return ARight(_parse_action_json(doc["right"]))
    if isinstance(doc, dict) and "directives" in doc:
        return None  # resolved against the controller later
    raise ValueError(f"cannot parse action document: {doc!r}")


def cmd_monitor_eval(args) -> int:
    spec = _load(args.spec)
    with open(args.state, "r", encoding="utf-8") as fh:
        state_doc = json.load(fh)
    with open(args.action, "r", encoding="utf-8") as fh:
        action_doc = json.load(fh)
    val = {}
    for k, v in state_doc.items():
        name, _, idx = k.partition("@")
        val[Ident(name, int(idx) if idx else None)] = float(v)
    try:
        action = _parse_action_json(action_doc)
        if action is None:
            action = make_action(spec.ctrl, action_doc["directives"])
    except (TypeError, ValueError, StructureError) as e:
        print(f"error: malformed action: {e}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    consts = {}
    if args.consts:
        with open(args.consts, "r", encoding="utf-8") as fh:
            consts = {k: float(v) for k, v in json.load(fh).items()}
    try:
        results, failures = ctrl_monitor_trace(spec.ctrl, val, action, consts)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    verdict = "SAFE" if not failures else "UNSAFE"
    if args.json:
        print(json.dumps({"verdict": verdict,
                          "tests": [{"test": t, "holds": (None if str(r) == "UNDEF" else bool(r))}
                                    for t, r in results]}))
    else:
        print(verdict)
        for i, (t, r) in enumerate(results):
            shown = "undefined" if str(r) == "UNDEF" else str(bool(r)).lower()
            print(f"  test {i}: {shown}  {t}")
    return EXIT_OK if not failures else EXIT_DIAGNOSTICS


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="adashield",
        description="Adaptive-shield compiler and simulation runtime")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse a spec and run well-formedness checks")
    p.add_argument("spec", help=".shield file or bundled spec name")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("obligations", help="emit proof obligation files")
    p.add_argument("spec")
    p.add_argument("--out", default="obligations")
    p.add_argument("--invariant-monotone", action="store_true",
                   help="also emit per-parameter invariant monotonicity obligations")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_obligations)

    p = sub.add_parser("simulate", help="run shielded episodes against an environment")
    p.add_argument("--env", required=True, choices=sorted(REGISTRY))
    p.add_argument("--spec", help="override the bundled spec for this environment")
    p.add_argument("--env-config", help="key = value overrides for the environment")
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--mode", choices=("fixed", "meta"), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy-control", default=None)
    p.add_argument("--policy-infer", default=None)
    p.add_argument("--trace", action="store_true", help="write JSONL step records")
    p.add_argument("--workers", type=int, default=1,
                   help="episode-level worker processes (meta mode only)")
    p.add_argument("--out", default="runs")
    p.add_argument("--unshielded", action="store_true",
                   help="bypass the monitor (no overrides)")
    p.add_argument("--non-adaptive", action="store_true",
                   help="deactivate statistical inference (defaults only)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("monitor-eval", help="evaluate the controller monitor on a state/action")
    p.add_argument("--spec", required=True)
    p.add_argument("--state", required=True, help="JSON file: variable -> value")
    p.add_argument("--action", required=True,
                   help='JSON file: action tree or {"directives": [...]}')
    p.add_argument("--consts", help="JSON file: constant symbol -> value")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_monitor_eval)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
