"""Closed-loop benchmark of the adashield shield runtime.

Run from the root of a checkout:

    python3 shieldbench/run.py --workload train-fixed --seed 0 --seconds 25 --trace 0
    python3 shieldbench/run.py --workload all --seed 0 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` alternates untraced repetitions with repetitions that record
per-layer spans, requires both to give the same results digest, and reports
the per-layer split, the tracing overhead, the aggregation scaling probe and
the ROADMAP baseline-table row.  ``all`` runs
each workload in a fresh process and prints one row per workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: ROADMAP baseline table: column title -> per-layer metrics summed into it
TABLE = (
    ("wall us/step", ("runtime.wall_us_per_step",)),
    ("env.step", ("envs.step.us_per_step",)),
    ("interpret", ("strategy.interpret.us_per_step",)),
    ("free-var walks", ("strategy.refs.us_per_step",)),
    ("eval_sbi", ("strategy.eval.us_per_step", "tailbounds.us_per_step")),
    ("monitor", ("actions.monitor.us_per_step",)),
)


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def table_lines(rows: dict) -> list[str]:
    """Markdown table of the baseline columns, one row per workload."""
    lines = ["| workload | " + " | ".join(t for t, _ in TABLE) + " |",
             "|---" * (len(TABLE) + 1) + "|"]
    for name, metrics in rows.items():
        cells = [f"{sum(metrics[k]['value'] for k in keys):.0f}" for _, keys in TABLE]
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    return lines


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def print_metrics(name: str, metrics: dict) -> None:
    for k, (v, u) in metrics.items():
        print(f"{name} {k} = {v:.6g} {u}")


def run_one(args) -> int:
    import workloads as wl

    w = wl.WORKLOADS[args.workload]
    facts = wl.machine_facts()
    print(f"{w.name}: {wl.SHAPE}; env={w.env} overrides={w.env_overrides} "
          f"mode={w.mode} budget={w.budget:g} policies={w.control}+{w.inference}; "
          + " ".join(f"{k}={v}" for k, v in facts.items()))
    setups = wl.SetUps(w)

    if not args.trace:
        p = wl.closed_loop(w, setups, args.seed, args.seconds)
        wl.report_pass(w, args.seed, p, "untraced")
        print(f"{w.name} set-ups: {len(setups.times)}")
        if p.first is None:
            return 1
        metrics = wl.end_to_end_metrics(p, setups.quiet())
        print_metrics(w.name, metrics)
        print(result_line(p.correct, p.attempted, p.failed, metrics))
        return 0

    import layers

    # alternate untraced and traced repetitions so both see the same load
    tracer = layers.Tracer()
    plain = wl.ClosedLoop(w, setups.shield, args.seed)
    traced = wl.ClosedLoop(w, setups.shield, args.seed, tracer)
    start = time.perf_counter()
    while True:
        ok = plain.repeat()
        with tracer.installed():
            ok = traced.repeat() and ok
        now = time.perf_counter()
        if not ok or now >= start + args.seconds:
            break
        setups.keep_up(now - start)
    wl.report_pass(w, args.seed, plain, "untraced")
    wl.report_pass(w, args.seed, traced, "traced")
    if plain.first is None or traced.first is None:
        return 1
    errors = []
    if (traced.digest, traced.trace_digest) != (plain.digest, plain.trace_digest):
        errors.append("the traced pass did not reproduce the untraced results digest")

    metrics = tracer.layer_metrics(traced.steps, sum(map(sum, traced.intervals)))
    untraced_us, traced_us = (1e6 * sum(wl.quiet_intervals(p)) / p.first.steps
                              for p in (plain, traced))
    metrics["runtime.wall_us_per_step"] = (untraced_us, "us/step")
    metrics["tracing_overhead_frac"] = (traced_us / untraced_us - 1.0, "ratio")
    setup_times = setups.quiet()
    for k in layers.SETUP_LAYERS:
        metrics[k] = (setup_times[k], "s")
    probe, probe_errors = layers.aggregation_probe()
    metrics.update(probe)
    errors += probe_errors
    for err in errors:
        print(err, file=sys.stderr)

    print_metrics(w.name, metrics)
    print("\n".join(table_lines({w.name: {k: {"value": v} for k, (v, _) in metrics.items()}})))
    correct = plain.correct and traced.correct and not errors
    print(result_line(correct, plain.attempted + traced.attempted,
                      plain.failed + traced.failed, metrics))
    return 0


def run_all(args, workload_names) -> int:
    """Each workload in its own fresh process; one row per workload."""
    rows, correct, attempted, failed = {}, True, 0, 0
    for name in workload_names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        rows[name] = result["metrics"]
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]

    if args.trace:
        print("\n".join(table_lines(rows)))
    else:
        names = list(rows[workload_names[0]])
        print("| workload | " + " | ".join(
            f"{m} ({rows[workload_names[0]][m]['unit']})" for m in names) + " |")
        print("|---" * (len(names) + 1) + "|")
        for name, metrics in rows.items():
            print(f"| {name} | " + " | ".join(f"{metrics[m]['value']:.6g}" for m in names) + " |")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {f"{w}.{m}": v for w, ms in rows.items() for m, v in ms.items()},
    }))
    return 0


def main(argv=None) -> int:
    if not (SRC / "adashield" / "__init__.py").is_file():
        print(f"error: no adashield package under {SRC}; run the benchmark from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    # one agent, one thread: keep numpy's BLAS pool from starting threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC), str(HERE)]
    import adashield
    if Path(adashield.__file__).resolve().parent != SRC / "adashield":
        print(f"error: imported adashield from {adashield.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    names = tuple(workloads.WORKLOADS)
    args = parse_args(argv, names)
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
