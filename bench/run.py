"""The matchlot benchmark: one workload per call, closed loop, one client.

Usage (from the repository root)::

    python3 bench/run.py --workload rsd-maximin --seed 0 --seconds 25 --trace 0

Each workload runs in fresh single-threaded worker processes that import
the package from ``src/``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs markets untraced for half of ``--seconds``, then the
same markets traced twice, and prints the per-layer metrics.  Market times
are given at a reference host speed, measured by a probe loop while each
market runs (``worker.SpeedSampler``).  Metric names
and units are the ones ``BENCHMARK.json`` declares.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every market returned a
verified lottery; a set-up that cannot run exits 2 or 3 without printing a
result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_REPEATS = 5  # fresh processes whose set-up time is measured
TIME_LIMIT_S = 170.0  # the whole command, children included


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def _spawn(args, mode: str, seconds: float, deadline: float, count=None) -> dict:
    """Run one worker to completion and return its report with its set-up time."""
    command = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--seconds", str(seconds),
    ]
    if count is not None:
        command += ["--count", str(count)]
    spawned_at = time.monotonic()
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the time limit") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {done.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = (report["ready_at"] - spawned_at) * report["setup_speed"]
    return report


def _problems(reports: list[dict]) -> list[str]:
    return [
        f"market {f['index']}: {f['type']}: {f['message']}"
        for report in reports
        for f in report["failures"]
    ]


def end_to_end(args, deadline, units) -> tuple[dict, list[dict], list[str]]:
    # The first worker after a pause started up to twice as slowly as the
    # next ones, so one untimed set-up warms the host before the timed ones.
    _spawn(args, "setup", args.seconds, deadline)
    setups = [
        _spawn(args, "setup", args.seconds, deadline) for _ in range(SETUP_REPEATS - 1)
    ]
    run = _spawn(args, "timed", args.seconds, deadline)
    setup_times = [r["setup_s"] for r in setups] + [run["setup_s"]]
    times = run["market_s"]
    if not times:
        raise BenchError(f"no market completed; {_problems([run])[0]}")
    raw = run["raw_market_s"]
    metrics = {
        "market_s.p50": statistics.median(times),
        "markets_per_s": len(times) / run["busy_s"],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    samples = {
        "market_s.p50": f"{len(times)} markets; raw median {statistics.median(raw):.4g} s",
        "markets_per_s": f"{len(times)} markets in {run['busy_s']:.2f} s; "
        f"raw loop {run['loop_s']:.2f} s",
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "peak_rss_mb": "1 process",
    }
    print(
        f"{args.workload} seed {args.seed}: {run['attempted']} markets, "
        f"{run['reference_checked']} checked against reference.json, "
        f"closed loop with 1 client"
    )
    for name, value in metrics.items():
        print(f"  {name:<14} {value:12.6g} {units.get(name, '?'):<4} ({samples[name]})")
    fail_rate = len(run["failures"]) / run["attempted"]
    print(f"  fail_rate      {fail_rate:12.6g} of {run['attempted']} attempted")
    return metrics, [run], _problems([run])


def per_layer(args, deadline, units) -> tuple[dict, list[dict], list[str]]:
    base = _spawn(args, "timed", args.seconds / 2, deadline)
    count = base["attempted"]
    traced = [_spawn(args, "traced", args.seconds, deadline, count) for _ in range(2)]
    first, second = (t["trace"] for t in traced)
    problems = _problems([base, *traced])
    for name in [f"{s}.calls" for s in spans.SPANS] + list(spans.EXACT_COUNTERS):
        if first[name] != second[name]:
            problems.append(
                f"{name} differs between traced runs: {first[name]} vs {second[name]}"
            )
    for name in traced[0]["required_spans"]:
        if first[f"{name}.calls"] == 0:
            problems.append(f"span {name} recorded no calls")
    metrics = dict(first)
    metrics["colgen.recompose_err.max"] = max(t["recompose_err_max"] for t in traced)
    metrics["trace.overhead_frac"] = traced[0]["busy_s"] / base["busy_s"] - 1.0
    total = traced[0]["loop_s"]
    print(
        f"{args.workload} seed {args.seed}: {count} markets untraced, then twice "
        f"traced; traced loop {total:.2f} s against {base['loop_s']:.2f} s"
    )
    for name in spans.SPANS:
        if first[f"{name}.calls"]:
            print(
                f"  {name:<20} {first[name + '.calls']:8d} calls "
                f"{first[name + '.s']:9.3f} s ({first[name + '.s'] / total:6.1%}) "
                f"self {first[name + '.self_s']:9.3f} s"
            )
    return metrics, [base, *traced], problems


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in declared["workloads"]], required=True
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + TIME_LIMIT_S

    if os.environ.get("MATCHLOT_LP_DUMP"):
        print("refusing to run with MATCHLOT_LP_DUMP set", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "matchlot" / "__init__.py").is_file():
        print(f"no matchlot package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, reports, problems = measure(args, deadline, units)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 3
    if set(metrics) != set(units):
        print("measured metrics differ from BENCHMARK.json", file=sys.stderr)
        return 3

    for problem in problems:
        print(f"  FAILED {problem}")
    print("  environment " + json.dumps(reports[0]["environment"], sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(len(r["failures"]) for r in reports),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
