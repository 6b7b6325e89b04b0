"""Benchmark of the tradecontest `backtest` command, one workload per run.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's inputs from the seed, then runs repetitions of the
backtest, each in a fresh single-threaded Python process, for about S
seconds (at least MIN_REPS of them). With --trace 0 it reports the
end-to-end metrics, each the median over repetitions; with --trace 1 it
alternates untraced and traced repetitions and reports the per-layer
figures of the traced ones plus the tracing overhead. Every run checks
the first repetition's outputs with checks.py and requires every
repetition to write the same ledger and metrics bytes.

The last line of stdout is one JSON object: correct, attempted and failed
(agent calls, and those that left the agent absent) and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MIN_REPS = 3  # per kind of repetition: untraced, and traced with --trace 1
CHILD_TIMEOUT_S = 60


def metric_specs(traced: bool) -> list[dict]:
    """Names and units of the metrics to report, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if traced else "end_to_end"]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TRADECONTEST_OUTPUT_DIR", None)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
    })
    return env


def run_child(config: Path, out: Path, run_id: str, traced: bool,
              dump_bars: Path | None) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--config", str(config),
           "--out", str(out), "--run-id", run_id, "--trace", str(int(traced))]
    if dump_bars is not None:
        cmd += ["--dump-bars", str(dump_bars)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {run_id} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tradecontest" / "cli.py").is_file():
        print(f"no tradecontest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = OUT_DIR / args.workload  # the latest run of each workload stays for inspection
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path, config = workloads.write_config(args.workload, args.seed, work)
    if config["data"]["kind"] == "csv":
        bars_path, dump_bars = Path(config["data"]["csv_path"]), None
    else:
        bars_path = dump_bars = work / "bars.csv"

    kinds = [False, True] if args.trace else [False]
    results: dict[bool, list[dict]] = {k: [] for k in kinds}
    start = time.perf_counter()
    rep = 0
    while True:
        traced = kinds[rep % len(kinds)]
        rep_dir = work / f"rep{rep:02d}"
        t0 = time.perf_counter()
        res = run_child(config_path, rep_dir, f"{args.workload}-s{args.seed}-r{rep}",
                        traced, dump_bars if rep == 0 else None)
        rep_wall = time.perf_counter() - t0
        results[traced].append(res)
        if rep > 0 and not (traced and len(results[True]) == 1):
            shutil.rmtree(rep_dir)  # same bytes as rep00 (checked below); keep one trace
        rep += 1
        elapsed = time.perf_counter() - start
        enough = all(len(results[k]) >= MIN_REPS for k in kinds)
        if enough and elapsed + rep_wall > args.seconds:
            break

    everything = [r for k in kinds for r in results[k]]
    rules = checks.Rules(initial_cash=workloads.INITIAL_CASH, fee=workloads.FEE,
                         limit_pct=workloads.LIMIT_PCT, budget=workloads.BUDGET)
    report = checks.check_run(work / "rep00", bars_path, rules)
    for key in ("ledger_sha256", "metrics_sha256", "attempted", "failed"):
        values = {r[key] for r in everything}
        if len(values) != 1:
            report.problems.append(f"repetitions disagree on {key}: {sorted(values)}")

    print(f"workload {args.workload} seed {args.seed}: {len(everything)} repetitions "
          f"in {time.perf_counter() - start:.1f} s")
    print(f"ledger sha256 {everything[0]['ledger_sha256']}")
    for r in everything:
        print(f"  {r['run_id']:<28} {'traced' if r['traced'] else 'untraced':<8} "
              f"setup {r['setup_s']:.3f} s  run {r['run_s']:.3f} s  "
              f"day p90 {r['day_p90_ms']:.1f} ms")
    print("checks: " + ", ".join(f"{k} {v}" for k, v in sorted(report.counts.items())))
    for msg in report.problems:
        print(f"check failed: {msg}")

    if args.trace:
        traced_runs = results[True]
        values = {name: statistics.median(r["layers"][name] for r in traced_runs)
                  for name in traced_runs[0]["layers"]}
        untraced_run_s = statistics.median(r["run_s"] for r in results[False])
        traced_run_s = statistics.median(r["run_s"] for r in traced_runs)
        values["trace.overhead_pct"] = 100.0 * (traced_run_s / untraced_run_s - 1.0)
    else:
        values = {name: statistics.median(r[name] for r in results[False])
                  for name in ("setup_s", "run_s", "day_p90_ms", "peak_rss_mb", "ledger_bytes")}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs(bool(args.trace))}
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")

    print(json.dumps({
        "correct": report.ok,
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
