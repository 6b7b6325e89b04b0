"""One timed backtest in a fresh process; prints one JSON line of figures.

Usage: python3 child.py --config CONFIG --out DIR --run-id ID
                        [--trace 0|1] [--dump-bars FILE]

Runs `tradecontest backtest CONFIG --output-dir DIR` through the CLI's own
entry point, with probes around the set-up calls and the contest day (and,
with --trace 1, around every layer). Imports are not timed. `setup_s` is
the time inside the set-up calls; `run_s` is the rest of the command.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import resource
import sys
from pathlib import Path

from spans import Probes, Recorder, percentile

MODULES = ("agents", "cli", "config", "engine", "gbdt", "market", "prediction")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump-bars")
    args = parser.parse_args(argv)

    tc = argparse.Namespace(**{m: importlib.import_module(f"tradecontest.{m}") for m in MODULES})
    rec = Recorder(args.run_id)
    probes = Probes(rec, tc, traced=bool(args.trace))
    out = Path(args.out)

    # the command's own summary line goes to stderr; stdout carries the result
    with contextlib.redirect_stdout(sys.stderr):
        rc = rec.span("cli.backtest", tc.cli.cmd_backtest, args.config, str(out))
    if rc != 0:
        print(f"backtest exited {rc}", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    total_s = rec.durations("cli.backtest")[0]
    setup_s = probes.setup_s()
    day_ms = [d * 1000 for d in rec.durations("engine.day")]
    result = {
        "run_id": args.run_id,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "run_s": total_s - setup_s,
        "day_p90_ms": percentile(day_ms, 90),
        "days": len(day_ms),
        "peak_rss_mb": peak_rss_mb,
        "ledger_bytes": (out / "ledger.jsonl").stat().st_size,
        "ledger_sha256": _sha256(out / "ledger.jsonl"),
        "metrics_sha256": _sha256(out / "metrics.json"),
        "attempted": probes.attempted,
        "failed": probes.failed,
    }
    if args.trace:
        result["layers"] = probes.layer_metrics()
        rec.dump(out)
    if args.dump_bars:
        tc.market.write_csv(probes.store, args.dump_bars)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
