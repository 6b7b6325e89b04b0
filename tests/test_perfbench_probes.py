"""The benchmark's traced mode looks up tradecontest functions by name, so a
rename or deletion in src/ must fail here before it breaks the benchmark."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from tradecontest.market import SyntheticSpec, generate_synthetic, write_csv

ROOT = Path(__file__).resolve().parent.parent


def traced_layers(tmp_path, n_days: int, contest: dict, data: dict | None = None,
                  data_agents: list | None = None) -> dict:
    """The per-layer figures of one traced child run of a small config."""
    config = {
        "seed": 3,
        "data": data or {"kind": "synthetic", "n_symbols": 4, "n_days": n_days,
                         "daily_vol": 0.01},
        "agents": {"data": data_agents or [{"agent_id": f"d{i}", "skill": 0.5}
                                           for i in range(3)],
                   "research": [{"agent_id": "r0"}, {"agent_id": "r1", "belief": "random"}]},
        "contest": contest,
    }
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--config", str(cfg_path),
         "--out", str(tmp_path / "out"), "--run-id", "probe", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout)["layers"]
    assert isinstance(layers, dict) and layers
    return layers


def test_traced_child_resolves_every_probe(tmp_path):
    traced_layers(tmp_path, 30, {"predictor": "baseline"})


def test_gbdt_fit_probe_reads_rows_and_trees(tmp_path):
    # the probe reads the rows argument of GradientBoostedRegressor.fit and
    # the fitted model's trees, which only a gbdt run exercises
    layers = traced_layers(tmp_path, 60, {"predictor": "gbdt", "n_trees": 5})
    assert layers["gbdt.fits"] > 0
    assert layers["gbdt.trees"] > 0
    assert layers["gbdt.fit_rows"] > 0


def test_csv_source_counts_the_ingested_bars(tmp_path):
    # the benchmark's CSV workload: set-up is ingest_csv, and market.bars
    # walks the store's iter_bars once the run is done
    bars_path = tmp_path / "bars.csv"
    write_csv(generate_synthetic(SyntheticSpec(n_symbols=4, n_days=30, daily_vol=0.01), 3),
              bars_path)
    rows = len(bars_path.read_text().splitlines()) - 1
    layers = traced_layers(tmp_path, 30, {"predictor": "baseline"},
                           {"kind": "csv", "csv_path": str(bars_path)})
    assert rows == 120
    assert layers["market.bars"] == rows
    assert layers["market.build_s"] > 0


@pytest.mark.skipif(shutil.which("awk") is None, reason="the data agent runs awk")
def test_a_command_line_data_team_is_scored_where_traced(tmp_path):
    # a command-line data agent may have its calls made in a forked data
    # process, whose probe records are lost; the run must still score the
    # factors itself, where the probes see it
    agent = {"kind": "external", "agent_id": "x0", "timeout": 30,
             "endpoint": f"awk -f {ROOT / 'perfbench' / 'agent.awk'}"}
    layers = traced_layers(tmp_path, 30, {"predictor": "baseline"},
                           data_agents=[agent, {"agent_id": "d0", "skill": 0.5}])
    assert layers["scoring.factor_score_calls"] > 0
