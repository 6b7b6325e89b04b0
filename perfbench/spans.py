"""In-memory span recorder and the probes that wrap tradecontest's layers.

A probe replaces a public function (or method) of a module with a wrapper
that records one span per call: name, start, end and the enclosing span.
Spans live in flat arrays while the run is timed and are written out when
it ends. Untraced runs install only the probes the end-to-end metrics need
(set-up calls and the contest day); traced runs install all of them.

A probe's own bookkeeping takes time too, and on a layer called a million
times it would swamp the caller's self time. `probe_cost` measures it in
the running process, and self times are corrected by it.
"""

from __future__ import annotations

import functools
import json
import statistics
import types
from array import array
from pathlib import Path
from time import perf_counter

SETUP_SPANS = ("config.load", "market.build", "config.build_agents", "config.contest")
CALIBRATION_CALLS = 20_000
CALIBRATION_ROUNDS = 10


class Recorder:
    """Spans of one run, kept as parallel arrays indexed by span id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; returns its result."""
        return self._traced(self._name_id(name), fn, args, kwargs)

    def _traced(self, nid, fn, args, kwargs):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a probe that records a span per call.

        ``on_result(args, result)`` runs after the span closes, so counting
        is not charged to the layer.
        """
        fn = getattr(owner, attr)
        nid = self._name_id(name)
        traced = self._traced

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            result = traced(nid, fn, args, kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, probe)

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        return [e - s for n, s, e in zip(self.name, self.start, self.end) if n == nid]

    def self_times(self, outside: float = 0.0, inside: float = 0.0) -> dict[str, float]:
        """Per-name sum of span time minus the time its child spans cover.

        ``outside`` and ``inside`` are the probe's own cost per span (see
        `probe_cost`): each child span also takes ``outside`` from its
        parent, and each span ``inside`` from itself.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i] + outside
        out = {name: 0.0 for name in self.names}
        for i in range(n):
            out[self.names[self.name[i]]] += self.end[i] - self.start[i] - child[i] - inside
        return {name: max(0.0, t) for name, t in out.items()}

    def dump(self, out_dir: Path) -> None:
        """spans.json names the fields; spans.bin holds the four arrays."""
        meta = {"run_id": self.run_id, "names": self.names, "count": len(self.start),
                "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"],
                "clock": "time.perf_counter, seconds"}
        (out_dir / "spans.json").write_text(json.dumps(meta, indent=1) + "\n")
        with open(out_dir / "spans.bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def probe_cost() -> tuple[float, float]:
    """Seconds a probe adds per call in this process, as (outside, inside).

    ``outside`` is the bookkeeping before the span starts and after it ends,
    which lands in the enclosing span; ``inside`` is the part within the
    span's own start and end beyond the wrapped call. Both come from probing
    a no-op, each the mean over rounds: on a shared machine a virtual CPU's
    speed can change from one second to the next, and the mean stands for
    the mix of speeds the run went through.
    """
    def noop():
        return None

    def loop(fn):
        for _ in range(CALIBRATION_CALLS):
            fn()

    outside, inside = [], []
    for _ in range(CALIBRATION_ROUNDS):
        t0 = perf_counter()
        loop(noop)
        bare = (perf_counter() - t0) / CALIBRATION_CALLS
        rec = Recorder("calibration")
        box = types.SimpleNamespace(noop=noop)
        rec.wrap(box, "noop", "noop")
        rec.span("loop", loop, box.noop)
        raw = rec.self_times()
        total = (raw["loop"] + raw["noop"]) / CALIBRATION_CALLS - bare
        within = max(0.0, raw["noop"] / CALIBRATION_CALLS - bare)
        outside.append(total - within)
        inside.append(within)
    return max(0.0, statistics.fmean(outside)), statistics.fmean(inside)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Probes:
    """Installs probes on the tradecontest modules and keeps what they saw."""

    def __init__(self, rec: Recorder, tc, traced: bool):
        self.rec = rec
        self.store = None
        self.state = None
        self.attempted = 0
        self.failed = 0
        cfg, engine = tc.config, tc.engine
        for name, attr in (("config.load", "load_config"),
                           ("config.build_agents", "build_agents"),
                           ("config.contest", "contest_config")):
            rec.wrap(cfg, attr, name)
        rec.wrap(cfg, "build_store", "market.build", self._on_store)
        rec.wrap(engine.ContestEngine, "run_contest_day", "engine.day", self._on_day)
        if traced:
            self._install_layers(tc)

    def _on_store(self, args, store):
        self.store = store

    def _on_day(self, args, record):
        eng = args[0]
        self.attempted += len(eng.data_agents) + len(eng.research_agents)
        self.failed += len(record.absent)
        if record.data_rebalance or record.research_rebalance:
            self.rec.add("engine.rebalances")

    def _on_state(self, args, state):
        self.state = state

    def _install_layers(self, tc):
        rec, add = self.rec, self.rec.add
        agents, engine, cli = tc.agents, tc.engine, tc.cli
        probes = [
            (cli, "run_full", "engine.run_full", None),
            (tc.market.MarketView, "trailing_returns", "market.trailing_returns", None),
            (agents.SyntheticDataAgent, "produce", "agents.data", None),
            (agents.ExternalDataAgent, "produce", "agents.data", None),
            (agents.SyntheticResearchAgent, "produce", "agents.research", None),
            (agents.ExternalResearchAgent, "produce", "agents.research", None),
            (agents, "external_agent_call", "agents.external", None),
            (agents, "build_request", "agents.request_build", None),
            (agents.AgentRequest, "to_json", "agents.request_build",
             lambda a, r: add("agents.request_bytes", len(r) + 1)),
            (engine, "factor_score", "scoring.factor_score", None),
            (engine, "researcher_score", "scoring.researcher", None),
            (engine, "realized_sharpe", "scoring.researcher", None),
            (engine, "stub_judger", "scoring.researcher", None),
            (engine, "train", "prediction.train",
             lambda a, r: add("prediction.train_rows", len(a[1]))),
            (tc.prediction.PredictorModel, "predict_batch", "prediction.predict", None),
            (engine, "features_from_window", "prediction.features", None),
            (tc.gbdt.GradientBoostedRegressor, "fit", "gbdt.fit", self._on_fit),
            (engine, "knapsack_select", "allocation.knapsack", None),
            (engine, "sharpe_weights", "allocation.sharpe_weights", None),
            (cli, "apply_day", "backtest.apply", self._on_state),
            (cli, "compute_metrics", "backtest.metrics", None),
            (cli, "_metrics_dict", "cli.metrics", None),
            (engine.DailyRecord, "to_dict", "cli.serialize", None),
            (cli, "_write_run_outputs", "cli.write", None),
        ]
        for owner, attr, name, on_result in probes:
            rec.wrap(owner, attr, name, on_result)

    def _on_fit(self, args, model):
        self.rec.add("gbdt.fit_rows", len(args[1]))
        self.rec.add("gbdt.trees", len(model.trees))

    def setup_s(self) -> float:
        return sum(sum(self.rec.durations(n)) for n in SETUP_SPANS)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of a traced run; every ``_s`` figure is self time,
        less the probes' own cost."""
        rec = self.rec
        outside, inside = probe_cost()
        st = rec.self_times(outside, inside)
        calls = {name: 0 for name in rec.names}
        for nid in rec.name:
            calls[rec.names[nid]] += 1
        ext_ms = [d * 1000 for d in rec.durations("agents.external")]
        fit_ms = [d * 1000 for d in rec.durations("gbdt.fit")]
        state = self.state
        return {
            "config.load_s": st.get("config.load", 0.0),
            "config.build_agents_s": st.get("config.build_agents", 0.0),
            "market.build_s": st.get("market.build", 0.0),
            "market.bars": sum(1 for _ in self.store.iter_bars()) if self.store else 0,
            "market.trailing_returns_calls": calls.get("market.trailing_returns", 0),
            "market.trailing_returns_s": st.get("market.trailing_returns", 0.0),
            "agents.data_calls": calls.get("agents.data", 0),
            "agents.data_s": st.get("agents.data", 0.0),
            "agents.research_calls": calls.get("agents.research", 0),
            "agents.research_s": st.get("agents.research", 0.0),
            "agents.external_calls": len(ext_ms),
            "agents.external_call_p50_ms": percentile(ext_ms, 50),
            "agents.external_call_p90_ms": percentile(ext_ms, 90),
            "agents.external_s": st.get("agents.external", 0.0),
            "agents.request_build_s": st.get("agents.request_build", 0.0),
            "agents.request_bytes": rec.counts.get("agents.request_bytes", 0),
            "scoring.factor_score_calls": calls.get("scoring.factor_score", 0),
            "scoring.factor_score_s": st.get("scoring.factor_score", 0.0),
            "scoring.researcher_s": st.get("scoring.researcher", 0.0),
            "engine.days": calls.get("engine.day", 0),
            "engine.rebalances": rec.counts.get("engine.rebalances", 0),
            "engine.self_s": st.get("engine.day", 0.0),
            "prediction.train_calls": calls.get("prediction.train", 0),
            "prediction.train_rows": rec.counts.get("prediction.train_rows", 0),
            "prediction.train_s": st.get("prediction.train", 0.0),
            "prediction.predict_s": st.get("prediction.predict", 0.0),
            "prediction.features_s": st.get("prediction.features", 0.0),
            "gbdt.fits": len(fit_ms),
            "gbdt.fit_rows": rec.counts.get("gbdt.fit_rows", 0),
            "gbdt.trees": rec.counts.get("gbdt.trees", 0),
            "gbdt.fit_s": st.get("gbdt.fit", 0.0),
            "gbdt.fit_p50_ms": percentile(fit_ms, 50),
            "allocation.knapsack_calls": calls.get("allocation.knapsack", 0),
            "allocation.knapsack_s": st.get("allocation.knapsack", 0.0),
            "allocation.sharpe_weights_s": st.get("allocation.sharpe_weights", 0.0),
            "backtest.apply_s": st.get("backtest.apply", 0.0),
            "backtest.fills": len(state.fills) if state else 0,
            "backtest.rejected": sum(len(d.rejected) for d in state.days) if state else 0,
            "backtest.metrics_s": st.get("backtest.metrics", 0.0),
            "cli.metrics_s": st.get("cli.metrics", 0.0),
            "cli.serialize_s": st.get("cli.serialize", 0.0),
            "cli.write_s": st.get("cli.write", 0.0),
            "trace.spans": len(rec.start),
            "trace.probe_cost_us": (outside + inside) * 1e6,
        }
