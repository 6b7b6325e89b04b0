from __future__ import annotations

import json

import numpy as np
import pytest

from tradecontest.agents import (
    SyntheticAgentSpec,
    SyntheticDataAgent,
    SyntheticResearchAgent,
)
from tradecontest import engine as eng
from tradecontest.engine import (
    ContestConfig,
    ContestEngine,
    _TrainingRows,
    contest_ic_pairs,
    run_full,
)
from tradecontest.errors import AgentUnavailableError, ConfigurationError
from tradecontest.market import (
    PlantedEffect,
    SyntheticSpec,
    generate_synthetic,
    perturb_after,
)
from tradecontest.prediction import PredictorModel, PredictorSpec, features_from_window


def data_agent(agent_id, skill=0.0, seed=None, obs=2):
    return SyntheticDataAgent(SyntheticAgentSpec(
        agent_id=agent_id, kind="data",
        noise_seed=seed if seed is not None else hash(agent_id) % 10_000,
        skill=skill, obs_per_day=obs))


def research_agent(agent_id, belief="momentum", seed=None):
    return SyntheticResearchAgent(SyntheticAgentSpec(
        agent_id=agent_id, kind="research",
        noise_seed=seed if seed is not None else hash(agent_id) % 10_000,
        belief_bias=belief))


def ledger_line(record) -> str:
    return json.dumps(record.to_dict(), sort_keys=True)


def small_market(seed=33, n_days=70):
    return generate_synthetic(SyntheticSpec(
        n_symbols=6, n_days=n_days, seed=seed, daily_vol=0.01,
        planted_effects=(PlantedEffect("SYM000", 0.012),),
    ))


def small_rosters():
    data = [data_agent(f"d{i}", skill=0.8 if i < 2 else 0.0, seed=100 + i)
            for i in range(5)]
    research = [research_agent("r0", "momentum", 200),
                research_agent("r1", "reversal", 201),
                research_agent("r2", "random", 202)]
    return data, research


BASELINE = ContestConfig(predictor=PredictorSpec(kind="baseline"), seed=9)


class TestRunFull:
    def test_deterministic_ledger(self):
        store = small_market()
        data, research = small_rosters()
        a = list(run_full(BASELINE, store, data, research))
        b = list(run_full(BASELINE, store, data, research))
        assert [ledger_line(r) for r in a] == [ledger_line(r) for r in b]

    def test_zero_research_agents_rejected(self):
        store = small_market()
        data, _ = small_rosters()
        with pytest.raises(ConfigurationError):
            run_full(BASELINE, store, data, [])

    def test_short_warmup_names_required_length(self):
        store = small_market()
        data, research = small_rosters()
        early = store.calendar[3]
        with pytest.raises(ConfigurationError, match=str(BASELINE.warmup_days)):
            run_full(BASELINE, store, data, research, eval_start=early)

    def test_duplicate_agent_ids_rejected(self):
        store = small_market()
        data, research = small_rosters()
        with pytest.raises(ConfigurationError):
            run_full(BASELINE, store, data + [data_agent("r0")], research)

    def test_rebalance_cadence(self):
        store = small_market()
        data, research = small_rosters()
        records = list(run_full(BASELINE, store, data, research))
        reb_days = [i for i, r in enumerate(records) if r.data_rebalance]
        assert reb_days[0] == 0
        assert all(b - a == BASELINE.n_data for a, b in zip(reb_days, reb_days[1:]))
        # portfolio identity frozen between rebalances
        for i, record in enumerate(records[1:], start=1):
            if not record.data_rebalance:
                prev = records[i - 1]
                assert record.to_dict()["portfolio"] == prev.to_dict()["portfolio"]

    def test_portfolio_written_once_then_referenced(self):
        store = small_market()
        data, research = small_rosters()
        records = list(run_full(BASELINE, store, data, research))
        prev_date = None
        refs = 0
        for record in records:
            full = record.to_dict()
            line = record.to_dict(prev_date)
            assert {k: v for k, v in line.items() if k != "portfolio"} == \
                {k: v for k, v in full.items() if k != "portfolio"}
            if record.data_rebalance or prev_date is None:
                assert line["portfolio"] == full["portfolio"]
            else:
                assert line["portfolio"] == {"date": prev_date.isoformat()}
                refs += 1
            prev_date = record.portfolio.date
        assert refs == sum(1 for r in records[1:] if not r.data_rebalance)
        # a portfolio of another date is written in full
        assert records[1].to_dict(records[0].date.replace(year=1999)) == records[1].to_dict()

    def test_research_cadence_and_daily_override(self):
        store = small_market()
        data, research = small_rosters()
        records = list(run_full(BASELINE, store, data, research))
        reb = [i for i, r in enumerate(records) if r.research_rebalance]
        assert all(b - a == BASELINE.n_research for a, b in zip(reb, reb[1:]))
        daily_cfg = ContestConfig(predictor=PredictorSpec(kind="baseline"),
                                  seed=9, research_rebalance_daily=True)
        daily = list(run_full(daily_cfg, store, data, research))
        assert all(r.research_rebalance for r in daily)

    def test_scores_resolve_with_one_day_lag(self):
        store = small_market()
        data, research = small_rosters()
        records = list(run_full(BASELINE, store, data, research))
        # the scores reported on record k belong to factors from the prior
        # trading day, so every scored agent must have had a factor then
        cal = store.calendar
        idx = {d: i for i, d in enumerate(cal)}
        for record in records:
            i = idx[record.date]
            assert i > 0

    def test_absent_agent_gets_no_weight_or_membership(self):
        store = small_market()
        data, research = small_rosters()

        class SilentAgent:
            agent_id = "zz_silent"

            def produce(self, view, t):
                from tradecontest.errors import AgentUnavailableError
                raise AgentUnavailableError("always down")

        class SilentResearch:
            agent_id = "zz_res"

            def produce(self, portfolio, view, t):
                from tradecontest.errors import AgentUnavailableError
                raise AgentUnavailableError("always down")

        records = list(run_full(BASELINE, store, data + [SilentAgent()],
                                research + [SilentResearch()]))
        for record in records:
            assert "zz_silent" in record.absent
            if record.portfolio is not None:
                assert "zz_silent" not in {a for a, _ in record.portfolio.selected}
            if record.weights is not None:
                assert record.weights.weights.get("zz_res", 0.0) == 0.0
            assert "zz_silent" not in record.factor_scores


class TestAblations:
    def test_no_data_contest_respects_budget_and_changes_selection(self):
        store = small_market()
        data, research = small_rosters()
        cfg = ContestConfig(predictor=PredictorSpec(kind="baseline"), seed=9,
                            no_data_contest=True, budget=120)
        records = list(run_full(cfg, store, data, research))
        assert all(
            r.portfolio.total_tokens <= 120
            for r in records if r.portfolio is not None
        )
        assert all(r.data_utilities == {} for r in records)

    def test_no_research_contest_single_agent_weight(self):
        store = small_market()
        data, research = small_rosters()
        cfg = ContestConfig(predictor=PredictorSpec(kind="baseline"), seed=9,
                            no_research_contest=True)
        records = list(run_full(cfg, store, data, research))
        for record in records:
            if record.weights is not None:
                values = sorted(record.weights.weights.values())
                assert values[-1] == 1.0
                assert sum(values) == 1.0

    def test_no_judger_drops_judger_components(self):
        store = small_market()
        data, research = small_rosters()
        cfg = ContestConfig(predictor=PredictorSpec(kind="baseline"), seed=9,
                            no_judger=True)
        records = list(run_full(cfg, store, data, research))
        for record in records:
            for entry in record.researcher_scores.values():
                assert "soundness" not in entry and "quality" not in entry

    def test_no_deep_inputs_still_produces_signals(self):
        store = small_market()
        data, research = small_rosters()
        cfg = ContestConfig(predictor=PredictorSpec(kind="baseline"), seed=9,
                            no_deep_inputs=True)
        records = list(run_full(cfg, store, data, research))
        assert any(s.action == "buy" for r in records for s in r.signals)


class TestTemporalSafety:
    def test_future_perturbation_never_changes_past_records(self):
        store = small_market(seed=77)
        data, research = small_rosters()
        base = list(run_full(BASELINE, store, data, research))
        cut_idx = 20
        cutoff = base[cut_idx].date
        perturbed_store = perturb_after(store, cutoff, seed=123)
        perturbed = list(run_full(BASELINE, perturbed_store, data, research))
        for a, b in zip(base, perturbed):
            if a.date > cutoff:
                break
            assert ledger_line(a) == ledger_line(b)


class TestSkippedDay:
    def test_a_skipped_day_resolves_nothing_stale(self):
        store = small_market()
        data, research = small_rosters()
        engine = ContestEngine(BASELINE, store, data, research)
        cal = store.calendar

        def run(i):
            record = engine.run_contest_day(i, cal[i], BASELINE.warmup_days)
            # only day i's outputs wait for a close; day 9's are dropped at the gap
            assert list(engine.data.pending) == [cal[i]] == list(engine.research.pending)
            return record

        for i in range(10):
            run(i)
        # day 10 is skipped: day 9's outputs are never scored, against any close
        after_gap = run(11)
        assert after_gap.factor_scores == {} and after_gap.researcher_scores == {}
        assert {len(v) for v in engine.data.scores.values()} == {9}
        resumed = run(12)
        assert set(resumed.factor_scores) == {a.agent_id for a in data}
        assert {len(v) for v in engine.data.scores.values()} == {10}
        for i in range(13, 20):
            run(i)
        assert {len(v) for v in engine.data.scores.values()} == {17}


class TestIcPairs:
    def test_pairs_align_predictions_and_forward_scores(self):
        store = small_market()
        data, research = small_rosters()
        records = [r.to_dict() for r in run_full(BASELINE, store, data, research)]
        pred, real = contest_ic_pairs(records, BASELINE.n_data, "data")
        assert len(pred) == len(real) > 0
        assert all(len(p) == len(r) >= 2 for p, r in zip(pred, real))

    def test_gbdt_kicks_in_with_enough_history(self):
        store = small_market(n_days=90)
        data, research = small_rosters()
        cfg = ContestConfig(predictor=PredictorSpec(kind="gbdt"), seed=9)
        records = list(run_full(cfg, store, data, research))
        kinds = {r.model_kinds.get("data") for r in records if r.data_rebalance}
        assert "gbdt" in kinds


# -- training rows: the engine's incremental state against a full rebuild -----


def reference_rows(series_map, judger_history, m, n, cap):
    """Stacked training rows and targets rebuilt from whole score histories.

    Every row of every agent is recomputed from scratch: features of each
    anchor's own window, forward means and stds from a sliding window, and
    judger means from a scan of the judger history up to each anchor's date.
    """
    X, Y = [], []
    for agent_id in sorted(series_map):
        dates, scores = series_map[agent_id]
        values = np.array(scores, dtype=np.float64)
        L = len(values)
        if L < m + n:
            continue
        F = np.lib.stride_tricks.sliding_window_view(values, n)
        fut_mu, fut_sigma = F.mean(axis=1), F.std(axis=1)
        anchors = list(range(m - 1, L - n))
        if cap is not None:
            anchors = anchors[-cap:]
        for i in anchors:
            x = np.array(features_from_window(scores[i - m + 1: i + 1]))
            if judger_history is not None:
                hist = [v for d, v in judger_history[agent_id] if d <= dates[i]][-m:]
                extra = (sum(v[0] for v in hist) / len(hist), sum(v[1] for v in hist) / len(hist))
                x = np.concatenate([x, np.asarray(extra, dtype=np.float64)])
            X.append(x)
            Y.append((float(fut_mu[i + 1]), float(fut_sigma[i + 1])))
    if not X:
        return np.empty((0, 0)), np.empty((0, 2))
    return np.vstack(X), np.array(Y)


def score_histories(calendar, records, side):
    """Each agent's (dates, scores) lists of one side, and each research
    agent's (date, (soundness, quality)) per judged signal, as the day
    records give them: record k holds the scores of calendar day k-1."""
    series, judged = {}, {}
    for k, record in enumerate(records[1:], start=1):
        day = calendar[k - 1]
        if side == "data":
            for agent_id, q in record.factor_scores.items():
                dates, scores = series.setdefault(agent_id, ([], []))
                dates.append(day)
                scores.append(q)
            continue
        for agent_id, entry in record.researcher_scores.items():
            if "sharpe" in entry:
                dates, scores = series.setdefault(agent_id, ([], []))
                dates.append(day)
                scores.append(entry["sharpe"])
            if "soundness" in entry:
                judged.setdefault(agent_id, []).append(
                    (day, (entry["soundness"], entry["quality"])))
    return series, judged


class Flaky:
    """Wraps an agent and leaves it absent on every third calendar day."""

    def __init__(self, agent):
        self.agent = agent
        self.agent_id = agent.agent_id

    def produce(self, *args):
        if args[-1].toordinal() % 3 == 0:
            raise AgentUnavailableError("down today")
        return self.agent.produce(*args)


def run_checking_rows(monkeypatch, config, store, data, research):
    """Run every calendar day, then assert that the rows the engine handed
    to ``train`` at each rebalance equal the reference rebuild from the day
    records up to that day. Returns the side ("data" or "research") of each
    checked fit."""
    engine = ContestEngine(config, store, data, research)
    passed, fits = [], []
    real_train, real_fit = eng.train, eng._fit_or_baseline

    def train(spec, X, targets):
        passed.append((X, targets))
        return real_train(spec, X, targets)

    def fit(cfg, rows):
        passed.clear()
        model = real_fit(cfg, rows)
        side = "data" if rows is engine.data.rows else "research"
        fits.append((len(records), side, list(passed)))
        return model

    monkeypatch.setattr(eng, "train", train)
    monkeypatch.setattr(eng, "_fit_or_baseline", fit)
    records = []
    for i, t in enumerate(store.calendar):
        records.append(engine.run_contest_day(i, t, config.warmup_days))

    checked = []
    for k, side, passed_k in fits:
        # a fit on day k reads the scores resolved that day, which record k holds
        series, judged = score_histories(store.calendar, records[:k + 1], side)
        n = config.n_data if side == "data" else config.n_research
        judged = None if side == "data" or config.no_judger else judged
        X, Y = reference_rows(series, judged, config.m, n, config.train_window_days)
        if len(X) < 30:
            assert passed_k == []
            continue
        [(X_engine, targets)] = passed_k
        assert np.array_equal(X_engine, X)
        assert np.array_equal(np.array(targets), Y)
        checked.append(side)
    return checked


class TestTrainingRows:
    @pytest.mark.parametrize("cap, no_judger", [(None, False), (12, False), (12, True)])
    def test_rows_equal_full_rebuild_at_every_fit(self, monkeypatch, cap, no_judger):
        store = small_market(n_days=80)
        data, research = small_rosters()
        data[0] = Flaky(data[0])
        research[1] = Flaky(research[1])
        cfg = ContestConfig(predictor=PredictorSpec(kind="gbdt", n_trees=5), seed=9,
                            train_window_days=cap, no_judger=no_judger)
        checked = run_checking_rows(monkeypatch, cfg, store, data, research)
        assert checked.count("data") >= 10 and checked.count("research") >= 5

    def test_baseline_builds_no_rows(self, monkeypatch):
        def no_rows(self, values, extra):
            raise AssertionError("a training row was built under the baseline predictor")

        monkeypatch.setattr(_TrainingRows, "add", no_rows)
        store = small_market()
        data, research = small_rosters()
        engine = ContestEngine(BASELINE, store, data, research)
        for i, t in enumerate(store.calendar):
            engine.run_contest_day(i, t, BASELINE.warmup_days)
        assert engine.data.rows == {} and engine.research.rows == {}


class TestOneFeatureFunction:
    """Training rows and served features come from one function, so an
    anchor's features have the same bits wherever they are computed."""

    @pytest.mark.parametrize("m", [2, 5, 8, 13])
    def test_anchor_features_equal_alone_and_inside_a_run(self, monkeypatch, m):
        served, batches = {}, []
        real_utilities, real_predict = eng._Contest.utilities, PredictorModel.predict_batch

        def predict_batch(model, X):
            batches.append(X)
            return real_predict(model, X)

        def utilities(contest, config, extras):
            # the served rows are those of the agents with m scores, in id
            # order, each anchored on its newest score
            anchors = [(a, len(v) - 1) for a, v in sorted(contest.scores.items())
                       if len(v) >= config.m]
            batches.clear()
            out = real_utilities(contest, config, extras)
            for key, row in zip(anchors, batches[0] if anchors else ()):
                served[key] = tuple(row[:4])
            return out

        monkeypatch.setattr(PredictorModel, "predict_batch", predict_batch)
        monkeypatch.setattr(eng._Contest, "utilities", utilities)
        store = small_market(n_days=80)
        data, research = small_rosters()
        cfg = ContestConfig(m=m, predictor=PredictorSpec(kind="gbdt", n_trees=2), seed=9)
        engine = ContestEngine(cfg, store, data, research)
        for i, t in enumerate(store.calendar):
            engine.run_contest_day(i, t, cfg.warmup_days)

        trained_and_served = 0
        for contest in (engine.data, engine.research):
            for agent_id, r in contest.rows.items():
                X = np.array(r.features).reshape(len(r.targets) // 2, -1)
                values = contest.scores[agent_id]
                for row, i in zip(X, range(m - 1, len(values))):
                    alone = features_from_window(values[i - m + 1: i + 1])
                    assert tuple(row[:4]) == alone
                    if (agent_id, i) in served:
                        assert served[agent_id, i] == alone
                        trained_and_served += 1
        assert trained_and_served >= 10

    def test_training_row_equals_feature_function_on_random_windows(self):
        rng = np.random.default_rng(5)
        m, n = 5, 3
        for _ in range(200):
            values = []
            rows = _TrainingRows(m, n)
            for v in rng.standard_normal(30):
                values.append(float(v))
                rows.add(values, None)
            X = np.array(rows.features).reshape(-1, 4)
            assert len(X) == len(values) - n - (m - 1)
            for row, i in zip(X, range(m - 1, len(values))):
                assert tuple(row) == features_from_window(values[i - m + 1: i + 1])
