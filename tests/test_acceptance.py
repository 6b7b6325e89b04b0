"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test registers a PASS/FAIL line that pytest prints in the terminal
summary (see conftest). Oracles here are independent of the code paths
they check: subset enumeration for the knapsack, double-loop scans for
drawdown, scipy ranking for rank correlation, and a from-scratch fill
replay for the exchange-rule audit.
"""

from __future__ import annotations

import datetime as dt
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
import yaml
from scipy import stats

from tradecontest.agents import (
    Observation,
    SyntheticDataAgent,
    SyntheticResearchAgent,
    TextualFactor,
)
from tradecontest.allocation import KnapsackItem, knapsack_select, sharpe_weights
from tradecontest.backtest import (
    LIMIT_EPS,
    BacktestRules,
    apply_day,
    compute_metrics,
    max_drawdown,
    new_state,
)
from tradecontest.cli import main
from tradecontest.engine import ContestConfig, contest_ic_pairs, run_full
from tradecontest.market import (
    Bar,
    PlantedEffect,
    SyntheticSpec,
    generate_synthetic,
    perturb_after,
)
from tradecontest.prediction import (
    ar1_score_panel,
    rank_ic,
    validate_momentum,
)
from tradecontest.scoring import factor_score

from conftest import record_criterion, store_of


@contextmanager
def criterion(name: str):
    ok = False
    detail: dict = {}
    try:
        yield detail
        ok = True
    finally:
        record_criterion(name, ok, detail.get("note", ""))


# --- 1. knapsack vs exhaustive enumeration ---------------------------------


def enumerated_optimum(utilities, lengths, budget):
    """All 2^n subset sums, each accumulated in item-index order so floats
    match a left-to-right sum over the same subset exactly."""
    sums = np.zeros(1)
    lens = np.zeros(1, dtype=np.int64)
    for u, l in zip(utilities, lengths):
        sums = np.concatenate([sums, sums + u])
        lens = np.concatenate([lens, lens + l])
    return float(np.max(sums[lens <= budget]))


def test_criterion_1_knapsack_oracle():
    with criterion("1. knapsack exact vs enumeration (200 instances)") as d:
        rng = np.random.default_rng(20250101)
        start = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(1, 16))
            utilities = rng.uniform(-5, 5, n)
            lengths = rng.integers(1, 51, n)
            budget = int(rng.integers(0, 201))
            items = [KnapsackItem(f"a{i:02d}", float(utilities[i]), int(lengths[i]))
                     for i in range(n)]
            portfolio = knapsack_select(items, budget)
            best = enumerated_optimum(utilities, lengths, budget)
            assert portfolio.total_utility == best
            assert portfolio.total_tokens <= budget
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        d["note"] = f"200/200 exact, {elapsed:.2f}s"


# --- 2. capital weight properties -------------------------------------------


def test_criterion_2_weight_properties():
    with criterion("2. capital weight properties (1000 vectors)") as d:
        rng = np.random.default_rng(20250102)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            utilities = {f"a{i}": float(rng.uniform(-10, 10)) for i in range(n)}
            w = sharpe_weights(utilities)
            values = np.array([w.weights[a] for a in sorted(utilities)])
            assert np.all(values >= 0)
            if any(u > 0 for u in utilities.values()):
                assert abs(values.sum() - 1.0) <= 1e-9
            else:
                assert values.sum() == 0.0
            scale = float(rng.uniform(1e-3, 1e3))
            w2 = sharpe_weights({a: u * scale for a, u in utilities.items()})
            for a in utilities:
                assert abs(w2.weights[a] - w.weights[a]) <= 1e-12
        d["note"] = "nonneg, sum, cash fallback, scale invariance"


# --- 3. ZI scoring fixtures and properties -----------------------------------


T0, T1 = dt.date(2025, 1, 2), dt.date(2025, 1, 3)


def _store(closes0, closes1):
    bars = []
    for day, closes in ((T0, closes0), (T1, closes1)):
        for sym, c in closes.items():
            bars.append(Bar(date=day, symbol=sym, open=c, high=c * 1.01,
                            low=c * 0.99, close=c, volume=1))
    return store_of(bars)


# (closes at t, closes at t+1, observation rating sets, expected score)
ZI_FIXTURES = [
    ({"A": 10.0}, {"A": 10.3}, [[("A", 2)]], 0.06),
    ({"A": 10.0}, {"A": 12.0}, [[("A", 0)]], 0.0),
    ({"A": 100.0, "B": 100.0}, {"A": 102.0, "B": 101.0},
     [[("A", 1), ("B", -2)]], 0.0),
    ({"A": 10.0}, {"A": 10.5}, [], 0.0),
    ({"A": 10.0, "B": 100.0}, {"A": 10.3, "B": 101.0},
     [[("A", 2)], [("A", 0)], [("A", 1), ("B", -2)]], 0.06 + 0.0 + 0.01),
    ({"A": 10.0}, {"A": 9.5}, [[("A", -1)]], 0.05),
    ({"A": 10.0}, {"A": 10.3}, [[("A", 2), ("A", -2)]], 0.0),
    ({"A": 100.0, "B": 100.0}, {"A": 102.0, "B": 105.0},
     [[("A", 1), ("B", 1)]], 0.07),
    ({"A": 50.0}, {"A": 50.0}, [[("A", 2)]], 0.0),
    ({"A": 10.0}, {"A": 11.0}, [[("A", -2)]], -0.2),
    ({"A": 100.0}, {"A": 104.0}, [[("A", 1)], [("A", 1)], [("A", 1)]], 0.12),
    ({"A": 10.0, "B": 100.0}, {"A": 10.5, "B": 98.0},
     [[("A", 2)], [("B", -1)]], 0.10 + 0.02),
    ({"A": 10.0}, {"A": 5.0}, [[("A", -2)]], 1.0),
    ({"A": 10.0}, {"A": 20.0}, [[("A", 2)]], 2.0),
    ({"A": 1000.0}, {"A": 1001.0}, [[("A", 1)]], 0.001),
    ({"A": 10.0}, {"A": 10.9}, [], 0.0),
    ({"A": 10.0}, {"A": 10.9}, [[]], 0.0),
    ({s: 100.0 for s in "ABCDE"},
     {"A": 101.0, "B": 102.0, "C": 103.0, "D": 104.0, "E": 105.0},
     [[("A", 1), ("B", 1), ("C", 1), ("D", 1), ("E", 1)]], 0.15),
    ({s: 100.0 for s in "ABCDE"}, {s: 102.0 for s in "ABCDE"},
     [[("A", -2), ("B", -1), ("C", 0), ("D", 1), ("E", 2)]], 0.0),
    ({"A": 10.0, "B": 10.0}, {"A": 5.0, "B": 20.0},
     [[("A", -2)], [("B", 2)]], 3.0),
]


def test_criterion_3_zi_oracle():
    with criterion("3. ZI scoring fixtures + linearity/sign symmetry") as d:
        assert len(ZI_FIXTURES) == 20
        for closes0, closes1, obs_sets, expected in ZI_FIXTURES:
            store = _store(closes0, closes1)
            observations = tuple(
                Observation(text="o", rated_symbols=tuple(rs)) for rs in obs_sets)
            factor = TextualFactor(agent_id="a", date=T0, observations=observations,
                                   token_length=len(observations))
            assert factor_score(factor, store) == pytest.approx(expected, abs=1e-12)

        rng = np.random.default_rng(20250103)
        symbols = ["A", "B", "C", "D"]
        for _ in range(500):
            closes0 = {s: float(rng.uniform(1, 100)) for s in symbols}
            closes1 = {s: closes0[s] * float(1 + rng.uniform(-0.1, 0.1))
                       for s in symbols}
            store = _store(closes0, closes1)

            def random_obs(k):
                return tuple(
                    Observation(text="o", rated_symbols=tuple(
                        (symbols[int(rng.integers(4))], int(rng.integers(-2, 3)))
                        for _ in range(int(rng.integers(0, 4)))))
                    for _ in range(k)
                )

            obs_a = random_obs(int(rng.integers(0, 4)))
            obs_b = random_obs(int(rng.integers(0, 4)))
            fa = TextualFactor(agent_id="a", date=T0, observations=obs_a,
                               token_length=len(obs_a))
            fb = TextualFactor(agent_id="a", date=T0, observations=obs_b,
                               token_length=len(obs_b))
            fab = TextualFactor(agent_id="a", date=T0, observations=obs_a + obs_b,
                                token_length=len(obs_a) + len(obs_b))
            assert factor_score(fab, store) == pytest.approx(
                factor_score(fa, store) + factor_score(fb, store), abs=1e-12)
            neg = TextualFactor(
                agent_id="a", date=T0, token_length=len(obs_a),
                observations=tuple(
                    Observation(text=o.text, rated_symbols=tuple(
                        (s, -r) for s, r in o.rated_symbols))
                    for o in obs_a
                ))
            assert factor_score(neg, store) == -factor_score(fa, store)
        d["note"] = "20 fixtures at 1e-12, 500 random factors"


# --- 4. metrics against independent oracles ---------------------------------


def test_criterion_4_metrics_oracle():
    with criterion("4. metrics vs brute-force oracles (100 paths)") as d:
        rng = np.random.default_rng(20250104)
        for _ in range(100):
            returns = rng.uniform(-0.05, 0.05, 249)
            navs = 100.0 * np.cumprod(np.concatenate([[1.0], 1 + returns]))
            assert navs.size == 250

            mdd = max_drawdown(navs)
            slow = 0.0
            for i in range(navs.size):
                for j in range(i, navs.size):
                    slow = max(slow, (navs[i] - navs[j]) / navs[i])
            assert mdd == slow

            report = compute_metrics([(T0, v) for v in navs])
            compounded = float(np.prod(1 + navs[1:] / navs[:-1] - 1.0)) - 1.0
            assert report.cumulative_return == pytest.approx(compounded, abs=1e-12)

        for _ in range(200):
            n = int(rng.integers(3, 40))
            xs = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
            ys = np.round(rng.normal(size=n), 1)
            if np.all(xs == xs[0]) or np.all(ys == ys[0]):
                continue
            oracle = float(np.corrcoef(stats.rankdata(xs), stats.rankdata(ys))[0, 1])
            assert rank_ic(xs, ys) == pytest.approx(oracle, abs=1e-12)
        d["note"] = "MDD exact, CR and rank IC at 1e-12 incl. ties"


# --- 5. score momentum: short windows beat long ------------------------------


def test_criterion_5_momentum_validation():
    with criterion("5. AR(1) momentum: RIC(5,3) > RIC(60,30)") as d:
        wins = 0
        for seed in range(50):
            panel = ar1_score_panel(16, 300, 0.6, seed=seed)
            report = validate_momentum(panel, 5, 3, 60, 30)
            wins += report.ric_short > report.ric_long
        assert wins >= 45
        d["note"] = f"{wins}/50 seeds"


# --- 6. planted-skill data contest -------------------------------------------


def test_criterion_6_data_contest_finds_skill():
    with criterion("6. data contest selects planted skill") as d:
        store = generate_synthetic(SyntheticSpec(
            n_symbols=10, n_days=250, daily_vol=0.01,
            planted=(PlantedEffect("SYM000", 0.012),
                     PlantedEffect("SYM001", -0.012),
                     PlantedEffect("SYM002", 0.015, start_day=120)),
        ), 606)
        data = [SyntheticDataAgent(
            agent_id=f"d{i:02d}", noise_seed=1000 + i,
            skill=0.8 if i < 4 else 0.0, obs_per_day=3) for i in range(16)]
        research = [SyntheticResearchAgent(
            agent_id=f"r{i}", noise_seed=2000 + i, belief="momentum") for i in range(2)]
        config = ContestConfig(predictor="gbdt",
                               seed=42, budget=300)
        records = list(run_full(config, store, data, research))

        skilled = {f"d{i:02d}" for i in range(4)}
        rebalances = [r for r in records if r.data_rebalance and r.portfolio]
        hits = sum(bool(skilled & {a for a, _ in r.portfolio.selected}) for r in rebalances)
        assert hits / len(rebalances) >= 0.80

        pred, real = contest_ic_pairs([r.to_dict() for r in records],
                                      config.n_data, "data")
        ics = np.array([rank_ic(p, q) for p, q in zip(pred, real)])
        t_stat = ics.mean() / (ics.std(ddof=1) / np.sqrt(ics.size))
        assert ics.mean() > 0
        assert t_stat > 2
        d["note"] = (f"skilled in {hits}/{len(rebalances)} rebalances, "
                     f"IC {ics.mean():.3f}, t={t_stat:.1f}")


# --- 7. planted-skill researcher contest -------------------------------------


def test_criterion_7_researcher_contest_weights_skill():
    with criterion("7. researcher contest rewards the skilled agent") as d:
        store = generate_synthetic(SyntheticSpec(
            n_symbols=8, n_days=200, daily_vol=0.008,
            planted=(PlantedEffect("SYM000", 0.01),),
        ), 707)
        data = [SyntheticDataAgent(
            agent_id=f"d{i}", noise_seed=3000 + i, skill=1.0,
            obs_per_day=2) for i in range(4)]
        research = [SyntheticResearchAgent(
            agent_id="rskill", noise_seed=4000, belief="momentum")]
        research += [SyntheticResearchAgent(
            agent_id=f"rnoise{i}", noise_seed=4100 + i,
            belief="random") for i in range(3)]

        def run_cr(**overrides):
            config = ContestConfig(predictor="gbdt",
                                   seed=77, **overrides)
            records = list(run_full(config, store, data, research))
            state = new_state(1_000_000.0)
            for rec in records:
                apply_day(state, rec.target_weights, store.closes(rec.date), rec.date)
            navs = [(day.date, day.nav_post) for day in state.days]
            return records, compute_metrics(navs).cumulative_return

        records, cr_full = run_cr()
        weights = [r.weights.weights.get("rskill", 0.0)
                   for r in records if r.weights is not None]
        mean_weight = float(np.mean(weights)) if weights else 0.0
        assert mean_weight > 0.25

        _, cr_ablated = run_cr(no_research_contest=True)
        assert cr_full > cr_ablated
        d["note"] = (f"mean weight {mean_weight:.2f} > 0.25, "
                     f"CR {cr_full:+.1%} > ablated {cr_ablated:+.1%}")


# --- 8. exchange-rule audit over random order streams -------------------------


def test_criterion_8_backtest_rule_compliance():
    with criterion("8. 10,000-step exchange-rule audit") as d:
        rules = BacktestRules()
        steps = 0
        recon_worst = 0.0
        for seed in range(40):
            store = generate_synthetic(SyntheticSpec(
                n_symbols=8, n_days=250, daily_vol=0.09,
                limit_pct=0.10), 9000 + seed)
            rng = np.random.default_rng(seed)
            state = new_state(1_000_000.0)
            oracle_settled = {s: 0.0 for s in store.symbols}
            oracle_pending = {s: 0.0 for s in store.symbols}
            fills_seen = 0
            prev_closes = {}
            for t in store.calendar:
                steps += 1
                closes = store.closes(t)
                # rapid flips between all-in and all-out to attack T+1
                style = int(rng.integers(3))
                if style == 0:
                    targets = {}
                elif style == 1:
                    sym = store.symbols[int(rng.integers(len(store.symbols)))]
                    targets = {sym: float(rng.uniform(0.5, 1.0))}
                else:
                    raw = rng.uniform(0, 1, 4)
                    picks = [store.symbols[int(i)] for i in
                             rng.choice(len(store.symbols), 4, replace=False)]
                    scalesum = raw.sum() / float(rng.uniform(0.3, 1.0))
                    targets = {s: float(v / scalesum) for s, v in zip(picks, raw)}
                apply_day(state, targets, closes, t, rules)

                # settle the oracle book: buys from earlier days become sellable
                for s in store.symbols:
                    oracle_settled[s] += oracle_pending[s]
                    oracle_pending[s] = 0.0
                for fill in state.fills[fills_seen:]:
                    move = None
                    if fill.symbol in prev_closes:
                        move = closes[fill.symbol] / prev_closes[fill.symbol] - 1.0
                    if fill.side == "buy":
                        assert move is None or move < rules.limit_pct - LIMIT_EPS
                        oracle_pending[fill.symbol] += fill.shares
                    else:
                        assert move is None or move > -(rules.limit_pct - LIMIT_EPS)
                        assert fill.shares <= oracle_settled[fill.symbol] + 1e-9
                        oracle_settled[fill.symbol] -= fill.shares
                fills_seen = len(state.fills)

                assert all(v >= 0 for v in state.settled.values())
                assert all(sum(lots.values()) >= 0 for lots in state.unsettled.values())
                assert state.cash >= -1e-9
                ledger = state.days[-1]
                err = abs(ledger.nav_post - (ledger.nav_pre - ledger.costs))
                recon_worst = max(recon_worst, err / max(ledger.nav_post, 1.0))
                assert err <= 1e-9 * max(ledger.nav_post, 1.0)
                prev_closes = closes
        assert steps == 10_000
        d["note"] = f"{steps} steps clean, worst recon {recon_worst:.1e}"


# --- 9. end-to-end determinism and runtime -----------------------------------


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion("9. byte-identical reruns, < 60 s full run") as d:
        config = {
            "seed": 11,
            "output_dir": str(tmp_path / "out"),
            "data": {
                "kind": "synthetic", "n_symbols": 12, "n_days": 250,
                "daily_vol": 0.015,
                "planted": [
                    {"symbol": "SYM000", "start_day": 0, "drift": 0.008},
                    {"symbol": "SYM001", "start_day": 0, "drift": -0.008},
                    {"symbol": "SYM002", "start_day": 100, "drift": 0.01},
                ],
            },
        }
        cfg_path = tmp_path / "full.yaml"
        cfg_path.write_text(yaml.safe_dump(config))

        start = time.perf_counter()
        assert main(["backtest", str(cfg_path)]) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0

        out = tmp_path / "out"
        metrics_1 = (out / "metrics.json").read_bytes()
        ledger_1 = (out / "ledger.jsonl").read_bytes()
        assert main(["backtest", str(cfg_path)]) == 0
        assert (out / "metrics.json").read_bytes() == metrics_1
        assert (out / "ledger.jsonl").read_bytes() == ledger_1
        metrics = json.loads(metrics_1)
        d["note"] = (f"16+8 agents, 250 days in {elapsed:.1f}s, "
                     f"CR {metrics['CR']:+.1%}")


# --- 10. temporal safety under future perturbation ----------------------------


def test_criterion_10_temporal_safety_fuzz():
    with criterion("10. future perturbations never change the past") as d:
        data = [SyntheticDataAgent(
            agent_id=f"d{i}", noise_seed=500 + i,
            skill=0.6 if i < 2 else 0.0, obs_per_day=2) for i in range(5)]
        research = [
            SyntheticResearchAgent(agent_id="r0", noise_seed=600, belief="momentum"),
            SyntheticResearchAgent(agent_id="r1", noise_seed=601, belief="random"),
        ]
        configs = [
            (ContestConfig(predictor="baseline", seed=3), 45),
            (ContestConfig(predictor="gbdt", seed=3), 5),
        ]
        rng = np.random.default_rng(20250110)
        trials = 0
        for config, n_trials in configs:
            store = generate_synthetic(SyntheticSpec(
                n_symbols=6, n_days=70, daily_vol=0.01,
                planted=(PlantedEffect("SYM000", 0.012),)), 88)
            base = list(run_full(config, store, data, research))
            base_json = [json.dumps(r.to_dict(), sort_keys=True) for r in base]
            for _ in range(n_trials):
                trials += 1
                cut_idx = int(rng.integers(0, len(base) - 2))
                cutoff = base[cut_idx].date
                perturbed_store = perturb_after(store, cutoff,
                                                seed=int(rng.integers(2**31)))
                perturbed = list(run_full(config, perturbed_store, data, research))
                for k, record in enumerate(perturbed):
                    if record.date > cutoff:
                        break
                    assert json.dumps(record.to_dict(), sort_keys=True) == base_json[k]
        assert trials == 50
        d["note"] = "50 perturbation trials, all prefixes identical"
