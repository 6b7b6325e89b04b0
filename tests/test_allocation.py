from __future__ import annotations

import itertools
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradecontest.allocation import (
    CapitalWeights,
    KnapsackItem,
    knapsack_select,
    sharpe_weights,
)


def brute_force_best(items, budget):
    """True optimum total utility by subset enumeration."""
    best = 0.0
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            if sum(it.tokens for it in combo) <= budget:
                best = max(best, sum(it.utility for it in combo))
    return best


def uncapped_knapsack(items, budget):
    """The selection by the dynamic program over every capacity up to
    ``budget``: (agent ids, total tokens, total utility added left to right)."""
    cand = [it for it in items if it.utility > 0 and it.tokens <= budget]
    cand.sort(key=lambda it: (-(it.utility / it.tokens), it.agent_id))
    dp = np.zeros(budget + 1)
    keep = np.zeros((len(cand), budget + 1), dtype=bool)
    for i, it in enumerate(cand):
        shifted = np.concatenate([np.full(it.tokens, -np.inf), dp[: budget + 1 - it.tokens]])
        take = shifted + it.utility
        keep[i] = take > dp
        dp = np.where(keep[i], take, dp)
    chosen, w = [], budget
    for i in range(len(cand) - 1, -1, -1):
        if keep[i, w]:
            chosen.append(cand[i])
            w -= cand[i].tokens
    chosen.sort(key=lambda it: it.agent_id)
    utility = 0.0
    for it in chosen:
        utility += it.utility
    return tuple(it.agent_id for it in chosen), sum(it.tokens for it in chosen), utility


class TestKnapsack:
    def test_worked_example(self):
        items = [KnapsackItem("i1", 5.0, 10), KnapsackItem("i2", 4.0, 8),
                 KnapsackItem("i3", 3.0, 5)]
        portfolio = knapsack_select(items, 13)
        assert [a for a, _ in portfolio.selected] == ["i2", "i3"]
        assert portfolio.total_utility == pytest.approx(7.0)
        assert portfolio.total_tokens == 13

    def test_all_nonpositive_empty(self):
        items = [KnapsackItem("a", -1.0, 5), KnapsackItem("b", 0.0, 5)]
        portfolio = knapsack_select(items, 100)
        assert portfolio.selected == ()
        assert portfolio.total_utility == 0.0

    def test_oversized_item_excluded(self):
        portfolio = knapsack_select([KnapsackItem("a", 5.0, 50)], 10)
        assert portfolio.selected == ()

    def test_nonpositive_item_never_changes_selection(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            items = [KnapsackItem(f"a{i}", float(rng.uniform(-5, 5)),
                                  int(rng.integers(1, 30))) for i in range(n)]
            budget = int(rng.integers(0, 120))
            base = knapsack_select(items, budget)
            extended = items + [KnapsackItem("zz", float(-rng.uniform(0, 5)),
                                             int(rng.integers(1, 30)))]
            assert knapsack_select(extended, budget).selected == base.selected

    def test_budget_respected_always(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            items = [KnapsackItem(f"a{i}", float(rng.uniform(-5, 5)),
                                  int(rng.integers(1, 50))) for i in range(n)]
            budget = int(rng.integers(0, 200))
            portfolio = knapsack_select(items, budget)
            assert portfolio.total_tokens <= budget

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            items = [KnapsackItem(f"a{i}", float(rng.uniform(-5, 5)),
                                  int(rng.integers(1, 50))) for i in range(n)]
            budget = int(rng.integers(0, 200))
            portfolio = knapsack_select(items, budget)
            assert portfolio.total_utility == pytest.approx(
                brute_force_best(items, budget), abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([1e16, 3.0, 1.0, 1e-16, 0.0, -1.0])
                              | st.floats(-5, 5), st.integers(1, 30)), max_size=8),
           st.integers(0, 300))
    @example([(1e16, 3), (1.0, 2), (1.0, 1)], 200)  # adding 1.0 leaves 1e16 as it is
    def test_capped_capacity_matches_the_uncapped_program(self, pairs, budget):
        items = [KnapsackItem(f"a{i}", u, n) for i, (u, n) in enumerate(pairs)]
        portfolio = knapsack_select(items, budget)
        got = (tuple(a for a, _ in portfolio.selected), portfolio.total_tokens,
               portfolio.total_utility)
        assert got == uncapped_knapsack(items, budget)

    def test_budget_past_every_candidate_takes_them_all(self):
        items = [KnapsackItem("a", 2.0, 7), KnapsackItem("b", 1.0, 3),
                 KnapsackItem("c", -1.0, 4)]
        assert knapsack_select(items, 2**62) == knapsack_select(items, 10)

    def test_duplicate_ids_rejected(self):
        items = [KnapsackItem("a", 1.0, 1), KnapsackItem("a", 2.0, 1)]
        with pytest.raises(ValueError):
            knapsack_select(items, 10)

    def test_deterministic_tie_break_prefers_density(self):
        # equal utilities, same fit: the denser item wins
        items = [KnapsackItem("sparse", 4.0, 8), KnapsackItem("dense", 4.0, 4)]
        portfolio = knapsack_select(items, 8)
        assert [a for a, _ in portfolio.selected] == ["dense"]

    def test_tie_break_lexicographic_on_equal_density(self):
        items = [KnapsackItem("bbb", 4.0, 4), KnapsackItem("aaa", 4.0, 4)]
        portfolio = knapsack_select(items, 4)
        assert [a for a, _ in portfolio.selected] == ["aaa"]


class TestSharpeWeights:
    def test_worked_example(self):
        w = sharpe_weights({"a": 2.0, "b": -1.0, "c": 3.0})
        assert w.weights == pytest.approx({"a": 0.4, "b": 0.0, "c": 0.6})

    def test_symmetric(self):
        w = sharpe_weights({f"a{i}": 1.0 for i in range(4)})
        assert all(v == pytest.approx(0.25) for v in w.weights.values())

    def test_all_nonpositive_goes_to_cash(self):
        w = sharpe_weights({"a": -1.0, "b": -2.0})
        assert w.weights == {"a": 0.0, "b": 0.0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sharpe_weights({})

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text("abcdef", min_size=1, max_size=4),
                           st.floats(-10, 10), min_size=1, max_size=8),
           st.floats(0.1, 100.0))
    @example({"a": 5e-324}, 0.5)  # the scaled utility underflows to 0.0
    def test_properties(self, utilities, scale):
        w = sharpe_weights(utilities)
        values = list(w.weights.values())
        assert all(v >= 0 for v in values)
        total = sum(values)
        if any(u > 0 for u in utilities.values()):
            assert total == pytest.approx(1.0, abs=1e-9)
        else:
            assert total == 0.0
        scaled = sharpe_weights({a: u * scale for a, u in utilities.items()})
        # scaling keeps the weights only while every scaled positive utility
        # stays a normal float; below that it loses precision or becomes 0.0
        if all(u * scale >= sys.float_info.min for u in utilities.values() if u > 0):
            for agent in w.weights:
                assert scaled.weights[agent] == pytest.approx(w.weights[agent], abs=1e-9)
        elif not any(u * scale > 0 for u in utilities.values()):
            assert all(v == 0.0 for v in scaled.weights.values())

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            CapitalWeights(date=None, weights={"a": -0.1, "b": 1.1})
        with pytest.raises(ValueError):
            CapitalWeights(date=None, weights={"a": 0.4})
