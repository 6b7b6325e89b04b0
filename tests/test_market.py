from __future__ import annotations

import csv
import datetime as dt
import json
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tradecontest import market as market_mod
from tradecontest.errors import (
    CsvFormatError,
    DuplicateBarError,
    MissingDataError,
    TemporalViolationError,
)
from tradecontest.market import (
    Bar,
    PlantedEffect,
    SyntheticSpec,
    business_days,
    generate_synthetic,
    ingest_csv,
    perturb_after,
    price_change,
    view_until,
    write_csv,
)

from conftest import bar_map, store_of

D = dt.date


def _bar(date, symbol="AAA", close=10.0):
    return Bar(date=date, symbol=symbol, open=close, high=close * 1.01,
               low=close * 0.99, close=close, volume=1000)


class TestBar:
    def test_rejects_low_above_high(self):
        with pytest.raises(ValueError):
            Bar(date=D(2025, 1, 2), symbol="AAA", open=10, high=9, low=11,
                close=10, volume=1)

    def test_rejects_nonpositive_close(self):
        with pytest.raises(ValueError):
            Bar(date=D(2025, 1, 2), symbol="AAA", open=1, high=1, low=0.5,
                close=-1, volume=1)

    def test_rejects_negative_volume(self):
        with pytest.raises(ValueError):
            Bar(date=D(2025, 1, 2), symbol="AAA", open=1, high=1, low=1,
                close=1, volume=-5)


class TestIngestCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text(
            "date,symbol,open,high,low,close,volume\n"
            "2025-01-02,AAA,10,10.5,9.5,10.2,100\n"
            "2025-01-03,AAA,10.2,10.8,10.0,10.4,120\n"
        )
        store = ingest_csv(path)
        assert len(list(store.iter_bars())) == 2
        assert store.calendar == (D(2025, 1, 2), D(2025, 1, 3))

    def test_low_above_high_names_line(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text(
            "date,symbol,open,high,low,close,volume\n"
            "2025-01-02,AAA,10,9.0,11.0,10,100\n"
        )
        with pytest.raises(CsvFormatError, match="line 2"):
            ingest_csv(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text(
            "date,symbol,open,high,low,close,volume\n"
            "2025-01-02,AAA,10,10.5,9.5,10.2,100\n"
            "2025-01-02,AAA,10,10.5,9.5,10.3,100\n"
        )
        with pytest.raises(DuplicateBarError, match="AAA"):
            ingest_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(CsvFormatError, match="header"):
            ingest_csv(path)

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text(
            "date,symbol,open,high,low,close,volume\n2025-01-02,AAA,10\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            ingest_csv(path)

    def test_round_trip(self, tmp_path, tiny_store):
        path = tmp_path / "out.csv"
        write_csv(tiny_store, path)
        again = ingest_csv(path)
        assert list(again.iter_bars()) == list(tiny_store.iter_bars())


class TestGenerateSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(n_symbols=4, n_days=30, daily_vol=0.02)
        a = generate_synthetic(spec, 9)
        b = generate_synthetic(spec, 9)
        assert list(a.iter_bars()) == list(b.iter_bars())

    def test_zero_vol_constant_closes(self):
        spec = SyntheticSpec(n_symbols=2, n_days=8, daily_vol=0.0)
        store = generate_synthetic(spec, 3)
        closes = [store.close("SYM001", d) for d in store.calendar]
        assert closes == [100.0] * 8

    def test_limit_clamp(self):
        spec = SyntheticSpec(n_symbols=6, n_days=120, daily_vol=0.15,
                             limit_pct=0.10)
        store = generate_synthetic(spec, 5)
        hit = 0
        for sym in store.symbols:
            closes = np.array([store.close(sym, d) for d in store.calendar])
            rets = closes[1:] / closes[:-1] - 1.0
            assert np.all(np.abs(rets) <= 0.10 + 1e-12)
            hit += int(np.sum(np.abs(np.abs(rets) - 0.10) < 1e-12))
        assert hit > 0  # with vol 0.15 the clamp must actually bind

    def test_planted_drift_raises_mean_return(self):
        spec = SyntheticSpec(
            n_symbols=5, n_days=100, daily_vol=0.01,
            planted=(PlantedEffect("SYM002", 0.02),),
        )
        store = generate_synthetic(spec, 21)

        def mean_ret(sym):
            closes = np.array([store.close(sym, d) for d in store.calendar])
            return float(np.mean(closes[1:] / closes[:-1] - 1.0))

        planted = mean_ret("SYM002")
        others = [mean_ret(s) for s in store.symbols if s != "SYM002"]
        assert planted > max(others)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_symbols=0, n_days=5, daily_vol=0.01)
        with pytest.raises(ValueError):
            SyntheticSpec(n_symbols=1, n_days=5, daily_vol=0.01, limit_pct=0.0)
        for vol in (float("nan"), float("inf"), -0.01):
            with pytest.raises(ValueError, match="daily_vol"):
                SyntheticSpec(n_symbols=1, n_days=5, daily_vol=vol)

    def test_planted_start_day_is_keyword_only(self):
        assert PlantedEffect("SYM000", 0.02) == PlantedEffect("SYM000", 0.02, start_day=0)
        with pytest.raises(TypeError):
            PlantedEffect("SYM000", 0, 0.02)  # the old (symbol, start_day, drift) order


def reference_synthetic(spec, seed):
    """The per-bar generator the columnar one replaced: one ``Bar`` per
    (day, symbol), day-major, each checked as it is built."""
    rng = np.random.default_rng(seed)
    days = business_days(spec.start, spec.n_days)
    symbols = [f"SYM{i:03d}" for i in range(spec.n_symbols)]
    drift = np.zeros((spec.n_days, spec.n_symbols))
    for eff in spec.planted:
        drift[max(eff.start_day, 0):, symbols.index(eff.symbol)] += eff.drift
    z = rng.standard_normal((spec.n_days, spec.n_symbols))
    intraday = rng.uniform(0.0, max(spec.daily_vol, 1e-4) / 2.0, (spec.n_days, 2, spec.n_symbols))
    volume = rng.integers(100_000, 1_000_000, (spec.n_days, spec.n_symbols))
    returns = np.clip(spec.daily_vol * z + drift, max(-spec.limit_pct, -0.999), spec.limit_pct)
    bars = []
    closes = np.full(spec.n_symbols, float(spec.start_price))
    for d in range(spec.n_days):
        prev = closes.copy()
        if d > 0:
            closes = prev * (1.0 + returns[d])
        for j, sym in enumerate(symbols):
            op = float(prev[j]) if d > 0 else float(closes[j])
            cl = float(closes[j])
            bars.append(Bar(date=days[d], symbol=sym, open=op,
                            high=max(op, cl) * (1.0 + float(intraday[d, 0, j])),
                            low=min(op, cl) * (1.0 - float(intraday[d, 1, j])),
                            close=cl, volume=float(volume[d, j])))
    return store_of(bars)


@pytest.mark.parametrize("spec, seed", [
    (SyntheticSpec(n_symbols=4, n_days=30, daily_vol=0.02), 9),
    (SyntheticSpec(n_symbols=5, n_days=60, daily_vol=0.01, start_price=7,
                   planted=(PlantedEffect("SYM002", 0.02, start_day=10),)), 21),
    (SyntheticSpec(n_symbols=2, n_days=8, daily_vol=0.0), 3),
    (SyntheticSpec(n_symbols=3, n_days=1500, daily_vol=0.5, limit_pct=1.0), 3),
    # lows below zero: the first bad bar, day-major, names the fault
    (SyntheticSpec(n_symbols=4, n_days=30, daily_vol=5.0), 3),
    (SyntheticSpec(n_symbols=4, n_days=30, daily_vol=3.0, limit_pct=1.0), 3),
], ids=["plain", "planted", "flat", "long-wild", "negative-low", "negative-low-later"])
def test_generate_synthetic_matches_the_per_bar_generator(spec, seed):
    try:
        want = reference_synthetic(spec, seed)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            generate_synthetic(spec, seed)
        assert str(got.value) == str(exc)
        return
    assert list(generate_synthetic(spec, seed).iter_bars()) == list(want.iter_bars())


class TestPriceChange:
    def test_forward_return(self):
        store = store_of([_bar(D(2025, 1, 2), close=10.0),
                             _bar(D(2025, 1, 3), close=10.5)])
        assert price_change(store, "AAA", D(2025, 1, 2)) == pytest.approx(0.05)

    def test_flat(self):
        store = store_of([_bar(D(2025, 1, 2), close=10.0),
                             _bar(D(2025, 1, 3), close=10.0)])
        assert price_change(store, "AAA", D(2025, 1, 2)) == 0.0

    def test_last_day_errors(self):
        store = store_of([_bar(D(2025, 1, 2)), _bar(D(2025, 1, 3))])
        with pytest.raises(MissingDataError):
            price_change(store, "AAA", D(2025, 1, 3))

    def test_missing_symbol_bar(self):
        store = store_of([_bar(D(2025, 1, 2)), _bar(D(2025, 1, 3)),
                             _bar(D(2025, 1, 3), symbol="BBB")])
        with pytest.raises(MissingDataError):
            price_change(store, "BBB", D(2025, 1, 2))


def scalar_price_change(store, symbol, t):
    """The forward return from two close reads, or the MissingDataError text
    those reads word."""
    if t not in store.calendar:
        return f"{t} is not on the trading calendar"
    i = store.calendar.index(t)
    if i + 1 == len(store.calendar):
        return f"no trading day after {t}"
    t_next = store.calendar[i + 1]
    for day in (t, t_next):
        try:
            store.close(symbol, day)
        except MissingDataError:
            return f"no bar for ({symbol}, {day})"
    return store.close(symbol, t_next) / store.close(symbol, t) - 1.0


def price_change_or_text(store, symbol, t):
    try:
        return price_change(store, symbol, t)
    except MissingDataError as exc:
        return str(exc)


class TestReturnRow:
    """price_change reads the store's row of day t's next-day returns."""

    @pytest.fixture(params=["synthetic", "csv-with-gaps"])
    def store(self, request, gappy_store, tmp_path):
        if request.param == "synthetic":
            return generate_synthetic(SyntheticSpec(n_symbols=5, n_days=30, daily_vol=0.03), 4)
        write_csv(gappy_store, tmp_path / "bars.csv")
        return ingest_csv(tmp_path / "bars.csv")

    def test_every_return_has_the_bits_of_the_scalar_reads(self, store):
        for t in store.calendar[:-1]:
            row = store.next_returns(t)
            for symbol, r in zip(store.symbols, row):
                want = scalar_price_change(store, symbol, t)
                if isinstance(want, str):
                    assert r != r  # a missing bar is a NaN cell
                    continue
                assert np.float64(r).view(np.uint64) == np.float64(want).view(np.uint64)
                got = price_change(store, symbol, t)
                assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    def test_each_fault_has_the_scalar_reads_text(self, store):
        days = (*store.calendar, D(1999, 1, 1), store.calendar[0] + dt.timedelta(days=-1))
        for t in days:
            for symbol in (*store.symbols, "ZZZ"):
                want = scalar_price_change(store, symbol, t)
                if isinstance(want, str):
                    with pytest.raises(MissingDataError) as got:
                        price_change(store, symbol, t)
                    assert str(got.value) == want

    def test_the_csv_store_faults_on_gaps_and_the_last_day(self, gappy_store):
        cal = gappy_store.calendar
        assert price_change_or_text(gappy_store, "BBB", cal[1]) == f"no bar for (BBB, {cal[2]})"
        assert price_change_or_text(gappy_store, "BBB", cal[2]) == f"no bar for (BBB, {cal[2]})"
        assert price_change_or_text(gappy_store, "ZZZ", cal[0]) == f"no bar for (ZZZ, {cal[0]})"
        assert price_change_or_text(gappy_store, "AAA", cal[-1]) == f"no trading day after {cal[-1]}"
        assert gappy_store.next_returns(cal[-1]) is None
        assert gappy_store.next_returns(D(1999, 1, 1)) is None

    def test_the_row_never_serves_another_day(self, store):
        cal = store.calendar
        first = [price_change_or_text(store, s, cal[3]) for s in store.symbols]
        other = [price_change_or_text(store, s, cal[7]) for s in store.symbols]
        again = [price_change_or_text(store, s, cal[3]) for s in store.symbols]
        assert again == first != other
        assert other == [scalar_price_change(store, s, cal[7]) for s in store.symbols]
        # a day that has no row leaves the kept row as it was
        price_change_or_text(store, store.symbols[0], cal[-1])
        assert [price_change_or_text(store, s, cal[3]) for s in store.symbols] == first

    def test_no_view_offers_the_row(self, store):
        # the row of day t reads the close of day t + 1
        assert not hasattr(view_until(store, store.calendar[3]), "next_returns")


class TestViewUntil:
    def test_query_within_cutoff(self, tiny_store):
        t5 = tiny_store.calendar[5]
        view = view_until(tiny_store, t5)
        assert view.close("SYM000", tiny_store.calendar[3]) > 0

    def test_query_past_cutoff_raises(self, tiny_store):
        view = view_until(tiny_store, tiny_store.calendar[5])
        with pytest.raises(TemporalViolationError):
            view.close("SYM000", tiny_store.calendar[6])

    def test_first_day_boundary(self, tiny_store):
        first = tiny_store.calendar[0]
        view = view_until(tiny_store, first)
        assert view.close("SYM001", first) == bar_map(tiny_store)[("SYM001", first)].close

    def test_calendar_truncated(self, tiny_store):
        view = view_until(tiny_store, tiny_store.calendar[4])
        assert view.calendar == tiny_store.calendar[:5]

    def test_fuzzed_queries_never_leak(self, tiny_store):
        rng = np.random.default_rng(0)
        cal = tiny_store.calendar
        bars = bar_map(tiny_store)
        for _ in range(200):
            cut = int(rng.integers(len(cal)))
            view = view_until(tiny_store, cal[cut])
            q = int(rng.integers(len(cal)))
            sym = tiny_store.symbols[int(rng.integers(len(tiny_store.symbols)))]
            if q > cut:
                with pytest.raises(TemporalViolationError):
                    view.close(sym, cal[q])
            else:
                assert view.close(sym, cal[q]) == bars[(sym, cal[q])].close

    def test_trailing_returns_window(self, tiny_store):
        view = view_until(tiny_store, tiny_store.calendar[6])
        rets = view.trailing_returns("SYM000", 3)
        closes = [tiny_store.close("SYM000", d) for d in tiny_store.calendar[3:7]]
        expected = [closes[i + 1] / closes[i] - 1 for i in range(3)]
        assert rets == pytest.approx(expected)


def filtered_trailing_returns(store, cutoff, symbol, window):
    """Trailing returns from a filter over the whole calendar up to the cutoff."""
    bars = bar_map(store)
    dates = [d for d in store.calendar if d <= cutoff and (symbol, d) in bars]
    dates = dates[-(window + 1):]
    return [store.close(symbol, b) / store.close(symbol, a) - 1.0
            for a, b in zip(dates, dates[1:])]


@pytest.fixture()
def gappy_store():
    """AAA trades every day; BBB misses days 2, 5 and 6 and all of the last two."""
    days = business_days(D(2025, 1, 2), 12)
    rng = np.random.default_rng(5)
    bars = [_bar(d, "AAA", float(10 + rng.random())) for d in days]
    bars += [_bar(d, "BBB", float(20 + rng.random()))
             for i, d in enumerate(days) if i not in (2, 5, 6, 10, 11)]
    return store_of(bars)


def test_closes_skip_symbols_without_a_bar(gappy_store):
    for i, day in enumerate(gappy_store.calendar):
        closes = gappy_store.closes(day)
        want = ["AAA"] if i in (2, 5, 6, 10, 11) else ["AAA", "BBB"]
        assert sorted(closes) == want
        assert closes == {s: gappy_store.close(s, day) for s in want}


class TestTrailingReturnsWalkBack:
    @pytest.mark.parametrize("window", [1, 2, 3, 5, 30])
    def test_matches_calendar_filter_with_missing_bars(self, gappy_store, window):
        for cutoff in gappy_store.calendar:
            view = view_until(gappy_store, cutoff)
            for symbol in ("AAA", "BBB"):
                assert view.trailing_returns(symbol, window) == \
                    filtered_trailing_returns(gappy_store, cutoff, symbol, window)

    def test_fewer_bars_than_window(self, gappy_store):
        cutoff = gappy_store.calendar[4]  # BBB has 4 bars by then
        view = view_until(gappy_store, cutoff)
        rets = view.trailing_returns("BBB", 10)
        assert len(rets) == 3
        assert rets == filtered_trailing_returns(gappy_store, cutoff, "BBB", 10)

    def test_cutoff_on_first_day(self, gappy_store):
        first = gappy_store.calendar[0]
        view = view_until(gappy_store, first)
        assert view.trailing_returns("AAA", 5) == [] == \
            filtered_trailing_returns(gappy_store, first, "AAA", 5)

    def test_unknown_symbol_is_empty(self, gappy_store):
        assert view_until(gappy_store, gappy_store.calendar[-1]).trailing_returns("ZZZ", 5) == []

    def test_queries_past_cutoff_still_raise(self, gappy_store):
        cal = gappy_store.calendar
        view = view_until(gappy_store, cal[6])
        view.trailing_returns("AAA", 5)
        for t in cal[7:]:
            with pytest.raises(TemporalViolationError):
                view.close("AAA", t)
            with pytest.raises(TemporalViolationError):
                view.close("BBB", t)


def reference_momentum(store, cutoff, window):
    """Each symbol's mean of ``filtered_trailing_returns``, the returns added
    left to right from 0.0 as ``sum`` adds them on Python 3.11 (from 3.12
    ``sum`` compensates rounding), and the symbols strongest first."""
    means = {}
    for symbol in store.symbols:
        rets = filtered_trailing_returns(store, cutoff, symbol, window)
        if rets:  # fewer than two bars: no mean, not ranked
            total = 0.0
            for r in rets:
                total += r
            means[symbol] = total / len(rets)
    return means, sorted(means, key=lambda s: (-abs(means[s]), s))


def store_from_masks(masks, closes):
    """A store over 2025's first business days: symbol s holds a bar on day
    j where ``masks[s][j]``, its close the next one drawn from ``closes``."""
    days = business_days(D(2025, 1, 2), max(map(len, masks.values())))
    closes = iter(closes)
    return store_of([_bar(d, s, next(closes)) for s, held in masks.items()
                        for d, h in zip(days, held) if h])


# a symbol whose first bar comes late, one with exactly one bar, and one
# with runs of missing days
EDGE_MASKS = {"AAA": [1] * 10, "BBB": [0] * 6 + [1] * 4, "CCC": [0, 0, 0, 1] + [0] * 6,
              "DDD": [1, 1, 0, 0, 0, 1, 1, 1, 0, 1]}
EDGE_CLOSES = [8, 10, 12.5, 10, 8, 6, 4.5, 6, 8, 10, 8, 10, 12.5, 10, 8, 6.5, 33, 8, 6, 4.5, 8]


@st.composite
def gappy_stores(draw):
    n_days = draw(st.integers(1, 10))
    masks = {f"S{k}": draw(st.lists(st.booleans(), min_size=n_days, max_size=n_days))
             for k in range(draw(st.integers(1, 4)))}
    n_bars = sum(map(sum, masks.values()))
    assume(n_bars)
    price = st.one_of(st.sampled_from([4.5, 6.0, 8.0, 10.0, 12.5]), st.floats(1, 100))
    return store_from_masks(masks, draw(st.lists(price, min_size=n_bars, max_size=n_bars)))


class TestMomentumTable:
    def test_means_and_ranking(self, gappy_store):
        for cutoff in gappy_store.calendar:
            view = view_until(gappy_store, cutoff)
            means, ranked = view.momentum(5)
            expected, order = reference_momentum(gappy_store, cutoff, 5)
            assert dict(means) == expected
            assert list(ranked) == order

    @settings(max_examples=150, deadline=None)
    @given(store=gappy_stores())
    @example(store=store_from_masks(EDGE_MASKS, EDGE_CLOSES))
    def test_matches_the_reference_on_random_gaps(self, store):
        for cutoff in store.calendar:
            view = view_until(store, cutoff)
            for window in range(1, 9):
                means, ranked = view.momentum(window)
                expected, order = reference_momentum(store, cutoff, window)
                assert dict(means) == expected
                assert list(ranked) == order

    def test_window_0_is_empty(self, gappy_store):
        for cutoff in gappy_store.calendar:
            means, ranked = view_until(gappy_store, cutoff).momentum(0)
            assert dict(means) == {} and ranked == ()

    def test_window_past_every_history_means_all_returns(self):
        store = store_from_masks(EDGE_MASKS, EDGE_CLOSES)
        every_return = len(store.calendar) - 1
        for cutoff in store.calendar:
            means, ranked = view_until(store, cutoff).momentum(50)
            expected, order = reference_momentum(store, cutoff, every_return)
            assert dict(means) == expected
            assert list(ranked) == order

    def test_equal_strength_ranks_by_symbol(self):
        days = business_days(D(2025, 1, 2), 3)
        # returns of exactly -25% and +25%: three symbols of equal strength
        closes = {"CCC": [8, 10, 12.5], "AAA": [8, 6, 4.5], "BBB": [8, 10, 12.5]}
        store = store_of([_bar(d, s, c[i]) for s, c in closes.items()
                             for i, d in enumerate(days)])
        means, ranked = view_until(store, days[-1]).momentum(5)
        assert means["AAA"] == -means["BBB"]
        assert ranked == ("AAA", "BBB", "CCC")

    def test_one_shared_read_only_table_per_view(self, gappy_store):
        view = view_until(gappy_store, gappy_store.calendar[-1])
        table = view.momentum(5)
        assert view.momentum(5) is table
        assert view.momentum(3) is not table
        with pytest.raises(TypeError):
            table[0]["AAA"] = 0.0


class TestDayJson:
    @pytest.mark.parametrize("day", [0, 4, 11])
    @pytest.mark.parametrize("lookback", [1, 3, 30])
    def test_no_text_past_the_cutoff(self, tiny_store, day, lookback):
        t = tiny_store.calendar[day]
        view_until(tiny_store, t).bars_json(lookback)
        assert tiny_store._day_json and max(tiny_store._day_json) == t

    def test_window_joins_the_day_texts(self, tiny_store):
        view = view_until(tiny_store, tiny_store.calendar[6])
        text = view.bars_json(3)
        days = tiny_store.calendar[4:7]
        assert text == "[" + ", ".join(tiny_store.day_json(d) for d in days) + "]"
        assert [b["date"] for b in json.loads(text)] == [d.isoformat() for d in days
                                                         for _ in tiny_store.symbols]
        assert view.bars_json(0) == "[]"
        assert json.loads(view.bars_json(1)) == json.loads(text)[-len(tiny_store.symbols):]
        assert view.bars_json(30) == view.bars_json(7) == \
            "[" + ", ".join(tiny_store.day_json(d) for d in tiny_store.calendar[:7]) + "]"

    def test_each_day_encoded_once(self, tiny_store, monkeypatch):
        encoded = []
        dumps = json.dumps

        def counting_dumps(bars, **kw):
            encoded.append(bars[0]["date"])
            return dumps(bars, **kw)

        monkeypatch.setattr(market_mod.json, "dumps", counting_dumps)
        for t in tiny_store.calendar:
            view = view_until(tiny_store, t)
            for lookback in (2, 5, 2):
                view.bars_json(lookback)
            assert tiny_store.day_json(t) is tiny_store.day_json(t)
        assert encoded == [d.isoformat() for d in tiny_store.calendar]

    def test_held_days_bounded_by_the_longest_lookback(self, tiny_store):
        longest = 0
        for i, t in enumerate(tiny_store.calendar):
            lookback = (1, 4, 2)[i % 3]
            longest = max(longest, lookback)
            view_until(tiny_store, t).bars_json(lookback)
            assert len(tiny_store._day_json) == min(i + 1, longest)


class TestPerturbAfter:
    def test_prefix_unchanged(self, tiny_store):
        cut = tiny_store.calendar[5]
        other = bar_map(perturb_after(tiny_store, cut, seed=3))
        for bar in tiny_store.iter_bars():
            if bar.date <= cut:
                assert other[(bar.symbol, bar.date)] == bar
            else:
                assert other[(bar.symbol, bar.date)].close != bar.close


def test_business_days_skips_weekends():
    days = business_days(D(2024, 1, 5), 4)  # Friday start
    assert days == [D(2024, 1, 5), D(2024, 1, 8), D(2024, 1, 9), D(2024, 1, 10)]


@pytest.mark.parametrize("start", [D.fromordinal(D.max.toordinal() - k) for k in range(15)])
def test_synthetic_calendar_ends_by_the_last_date(start):
    # a spec takes exactly the weekdays left from its start to 9999-12-31
    days = map(D.fromordinal, range(start.toordinal(), D.max.toordinal() + 1))
    weekdays = [d for d in days if d.weekday() < 5]
    room = len(weekdays)
    if room:
        SyntheticSpec(n_days=room, start=start)
        assert business_days(start, room) == weekdays
    with pytest.raises(ValueError, match=f"n_days must be at most {room},"):
        SyntheticSpec(n_days=room + 1, start=start)


def test_duplicate_bar_in_store():
    with pytest.raises(DuplicateBarError, match=r"^duplicate bar for \(AAA, 2025-01-02\)$"):
        store_of([_bar(D(2025, 1, 2)), _bar(D(2025, 1, 3)), _bar(D(2025, 1, 2))])


# --- infinite values ----------------------------------------------------------


class TestInfiniteValues:
    @pytest.mark.parametrize("fields", [("high",), ("open", "high"), ("close", "high"),
                                        ("volume",)])
    def test_bar_rejects_inf(self, fields):
        values = dict(open=10.0, high=10.0, low=10.0, close=10.0, volume=1.0)
        values.update(dict.fromkeys(fields, float("inf")))
        with pytest.raises(ValueError, match="must be finite"):
            Bar(date=D(2025, 1, 2), symbol="AAA", **values)

    def test_bar_rejects_all_inf_prices(self):
        inf = float("inf")
        with pytest.raises(ValueError, match="AAA 2025-01-02: prices and volume must be finite"):
            Bar(date=D(2025, 1, 2), symbol="AAA", open=inf, high=inf, low=inf, close=inf,
                volume=1)

    def test_earlier_checks_keep_their_message(self):
        inf = float("inf")
        with pytest.raises(ValueError, match="prices must be positive"):
            Bar(date=D(2025, 1, 2), symbol="AAA", open=-inf, high=inf, low=-inf,
                close=1, volume=1)
        with pytest.raises(ValueError, match="negative volume"):
            Bar(date=D(2025, 1, 2), symbol="AAA", open=1, high=1, low=1, close=1,
                volume=-inf)

    def test_csv_row_of_inf_names_line(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text(
            "date,symbol,open,high,low,close,volume\n"
            "2025-01-02,AAA,10,10.5,9.5,10.2,100\n"
            "2025-01-02,BBB,inf,inf,inf,inf,100\n"
        )
        with pytest.raises(CsvFormatError,
                           match="line 3: BBB 2025-01-02: prices and volume must be finite"):
            ingest_csv(path)


# --- the columnar ingest against the per-row reference -------------------------


def _parse_row(line_no: int, row: list[str]) -> Bar:
    """One row of a bar file as the per-row reader parsed it: the field
    count, then the date, the symbol and the floats in file order, then the
    ``Bar`` checks; any fault names the line."""
    if len(row) != 7:
        raise CsvFormatError(f"line {line_no}: expected 7 fields, got {len(row)}")
    try:
        return Bar(date=D.fromisoformat(row[0].strip()), symbol=row[1].strip(),
                   open=float(row[2]), high=float(row[3]), low=float(row[4]),
                   close=float(row[5]), volume=float(row[6]))
    except (ValueError, TypeError) as exc:
        raise CsvFormatError(f"line {line_no}: {exc}") from exc


def reference_ingest(path) -> dict[str, dict[dt.date, Bar]]:
    """The per-row ingest the columnar store replaced: every row through
    ``_parse_row`` into a ``Bar``, then a dict of dicts that refuses a
    repeated (symbol, date)."""
    bars = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty file") from None
        if [h.strip().lower() for h in header] != market_mod.CSV_HEADER:
            raise CsvFormatError(f"bad header {header!r}, "
                                 f"expected {','.join(market_mod.CSV_HEADER)}")
        for line_no, row in enumerate(reader, start=2):
            if row:
                bars.append(_parse_row(line_no, row))
    by_symbol: dict[str, dict[dt.date, Bar]] = {}
    for bar in bars:
        sym_bars = by_symbol.setdefault(bar.symbol, {})
        if bar.date in sym_bars:
            raise DuplicateBarError(f"duplicate bar for ({bar.symbol}, {bar.date})")
        sym_bars[bar.date] = bar
    return by_symbol


def assert_same_outcome(path):
    """ingest_csv gives the reference's store, or its exception word for word."""
    try:
        want = reference_ingest(path)
    except (CsvFormatError, DuplicateBarError) as exc:
        with pytest.raises(type(exc)) as got:
            ingest_csv(path)
        assert str(got.value) == str(exc)
        return
    store = ingest_csv(path)
    got = bar_map(store)
    assert store.symbols == tuple(sorted(want))
    assert store.calendar == tuple(sorted({d for bars in want.values() for d in bars}))
    for symbol in store.symbols:
        for t in store.calendar:
            bar = want[symbol].get(t)
            assert got.get((symbol, t)) == bar
            if bar is not None:
                assert store.close(symbol, t) == bar.close
    assert sum(1 for _ in store.iter_bars()) == sum(map(len, want.values()))


HEADER = "date,symbol,open,high,low,close,volume\n"
GOOD = "2025-01-02,AAA,10,10.5,9.5,10.2,100\n"


def _rows(n, symbol):
    return "".join(f"{d},{symbol},10,10.5,9.5,10.{i},{100 + i}\n"
                   for i, d in enumerate(business_days(D(2025, 1, 2), n)))


MALFORMED = {
    "short-row": GOOD + "2025-01-03,AAA,10\n",
    "long-row": GOOD + "2025-01-03,AAA,10,10.5,9.5,10.2,100,7\n",
    "bad-float": GOOD + "2025-01-03,AAA,10,abc,9.5,10.2,100\n",
    "bad-date": "2025-13-02,AAA,10,10.5,9.5,10.2,100\n",
    "low-above-high": "2025-01-02,AAA,10,9.0,11.0,10,100\n",
    "open-above-high": "2025-01-02,AAA,12,11,9.5,10,100\n",
    "close-below-low": "2025-01-02,AAA,10,11,9.5,9,100\n",
    "zero-price": "2025-01-02,AAA,0,0,0,0,100\n",
    "nan-price": "2025-01-02,AAA,10,10.5,9.5,nan,100\n",
    "nan-volume": "2025-01-02,AAA,10,10.5,9.5,10.2,nan\n",
    "negative-volume": GOOD + "2025-01-03,AAA,10,10.5,9.5,10.2,-1\n",
    "all-inf": "2025-01-02,AAA,inf,inf,inf,inf,100\n",
    "inf-volume": "2025-01-02,AAA,10,10.5,9.5,10.2,inf\n",
    "minus-inf-low": "2025-01-02,AAA,10,10.5,-inf,10.2,100\n",
    "duplicate": GOOD + "2025-01-03,AAA,10,10.5,9.5,10.2,1\n" + GOOD,
    "duplicate-padded": GOOD + " 2025-01-02 , AAA ,10,10.5,9.5,10.3,100\n",
    "two-duplicates": ("2025-01-02,BBB,1,1,1,1,1\n" + GOOD + "2025-01-02,BBB,1,1,1,1,1\n"
                       + GOOD),
    "duplicate-then-bad-row": GOOD + GOOD + "2025-01-06,AAA,10,9,11,10,1\n",
    # a bar fault on line 3, six good rows, a short row on line 10
    "bar-fault-before-short-row": (GOOD + "2025-01-03,AAA,10,9,11,10,1\n" + _rows(6, "BBB")
                                   + "2025-01-13,AAA\n"),
}


class TestIngestParity:
    @pytest.mark.parametrize("body", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_file_fails_as_before(self, tmp_path, body):
        path = tmp_path / "bars.csv"
        path.write_text(HEADER + body)
        with pytest.raises((CsvFormatError, DuplicateBarError)):
            reference_ingest(path)
        assert_same_outcome(path)

    def test_first_bad_line_wins(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text(HEADER + MALFORMED["bar-fault-before-short-row"])
        assert path.read_text().splitlines()[9] == "2025-01-13,AAA"  # line 10
        with pytest.raises(CsvFormatError, match="^line 3: AAA 2025-01-03: open outside"):
            ingest_csv(path)

    def test_bar_fault_wins_over_an_earlier_duplicate(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text(HEADER + MALFORMED["duplicate-then-bad-row"])
        with pytest.raises(CsvFormatError, match="^line 4: "):
            ingest_csv(path)

    @pytest.mark.parametrize("body", [
        # gappy: BBB has no bar on the second day
        GOOD + "2025-01-03,AAA,10,10.5,9.5,10.4,100\n2025-01-02,BBB,5,5,5,5,0\n"
        "2025-01-06,BBB,5,6,4,5.5,1e3\n2025-01-06,AAA,10,11,10,11,7\n",
        # padded texts, blank lines and signed or exponent floats
        " 2025-01-02 ,  AAA,+10, 10.5 ,9.5e0,10.2,100\n\n2025-01-03,AAA ,10,10.5,9.5,1.02E1,0\n\n",
        # rows in no order
        "2025-01-07,CCC,1,2,1,2,3\n2025-01-02,AAA,10,10.5,9.5,10.2,100\n"
        "2025-01-03,BBB,1,1,1,1,1\n2025-01-02,CCC,1,2,1,1.5,3\n2025-01-07,AAA,9,9,9,9,9\n",
        # a header and a blank line
        "\n",
    ], ids=["gappy", "padded", "unsorted", "no-rows"])
    def test_valid_file_gives_the_same_store(self, tmp_path, body):
        path = tmp_path / "bars.csv"
        path.write_text(HEADER + body)
        assert_same_outcome(path)

    def test_round_trip_of_a_synthetic_store(self, tmp_path, tiny_store):
        path = tmp_path / "bars.csv"
        write_csv(tiny_store, path)
        assert_same_outcome(path)


class TestOversizedField:
    BIG = "B" * 200_000  # past csv's field size limit of 131,072 characters

    def test_names_its_line(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text(HEADER + GOOD + "\n" + f"2025-01-03,{self.BIG},10,10.5,9.5,10.2,100\n")
        with pytest.raises(CsvFormatError,
                           match=r"^line 4: field larger than field limit \(131072\)$"):
            ingest_csv(path)

    def test_in_the_header(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text(f"date,{self.BIG}\n" + GOOD)
        with pytest.raises(CsvFormatError, match=r"^line 1: field larger than field limit"):
            ingest_csv(path)

    def test_an_earlier_bar_fault_wins(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text(HEADER + GOOD + "\n2025-01-03,AAA,10,9,11,10,1\n" + _rows(3, "BBB")
                        + f"2025-01-08,{self.BIG},10,10.5,9.5,10.2,100\n")
        with pytest.raises(CsvFormatError, match="^line 4: AAA 2025-01-03: open outside"):
            ingest_csv(path)


class TestOnePass:
    """ingest_csv reads its file once and builds a Bar only to word a fault;
    generate_synthetic builds none."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = {"Bar": 0, "open": 0}

        def counting(name, real):
            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(market_mod, "Bar", counting("Bar", Bar))
        monkeypatch.setattr(market_mod, "open", counting("open", open), raising=False)
        return counts

    def test_valid_file(self, tmp_path, counts):
        path = tmp_path / "bars.csv"
        path.write_text(HEADER + _rows(5, "AAA") + "\n" + _rows(5, "BBB"))
        assert len(ingest_csv(path).calendar) == 5
        assert counts == {"Bar": 0, "open": 1}

    @pytest.mark.parametrize("fault", ["bar-fault-before-short-row", "low-above-high",
                                       "negative-volume"])
    def test_a_bar_fault(self, tmp_path, counts, fault):
        path = tmp_path / "bars.csv"
        path.write_text(HEADER + MALFORMED[fault])
        with pytest.raises(CsvFormatError):
            ingest_csv(path)
        assert counts == {"Bar": 1, "open": 1}

    def test_a_parse_fault(self, tmp_path, counts):
        path = tmp_path / "bars.csv"
        path.write_text(HEADER + MALFORMED["short-row"])
        with pytest.raises(CsvFormatError, match="^line 3: expected 7 fields, got 3$"):
            ingest_csv(path)
        assert counts == {"Bar": 0, "open": 1}

    def test_synthetic(self, counts):
        generate_synthetic(SyntheticSpec(n_symbols=5, n_days=40, daily_vol=0.03), 2)
        assert counts["Bar"] == 0
        with pytest.raises(ValueError, match="prices must be positive"):
            generate_synthetic(SyntheticSpec(n_symbols=4, n_days=30, daily_vol=5.0), 3)
        assert counts["Bar"] == 1


# --- the plain-file path -------------------------------------------------------


@pytest.fixture()
def row_loops(monkeypatch):
    """The number of times ingest_csv has run the row loop."""
    calls = []
    real = market_mod._read_rows

    def counting(fh):
        calls.append(fh)
        return real(fh)

    monkeypatch.setattr(market_mod, "_read_rows", counting)
    return calls


GOOD_LATER = "2025-01-03,AAA,10,10.5,9.5,10.4,100\n"


def _many_rows(n, symbol):
    return "".join(f"{d},{symbol},10,10.5,9.5,10.2,{i}\n"
                   for i, d in enumerate(business_days(D(2025, 1, 2), n)))

# each case's body after the header, and whether it takes the row loop
PLAIN_CASES = {
    "quoted-field": (GOOD + '2025-01-03,"AAA",10,10.5,9.5,10.4,100\n', True),
    "quoted-comma": (GOOD + '2025-01-03,"A,B",10,10.5,9.5,10.4,100\n', True),
    "bare-cr": (GOOD + "2025-01-03,AAA,10,10.5,9.5,10.4,100\r2025-01-06,AAA,9,9,9,9,9\n", True),
    "bare-cr-at-the-end": (GOOD + "2025-01-03,AAA,10,10.5,9.5,10.4,100\r", True),
    "whitespace-line": (GOOD + "   \n" + GOOD_LATER, True),
    "tab-line": (GOOD + "\t\n" + GOOD_LATER, True),
    "nul": (GOOD + "2025-01-03,AAA,10,10.5,9.5,10.4,100\0\n", True),
    "bom-before-a-date": (GOOD + "\ufeff" + GOOD_LATER, True),
    "underscore-digits": (GOOD + "2025-01-03,AAA,1_0,10.5,9.5,10.4,1_000\n", True),
    "non-ascii-digits": (GOOD + "2025-01-03,AAA,10,10.5,9.5,10.4,\u0661\u0660\u0660\n", True),
    "eight-fields-on-every-row": (GOOD.replace("\n", ",8\n") + GOOD_LATER.replace("\n", ",8\n"),
                                  True),
    "a-row-of-six-fields": (GOOD + "2025-01-03,AAA,10,10.5,9.5,10.4\n", True),
    "empty-number": (GOOD + "2025-01-03,AAA,10,10.5,9.5,,100\n", True),
    "bad-date": (GOOD + "2025-02-30,AAA,10,10.5,9.5,10.4,100\n", True),
    "bar-fault": (GOOD + "2025-01-03,AAA,10,9,11,10,1\n", True),
    "nan-volume": (GOOD + "2025-01-03,AAA,10,10.5,9.5,10.4,nan\n", True),
    # plain files: no row loop
    "lf": (GOOD + GOOD_LATER, False),
    "crlf": ((GOOD + GOOD_LATER).replace("\n", "\r\n"), False),
    "mixed-line-ends": (GOOD.replace("\n", "\r\n") + GOOD_LATER, False),
    "tab-padded": ("\t2025-01-02\t,\tAAA\t,\t10\t,10.5\t,\t9.5,10.2,100\t\n" + GOOD_LATER, False),
    "space-padded": (" 2025-01-02 , AAA , 10 ,10.5,9.5, 10.2 ,+100\n" + GOOD_LATER, False),
    "bom-in-a-symbol": (GOOD + GOOD_LATER.replace("AAA", "\ufeffAAA"), False),
    "comment-sign-in-a-symbol": (GOOD + GOOD_LATER.replace("AAA", "A#B"), False),
    "empty-symbol": (GOOD + GOOD_LATER.replace("AAA", ""), False),
    "header-only": ("", False),
    "blank-last-line": (GOOD + GOOD_LATER + "\n", False),
    "blank-lines-only": ("\n\r\n\n", False),
    "duplicate": (GOOD + GOOD_LATER + GOOD, False),  # MarketStore words it
}


class TestPlainFiles:
    """A plain file is read by numpy's text reader, any other one by the row
    loop; either way the outcome is the reference's."""

    @pytest.mark.parametrize("body, by_rows", PLAIN_CASES.values(), ids=PLAIN_CASES.keys())
    def test_same_outcome_on_the_expected_path(self, tmp_path, row_loops, body, by_rows):
        path = tmp_path / "bars.csv"
        path.write_bytes((HEADER + body).encode())
        assert_same_outcome(path)
        assert len(row_loops) == by_rows

    @pytest.mark.parametrize("header", [
        "date,symbol,open,high,low,close,volume",  # no line end
        " Date ,SYMBOL,open,high,low,close, volume\r\n",
    ])
    def test_a_plain_header(self, tmp_path, row_loops, header):
        path = tmp_path / "bars.csv"
        path.write_text(header + ("\n" + GOOD if header[-1] != "\n" else GOOD), newline="")
        assert_same_outcome(path)
        assert row_loops == []

    @pytest.mark.parametrize("header", ['"date",symbol,open,high,low,close,volume\n',
                                        "date,symbol,open,high,low,close,volume\r"])
    def test_any_other_header_takes_the_row_loop(self, tmp_path, row_loops, header):
        path = tmp_path / "bars.csv"
        path.write_text(header + GOOD, newline="")
        assert_same_outcome(path)
        assert len(row_loops) == 1

    @pytest.mark.parametrize("body", ["", "date,symbol\n", "\ufeff" + HEADER + GOOD])
    def test_a_bad_header_or_an_empty_file(self, tmp_path, row_loops, body):
        path = tmp_path / "bars.csv"
        path.write_text(body)
        with pytest.raises(CsvFormatError, match="^(empty file|bad header)"):
            reference_ingest(path)
        assert_same_outcome(path)
        assert len(row_loops) == 1

    def test_a_fault_in_a_later_chunk_is_worded_by_the_row_loop(self, tmp_path, row_loops):
        path = tmp_path / "bars.csv"
        rows = _many_rows(4000, "AAA")
        path.write_text(HEADER + rows + "2025-01-03,BBB,10,10.5,9.5,10.2,1_0\n" + "\0\n")
        assert len(rows) > 2 * market_mod._PLAIN_CHUNK
        with pytest.raises(CsvFormatError, match="^line 4003: expected 7 fields, got 1$"):
            ingest_csv(path)
        assert len(row_loops) == 1

    def test_bytes_past_an_earlier_fault_are_never_decoded(self, tmp_path, row_loops):
        path = tmp_path / "bars.csv"
        path.write_bytes((HEADER + MALFORMED["short-row"] + _many_rows(4000, "BBB")).encode()
                         + b"\xff\n")
        with pytest.raises(CsvFormatError, match="^line 3: expected 7 fields, got 3$"):
            ingest_csv(path)
        assert len(row_loops) == 1

    @pytest.mark.parametrize("at", [0, 5000])
    def test_bytes_that_are_not_utf8(self, tmp_path, row_loops, monkeypatch, at):
        path = tmp_path / "bars.csv"
        path.write_bytes((HEADER + _many_rows(at, "BBB")).encode() + b"2025-01-02,\xff,1,1,1,1,1\n")
        with pytest.raises(UnicodeDecodeError) as got:
            ingest_csv(path)
        monkeypatch.setattr(market_mod, "_read_plain", lambda fh: None)
        with pytest.raises(UnicodeDecodeError) as want:
            ingest_csv(path)
        assert str(got.value) == str(want.value)
        assert len(row_loops) == 2

    def test_a_line_past_the_field_size_limit(self, tmp_path, row_loops):
        big = "9" * 140_000  # a number past csv's field size limit of 131,072
        path = tmp_path / "bars.csv"
        path.write_text(HEADER + GOOD + f"2025-01-03,AAA,10,10.5,9.5,10.4,{big}\n")
        with pytest.raises(CsvFormatError, match=r"^line 3: field larger than field limit"):
            ingest_csv(path)
        assert len(row_loops) == 1

    def test_numbers_have_the_bits_of_float(self, tmp_path, row_loops):
        rng = np.random.default_rng(11)
        values = np.concatenate([rng.uniform(0, 1, 200) * 10.0 ** rng.integers(-300, 300, 200),
                                 rng.uniform(0.01, 1000.0, 100), [5e-324, 2.2250738585072009e-308,
                                                                   1.7976931348623157e308]])
        texts = [f(x) for x in values.tolist() for f in (repr, "{:.17g}".format, "{:e}".format,
                                                           "{:.25g}".format, "+{:.3f} ".format)]
        texts += ["0.1", "0.30000000000000004441", "9007199254740993", "1e22", "1E-5", " 7 ",
                  "\t0.5", "1.00000000000000011102230246251565404236316680908203125",
                  "4.9406564584124654e-324", "2.4703282292062328e-324", "00012.500"]
        texts = [t for t in texts if float(t) > 0]
        volumes = ["-0", "-0.0", "+0", "0e0"] + texts
        days = business_days(D(2025, 1, 2), len(texts))
        path = tmp_path / "bars.csv"
        path.write_text(HEADER + "".join(f"{d},AAA,{t},{t},{t},{t},{v}\n"
                                         for d, t, v in zip(days, texts, volumes)))
        store = ingest_csv(path)
        assert row_loops == []
        want = np.array([[float(t)] * 4 + [float(v)] for t, v in zip(texts, volumes)])
        got = store._fields[:, 0, :].T
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_no_warning_on_a_file_without_rows(self, tmp_path, row_loops):
        path = tmp_path / "bars.csv"
        path.write_text(HEADER + "\n" * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = ingest_csv(path)
        assert store.symbols == () and row_loops == []

    def test_a_gen_data_file_is_plain(self, tmp_path, row_loops):
        path = tmp_path / "bars.csv"
        store = generate_synthetic(SyntheticSpec(n_symbols=4, n_days=30, daily_vol=0.02), 5)
        write_csv(store, path)
        assert path.read_bytes().count(b"\r\n") == 1 + 4 * 30  # csv.writer ends lines in CRLF
        assert bar_map(ingest_csv(path)) == bar_map(store)
        assert row_loops == []


def _wide_lf_file(path, n_symbols, n_days):
    """An LF bar file laid out as the benchmark's wide file: by symbol, then
    by date, four-decimal prices and whole volumes."""
    rng = np.random.default_rng(3)
    closes = np.round(50 * np.exp(np.cumsum(rng.normal(0, 0.02, (n_symbols, n_days)), 1)), 4)
    days = [d.isoformat() for d in business_days(D(2020, 1, 2), n_days)]
    with open(path, "w", newline="") as fh:
        fh.write(HEADER)
        for s in range(n_symbols):
            fh.writelines(f"{d},W{s:04d},{c!r},{c * 1.01:.4f},{c * 0.99:.4f},{c!r},{1000 + j}\n"
                          for j, (d, c) in enumerate(zip(days, closes[s].tolist())))


def test_the_plain_path_peaks_no_higher_than_the_row_loop(tmp_path, monkeypatch):
    """numpy reports its buffers to tracemalloc, so a text array built for the
    whole file would show here before it shows in the run's peak memory."""
    path = tmp_path / "wide.csv"
    _wide_lf_file(path, 100, 600)

    def peak():
        tracemalloc.start()
        try:
            store = ingest_csv(path)
            return tracemalloc.get_traced_memory()[1], store
        finally:
            tracemalloc.stop()

    plain, store = peak()
    monkeypatch.setattr(market_mod, "_read_plain", lambda fh: None)
    rows, by_rows = peak()
    assert bar_map(store) == bar_map(by_rows) and len(store.calendar) == 600
    assert plain <= rows


FAULTS = {
    "short": lambda r: r[:4],
    "bad-float": lambda r: r[:3] + ["1.2.3"] + r[4:],
    "bad-date": lambda r: ["2025-02-30"] + r[1:],
    "low-above-high": lambda r: r[:3] + [r[4], r[3]] + r[5:],
    "nan": lambda r: r[:5] + ["nan"] + r[6:],
    "negative-volume": lambda r: r[:6] + ["-1"],
    "inf": lambda r: r[:2] + ["inf"] * 4 + r[6:],
    "padded": lambda r: [f" {r[0]} ", f"{r[1]}  "] + r[2:],  # not a fault
}


@settings(max_examples=150, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5),
                                st.floats(1, 100), st.floats(0, 0.5), st.integers(0, 10**6)),
                      min_size=1, max_size=12),
       fault=st.sampled_from(sorted(FAULTS) + ["duplicate", "none"]),
       where=st.integers(0, 11), dup_of=st.integers(0, 11))
def test_ingest_matches_the_reference_with_one_fault(cells, fault, where, dup_of):
    _assert_fuzzed_file(cells, fault, where, dup_of, "\r\n")


@settings(max_examples=150, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5),
                                st.floats(1, 100), st.floats(0, 0.5), st.integers(0, 10**6)),
                      min_size=1, max_size=12),
       fault=st.sampled_from(sorted(FAULTS) + ["duplicate", "none"]),
       where=st.integers(0, 11), dup_of=st.integers(0, 11))
def test_an_lf_file_matches_the_reference_with_one_fault(cells, fault, where, dup_of):
    """csv.writer ends its lines with CRLF by default; this twin writes LF."""
    _assert_fuzzed_file(cells, fault, where, dup_of, "\n")


def _assert_fuzzed_file(cells, fault, where, dup_of, line_end):
    days = business_days(D(2025, 1, 2), 6)
    rows = [[days[d].isoformat(), f"S{s}", repr(px), repr(px * (1 + w)), repr(px * (1 - w)),
             repr(px), str(vol)] for s, d, px, w, vol in cells]
    where %= len(rows)
    if fault == "duplicate":
        rows.insert(where, list(rows[dup_of % len(rows)]))
    elif fault != "none":
        rows[where] = FAULTS[fault](rows[where])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bars.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator=line_end)
            writer.writerow(market_mod.CSV_HEADER)
            writer.writerows(rows)
        assert_same_outcome(path)
