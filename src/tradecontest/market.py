"""Daily bar storage, synthetic price generation, and time-restricted views.

A MarketStore is immutable once built: bars are indexed by (symbol, date)
and the trading calendar is the sorted set of distinct bar dates. Views
produced by ``view_until`` expose the same read API but refuse any query
past their cutoff date, which is how downstream consumers are kept from
reading the future.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass, field
from itertools import islice
from types import MappingProxyType

import numpy as np

from .errors import (
    CsvFormatError,
    DuplicateBarError,
    MissingDataError,
    TemporalViolationError,
)

CSV_HEADER = ["date", "symbol", "open", "high", "low", "close", "volume"]


@dataclass(frozen=True)
class Bar:
    """One daily OHLCV bar."""

    date: dt.date
    symbol: str
    open: float
    high: float
    low: float
    close: float
    volume: float

    def __post_init__(self):
        if self.close <= 0 or self.open <= 0 or self.high <= 0 or self.low <= 0:
            raise ValueError(f"{self.symbol} {self.date}: prices must be positive")
        if not (self.low <= self.open <= self.high):
            raise ValueError(f"{self.symbol} {self.date}: open outside [low, high]")
        if not (self.low <= self.close <= self.high):
            raise ValueError(f"{self.symbol} {self.date}: close outside [low, high]")
        if self.volume < 0:
            raise ValueError(f"{self.symbol} {self.date}: negative volume")


@dataclass(frozen=True)
class PlantedEffect:
    """A drift injected into one symbol from a given calendar index onward;
    one entry of a config's ``data.planted`` list."""

    symbol: str
    drift: float
    start_day: int = field(default=0, kw_only=True)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the deterministic synthetic market generator."""

    n_symbols: int
    n_days: int
    seed: int
    daily_vol: float
    limit_pct: float = 0.10
    start: dt.date = dt.date(2024, 1, 2)
    start_price: float = 100.0
    planted_effects: tuple[PlantedEffect, ...] = ()

    def __post_init__(self):
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be >= 1")
        if self.n_days < 1:
            raise ValueError("n_days must be >= 1")
        if not (math.isfinite(self.daily_vol) and self.daily_vol >= 0):
            raise ValueError(f"daily_vol must be a finite number >= 0, got {self.daily_vol!r}")
        if not (0 < self.limit_pct <= 1):
            raise ValueError("limit_pct must be in (0, 1]")
        if not (math.isfinite(self.start_price) and self.start_price > 0):
            raise ValueError(f"start_price must be a finite number > 0, got {self.start_price!r}")


class MarketStore:
    """Immutable collection of bars plus the trading calendar."""

    def __init__(self, bars: list[Bar]):
        by_symbol: dict[str, dict[dt.date, Bar]] = {}
        dates: set[dt.date] = set()
        for bar in bars:
            sym_bars = by_symbol.setdefault(bar.symbol, {})
            if bar.date in sym_bars:
                raise DuplicateBarError(f"duplicate bar for ({bar.symbol}, {bar.date})")
            sym_bars[bar.date] = bar
            dates.add(bar.date)
        self._bars = by_symbol
        self._calendar: tuple[dt.date, ...] = tuple(sorted(dates))
        self._index = {d: i for i, d in enumerate(self._calendar)}
        self._symbols: tuple[str, ...] = tuple(sorted(by_symbol))
        # day_json texts, oldest first, held for the longest lookback asked
        self._day_json: dict[dt.date, str] = {}
        self._json_days = 0

    @property
    def calendar(self) -> tuple[dt.date, ...]:
        return self._calendar

    @property
    def symbols(self) -> tuple[str, ...]:
        return self._symbols

    def day_index(self, t: dt.date) -> int:
        if t not in self._index:
            raise MissingDataError(f"{t} is not on the trading calendar")
        return self._index[t]

    def has_bar(self, symbol: str, t: dt.date) -> bool:
        return t in self._bars.get(symbol, {})

    def get_bar(self, symbol: str, t: dt.date) -> Bar:
        try:
            return self._bars[symbol][t]
        except KeyError:
            raise MissingDataError(f"no bar for ({symbol}, {t})") from None

    def close(self, symbol: str, t: dt.date) -> float:
        return self.get_bar(symbol, t).close

    def closes(self, t: dt.date) -> dict[str, float]:
        """The close of every symbol with a bar on day ``t``."""
        return {s: b.close for s, bars in self._bars.items() if (b := bars.get(t)) is not None}

    def day_json(self, t: dt.date) -> str:
        """The bars of day ``t`` in symbol order, as ``json.dumps(bars,
        sort_keys=True)`` writes the items of a list: ", "-joined objects.
        Encoded once per store; once more days are held than the longest
        lookback a view has asked for, the oldest text is dropped."""
        text = self._day_json.get(t)
        if text is None:
            # a literal per bar: vars(b) would attach a __dict__ to every Bar read
            text = self._day_json[t] = json.dumps([
                {"date": t.isoformat(), "symbol": s, "open": b.open, "high": b.high,
                 "low": b.low, "close": b.close, "volume": b.volume}
                for s in self._symbols if (b := self._bars[s].get(t))], sort_keys=True)[1:-1]
            if len(self._day_json) > self._json_days:
                del self._day_json[next(iter(self._day_json))]
        return text

    def iter_bars(self):
        for symbol in self._symbols:
            for t in sorted(self._bars[symbol]):
                yield self._bars[symbol][t]


class MarketView:
    """Read-only window over a store restricted to dates <= cutoff."""

    def __init__(self, store: MarketStore, cutoff: dt.date):
        self._store = store
        self.cutoff = cutoff
        cut = store.day_index(cutoff)
        self._calendar = store.calendar[: cut + 1]
        self._momentum_cache: dict[int, tuple[MappingProxyType, tuple[str, ...]]] = {}
        self._bars_json_cache: dict[int, str] = {}

    @property
    def calendar(self) -> tuple[dt.date, ...]:
        return self._calendar

    @property
    def symbols(self) -> tuple[str, ...]:
        return self._store.symbols

    def _check(self, t: dt.date):
        if t > self.cutoff:
            raise TemporalViolationError(f"query for {t} is past view cutoff {self.cutoff}")

    def has_bar(self, symbol: str, t: dt.date) -> bool:
        self._check(t)
        return self._store.has_bar(symbol, t)

    def get_bar(self, symbol: str, t: dt.date) -> Bar:
        self._check(t)
        return self._store.get_bar(symbol, t)

    def close(self, symbol: str, t: dt.date) -> float:
        return self.get_bar(symbol, t).close

    def trailing_returns(self, symbol: str, window: int) -> list[float]:
        """Daily close-to-close returns for the last ``window`` steps ending
        at the cutoff; shorter if less history exists, empty if < 2 bars."""
        bars = self._store._bars.get(symbol, {})
        # walk back from the cutoff until window + 1 closes are found
        found = (bars[d].close for d in reversed(self._calendar) if d in bars)
        closes = list(islice(found, window + 1))[::-1]
        return [c1 / c0 - 1.0 for c0, c1 in zip(closes, closes[1:])]

    def momentum(self, window: int) -> tuple[MappingProxyType, tuple[str, ...]]:
        """Mean of ``trailing_returns(symbol, window)`` for every symbol with
        at least two bars, and those symbols strongest trend first (largest
        absolute mean, ties by symbol). Computed once per view and shared,
        read-only, by every reader."""
        if window not in self._momentum_cache:
            means = {}
            for symbol in self.symbols:
                rets = self.trailing_returns(symbol, window)
                if rets:
                    means[symbol] = sum(rets) / len(rets)
            ranked = tuple(sorted(means, key=lambda s: (-abs(means[s]), s)))
            self._momentum_cache[window] = (MappingProxyType(means), ranked)
        return self._momentum_cache[window]

    def bars_json(self, lookback: int) -> str:
        """JSON array of the bars of the last ``lookback`` days, day-major in
        symbol order, as ``json.dumps(bars, sort_keys=True)`` writes it; built
        once per view from the store's day texts and shared by every reader."""
        if lookback not in self._bars_json_cache:
            days = self._calendar[-lookback:]  # every calendar day has a bar
            store = self._store
            store._json_days = max(store._json_days, lookback)
            self._bars_json_cache[lookback] = "[" + ", ".join(map(store.day_json, days)) + "]"
        return self._bars_json_cache[lookback]


def view_until(store: MarketStore, t: dt.date) -> MarketView:
    """Time-restricted view of ``store`` exposing only bars dated <= t."""
    return MarketView(store, t)


def price_change(store: MarketStore, symbol: str, t: dt.date) -> float:
    """Forward close-to-close return from t to the next trading day."""
    i = store.day_index(t)
    if i + 1 >= len(store.calendar):
        raise MissingDataError(f"no trading day after {t}")
    t_next = store.calendar[i + 1]
    c0 = store.close(symbol, t)
    c1 = store.close(symbol, t_next)
    return c1 / c0 - 1.0


def _parse_row(line_no: int, row: list[str]) -> Bar:
    if len(row) != 7:
        raise CsvFormatError(f"line {line_no}: expected 7 fields, got {len(row)}")
    try:
        return Bar(
            date=dt.date.fromisoformat(row[0].strip()),
            symbol=row[1].strip(),
            open=float(row[2]),
            high=float(row[3]),
            low=float(row[4]),
            close=float(row[5]),
            volume=float(row[6]),
        )
    except (ValueError, TypeError) as exc:
        raise CsvFormatError(f"line {line_no}: {exc}") from exc


def ingest_csv(path) -> MarketStore:
    """Load a long-format bar file with header date,symbol,open,high,low,close,volume."""
    bars: list[Bar] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty file") from None
        if [h.strip().lower() for h in header] != CSV_HEADER:
            raise CsvFormatError(f"bad header {header!r}, expected {','.join(CSV_HEADER)}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            bars.append(_parse_row(line_no, row))
    return MarketStore(bars)


def write_csv(store: MarketStore, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for bar in store.iter_bars():
            writer.writerow(
                [bar.date.isoformat(), bar.symbol,
                 repr(bar.open), repr(bar.high), repr(bar.low), repr(bar.close),
                 repr(bar.volume)]
            )


def business_days(start: dt.date, n: int) -> list[dt.date]:
    """The first n weekdays on or after ``start``."""
    out = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


def generate_synthetic(spec: SyntheticSpec) -> MarketStore:
    """Deterministic multiplicative random walk with a daily move limit.

    Raw daily returns are ``daily_vol * z + drift`` (z standard normal,
    drift from any planted effect active that day), then clamped to
    ``[-limit_pct, +limit_pct]`` so the move-limit logic downstream has
    real limit days to act on. Identical specs give bit-identical stores.
    """
    rng = np.random.default_rng(spec.seed)
    days = business_days(spec.start, spec.n_days)
    symbols = [f"SYM{i:03d}" for i in range(spec.n_symbols)]
    drift = np.zeros((spec.n_days, spec.n_symbols))
    sym_index = {s: i for i, s in enumerate(symbols)}
    for eff in spec.planted_effects:
        if eff.symbol not in sym_index:
            raise ValueError(f"planted effect references unknown symbol {eff.symbol}")
        drift[max(eff.start_day, 0):, sym_index[eff.symbol]] += eff.drift

    z = rng.standard_normal((spec.n_days, spec.n_symbols))
    intraday = rng.uniform(0.0, max(spec.daily_vol, 1e-4) / 2.0, (spec.n_days, 2, spec.n_symbols))
    volume = rng.integers(100_000, 1_000_000, (spec.n_days, spec.n_symbols))

    raw = spec.daily_vol * z + drift
    lo = max(-spec.limit_pct, -0.999)
    returns = np.clip(raw, lo, spec.limit_pct)

    bars: list[Bar] = []
    closes = np.full(spec.n_symbols, float(spec.start_price))
    for d in range(spec.n_days):
        prev = closes.copy()
        if d > 0:
            closes = prev * (1.0 + returns[d])
        for j, sym in enumerate(symbols):
            op = float(prev[j]) if d > 0 else float(closes[j])
            cl = float(closes[j])
            hi = max(op, cl) * (1.0 + float(intraday[d, 0, j]))
            lo_px = min(op, cl) * (1.0 - float(intraday[d, 1, j]))
            bars.append(
                Bar(date=days[d], symbol=sym, open=op, high=hi, low=lo_px,
                    close=cl, volume=float(volume[d, j]))
            )
    return MarketStore(bars)


def perturb_after(store: MarketStore, cutoff: dt.date, seed: int) -> MarketStore:
    """Copy of the store with every bar dated after ``cutoff`` rescaled.

    Used by leakage fuzz tests: nothing decided at or before the cutoff
    may change when the future does.
    """
    rng = np.random.default_rng(seed)
    bars = []
    for bar in store.iter_bars():
        if bar.date > cutoff:
            f = math.exp(rng.normal(0.0, 0.05))
            bars.append(
                Bar(date=bar.date, symbol=bar.symbol, open=bar.open * f,
                    high=bar.high * f, low=bar.low * f, close=bar.close * f,
                    volume=bar.volume)
            )
        else:
            bars.append(bar)
    return MarketStore(bars)
