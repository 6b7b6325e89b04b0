"""Daily bar storage, synthetic price generation, and time-restricted views.

A MarketStore is immutable once built: bars are indexed by (symbol, date)
and the trading calendar is the sorted set of distinct bar dates. Views
produced by ``view_until`` share its ``calendar``, ``symbols`` and ``close``,
add the trailing reads agents make (returns, the momentum table, the bars
sent to external agents), and refuse any query past their cutoff date,
which is how downstream consumers are kept from reading the future.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import itertools
import json
import math
from array import array
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field
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
        # every price lies in (0, high] by now, and NaN fails a comparison
        if not (self.high < math.inf and self.volume < math.inf):
            raise ValueError(f"{self.symbol} {self.date}: prices and volume must be finite")


@dataclass(frozen=True)
class PlantedEffect:
    """A drift injected into one symbol from a given calendar index onward;
    one entry of a config's ``data.planted`` list."""

    symbol: str
    drift: float
    start_day: int = field(default=0, kw_only=True)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the deterministic synthetic market generator; each is
    one key of a config's ``data`` section, whose type extends this one."""

    n_symbols: int = 10
    n_days: int = 250
    daily_vol: float = 0.02
    limit_pct: float = 0.10
    start: dt.date = dt.date(2024, 1, 2)
    start_price: float = 100.0
    planted: tuple[PlantedEffect, ...] = ()

    def __post_init__(self):
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be >= 1")
        if self.n_days < 1:
            raise ValueError("n_days must be >= 1")
        # the weekdays from start to the calendar's last day, 9999-12-31
        days = dt.date.max.toordinal() - self.start.toordinal() + 1
        room = days // 7 * 5 + sum((self.start.weekday() + i) % 7 < 5 for i in range(days % 7))
        if self.n_days > room:
            raise ValueError(f"n_days must be at most {room}, the weekdays from {self.start} "
                             f"to {dt.date.max}; got {self.n_days}")
        if not (math.isfinite(self.daily_vol) and self.daily_vol >= 0):
            raise ValueError(f"daily_vol must be a finite number >= 0, got {self.daily_vol!r}")
        if not (0 < self.limit_pct <= 1):
            raise ValueError("limit_pct must be in (0, 1]")
        if not (math.isfinite(self.start_price) and self.start_price > 0):
            raise ValueError(f"start_price must be a finite number > 0, got {self.start_price!r}")


class MarketStore:
    """Immutable daily bars plus the trading calendar, held in columns.

    ``_fields`` is one float64 array of shape (5, symbols, calendar days):
    open, high, low, close and volume, indexed by the position of the symbol
    in ``symbols`` and of the date in ``calendar``. ``_has`` marks the cells
    that hold a bar; the others hold NaN. Reads go by column (``close``,
    ``closes``, ``day_json``); ``iter_bars`` is the one place that builds
    ``Bar`` objects of the held bars.
    """

    def __init__(self, bars: Iterable[Bar]):
        days: dict[dt.date, int] = {}
        syms: dict[str, int] = {}
        day_codes, sym_codes, values = array("q"), array("q"), array("d")
        for bar in bars:
            day_codes.append(days.setdefault(bar.date, len(days)))
            sym_codes.append(syms.setdefault(bar.symbol, len(syms)))
            values.extend((bar.open, bar.high, bar.low, bar.close, bar.volume))
        self._pack(list(days), list(syms), np.frombuffer(day_codes, np.int64),
                   np.frombuffer(sym_codes, np.int64), np.frombuffer(values).reshape(-1, 5))

    @classmethod
    def _from_rows(cls, days: list[dt.date], syms: list[str], day_codes: np.ndarray,
                   sym_codes: np.ndarray, rows: np.ndarray) -> MarketStore:
        store = cls.__new__(cls)
        store._pack(days, syms, day_codes, sym_codes, rows)
        return store

    def _pack(self, days: list[dt.date], syms: list[str], day_codes: np.ndarray,
              sym_codes: np.ndarray, rows: np.ndarray) -> None:
        """Lay out ``rows`` (open, high, low, close, volume), row i being the
        bar of ``syms[sym_codes[i]]`` on ``days[day_codes[i]]`` (a key may
        repeat in either list); raise DuplicateBarError for the first row, in
        row order, whose (symbol, date) came before."""
        self._calendar: tuple[dt.date, ...] = tuple(sorted(set(days)))
        self._index = {d: i for i, d in enumerate(self._calendar)}
        self._symbols: tuple[str, ...] = tuple(sorted(set(syms)))
        self._row = {s: i for i, s in enumerate(self._symbols)}
        shape = len(self._symbols), len(self._calendar)
        day_pos = np.array([self._index[d] for d in days], np.int64)
        sym_pos = np.array([self._row[s] for s in syms], np.int64)
        cell = sym_pos[sym_codes] * shape[1] + day_pos[day_codes]
        has = np.zeros(shape[0] * shape[1], bool)
        has[cell] = True
        if np.count_nonzero(has) < len(cell):
            seen: set[int] = set()  # set.add returns None: the first repeat is kept
            c = next(c for c in cell.tolist() if c in seen or seen.add(c))
            raise DuplicateBarError(f"duplicate bar for ({self._symbols[c // shape[1]]}, "
                                    f"{self._calendar[c % shape[1]]})")
        fields = np.full((5, has.size), np.nan)
        fields[:, cell] = rows.T
        self._fields = fields.reshape(5, *shape)
        self._has = has.reshape(shape)
        # close() runs once per rated symbol per day, and a list read is
        # faster than a numpy scalar read
        self._close_rows = self._fields[3].tolist()
        # every close in (symbol, date) order: the closes of symbol s up to
        # day j end at _upto[s, j]
        self._bar_closes = self._fields[3][self._has]
        self._upto = np.cumsum(has).reshape(shape)
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

    def close(self, symbol: str, t: dt.date) -> float:
        try:
            c = self._close_rows[self._row[symbol]][self._index[t]]
        except KeyError:
            c = math.nan
        if c != c:  # NaN fills the cells without a bar
            raise MissingDataError(f"no bar for ({symbol}, {t})")
        return c

    def closes(self, t: dt.date) -> dict[str, float]:
        """The close of every symbol with a bar on day ``t``."""
        j = self.day_index(t)
        # c == c is false for the NaN of a cell without a bar
        return {s: c for s, row in zip(self._symbols, self._close_rows) if (c := row[j]) == c}

    def day_json(self, t: dt.date) -> str:
        """The bars of day ``t`` in symbol order, as ``json.dumps(bars,
        sort_keys=True)`` writes the items of a list: ", "-joined objects.
        Encoded once per store; once more days are held than the longest
        lookback a view has asked for, the oldest text is dropped."""
        text = self._day_json.get(t)
        if text is None:
            j = self.day_index(t)
            rows = np.flatnonzero(self._has[:, j])
            date = t.isoformat()
            text = self._day_json[t] = json.dumps([
                {"date": date, "symbol": self._symbols[s], "open": o, "high": h,
                 "low": lo, "close": c, "volume": v}
                for s, o, h, lo, c, v in zip(rows.tolist(), *self._fields[:, rows, j].tolist())],
                sort_keys=True)[1:-1]
            if len(self._day_json) > self._json_days:
                del self._day_json[next(iter(self._day_json))]
        return text

    def iter_bars(self):
        """Every bar, by symbol and then by date."""
        for s, symbol in enumerate(self._symbols):
            days = np.flatnonzero(self._has[s])
            for j, values in zip(days.tolist(), self._fields[:, s, days].T.tolist()):
                yield Bar(self._calendar[j], symbol, *values)


class MarketView:
    """Read-only window over a store restricted to dates <= cutoff."""

    def __init__(self, store: MarketStore, cutoff: dt.date):
        self._store = store
        self.cutoff = cutoff
        self._cut = store.day_index(cutoff)
        self._calendar = store.calendar[: self._cut + 1]
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

    def close(self, symbol: str, t: dt.date) -> float:
        self._check(t)
        return self._store.close(symbol, t)

    def trailing_returns(self, symbol: str, window: int) -> list[float]:
        """Daily close-to-close returns for the last ``window`` steps ending
        at the cutoff; shorter if less history exists, empty if < 2 bars."""
        store = self._store
        s = store._row.get(symbol)
        if s is None:
            return []
        first = store._upto.item(s, 0) - store._has.item(s, 0)  # bars before its first
        end = store._upto.item(s, self._cut)
        closes = store._bar_closes[max(end - window - 1, first):end].tolist()
        return [c1 / c0 - 1.0 for c0, c1 in zip(closes, closes[1:])]

    def momentum(self, window: int) -> tuple[MappingProxyType, tuple[str, ...]]:
        """Mean of ``trailing_returns(symbol, window)`` for every symbol with
        at least two bars, and those symbols strongest trend first (largest
        absolute mean, ties by symbol). Computed once per view and shared,
        read-only, by every reader.

        The table is built from the close columns of all symbols at once:
        a (window + 1) × symbols matrix of each symbol's last closes, where a
        symbol with fewer bars repeats its last close (a return of exactly
        0.0). The return rows are added one by one from 0.0, in a fixed
        order, so each mean has the bits of ``sum(rets) / len(rets)`` on
        Python 3.11 (from 3.12, ``sum`` compensates rounding)."""
        if window not in self._momentum_cache:
            store = self._store
            end = store._upto[:, self._cut]  # one past each symbol's last close
            first = store._upto[:, 0] - store._has[:, 0]  # each symbol's first close
            n = np.minimum(end - first - 1, window)  # returns per symbol
            rows = np.flatnonzero(n > 0)
            end, n = end[rows], n[rows]
            at = np.minimum(end - n - 1 + np.arange(window + 1)[:, None], end - 1)
            closes = store._bar_closes[at]
            total = np.zeros(len(rows))
            for rets in closes[1:] / closes[:-1] - 1.0:
                total += rets
            mean = total / n
            order = np.lexsort((rows, -np.abs(mean)))  # rows are in symbol order
            names = [store._symbols[s] for s in rows.tolist()]
            self._momentum_cache[window] = (MappingProxyType(dict(zip(names, mean.tolist()))),
                                            tuple([names[i] for i in order.tolist()]))
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


def ingest_csv(path) -> MarketStore:
    """Load a long-format bar file with header date,symbol,open,high,low,close,volume.

    A plain file (see ``_read_plain``) is parsed by numpy's C text reader.
    Any other file, and any file with a fault, is read again from its start
    by ``_read_rows``, the row loop, which is the one place that words a
    fault: the first fault in file order raises ``CsvFormatError`` naming
    its line (the header is line 1, each row the csv reader yields one more
    line), and the ``Bar`` of a row that fails the checks words its message.
    Both give the same store. The file is opened once and read as UTF-8;
    other bytes raise ``UnicodeDecodeError``."""
    with open(path, newline="", encoding="utf-8") as fh:
        columns = _read_plain(fh)
        if columns is None:
            fh.seek(0)
            columns = _read_rows(fh)
    return MarketStore._from_rows(*columns)


# about 1,100 lines of the benchmark's wide file: numpy's text reader builds
# its strings one chunk at a time, never for the whole file (with 1 MiB
# chunks the freed buffers left the ingest's peak 4 MB higher, at no gain)
_PLAIN_CHUNK = 1 << 16
_PLAIN_READ = {"delimiter": ",", "comments": None, "quotechar": None, "ndmin": 2}


def _plain(lines: list[str], text: str) -> bool:
    """Whether csv.reader splits each of ``lines`` (joined in ``text``) at
    its commas and nowhere else: no quote, NUL or bare CR, and no line past
    the csv field size limit."""
    cr, limit = text.count("\r"), csv.field_size_limit()
    return ('"' not in text and "\0" not in text and (not cr or cr == text.count("\r\n"))
            and (len(text) < limit or max(map(len, lines)) < limit))


def _read_plain(fh):
    """The ``_read_rows`` columns of a plain file, or None.

    A plain file has a plain header, LF or CRLF line ends, and 7 fields on
    every line that is not empty; no row may fault. The five numbers are
    parsed by ``np.loadtxt``, whose accepted texts ``float()`` also accepts,
    with the same bits; ``float()`` also takes some that it refuses (``1_0``,
    non-ASCII digits), which make the file not plain."""
    # a text's code is its number among the distinct texts, in file order
    day_texts: dict[str, int] = defaultdict(itertools.count().__next__)
    sym_texts: dict[str, int] = defaultdict(itertools.count().__next__)
    # C int codes hold half the bytes of the row loop's, and a file with
    # 2**31 distinct dates or symbols would overflow them: it is not plain
    day_codes, sym_codes, values = array("i"), array("i"), array("d")
    try:
        header = fh.readline()
        if not (_plain([header], header) and [h.strip().lower() for h in
                                             header.rstrip("\r\n").split(",")] == CSV_HEADER):
            return None
        while lines := fh.readlines(_PLAIN_CHUNK):
            text = "".join(lines)
            if not _plain(lines, text):
                return None
            if not text.strip("\r\n"):  # empty lines only: loadtxt warns of no data
                continue
            nums = np.loadtxt(lines, np.float64, usecols=range(2, 7), **_PLAIN_READ)
            keys = np.loadtxt(lines, object, usecols=(0, 1), **_PLAIN_READ)
            # every row has at least 7 fields, so this many commas means 7 each
            if text.count(",") != 6 * len(nums):
                return None
            values.frombytes(nums.tobytes())
            day_codes.extend(map(day_texts.__getitem__, keys[:, 0].tolist()))
            sym_codes.extend(map(sym_texts.__getitem__, keys[:, 1].tolist()))
        days = [dt.date.fromisoformat(d.strip()) for d in day_texts]
    except (ValueError, OverflowError):  # a fault, UnicodeDecodeError included
        return None
    rows = np.frombuffer(values).reshape(-1, 5)
    if _first_bad_row(rows) is not None:
        return None
    return (days, [text.strip() for text in sym_texts], np.frombuffer(day_codes, np.intc),
            np.frombuffer(sym_codes, np.intc), rows)


def _read_rows(fh):
    """The row loop: days, symbols, their codes and the rows of ``fh``, for
    ``MarketStore._from_rows``. One pass streams the rows into columns; a
    date text is parsed on the first line that carries it, and the ``Bar``
    checks run on whole columns."""
    day_texts: dict[str, int] = {}
    sym_texts: dict[str, int] = {}
    days: list[dt.date] = []
    blanks: list[int] = []  # for each blank row, the number of rows before it
    day_codes, sym_codes, values = array("q"), array("q"), array("d")
    fault = None
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError("empty file") from None
    except csv.Error as exc:
        raise CsvFormatError(f"line 1: {exc}") from None
    if [h.strip().lower() for h in header] != CSV_HEADER:
        raise CsvFormatError(f"bad header {header!r}, expected {','.join(CSV_HEADER)}")
    try:
        for row in reader:
            try:
                date, symbol, o, h, lo, c, v = row
                code = day_texts.get(date)
                if code is None:
                    code = day_texts[date] = len(days)
                    days.append(dt.date.fromisoformat(date.strip()))
                day_codes.append(code)
                sym_codes.append(sym_texts.setdefault(symbol, len(sym_texts)))
                values.extend((float(o), float(h), float(lo), float(c), float(v)))
            except ValueError as exc:
                if row:
                    fault = str(exc) if len(row) == 7 else f"expected 7 fields, got {len(row)}"
                    break
                blanks.append(len(values) // 5)
    except csv.Error as exc:
        fault = str(exc)
    rows = np.frombuffer(values).reshape(-1, 5)
    syms = [text.strip() for text in sym_texts]
    if (bad := _first_bad_row(rows)) is not None:
        try:
            Bar(days[day_codes[bad]], syms[sym_codes[bad]], *rows[bad].tolist())
        except ValueError as exc:
            fault = str(exc)
    if fault is not None:
        at = len(rows) if bad is None else bad
        raise CsvFormatError(f"line {2 + at + bisect.bisect_right(blanks, at)}: {fault}")
    return days, syms, np.frombuffer(day_codes, np.int64), np.frombuffer(sym_codes, np.int64), rows


def _first_bad_row(rows: np.ndarray) -> int | None:
    """The index of the first row (open, high, low, close, volume) that fails
    the checks of ``Bar.__post_init__``, run on whole columns, or None."""
    o, h, lo, c, v = rows.T
    ok = (np.isfinite(rows).all(axis=1) & (rows[:, :4] > 0).all(axis=1)
          & (lo <= o) & (o <= h) & (lo <= c) & (c <= h) & (v >= 0))
    return None if ok.all() else int(np.argmin(ok))


def write_csv(store: MarketStore, path) -> None:
    """Write every bar of ``store``, by symbol and then by date, as a bar file
    that ``ingest_csv`` reads back to the same store."""
    dates = [d.isoformat() for d in store.calendar]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for s, symbol in enumerate(store.symbols):
            days = np.flatnonzero(store._has[s])
            writer.writerows([dates[j], symbol, *map(repr, values)]
                             for j, values in zip(days.tolist(),
                                                  store._fields[:, s, days].T.tolist()))


def business_days(start: dt.date, n: int) -> list[dt.date]:
    """The first n weekdays on or after ``start``."""
    days = map(dt.date.fromordinal, itertools.count(start.toordinal()))
    return list(itertools.islice((d for d in days if d.weekday() < 5), n))


def generate_synthetic(spec: SyntheticSpec, seed: int) -> MarketStore:
    """Deterministic multiplicative random walk with a daily move limit.

    Raw daily returns are ``daily_vol * z + drift`` (z standard normal,
    drift from any planted effect active that day), then clamped to
    ``[-limit_pct, +limit_pct]`` so the move-limit logic downstream has
    real limit days to act on. The same spec and seed give bit-identical
    stores.
    """
    rng = np.random.default_rng(seed)
    days = business_days(spec.start, spec.n_days)
    symbols = [f"SYM{i:03d}" for i in range(spec.n_symbols)]
    drift = np.zeros((spec.n_days, spec.n_symbols))
    sym_index = {s: i for i, s in enumerate(symbols)}
    for eff in spec.planted:
        if eff.symbol not in sym_index:
            raise ValueError(f"planted effect references unknown symbol {eff.symbol}")
        drift[max(eff.start_day, 0):, sym_index[eff.symbol]] += eff.drift

    z = rng.standard_normal((spec.n_days, spec.n_symbols))
    intraday = rng.uniform(0.0, max(spec.daily_vol, 1e-4) / 2.0, (spec.n_days, 2, spec.n_symbols))
    volume = rng.integers(100_000, 1_000_000, (spec.n_days, spec.n_symbols))

    raw = spec.daily_vol * z + drift
    lo = max(-spec.limit_pct, -0.999)
    returns = np.clip(raw, lo, spec.limit_pct)

    closes = np.empty((spec.n_days, spec.n_symbols))
    closes[0] = float(spec.start_price)
    for d in range(1, spec.n_days):
        closes[d] = closes[d - 1] * (1.0 + returns[d])
    opens = np.concatenate([closes[:1], closes[:-1]])
    rows = np.stack([opens, np.maximum(opens, closes) * (1.0 + intraday[:, 0]),
                     np.minimum(opens, closes) * (1.0 - intraday[:, 1]), closes,
                     volume.astype(float)], axis=-1).reshape(-1, 5)  # day-major
    if (bad := _first_bad_row(rows)) is not None:  # its Bar raises
        Bar(days[bad // spec.n_symbols], symbols[bad % spec.n_symbols], *rows[bad].tolist())
    cells = np.indices((spec.n_days, spec.n_symbols)).reshape(2, -1)
    return MarketStore._from_rows(days, symbols, cells[0], cells[1], rows)


def perturb_after(store: MarketStore, cutoff: dt.date, seed: int) -> MarketStore:
    """Copy of the store with every bar dated after ``cutoff`` rescaled.

    Used by leakage fuzz tests: nothing decided at or before the cutoff
    may change when the future does.
    """
    rng = np.random.default_rng(seed)
    s, j = np.nonzero(store._has)  # every bar, in iter_bars order
    rows = store._fields[:, s, j].T
    later = j >= bisect.bisect_right(store.calendar, cutoff)
    draws = rng.normal(0.0, 0.05, np.count_nonzero(later)).tolist()
    rows[later, :4] *= np.array([math.exp(x) for x in draws])[:, None]
    return MarketStore._from_rows(list(store.calendar), list(store.symbols), j, s, rows)
