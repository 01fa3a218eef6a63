"""OHLC candle series: CSV ingestion and validation, synthetic generation.

Timestamps are integer epoch seconds (UTC). Bar spacing is not enforced beyond
strictly increasing order, so session gaps (weekends) pass through untouched.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from math import inf, isfinite
from pathlib import Path

import numpy as np

from .csvio import RowError, line_of_row, read_rows, write_table
from .errors import ConfigError, DataError

DEFAULT_PIP_SIZE = 1e-4
TRENDS = ("alternate", "up", "down")
SYNTH_START_TS, SYNTH_BAR_SECONDS = 1577836800, 900  # synthetic bars: 2020-01-01T00:00:00Z on, 15 minutes apart
SYNTH_START_PIPS = 11_000  # the synthetic series opens here: 1.10 at the default pip_size


@dataclass(frozen=True)
class CandleSeries:
    """Validated, immutable OHLC series backed by parallel numpy arrays.

    Timestamps must be strictly increasing, every price finite, and every bar
    must satisfy high >= max(open, close), low <= min(open, close) and low > 0.
    The first violation raises DataError naming the bar's timestamp.
    """

    symbol: str
    pip_size: float
    timestamps: np.ndarray  # int64, strictly increasing
    opens: np.ndarray
    highs: np.ndarray
    lows: np.ndarray
    closes: np.ndarray

    def __post_init__(self):
        if self.pip_size <= 0:
            raise ConfigError(f"pip_size must be > 0, got {self.pip_size}")
        for name in ("timestamps", "opens", "highs", "lows", "closes"):
            arr = getattr(self, name)
            if arr.ndim != 1 or len(arr) != len(self.timestamps):
                raise DataError(f"field {name} misaligned with timestamps")
            arr.setflags(write=False)
        ts, o, h, l, c = self.timestamps, self.opens, self.highs, self.lows, self.closes
        back = np.nonzero(np.diff(ts) <= 0)[0]
        if back.size:
            i = int(back[0]) + 1
            raise DataError(f"timestamps not strictly increasing at ts={int(ts[i])} (after {int(ts[i - 1])})")
        fault = _bar_fault(o, h, l, c, where=lambda i: f"ts={int(ts[i])}")
        if fault:
            raise DataError(fault)

    def __len__(self) -> int:
        return len(self.timestamps)


def _bar_fault(o, h, l, c, where) -> str | None:
    """The first bar not finite or not high >= max(open, close) >= min(open, close) >= low > 0, named by `where(i)`."""
    # NaN fails every comparison, and h < inf with l > 0 bounds the rest
    bad = np.flatnonzero(~((0.0 < l) & (l <= o) & (o <= h) & (h < inf) & (l <= c) & (c <= h)))
    if not bad.size:
        return None
    i = int(bad[0])
    prices = float(o[i]), float(h[i]), float(l[i]), float(c[i])
    fault = "OHLC invariant violated" if all(map(isfinite, prices)) else "non-finite price"
    return f"{fault} at {where(i)} (o={prices[0]} h={prices[1]} l={prices[2]} c={prices[3]})"


def make_series(symbol, pip_size, timestamps, opens, highs, lows, closes, source="<memory>") -> CandleSeries:
    """Build a CandleSeries from arrays, sorting by timestamp; errors name `source`.

    Out-of-order rows are sorted (benign export artifact); duplicate timestamps are
    rejected (ambiguous). The CandleSeries constructor then checks the prices.
    """
    ts = np.asarray(timestamps, dtype=np.int64)
    o = np.asarray(opens, dtype=np.float64)
    h = np.asarray(highs, dtype=np.float64)
    l = np.asarray(lows, dtype=np.float64)
    c = np.asarray(closes, dtype=np.float64)
    if len(ts) == 0:
        raise DataError(f"{source}: no candles")

    order = np.argsort(ts, kind="stable")
    if not np.array_equal(order, np.arange(len(ts))):
        ts, o, h, l, c = ts[order], o[order], h[order], l[order], c[order]
    dup = np.nonzero(np.diff(ts) == 0)[0]
    if dup.size:
        raise DataError(f"{source}: duplicate timestamp {int(ts[dup[0]])}")
    try:
        return CandleSeries(symbol, float(pip_size), ts, o, h, l, c)
    except DataError as exc:
        raise DataError(f"{source}: {exc}") from None


def parse_timestamp(text: str) -> int:
    """Epoch seconds from an integer literal or an ISO-8601 UTC timestamp."""
    s = text.strip()
    try:
        return int(s)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(s.replace("Z", "+00:00"))
    except ValueError as exc:
        raise DataError(f"unparseable timestamp {text!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def finite_float(text: str) -> float:
    """`float(text)`, refusing nan and infinities: how every float setting and flag is read."""
    value = float(text)
    if not isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


_CANDLE_COLUMNS = ("timestamp", "open", "high", "low", "close")
_BAR = np.dtype([(name, np.int64 if name == "timestamp" else np.float64) for name in _CANDLE_COLUMNS])


def load_csv(path, symbol: str, pip_size: float = DEFAULT_PIP_SIZE) -> CandleSeries:
    """Load `timestamp,open,high,low,close` CSV (header required) into a validated series.

    Timestamps may be epoch seconds or ISO-8601 UTC. A volume column, if present,
    is ignored, and so are blank lines; any field may be `"`-quoted. Prices must
    be finite. The first fault in the file raises DataError naming its 1-based
    line.

    The body is parsed in one `csvio.read_rows` call, and the series' arrays
    are views of its one record array. numpy reads epoch seconds itself (a
    subset of what `int()` takes, to the same values); if it rejects a line,
    the body is read again with `parse_timestamp` converting the timestamps.
    Where numpy rejects a line of that read, the rows before it are read
    again, so that a bad bar above that line is the one reported.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"candle CSV not found: {path}")
    with open(path, newline="") as fh:
        try:
            for header_line, text in enumerate(iter(fh.readline, ""), start=1):  # the first non-blank line
                header = next(csv.reader([text]), [])
                if header:
                    break
            else:
                raise DataError(f"{path}: empty file")
        except UnicodeDecodeError as exc:  # in the first block the file object decodes
            raise DataError(f"{path}: not UTF-8 text ({exc})") from None
        missing = [col for col in _CANDLE_COLUMNS if col not in header]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        cols = [header.index(col) for col in _CANDLE_COLUMNS]
        read = partial(read_rows, path, fh, header_line, _BAR, usecols=cols, ndmin=1)
        body = fh.tell()
        try:
            bars, malformed = read(), None
        except RowError:
            fh.seek(body)
            read = partial(read, converters={cols[0]: parse_timestamp})
            try:
                bars, malformed = read(), None
            except RowError as exc:  # read the rows above the rejected one, for a bad bar among them
                fh.seek(body)
                bars, malformed = read(max_rows=exc.row or 0), exc
    fault = _bar_fault(*(bars[name] for name in _CANDLE_COLUMNS[1:]),
                       where=lambda i: f"line {line_of_row(path, header_line, i)}")
    if fault or malformed:
        raise DataError(f"{path}: {fault or malformed}")
    if not len(bars):
        raise DataError(f"{path}: no data rows")
    return make_series(symbol, pip_size, *(bars[name] for name in _CANDLE_COLUMNS), source=str(path))


def save_csv(series: CandleSeries, path) -> None:
    """Write a series back to the CSV input format (epoch-second timestamps)."""
    prices = np.column_stack([series.opens, series.highs, series.lows, series.closes])
    write_table(path, list(_CANDLE_COLUMNS), series.timestamps, prices)


@dataclass(frozen=True)
class RegimeParams:
    """The synthetic generator's shape; every run uses `RegimeParams()`, and tests build others.

    The price path is a chain of trend legs. Each leg ramps at a per-bar slope and,
    partway through, gives back most of its gain in a brief counter-move (the
    retracement dip) before rejoining the trend line, so pivot / crossover /
    retracement events all occur at a predictable cadence. Gaussian noise and
    random wicks are added on top; both may be zeroed for degenerate regimes.
    """

    leg_len: tuple[int, int] = (36, 62)  # bars per trend leg, inclusive range
    slope_pips: tuple[float, float] = (1.2, 2.5)  # per-bar drift magnitude
    notch_frac: tuple[float, float] = (0.38, 0.52)  # leg fraction where the dip starts
    notch_retrace: tuple[float, float] = (0.84, 0.92)  # fraction of gain given back
    notch_down_bars: int = 3  # 0 disables the counter-move
    notch_recover_bars: int = 3
    noise_pips: float = 0.25
    wick_pips: float = 0.6
    trend: str = "alternate"  # one of TRENDS
    reversion_pips: float = 250.0  # price-level pull toward the start price; 0 disables

    def __post_init__(self):
        for name in ("leg_len", "slope_pips", "notch_frac", "notch_retrace"):
            if len(getattr(self, name)) != 2:
                raise ConfigError(f"{name} expects two values (low, high), got {getattr(self, name)}")
        if not (1 <= self.leg_len[0] <= self.leg_len[1]):
            raise ConfigError(f"leg_len range invalid: {self.leg_len}")
        if self.slope_pips[0] <= 0 or self.slope_pips[0] > self.slope_pips[1]:
            raise ConfigError(f"slope_pips range invalid: {self.slope_pips}")
        # a dip outside the leg or one that gives nothing back leaves no setups to learn from
        if not 0 < self.notch_frac[0] <= self.notch_frac[1] < 1:
            raise ConfigError(f"notch_frac needs 0 < low <= high < 1, got {self.notch_frac}")
        if not 0 < self.notch_retrace[0] <= self.notch_retrace[1]:
            raise ConfigError(f"notch_retrace needs 0 < low <= high, got {self.notch_retrace}")
        if self.noise_pips < 0 or self.wick_pips < 0 or self.reversion_pips < 0:
            raise ConfigError("noise_pips, wick_pips and reversion_pips must be >= 0")
        if self.notch_down_bars < 0 or self.notch_recover_bars < 0:
            raise ConfigError("notch bar counts must be >= 0")
        if self.notch_down_bars > 0 and self.notch_recover_bars < 1:
            raise ConfigError("notch_recover_bars must be >= 1 when the counter-move is enabled")
        # the longest leg with the earliest start holds the dip if any leg can; else no leg has one
        start = max(1, round(self.leg_len[1] * self.notch_frac[0]))
        if self.notch_down_bars > 0 and start + self.notch_down_bars + self.notch_recover_bars > self.leg_len[1]:
            raise ConfigError(
                f"the dip fits in no leg: it starts at bar {start} at the earliest (leg_len high x notch_frac "
                f"low), and {start} + notch_down_bars {self.notch_down_bars} + notch_recover_bars "
                f"{self.notch_recover_bars} > leg_len high {self.leg_len[1]}"
            )
        if self.trend not in TRENDS:
            raise ConfigError(f"unknown trend mode {self.trend!r}")


def synthetic_series(seed: int, n: int, regime: RegimeParams = RegimeParams(), symbol: str = "SYN",
                     pip_size: float = DEFAULT_PIP_SIZE) -> CandleSeries:
    """Deterministic synthetic OHLC series; pure function of its arguments, with prices in units of pip_size.

    The series opens at SYNTH_START_PIPS pips, so a larger pip_size scales every price by the same factor.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if n < 1 or not pip_size > 0:
        raise ConfigError(f"need n >= 1 and pip_size > 0, got n {n} and pip_size {pip_size}")

    rng = np.random.default_rng(seed)
    closes = np.empty(n)
    direction = -1.0 if regime.trend == "down" else 1.0

    start = SYNTH_START_PIPS * pip_size
    t = 0
    leg_start_price = start
    while t < n:
        leg_len = int(rng.integers(regime.leg_len[0], regime.leg_len[1] + 1))
        slope = rng.uniform(*regime.slope_pips) * pip_size * direction
        if regime.reversion_pips > 0:
            # shrink legs that run away from the anchor, stretch legs pulling back,
            # so the level stays range-bound and train/test windows overlap
            drift = (leg_start_price - start) / (regime.reversion_pips * pip_size)
            slope *= float(np.clip(1.0 - np.sign(slope) * drift, 0.6, 1.6))
        path = leg_start_price + slope * np.arange(1, leg_len + 1)

        if regime.notch_down_bars > 0:
            down, rec = regime.notch_down_bars, regime.notch_recover_bars
            ns = int(round(leg_len * rng.uniform(*regime.notch_frac)))
            retrace = rng.uniform(*regime.notch_retrace)
            if 1 <= ns and ns + down + rec <= leg_len:
                gain = slope * ns  # signed move from leg start to the dip start
                bottom = path[ns - 1] - retrace * gain
                # V-shaped detour: down to `bottom`, then back onto the trend line
                path[ns : ns + down] = path[ns - 1] + (bottom - path[ns - 1]) * (
                    np.arange(1, down + 1) / down
                )
                rejoin = leg_start_price + slope * (ns + down + rec)
                path[ns + down : ns + down + rec] = bottom + (rejoin - bottom) * (
                    np.arange(1, rec + 1) / rec
                )

        take = min(leg_len, n - t)
        closes[t : t + take] = path[:take]
        leg_start_price = path[-1]
        t += take
        if regime.trend == "alternate":
            direction = -direction

    if regime.noise_pips > 0:
        closes = closes + rng.normal(0.0, regime.noise_pips * pip_size, size=n)

    opens = np.empty(n)
    opens[0] = start
    opens[1:] = closes[:-1]
    wick_hi = rng.uniform(0.0, 1.0, size=n) * regime.wick_pips * pip_size
    wick_lo = rng.uniform(0.0, 1.0, size=n) * regime.wick_pips * pip_size
    highs = np.maximum(opens, closes) + wick_hi
    lows = np.minimum(opens, closes) - wick_lo

    timestamps = SYNTH_START_TS + SYNTH_BAR_SECONDS * np.arange(n, dtype=np.int64)
    return CandleSeries(symbol, pip_size, timestamps, opens, highs, lows, closes)
