"""Technical indicator kernels and the 28-column feature matrix.

The feature set is the paper's and is fixed: MACD 12/26/9, SMA over 7 periods,
RSI over 4, ADX over 7, Bollinger 20-bar/2.0 and Williams %R over 4, with the
periods and the column order held in the module constants below. No setting
changes them, so every model and every stats file built by this package sees
the same columns. The kernels themselves take any period.

All kernels return float64 arrays aligned to the input series, with NaN marking
the undefined warm-up prefix. NaN is the only undefined marker; warm-up cells are
never silently zero-filled.

Conventions pinned here so independent re-computations agree:
  * EMA is seeded with the first price (ema[0] = close[0]) and k = 2/(n+1).
  * RSI and ADX use Wilder smoothing: avg = (prev*(n-1) + current) / n, seeded by
    a plain mean over the first n terms.
  * Bollinger uses the population (ddof=0) standard deviation.
  * Degenerate inputs map to bounded neutral values: RSI 50 on zero movement,
    Williams %R -50 on a flat window, DX 0 when both DIs vanish.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .csvio import write_table
from .errors import ConfigError, DataError
from .market_data import CandleSeries

_STD_BLOCK_ROWS = 4096  # windows per block in `bollinger`'s standard deviation

MACD_FAST, MACD_SLOW, MACD_SIGNAL = 12, 26, 9
BOLL_WINDOW, BOLL_K = 20, 2.0
SMA_PERIODS = (5, 10, 15, 20, 25, 30, 36)
RSI_PERIODS = (5, 14, 20, 25)
ADX_PERIODS = (5, 10, 15, 20, 25, 30, 35)
WR_PERIODS = (5, 14, 20, 25)

# Canonical column order: MACD triple, SMA, RSI, ADX, Bollinger triple, WR.
COLUMNS = (
    ("macd", "macd_signal", "macd_hist")
    + tuple(f"sma{p}" for p in SMA_PERIODS)
    + tuple(f"rsi{p}" for p in RSI_PERIODS)
    + tuple(f"adx{p}" for p in ADX_PERIODS)
    + ("boll_lower", "boll_middle", "boll_upper")
    + tuple(f"wr{p}" for p in WR_PERIODS)
)


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-bar indicator values; rows before `warmup_len` contain NaN and are unusable."""

    columns: tuple[str, ...]
    values: np.ndarray  # (n_bars, n_columns) float64, NaN in the warm-up region
    warmup_len: int

    def __post_init__(self):
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return self.values.shape[0]


def _nan_prefix(n: int) -> np.ndarray:
    return np.full(n, np.nan)


def sma(close: np.ndarray, n: int) -> np.ndarray:
    """Simple moving average; defined from index n-1."""
    if n < 1:
        raise ConfigError(f"sma period must be >= 1, got {n}")
    close = np.asarray(close, dtype=np.float64)
    out = _nan_prefix(len(close))
    if n <= len(close):
        out[n - 1 :] = sliding_window_view(close, n).mean(axis=1)
    return out


def _smooth(xs: np.ndarray, acc: float, n: int = 0, k: float = 0.0) -> np.ndarray:
    """Run a first-order recurrence from `acc` over `xs`.

    Returns a float64 array of len(xs) + 1: element 0 is the start state `acc`,
    element i the state after step i.

    With `n`, Wilder's smoothing acc = (acc*(n-1) + x) / n; otherwise the EMA
    step acc = x*k + acc*(1-k). The loop runs over Python floats, which keeps
    numpy's per-scalar dispatch out of it; the arithmetic, and so every bit of
    the result, is that of the same recurrence on float64 scalars. It reads `xs`
    through a memoryview and appends to a float64 buffer, so no list of boxed
    floats is built on either side; the result is a view of that buffer.
    """
    out = array("d", [acc])
    append = out.append
    acc = float(acc)
    if n:
        w = n - 1
        for x in memoryview(xs):
            acc = (acc * w + x) / n
            append(acc)
    else:
        j = 1.0 - k
        for x in memoryview(xs):
            acc = x * k + acc * j
            append(acc)
    return np.frombuffer(out)


def _wilder_series(xs: np.ndarray, n: int) -> np.ndarray:
    """Wilder average of `xs`: the mean of xs[:n], then one smoothing step per later value."""
    return _smooth(xs[n:], xs[:n].mean(), n=n)


def ema(close: np.ndarray, n: int) -> np.ndarray:
    """Exponential moving average: out[t] = k*close[t] + (1-k)*out[t-1], k = 2/(n+1).

    Seeded with the first price, out[0] = close[0], so it is defined from index 0.
    """
    if n < 1:
        raise ConfigError(f"ema period must be >= 1, got {n}")
    close = np.asarray(close, dtype=np.float64)
    if not len(close):
        return np.empty(0)
    return _smooth(close[1:], close[0], k=2.0 / (n + 1.0))


def macd(close: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(macd, signal, histogram): fast EMA minus slow EMA, its EMA, and their difference."""
    line = ema(close, MACD_FAST) - ema(close, MACD_SLOW)
    signal = ema(line, MACD_SIGNAL)
    return line, signal, line - signal


def rsi(close: np.ndarray, n: int) -> np.ndarray:
    """Wilder's relative strength index in [0, 100]; defined from index n.

    Zero average movement in both directions yields the neutral 50.
    """
    if n < 1:
        raise ConfigError(f"rsi period must be >= 1, got {n}")
    close = np.asarray(close, dtype=np.float64)
    out = _nan_prefix(len(close))
    if len(close) <= n:
        return out
    delta = np.diff(close)
    avg_gain = _wilder_series(np.maximum(delta, 0.0), n)
    avg_loss = _wilder_series(np.maximum(-delta, 0.0), n)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)
    out[n:] = np.where(avg_loss == 0.0, np.where(avg_gain == 0.0, 50.0, 100.0), value)
    return out


def adx(high: np.ndarray, low: np.ndarray, close: np.ndarray, n: int) -> np.ndarray:
    """Wilder's average directional index in [0, 100]; defined from index 2n-1.

    DX is defined as 0 whenever +DI + -DI vanishes (no directional movement).
    """
    if n < 1:
        raise ConfigError(f"adx period must be >= 1, got {n}")
    high = np.asarray(high, dtype=np.float64)
    low = np.asarray(low, dtype=np.float64)
    close = np.asarray(close, dtype=np.float64)
    m = len(close)
    out = _nan_prefix(m)
    if m < 2 * n:
        return out

    up = high[1:] - high[:-1]
    down = low[:-1] - low[1:]
    plus_dm = np.where((up > down) & (up > 0.0), up, 0.0)
    minus_dm = np.where((down > up) & (down > 0.0), down, 0.0)
    tr = np.maximum.reduce(
        [high[1:] - low[1:], np.abs(high[1:] - close[:-1]), np.abs(low[1:] - close[:-1])]
    )

    # Wilder-smoothed +DM, -DM and TR for bars n..m-1, then +DI, -DI and DX on them.
    sm_tr = _wilder_series(tr, n)
    moving = sm_tr > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        plus_di = np.where(moving, 100.0 * _wilder_series(plus_dm, n) / sm_tr, 0.0)
        minus_di = np.where(moving, 100.0 * _wilder_series(minus_dm, n) / sm_tr, 0.0)
        di_sum = plus_di + minus_di
        dx = np.where(di_sum > 0.0, 100.0 * np.abs(plus_di - minus_di) / di_sum, 0.0)
    out[2 * n - 1 :] = _wilder_series(dx, n)
    return out


def bollinger(close: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, middle, upper) bands: SMA +- k * population stddev over the window."""
    close = np.asarray(close, dtype=np.float64)
    w, k = BOLL_WINDOW, BOLL_K
    middle = sma(close, w)
    dev = _nan_prefix(len(close))
    if w <= len(close):
        # in row blocks: std of the whole view would allocate an (n, w) temporary;
        # each row's std is computed alone, so the blocks change no bit
        windows, out = sliding_window_view(close, w), dev[w - 1 :]
        for lo in range(0, len(windows), _STD_BLOCK_ROWS):
            out[lo : lo + _STD_BLOCK_ROWS] = windows[lo : lo + _STD_BLOCK_ROWS].std(axis=1)
    return middle - k * dev, middle, middle + k * dev


def williams_r(high: np.ndarray, low: np.ndarray, close: np.ndarray, n: int) -> np.ndarray:
    """Williams %R in [-100, 0]; defined from index n-1. Flat windows map to -50."""
    if n < 1:
        raise ConfigError(f"williams_r period must be >= 1, got {n}")
    high = np.asarray(high, dtype=np.float64)
    low = np.asarray(low, dtype=np.float64)
    close = np.asarray(close, dtype=np.float64)
    out = _nan_prefix(len(close))
    if n > len(close):
        return out
    hh = sliding_window_view(high, n).max(axis=1)
    ll = sliding_window_view(low, n).min(axis=1)
    span = hh - ll
    with np.errstate(invalid="ignore", divide="ignore"):
        wr = (hh - close[n - 1 :]) / span * -100.0
    wr[span == 0.0] = -50.0
    out[n - 1 :] = wr
    return out


def feature_matrix(series: CandleSeries) -> FeatureMatrix:
    """Assemble the 28 indicator columns in `COLUMNS` order.

    warmup_len is the first row at which every column is defined: 2*35 - 1 = 69
    (the slowest ADX), or the series length when it is shorter.
    """
    values = np.empty((len(series), len(COLUMNS)))
    warmup = 0
    for j, col in enumerate(_columns(series)):
        values[:, j] = col
        finite = np.nonzero(np.isfinite(col))[0]
        warmup = max(warmup, int(finite[0]) if finite.size else len(series))
    if warmup >= len(series):
        warnings.warn(
            f"series of {len(series)} bars is shorter than the indicator warm-up; "
            "feature matrix has no usable rows",
            UserWarning,
            stacklevel=2,
        )
        warmup = len(series)
    elif not np.all(np.isfinite(values[warmup:])):
        bad = np.argwhere(~np.isfinite(values[warmup:]))[0]
        raise DataError(
            f"indicator {COLUMNS[bad[1]]} is not finite at bar {warmup + int(bad[0])}, "
            f"past its warm-up of {warmup} bars"
        )
    return FeatureMatrix(COLUMNS, values, warmup)


def _columns(series: CandleSeries):
    """Yield the indicator columns one at a time, in `COLUMNS` order."""
    closes, highs, lows = series.closes, series.highs, series.lows
    yield from macd(closes)
    for p in SMA_PERIODS:
        yield sma(closes, p)
    for p in RSI_PERIODS:
        yield rsi(closes, p)
    for p in ADX_PERIODS:
        yield adx(highs, lows, closes, p)
    yield from bollinger(closes)
    for p in WR_PERIODS:
        yield williams_r(highs, lows, closes, p)


def save_features_csv(series: CandleSeries, features: FeatureMatrix, path) -> None:
    """Export `timestamp` plus named indicator columns; undefined cells are empty."""
    write_table(path, ["timestamp", *features.columns], series.timestamps, features.values, blank_nonfinite=True)
