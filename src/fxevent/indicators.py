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

Recurrences. Wilder's smoothing and the EMA are one first-order step,
acc = (acc*a + x*b) / c, with a = n-1, b = 1, c = n for Wilder and a = 1-k,
b = k, c = 1 for the EMA. Each smoothed series is a lane. `feature_matrix`
advances its 39 lanes in one time loop of three numpy calls per bar over the
lane vector: tmp = acc*a, tmp += xb, out = tmp/c, with xb = x*b formed once per
block. Every lane keeps the bits of the scalar step: x*1 and /1 are exact,
IEEE addition commutes, separate ufunc calls never fuse into a multiply-add,
and a Wilder lane is still seeded by the mean of its first n inputs.

The lanes seed at different bars, the slowest ADX at bar 69, so up to the last
seed each lane runs as a Python-float loop. After it the vector loop goes
through blocks of `_BLOCK_ROWS` bars. The price-fed inputs (gain, loss, TR,
+DM, -DM, and the close for MACD) are formed per block into one block buffer,
which the loop overwrites with the states; no full-length input is held. The 8
lanes fed by other lanes' states (DX per ADX period, the MACD signal) run one
block behind in the same loop: while the first stage steps through block k,
they step through block k-1. DX waits in the ADX columns until its smoothing
overwrites it.

A numpy step costs about the same whatever the lane count, while a
Python-float step costs per lane, so the vector loop pays only for many lanes.
The step is dispatch cost: `_advance` binds its ufuncs locally and passes
their outputs positionally, as an `out=` keyword costs about 0.1 us a call.
`ema`, a lone lane that event detection calls on the full series, stays a
float loop that reads its input through a memoryview and copies none of it.
`rsi`, `adx` and `macd` run the lane engine with their own 2 to 4 lanes, so
the Wilder and EMA steps exist in one place.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .csvio import write_table
from .errors import ConfigError, DataError
from .market_data import CandleSeries

# Bars per block of the recurrence loop, and windows per block of `bollinger`'s
# std. The block buffer (1024 x 39 floats, 320 KB) stays below the size of one
# 100k-bar column. Freeing a larger one raises glibc's dynamic mmap threshold:
# at 4096 rows (1.3 MB) the resident peak of a 5k-bar experiment grew by 1.3 MB.
_BLOCK_ROWS = 1024

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


def _lane(n: int, start: int, wilder: bool) -> tuple:
    """(a, b, c, first input bar, seed bar) of a Wilder or an EMA lane of period n.

    A Wilder lane is seeded at its n-th input by the mean of its first n inputs,
    an EMA lane at its first input by that input.
    """
    if wilder:
        return n - 1.0, 1.0, float(n), start, start + n - 1
    k = 2.0 / (n + 1.0)
    return 1.0 - k, k, 1.0, start, start


def _smooth(xs: np.ndarray, acc: float, a: float, b: float, c: float) -> np.ndarray:
    """One lane as a Python-float loop: element 0 is `acc`, element i+1 is (element i * a + xs[i] * b) / c.

    Python floats keep numpy's per-scalar dispatch out of the loop, and a
    Python float product has the bits of numpy's. It reads `xs` through a
    memoryview and appends to a float64 buffer, so neither a scaled copy of the
    input nor a list of boxed floats is built; the result is a view of that
    buffer.
    """
    out = array("d", [acc])
    append = out.append
    acc, a, b, c = float(acc), float(a), float(b), float(c)
    for x in memoryview(xs):
        acc = (acc * a + x * b) / c
        append(acc)
    return np.frombuffer(out)


def _advance(acc: np.ndarray, a: np.ndarray, rows: np.ndarray, c: np.ndarray) -> None:
    """Step the lanes from states `acc` through `rows`, in place: xb on entry, the states on return."""
    tmp, multiply, add, divide = np.empty_like(acc), np.multiply, np.add, np.divide
    for row in list(rows):
        multiply(acc, a, tmp)
        add(tmp, row, tmp)
        divide(tmp, c, row)
        acc = row


def _recurrences(close, high=None, low=None, *, macd=None, rsi=None, adx=None) -> None:
    """Fill the Wilder and EMA indicators the caller names, each into its own output.

    `macd` is a (bars, 3) output for the MACD line, signal and histogram. `rsi`
    and `adx` map a period to its (bars,) output column; ADX also reads `high`
    and `low`. Every output adds its lanes to the one time loop.
    """
    rsi, adx = rsi or {}, adx or {}
    m, e, r, d = len(close), 2 * (macd is not None), len(rsi), len(adx)
    s = e // 2  # the MACD signal lane of the second stage
    first = (
        [_lane(MACD_FAST, 0, False), _lane(MACD_SLOW, 0, False)][:e]
        + [_lane(n, 1, True) for n in rsi] * 2
        + [_lane(n, 1, True) for n in adx] * 3
    )
    second = [_lane(MACD_SIGNAL, 0, False)][:s] + [_lane(n, n, True) for n in adx]
    n1, lanes = len(first), len(first) + len(second)
    a, b, c, start, seed = (np.array(v) for v in zip(*first, *second))
    edges = list(accumulate((e, r, r, d, d, d)))
    gain, loss, tr, pdm, mdm = (slice(lo, hi) for lo, hi in zip(edges, edges[1:]))

    def put(columns, lo, hi, block):
        for column, values in zip(columns.values(), block.T):
            column[lo:hi] = values

    def inputs(lo, hi, x):
        """First-stage inputs of bars lo..hi-1 into `x`; bar 0 has no previous bar and gets NaN."""
        x[:, :e] = close[lo:hi, None]
        j = max(lo, 1)
        x[: j - lo, e:] = np.nan
        now, prev, x = slice(j, hi), slice(j - 1, hi - 1), x[j - lo :]
        if r:
            delta = close[now] - close[prev]
            x[:, gain] = np.maximum(delta, 0.0)[:, None]
            x[:, loss] = np.maximum(-delta, 0.0)[:, None]
        if d:
            up, down = high[now] - high[prev], low[prev] - low[now]
            x[:, pdm] = np.where((up > down) & (up > 0.0), up, 0.0)[:, None]
            x[:, mdm] = np.where((down > up) & (down > 0.0), down, 0.0)[:, None]
            x[:, tr] = np.maximum.reduce(
                [high[now] - low[now], np.abs(high[now] - close[prev]), np.abs(low[now] - close[prev])]
            )[:, None]

    def derive(lo, hi, y):
        """The MACD line, RSI and DX of bars lo..hi-1 from the first-stage states `y`."""
        if e:
            macd[lo:hi, 0] = y[:, 0] - y[:, 1]
        g, l, t = y[:, gain], y[:, loss], y[:, tr]
        moving = t > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            put(rsi, lo, hi, np.where(l == 0.0, np.where(g == 0.0, 50.0, 100.0), 100.0 - 100.0 / (1.0 + g / l)))
            plus_di = np.where(moving, 100.0 * y[:, pdm] / t, 0.0)
            minus_di = np.where(moving, 100.0 * y[:, mdm] / t, 0.0)
            di_sum = plus_di + minus_di
            put(adx, lo, hi, np.where(di_sum > 0.0, 100.0 * np.abs(plus_di - minus_di) / di_sum, 0.0))

    def parked(lo, hi, x):
        """Second-stage inputs of bars lo..hi-1 into `x`: the MACD line and the DX parked by `derive`."""
        if e:
            x[:, 0] = macd[lo:hi, 0]
        for j, column in enumerate(adx.values(), s):
            x[:, j] = column[lo:hi]

    def finish(lo, hi, y):
        """The signal, histogram and ADX of bars lo..hi-1 from the second-stage states `y`."""
        if e:
            macd[lo:hi, 1] = y[:, 0]
            macd[lo:hi, 2] = macd[lo:hi, 0] - y[:, 0]
        put(adx, lo, hi, y[:, s:])

    def float_loops(x, y, part):
        """Each lane of `part` over the rows of `x` as a float loop into `y`; NaN before its seed bar."""
        for j, xj, yj in zip(range(part.start, part.stop), x.T, y.T):
            yj[: seed[j]] = np.nan
            if seed[j] < len(xj):
                yj[seed[j] :] = _smooth(xj[seed[j] + 1 :], xj[start[j] : seed[j] + 1].mean(), a[j], b[j], c[j])

    one, two = slice(0, n1), slice(n1, lanes)
    warm = min(int(seed.max()) + 1, m)
    x, y = np.empty((warm, lanes)), np.empty((warm, lanes))
    inputs(0, warm, x[:, one])
    float_loops(x[:, one], y[:, one], one)
    derive(0, warm, y[:, one])
    parked(0, warm, x[:, two])
    float_loops(x[:, two], y[:, two], two)
    finish(0, warm, y[:, two])
    if warm == m:
        return

    # Every lane is live from bar `warm` on. The second stage steps through the
    # block before the first stage's; a last iteration drains it. When the last
    # block is short, the first stage steps on past it through stale rows of the
    # buffer into states that are never read.
    acc, buf = y[-1].copy(), np.empty((_BLOCK_ROWS, lanes))
    blocks = [(lo, min(lo + _BLOCK_ROWS, m)) for lo in range(warm, m, _BLOCK_ROWS)]
    for (lo, hi), (plo, phi) in zip(blocks + [(m, m)], [(warm, warm)] + blocks):
        part = slice(0 if hi > lo else n1, lanes if phi > plo else n1)
        if part.start == part.stop:  # the drain, with no second stage
            continue
        inputs(lo, hi, buf[: hi - lo, one])
        parked(plo, phi, buf[: phi - plo, two])
        rows = buf[: max(hi - lo, phi - plo), part]
        rows *= b[part]
        _advance(acc[part], a[part], rows, c[part])
        acc[part] = rows[-1]
        derive(lo, hi, buf[: hi - lo, one])
        finish(plo, phi, buf[: phi - plo, two])


def ema(close: np.ndarray, n: int) -> np.ndarray:
    """Exponential moving average: out[t] = k*close[t] + (1-k)*out[t-1], k = 2/(n+1).

    Seeded with the first price, out[0] = close[0], so it is defined from index 0.
    """
    if n < 1:
        raise ConfigError(f"ema period must be >= 1, got {n}")
    close = np.asarray(close, dtype=np.float64)
    if not len(close):
        return np.empty(0)
    a, b, c, _, _ = _lane(n, 0, False)
    return _smooth(close[1:], close[0], a, b, c)


def macd(close: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(macd, signal, histogram): fast EMA minus slow EMA, its EMA, and their difference."""
    close = np.asarray(close, dtype=np.float64)
    out = np.empty((3, len(close)))
    _recurrences(close, macd=out.T)
    return tuple(out)


def rsi(close: np.ndarray, n: int) -> np.ndarray:
    """Wilder's relative strength index in [0, 100]; defined from index n.

    Zero average movement in both directions yields the neutral 50.
    """
    if n < 1:
        raise ConfigError(f"rsi period must be >= 1, got {n}")
    close = np.asarray(close, dtype=np.float64)
    out = np.empty(len(close))
    _recurrences(close, rsi={n: out})
    return out


def adx(high: np.ndarray, low: np.ndarray, close: np.ndarray, n: int) -> np.ndarray:
    """Wilder's average directional index in [0, 100]; defined from index 2n-1.

    DX is defined as 0 whenever +DI + -DI vanishes (no directional movement).
    """
    if n < 1:
        raise ConfigError(f"adx period must be >= 1, got {n}")
    high, low, close = (np.asarray(v, dtype=np.float64) for v in (high, low, close))
    out = np.empty(len(close))
    _recurrences(close, high, low, adx={n: out})
    return out


def sliding_extreme(x: np.ndarray, n: int, ufunc) -> np.ndarray:
    """`ufunc` (np.maximum or np.minimum) over each run of n consecutive elements of x, 1 <= n <= len(x).

    Windows double up to the largest power of two w <= n, and two overlapping windows of w cover one of
    n: about log2(n) whole-column passes, two columns live at a time. Max and min never round, so this is
    `sliding_window_view(x, n).max/min(axis=1)` bit for bit, save the sign of a zero among zeros.
    """
    x, w = np.asarray(x, dtype=np.float64), 1
    while 2 * w <= n:
        x, w = ufunc(x[:-w], x[w:]), 2 * w
    return ufunc(x[: len(x) - n + w], x[n - w :])


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
        for lo in range(0, len(windows), _BLOCK_ROWS):
            out[lo : lo + _BLOCK_ROWS] = windows[lo : lo + _BLOCK_ROWS].std(axis=1)
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
    hh = sliding_extreme(high, n, np.maximum)
    ll = sliding_extreme(low, n, np.minimum)
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
    closes, highs, lows = series.closes, series.highs, series.lows
    values = np.empty((len(series), len(COLUMNS)))
    at = {name: j for j, name in enumerate(COLUMNS)}
    _recurrences(
        closes, highs, lows, macd=values[:, at["macd"] : at["macd"] + 3],
        rsi={p: values[:, at[f"rsi{p}"]] for p in RSI_PERIODS},
        adx={p: values[:, at[f"adx{p}"]] for p in ADX_PERIODS},
    )
    for p in SMA_PERIODS:
        values[:, at[f"sma{p}"]] = sma(closes, p)
    for name, band in zip(("boll_lower", "boll_middle", "boll_upper"), bollinger(closes)):
        values[:, at[name]] = band
    for p in WR_PERIODS:
        values[:, at[f"wr{p}"]] = williams_r(highs, lows, closes, p)

    finite = np.isfinite(values)
    warmup = max(int(ok.argmax()) if ok.any() else len(series) for ok in finite.T)
    if warmup >= len(series):
        warnings.warn(
            f"series of {len(series)} bars is shorter than the indicator warm-up; "
            "feature matrix has no usable rows",
            UserWarning,
            stacklevel=2,
        )
        warmup = len(series)
    elif not finite[warmup:].all():
        bad = np.argwhere(~finite[warmup:])[0]
        raise DataError(
            f"indicator {COLUMNS[bad[1]]} is not finite at bar {warmup + int(bad[0])}, "
            f"past its warm-up of {warmup} bars"
        )
    return FeatureMatrix(COLUMNS, values, warmup)


def save_features_csv(series: CandleSeries, features: FeatureMatrix, path) -> None:
    """Export `timestamp` plus named indicator columns; undefined cells are empty."""
    write_table(path, ["timestamp", *features.columns], series.timestamps, features.values, blank_nonfinite=True)
