"""Entry-event detection: pivot, moving-average crossover, and retracement.

A tradeable setup is the ordered triple

    pivot (trend turn)  ->  crossover (trend confirmation)  ->  retracement (entry target)

The pipeline's event definition is fixed, with no config key or flag:
`ZigZagParams()` and `RetraceParams()` at their defaults, and the crossover of
the close's EMA(CROSS_FAST) and EMA(CROSS_SLOW). The kernels below take any
parameters, so tests can sweep them.

The ZigZag pivot semantics are pinned exactly so an independent brute-force
re-derivation matches index for index:

  (a) candidacy: bar i is a trough candidate iff low[i] is <= every low in the
      clamped window [i-depth, i+depth] and strictly below every *earlier* low in
      that window (ties resolve to the earliest bar); peaks mirror on highs.
  (b) deviation: an opposite-kind pivot is emitted only if its price differs from
      the previous pivot's price by at least deviation_pips * pip_size.
  (c) backstep: adjacent emitted pivots are at least `backstep` bars apart.

  Candidates are processed in index order, troughs before peaks at an equal
  index. A same-kind candidate replaces the current provisional pivot only when
  it is strictly more extreme and keeps >= backstep bars to the pivot before it.
  A candidate that fails (b) or (c) is discarded, not remembered. Fewer than two
  surviving pivots means the deviation rule never confirmed any movement, and
  the result is empty.

  confirm_index = min(index + depth, n - 1): the first bar at which the
  candidacy window is complete, i.e. when rules (a)-(c) become decidable. Pivots
  still repaint after it (a later, more extreme same-kind candidate can replace a
  provisional pivot): the detector's known look-ahead. Every setup is used, even
  one whose crossover precedes that bar. ROADMAP.md plans to score causal setups.

Rule (a) and the retracement's strict local-extremum test take their window
extremes from `indicators.sliding_extreme`, and `zigzag` visits only candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .indicators import sliding_extreme
from .market_data import CandleSeries

TROUGH = "trough"
PEAK = "peak"
BULLISH = "bullish"
BEARISH = "bearish"
UP = "up"
DOWN = "down"
CROSS_FAST, CROSS_SLOW = 5, 20  # EMA periods of the close whose crossover confirms a trend


@dataclass(frozen=True)
class Pivot:
    index: int
    kind: str  # TROUGH | PEAK
    price: float  # low at a trough, high at a peak
    confirm_index: int


@dataclass(frozen=True)
class ZigZagParams:
    depth: int = 12
    deviation_pips: float = 5.0
    backstep: int = 3

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.deviation_pips <= 0:
            raise ConfigError(f"deviation_pips must be > 0, got {self.deviation_pips}")
        if self.backstep < 0:
            raise ConfigError(f"backstep must be >= 0, got {self.backstep}")


@dataclass(frozen=True)
class CrossEvent:
    index: int
    direction: str  # BULLISH | BEARISH


@dataclass(frozen=True)
class RetraceParams:
    local_radius: int = 3  # half-width of the strict local-extremum test
    lookahead: int = 60  # bars after the crossover in which the entry must appear

    def __post_init__(self):
        if self.local_radius < 1:
            raise ConfigError(f"local_radius must be >= 1, got {self.local_radius}")
        if self.lookahead <= self.local_radius:
            raise ConfigError("lookahead must exceed local_radius")


@dataclass(frozen=True)
class EventSequence:
    """A setup: the pivot fixes the trend, and the close at retrace_index is the target."""

    pivot: Pivot
    cross: CrossEvent
    retrace_index: int

    def __post_init__(self):
        if not (self.pivot.index < self.cross.index < self.retrace_index):
            raise ConfigError(
                f"event ordering violated: {self.pivot.index} < {self.cross.index} "
                f"< {self.retrace_index} required"
            )
        if (self.pivot.kind == TROUGH) != (self.cross.direction == BULLISH):
            raise ConfigError(f"{self.pivot.kind} pivot cannot pair with a {self.cross.direction} cross")

    @property
    def trend(self) -> str:
        return UP if self.pivot.kind == TROUGH else DOWN


@dataclass
class SequenceDiagnostics:
    """Tally of how pivot/cross chains resolved; emitted + no_retracement = eligible_crossovers."""

    pivots: int = 0
    pivots_unmatched: int = 0
    eligible_crossovers: int = 0
    no_retracement: int = 0
    emitted: int = 0


def _window_candidates(values: np.ndarray, depth: int, is_trough: bool) -> np.ndarray:
    """Boolean candidacy mask per rule (a). -inf padding emulates the clamped window."""
    v = -values if is_trough else values  # reduce both kinds to "window maximum"
    padded = np.concatenate([np.full(depth, -np.inf), v, np.full(depth, -np.inf)])
    side = sliding_extreme(padded, depth, np.maximum)  # bar i's earlier side is side[i], its later side[i + depth + 1]
    return (v > side[: len(v)]) & (v >= side[depth + 1 :])


def zigzag(series: CandleSeries, params: ZigZagParams = ZigZagParams()) -> list[Pivot]:
    """Alternating peak/trough pivots under the depth/deviation/backstep rules above."""
    n = len(series)
    if n < 2 * params.depth + 1:
        return []
    lows, highs = series.lows, series.highs
    trough_ok = _window_candidates(lows, params.depth, is_trough=True)
    peak_ok = _window_candidates(highs, params.depth, is_trough=False)

    at = np.flatnonzero(trough_ok | peak_ok)  # the candidate bars, a few in a hundred
    candidates: list[tuple[int, str, float]] = []
    for i, trough, peak, low, high in zip(at.tolist(), *(v[at].tolist() for v in (trough_ok, peak_ok, lows, highs))):
        if trough:
            candidates.append((i, TROUGH, low))
        if peak:
            candidates.append((i, PEAK, high))

    deviation = params.deviation_pips * series.pip_size
    pivots: list[tuple[int, str, float]] = []
    for i, kind, price in candidates:
        if not pivots:
            pivots.append((i, kind, price))
            continue
        last_i, last_kind, last_price = pivots[-1]
        if kind == last_kind:
            more_extreme = price < last_price if kind == TROUGH else price > last_price
            prev_ok = len(pivots) < 2 or i - pivots[-2][0] >= params.backstep
            if more_extreme and prev_ok:
                pivots[-1] = (i, kind, price)
        else:
            if abs(price - last_price) >= deviation and i - last_i >= params.backstep:
                pivots.append((i, kind, price))

    if len(pivots) < 2:
        # a lone provisional pivot never met the deviation rule; no zigzag movement
        return []
    return [
        Pivot(i, kind, price, min(i + params.depth, n - 1)) for i, kind, price in pivots
    ]


def crossovers(fast: np.ndarray, slow: np.ndarray) -> list[CrossEvent]:
    """Sign changes of fast - slow. NaN warm-up prefixes are skipped; a run of exact
    zeros carries the preceding sign, so a touch-and-bounce does not fire."""
    fast = np.asarray(fast, dtype=np.float64)
    slow = np.asarray(slow, dtype=np.float64)
    if fast.shape != slow.shape:
        raise ConfigError(f"length mismatch: fast {fast.shape} vs slow {slow.shape}")
    d = fast - slow
    signed = np.flatnonzero(np.isfinite(d) & (d != 0.0))
    rising = d[signed] > 0.0
    flips = np.flatnonzero(rising[1:] != rising[:-1]) + 1
    return [
        CrossEvent(t, BULLISH if up else BEARISH)
        for t, up in zip(signed[flips].tolist(), rising[flips].tolist())
    ]


def retracement_candidates(closes: np.ndarray, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """(minima, maxima): masks of the closes that are strict local extrema over
    [t - radius, t + radius]. Bars whose window leaves the series are never candidates."""
    closes = np.asarray(closes, dtype=np.float64)
    minima = np.zeros(len(closes), dtype=bool)
    maxima = np.zeros(len(closes), dtype=bool)
    if len(closes) > 2 * radius:
        centre = closes[radius:-radius]
        for mask, ufunc, beyond in ((minima, np.minimum, np.less), (maxima, np.maximum, np.greater)):
            side = sliding_extreme(closes, radius, ufunc)  # bar t's sides: side[t - radius] and side[t + 1]
            mask[radius:-radius] = beyond(centre, side[: -radius - 1]) & beyond(centre, side[radius + 1 :])
            del side  # so that the next side is built with this one freed
    return minima, maxima


def find_retracement(
    series: CandleSeries,
    cross: CrossEvent,
    params: RetraceParams,
    barrier: int,
    candidates: tuple[np.ndarray, np.ndarray],
) -> int | None:
    """Bar index of the first counter-trend close after the crossover, or None.

    After a bullish crossover: the first t in the open interval
    (cross.index, min(cross.index + lookahead, barrier)) where close[t] is a
    strict local minimum over [t - m, t + m] and close[t] < close[cross.index].
    Bearish crossovers mirror with a local maximum above the crossover close.
    The extremum window must lie fully inside the series.

    `candidates` is `retracement_candidates(series.closes, params.local_radius)`,
    computed once per series by the caller.
    """
    closes = series.closes
    start = cross.index + 1
    end = max(start, min(cross.index + params.lookahead, barrier))
    ref = closes[cross.index]
    span = closes[start:end]
    if cross.direction == BULLISH:
        hits = candidates[0][start:end] & (span < ref)
    else:
        hits = candidates[1][start:end] & (span > ref)
    first = np.flatnonzero(hits)
    return start + int(first[0]) if first.size else None


def assemble_sequences(
    pivots: list[Pivot],
    crosses: list[CrossEvent],
    series: CandleSeries,
    params: RetraceParams = RetraceParams(),
) -> tuple[list[EventSequence], SequenceDiagnostics]:
    """Chain pivot -> first direction-matched crossover -> retracement into sequences.

    Each pivot claims the first direction-consistent crossover strictly between
    itself and the next pivot; a crossover consumed by a pivot is spent even when
    no retracement follows. Incomplete chains are dropped and tallied. Both lists
    must be in index order, as `zigzag` and `crossovers` return them; the pivot
    intervals are then disjoint, no crossover can be claimed twice, and the
    sequences come out in crossover order.
    """
    diags = SequenceDiagnostics(pivots=len(pivots))
    p_index = np.array([p.index for p in pivots], dtype=np.int64)
    c_index = np.array([c.index for c in crosses], dtype=np.int64)
    if np.any(np.diff(p_index) < 0) or np.any(np.diff(c_index) < 0):
        raise ConfigError("pivots and crossovers must be in index order")
    bullish = np.array([c.direction == BULLISH for c in crosses], dtype=bool)
    # per direction: the crossovers' positions in `crosses` and their bar indices
    by_direction = {}
    for direction, mask in ((BULLISH, bullish), (BEARISH, ~bullish)):
        positions = np.flatnonzero(mask)
        by_direction[direction] = (positions.tolist(), c_index[positions])
    next_index = np.append(p_index[1:], len(series)).tolist()
    candidates = retracement_candidates(series.closes, params.local_radius)

    sequences: list[EventSequence] = []
    for pivot, barrier in zip(pivots, next_index):
        positions, indices = by_direction[BULLISH if pivot.kind == TROUGH else BEARISH]
        k = int(np.searchsorted(indices, pivot.index, side="right"))
        if k == len(positions) or indices[k] >= barrier:
            diags.pivots_unmatched += 1
            continue
        diags.eligible_crossovers += 1
        cross = crosses[positions[k]]
        hit = find_retracement(series, cross, params, barrier, candidates)
        if hit is None:
            diags.no_retracement += 1
            continue
        sequences.append(EventSequence(pivot, cross, hit))
        diags.emitted += 1
    return sequences, diags
