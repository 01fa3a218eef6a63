import numpy as np
import pytest

import oracles
from fxevent.errors import ConfigError
from fxevent.events import (
    BEARISH,
    BULLISH,
    DOWN,
    PEAK,
    TROUGH,
    UP,
    CrossEvent,
    EventSequence,
    Pivot,
    RetraceParams,
    ZigZagParams,
    assemble_sequences,
    crossovers,
    find_retracement,
    retracement_candidates,
    zigzag,
)
from fxevent.indicators import ema
from fxevent.market_data import CandleSeries

from conftest import random_walk_series


def flat_series(closes, pip=1e-4, pad=0.0):
    """Bars whose high/low hug the close; handy for hand-built scenarios."""
    closes = np.asarray(closes, dtype=np.float64)
    n = len(closes)
    opens = np.empty(n)
    opens[0] = closes[0]
    opens[1:] = closes[:-1]
    highs = np.maximum(opens, closes) + pad
    lows = np.minimum(opens, closes) - pad
    return CandleSeries("T", pip, np.arange(n, dtype=np.int64), opens, highs, lows, closes)


class TestZigZag:
    def test_constant_series_no_pivots(self):
        series = flat_series(np.full(100, 1.1))
        assert zigzag(series) == []

    def test_too_short_series(self):
        series = flat_series(np.linspace(1.0, 1.1, 10))
        assert zigzag(series, ZigZagParams(depth=5)) == []

    def test_triangle_wave_pivots_at_apexes(self):
        period, amp = 60, 0.02  # 200 pips >> 5 pip deviation, half-period 30 >> depth 12
        t = np.arange(600)
        tri = 1.1 + amp * (2 * np.abs(t / period - np.floor(t / period + 0.5)))
        series = flat_series(tri)
        pivots = zigzag(series)
        expected = oracles.zigzag_bruteforce(series, 12, 5.0, 3)
        assert [(p.index, p.kind, p.price, p.confirm_index) for p in pivots] == expected
        kinds = [p.kind for p in pivots]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))
        assert len(pivots) >= 15
        # apexes sit at multiples of the half-period; the final pivot may be a
        # provisional one where the series ends mid-leg
        assert all(p.index % 30 == 0 for p in pivots[:-1])

    def test_alternation_and_deviation(self, synth):
        pivots = zigzag(synth)
        assert len(pivots) >= 10
        for a, b in zip(pivots, pivots[1:]):
            assert a.kind != b.kind
            assert abs(b.price - a.price) >= 5.0 * synth.pip_size
            assert b.index - a.index >= 3

    def test_confirm_index(self, synth):
        params = ZigZagParams()
        for p in zigzag(synth, params):
            assert p.confirm_index == min(p.index + params.depth, len(synth) - 1)
            assert p.confirm_index >= p.index

    def test_matches_bruteforce_on_random_series(self, rng):
        for _ in range(200):
            n = int(rng.integers(10, 256))
            series = random_walk_series(rng, n, vol_pips=rng.uniform(2, 20))
            depth = int(rng.integers(1, 15))
            deviation = float(rng.uniform(0.5, 30))
            backstep = int(rng.integers(0, 6))
            got = zigzag(series, ZigZagParams(depth, deviation, backstep))
            expected = oracles.zigzag_bruteforce(series, depth, deviation, backstep)
            assert [(p.index, p.kind, p.price, p.confirm_index) for p in got] == expected

    def test_params_validation(self):
        with pytest.raises(ConfigError):
            ZigZagParams(depth=0)
        with pytest.raises(ConfigError):
            ZigZagParams(deviation_pips=0)
        with pytest.raises(ConfigError):
            ZigZagParams(backstep=-1)


class TestCrossovers:
    def test_no_sign_change(self):
        fast = np.array([2.0, 2.0, 2.0])
        slow = np.array([1.0, 1.0, 1.0])
        assert crossovers(fast, slow) == []

    def test_simple_bullish(self):
        events = crossovers(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
        assert events == [CrossEvent(1, BULLISH)]

    def test_zero_run_carries_sign(self):
        slow = np.zeros(4)
        fast = np.array([-1.0, 0.0, 0.0, 1.0])
        assert crossovers(fast, slow) == [CrossEvent(3, BULLISH)]

    def test_touch_and_bounce_does_not_fire(self):
        slow = np.zeros(4)
        fast = np.array([-1.0, 0.0, 0.0, -1.0])
        assert crossovers(fast, slow) == []

    def test_enumerated_sign_paths_match_reference(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 12))
            d = rng.choice([-1.0, 0.0, 1.0], size=n)
            fast, slow = d, np.zeros(n)
            got = [(e.index, e.direction) for e in crossovers(fast, slow)]
            assert got == oracles.crossovers_reference(fast, slow)

    def test_translation_invariance(self, rng):
        fast = rng.normal(size=200)
        slow = rng.normal(size=200)
        base = crossovers(fast, slow)
        for c in (0.5, -3.0, 1e6):
            assert crossovers(fast + c, slow + c) == base

    def test_nan_warmup_skipped(self):
        fast = np.array([np.nan, np.nan, -1.0, 1.0])
        slow = np.zeros(4)
        assert crossovers(fast, slow) == [CrossEvent(3, BULLISH)]

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            crossovers(np.zeros(3), np.zeros(4))


def retrace(series, cross, params, barrier=None):
    """find_retracement over the series, with the candidates assemble_sequences would pass."""
    barrier = len(series) if barrier is None else barrier
    return find_retracement(
        series, cross, params, barrier, retracement_candidates(series.closes, params.local_radius)
    )


class TestFindRetracement:
    def test_monotone_rise_no_retracement(self):
        closes = np.linspace(1.10, 1.20, 50)
        series = flat_series(closes)
        assert retrace(series, CrossEvent(5, BULLISH), RetraceParams(1, 30)) is None

    def test_dip_found(self):
        closes = np.array([1.12, 1.11, 1.10, 1.08, 1.07, 1.09, 1.11, 1.12, 1.13, 1.14])
        series = flat_series(closes)
        assert retrace(series, CrossEvent(0, BULLISH), RetraceParams(1, 30)) == 4

    def test_dip_past_lookahead_excluded(self):
        closes = np.concatenate([np.linspace(1.10, 1.16, 30), [1.05], np.linspace(1.06, 1.10, 9)])
        series = flat_series(closes)
        assert retrace(series, CrossEvent(0, BULLISH), RetraceParams(1, 20)) is None

    def test_barrier_respected(self):
        closes = np.array([1.10, 1.11, 1.12, 1.09, 1.13, 1.14])
        series = flat_series(closes)
        hit = retrace(series, CrossEvent(0, BULLISH), RetraceParams(1, 30), barrier=3)
        assert hit is None  # the dip at 3 sits on the barrier, outside the open interval

    def test_down_trend_mirror(self):
        closes = np.array([1.14, 1.13, 1.12, 1.15, 1.11, 1.10, 1.09, 1.08])
        series = flat_series(closes)
        assert retrace(series, CrossEvent(1, BEARISH), RetraceParams(1, 30)) == 3

    def test_direction_comes_from_the_cross(self):
        # a dip at 3 and a pop at 6: the bullish cross finds the dip, the bearish one the pop
        closes = np.array([1.12, 1.13, 1.12, 1.10, 1.13, 1.14, 1.16, 1.15, 1.14, 1.13])
        series = flat_series(closes)
        assert retrace(series, CrossEvent(1, BULLISH), RetraceParams(1, 30)) == 3
        assert retrace(series, CrossEvent(1, BEARISH), RetraceParams(1, 30)) == 6

    def test_matches_scan_oracle(self, rng):
        for _ in range(100):
            series = random_walk_series(rng, 120, vol_pips=12)
            e2 = int(rng.integers(5, 60))
            trend = UP if rng.random() < 0.5 else DOWN
            barrier = int(rng.integers(e2 + 1, 120))
            got = retrace(
                series, CrossEvent(e2, BULLISH if trend == UP else BEARISH), RetraceParams(3, 40), barrier
            )
            expected = oracles.retracement_scan(series.closes, e2, trend, 3, 40, barrier)
            assert got == (None if expected is None else expected[0])

    def test_result_inside_open_interval(self, rng):
        params = RetraceParams(3, 40)
        for _ in range(50):
            series = random_walk_series(rng, 150, vol_pips=15)
            e2 = int(rng.integers(5, 80))
            barrier = int(rng.integers(e2 + 2, 150))
            direction = BULLISH if rng.random() < 0.5 else BEARISH
            hit = retrace(series, CrossEvent(e2, direction), params, barrier)
            if hit is not None:
                assert e2 < hit < min(e2 + params.lookahead, barrier)


class TestAssembleSequences:
    def test_empty_inputs(self, synth):
        assert assemble_sequences([], [], synth)[0] == []
        pivots = zigzag(synth)
        assert assemble_sequences(pivots, [], synth)[0] == []

    def test_hand_built_single_sequence(self):
        # trough at 2, rally with a dip at 8, peak far away
        closes = np.array(
            [1.12, 1.11, 1.10, 1.115, 1.12, 1.125, 1.122, 1.118, 1.113, 1.119,
             1.125, 1.13, 1.135, 1.14, 1.145, 1.15, 1.155, 1.16, 1.165, 1.17]
        )
        series = flat_series(closes)
        pivots = [Pivot(2, TROUGH, 1.10, 5), Pivot(19, PEAK, 1.17, 19)]
        crosses = [CrossEvent(4, BULLISH)]
        sequences, diags = assemble_sequences(pivots, crosses, series, RetraceParams(1, 30))
        assert len(sequences) == 1
        seq = sequences[0]
        assert seq.pivot.index == 2 and seq.cross.index == 4 and seq.retrace_index == 8
        assert seq.trend == UP
        assert series.closes[seq.retrace_index] == pytest.approx(1.113)
        assert diags.eligible_crossovers == 1 and diags.emitted == 1

    def test_direction_mismatch_not_consumed(self):
        closes = np.linspace(1.10, 1.20, 40)
        series = flat_series(closes)
        pivots = [Pivot(2, TROUGH, 1.10, 5)]
        crosses = [CrossEvent(5, BEARISH)]
        sequences, diags = assemble_sequences(pivots, crosses, series)
        assert sequences == []
        assert diags.pivots_unmatched == 1
        assert diags.eligible_crossovers == 0

    def test_invariants_on_synthetic(self, synth):
        pivots = zigzag(synth)
        crosses = crossovers(ema(synth.closes, 5), ema(synth.closes, 20))
        sequences, diags = assemble_sequences(pivots, crosses, synth)
        params = RetraceParams()
        assert len(sequences) > 0
        assert len(sequences) <= len(crosses)
        assert diags.emitted + diags.no_retracement == diags.eligible_crossovers
        used = set()
        for s in sequences:
            assert s.pivot.index < s.cross.index < s.retrace_index
            if s.trend == UP:
                assert s.pivot.kind == TROUGH and s.cross.direction == BULLISH
            else:
                assert s.pivot.kind == PEAK and s.cross.direction == BEARISH
            assert s.retrace_index < s.cross.index + params.lookahead
            assert s.cross.index not in used  # each crossover used at most once
            used.add(s.cross.index)
        assert [s.cross.index for s in sequences] == sorted(s.cross.index for s in sequences)

    def test_unordered_inputs_rejected(self, synth):
        pivots = [Pivot(20, PEAK, 1.2, 32), Pivot(10, TROUGH, 1.1, 22)]
        with pytest.raises(ConfigError, match="index order"):
            assemble_sequences(pivots, [], synth)
        crosses = [CrossEvent(30, BULLISH), CrossEvent(25, BEARISH)]
        with pytest.raises(ConfigError, match="index order"):
            assemble_sequences(pivots[::-1], crosses, synth)

    def test_sequence_constructor_validates(self):
        with pytest.raises(ConfigError):
            EventSequence(Pivot(10, TROUGH, 1.0, 12), CrossEvent(5, BULLISH), 20)
        with pytest.raises(ConfigError):
            EventSequence(Pivot(1, TROUGH, 1.0, 3), CrossEvent(5, BEARISH), 20)

    @pytest.mark.parametrize("kind, direction", [(TROUGH, BEARISH), (PEAK, BULLISH)])
    def test_sequence_rejects_pivot_cross_mismatch(self, kind, direction):
        with pytest.raises(ConfigError, match=f"{kind} pivot cannot pair with a {direction} cross"):
            EventSequence(Pivot(1, kind, 1.0, 3), CrossEvent(5, direction), 20)

    @pytest.mark.parametrize("kind, direction, trend", [(TROUGH, BULLISH, UP), (PEAK, BEARISH, DOWN)])
    def test_sequence_trend_follows_pivot(self, kind, direction, trend):
        assert EventSequence(Pivot(1, kind, 1.0, 3), CrossEvent(5, direction), 20).trend == trend
