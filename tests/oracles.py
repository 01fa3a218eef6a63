"""Naive definitional re-implementations used as test oracles.

Everything here is written for transparency, not speed: per-index window scans
and step-by-step recurrences, independent of the library's vectorized kernels.
"""

import csv
from math import inf, isfinite

import numpy as np

from fxevent.errors import DataError
from fxevent.events import BEARISH, BULLISH, DOWN, TROUGH, UP, CrossEvent, EventSequence, SequenceDiagnostics
from fxevent.market_data import make_series, parse_timestamp
from fxevent.nn.core import Dense, Param, mse_loss, zero_grads


def naive_sma(x, n):
    out = np.full(len(x), np.nan)
    for t in range(n - 1, len(x)):
        total = 0.0
        for v in x[t - n + 1 : t + 1]:
            total += v
        out[t] = total / n
    return out


def naive_ema(x, n):
    out = np.full(len(x), np.nan)
    if len(x) == 0:
        return out
    k = 2.0 / (n + 1.0)
    out[0] = x[0]
    for t in range(1, len(x)):
        out[t] = x[t] * k + out[t - 1] * (1.0 - k)
    return out


def naive_macd(x, fast, slow, signal_n):
    line = naive_ema(x, fast) - naive_ema(x, slow)
    signal = naive_ema(line, signal_n)
    return line, signal, line - signal


def naive_rsi(x, n):
    out = np.full(len(x), np.nan)
    if len(x) <= n:
        return out
    gains, losses = [], []
    for t in range(1, len(x)):
        d = x[t] - x[t - 1]
        gains.append(max(d, 0.0))
        losses.append(max(-d, 0.0))
    avg_gain = sum(gains[:n]) / n
    avg_loss = sum(losses[:n]) / n
    for t in range(n, len(x)):
        if t > n:
            avg_gain = (avg_gain * (n - 1) + gains[t - 1]) / n
            avg_loss = (avg_loss * (n - 1) + losses[t - 1]) / n
        if avg_gain == 0.0 and avg_loss == 0.0:
            out[t] = 50.0
        elif avg_loss == 0.0:
            out[t] = 100.0
        else:
            out[t] = 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)
    return out


def naive_adx(high, low, close, n):
    m = len(close)
    out = np.full(m, np.nan)
    if m < 2 * n:
        return out
    plus_dm, minus_dm, tr = [], [], []
    for t in range(1, m):
        up = high[t] - high[t - 1]
        dn = low[t - 1] - low[t]
        plus_dm.append(up if (up > dn and up > 0) else 0.0)
        minus_dm.append(dn if (dn > up and dn > 0) else 0.0)
        tr.append(max(high[t] - low[t], abs(high[t] - close[t - 1]), abs(low[t] - close[t - 1])))
    sp = sum(plus_dm[:n]) / n
    sm = sum(minus_dm[:n]) / n
    st = sum(tr[:n]) / n
    dx = {}
    for t in range(n, m):
        if t > n:
            sp = (sp * (n - 1) + plus_dm[t - 1]) / n
            sm = (sm * (n - 1) + minus_dm[t - 1]) / n
            st = (st * (n - 1) + tr[t - 1]) / n
        pdi = 100.0 * sp / st if st > 0 else 0.0
        mdi = 100.0 * sm / st if st > 0 else 0.0
        dx[t] = 100.0 * abs(pdi - mdi) / (pdi + mdi) if pdi + mdi > 0 else 0.0
    acc = sum(dx[t] for t in range(n, 2 * n)) / n
    out[2 * n - 1] = acc
    for t in range(2 * n, m):
        acc = (acc * (n - 1) + dx[t]) / n
        out[t] = acc
    return out


def naive_bollinger(x, window, k):
    n = len(x)
    lower = np.full(n, np.nan)
    middle = np.full(n, np.nan)
    upper = np.full(n, np.nan)
    for t in range(window - 1, n):
        w = x[t - window + 1 : t + 1]
        mu = sum(w) / window
        var = sum((v - mu) ** 2 for v in w) / window
        sd = var**0.5
        middle[t] = mu
        lower[t] = mu - k * sd
        upper[t] = mu + k * sd
    return lower, middle, upper


def naive_williams_r(high, low, close, n):
    out = np.full(len(close), np.nan)
    for t in range(n - 1, len(close)):
        hh = max(high[t - n + 1 : t + 1])
        ll = min(low[t - n + 1 : t + 1])
        if hh == ll:
            out[t] = -50.0
        else:
            out[t] = (hh - close[t]) / (hh - ll) * -100.0
    return out


def zigzag_bruteforce(series, depth, deviation_pips, backstep):
    """Literal application of the pivot rules.

    (a) a trough candidate's low is <= every low in the clamped +-depth window and
        strictly below every earlier low in it (peaks mirror on highs);
    (b) an opposite-kind pivot needs a >= deviation move from the previous pivot;
    (c) adjacent pivots sit >= backstep bars apart.
    Candidates scan in index order, trough before peak at equal index; a same-kind
    candidate replaces the provisional pivot only when strictly more extreme and
    still >= backstep bars from the pivot before it.

    Returns a list of (index, kind, price, confirm_index) tuples.
    """
    n = len(series)
    if n < 2 * depth + 1:
        return []
    lows, highs = series.lows, series.highs

    def is_candidate(i, values, want_min):
        lo = max(0, i - depth)
        hi = min(n - 1, i + depth)
        for j in range(lo, hi + 1):
            if j == i:
                continue
            a, b = values[i], values[j]
            if want_min:
                better = a < b
            else:
                better = a > b
            if j < i and not better:
                return False
            if j > i and not (better or a == b):
                return False
        return True

    candidates = []
    for i in range(n):
        if is_candidate(i, lows, want_min=True):
            candidates.append((i, "trough", float(lows[i])))
        if is_candidate(i, highs, want_min=False):
            candidates.append((i, "peak", float(highs[i])))

    deviation = deviation_pips * series.pip_size
    pivots = []
    for i, kind, price in candidates:
        if not pivots:
            pivots.append([i, kind, price])
            continue
        last = pivots[-1]
        if kind == last[1]:
            if kind == "trough":
                more_extreme = price < last[2]
            else:
                more_extreme = price > last[2]
            prev_ok = len(pivots) < 2 or i - pivots[-2][0] >= backstep
            if more_extreme and prev_ok:
                pivots[-1] = [i, kind, price]
        else:
            if abs(price - last[2]) >= deviation and i - last[0] >= backstep:
                pivots.append([i, kind, price])
    if len(pivots) < 2:
        return []
    return [(i, kind, price, min(i + depth, n - 1)) for i, kind, price in pivots]


def crossovers_reference(fast, slow):
    """Sign-tracking scan over fast - slow; zero runs inherit the prior sign."""
    events = []
    prev = 0
    for t in range(len(fast)):
        d = fast[t] - slow[t]
        if not np.isfinite(d) or d == 0:
            continue
        cur = 1 if d > 0 else -1
        if prev != 0 and cur != prev:
            events.append((t, "bullish" if cur > 0 else "bearish"))
        prev = cur
    return events


def retracement_scan(closes, e2_index, trend, m, lookahead, barrier):
    """Literal first-qualifying-bar scan of the retracement rule."""
    n = len(closes)
    ref = closes[e2_index]
    for t in range(e2_index + 1, min(e2_index + lookahead, barrier)):
        if t - m < 0 or t + m >= n:
            continue
        neighbors = [closes[j] for j in range(t - m, t + m + 1) if j != t]
        if trend == "up" and closes[t] < ref and all(closes[t] < v for v in neighbors):
            return t, closes[t]
        if trend == "down" and closes[t] > ref and all(closes[t] > v for v in neighbors):
            return t, closes[t]
    return None


def adam_reference(theta0, grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Hand-stepped scalar Adam trajectory for a fixed gradient sequence."""
    theta, m, v = theta0, 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta = theta - lr * m_hat / (v_hat**0.5 + eps)
        out.append(theta)
    return out


# ---------------------------------------------------------------------------
# Central-difference gradient checking, the oracle of acceptance criterion 1.


class GradCheckError(RuntimeError):
    """Non-finite value encountered while checking gradients; message names the parameter."""


def grad_check(loss_fn, backward_fn, params, h=1e-5):
    """Max relative error between analytic and central-difference gradients.

    loss_fn() must deterministically recompute the scalar loss from the current
    parameter values; backward_fn() must populate param.grad for that loss.
    Relative error per element is |a - n| / max(|a|, |n|, 1e-8).
    """
    zero_grads(params)
    loss_fn()
    backward_fn()
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, a_grad in zip(params, analytic):
        if not np.all(np.isfinite(a_grad)):
            raise GradCheckError(f"non-finite analytic gradient in {p.name}")
        flat = p.value.reshape(-1)
        a_flat = a_grad.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn()
            flat[idx] = orig - h
            down = loss_fn()
            flat[idx] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise GradCheckError(f"non-finite loss while perturbing {p.name}[{idx}]")
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(a_flat[idx]), abs(numeric), 1e-8)
            worst = max(worst, abs(a_flat[idx] - numeric) / denom)
    return worst


def loss_closures(model, windows, targets):
    """(loss_fn, backward_fn) pair over fixed data, as grad_check expects."""

    def loss_fn():
        pred = model.forward_batch(windows)
        return mse_loss(pred, targets)[0]

    def backward_fn():
        pred = model.forward_batch(windows)
        _, dpred = mse_loss(pred, targets)
        model.backward_batch(dpred)

    return loss_fn, backward_fn


# ---------------------------------------------------------------------------
# Loop references: the library's earlier per-bar kernels, kept as they were.
# They use numpy-scalar recurrences, a per-bar np.delete scan and a quadratic
# pivot/crossover match. The batched kernels in fxevent must equal them
# bitwise, event for event and tally for tally.


def loop_ema(close, n):
    close = np.asarray(close, dtype=np.float64)
    out = np.empty(len(close))
    k = 2.0 / (n + 1.0)
    acc = close[0]
    out[0] = acc
    for t in range(1, len(close)):
        acc = close[t] * k + acc * (1.0 - k)
        out[t] = acc
    return out


def loop_rsi(close, n):
    close = np.asarray(close, dtype=np.float64)
    out = np.full(len(close), np.nan)
    if len(close) <= n:
        return out
    delta = np.diff(close)
    gains = np.maximum(delta, 0.0)
    losses = np.maximum(-delta, 0.0)
    avg_gain = gains[:n].mean()
    avg_loss = losses[:n].mean()
    for t in range(n, len(close)):
        if t > n:
            avg_gain = (avg_gain * (n - 1) + gains[t - 1]) / n
            avg_loss = (avg_loss * (n - 1) + losses[t - 1]) / n
        if avg_loss == 0.0 and avg_gain == 0.0:
            out[t] = 50.0
        elif avg_loss == 0.0:
            out[t] = 100.0
        else:
            out[t] = 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)
    return out


def loop_adx(high, low, close, n):
    high = np.asarray(high, dtype=np.float64)
    low = np.asarray(low, dtype=np.float64)
    close = np.asarray(close, dtype=np.float64)
    m = len(close)
    out = np.full(m, np.nan)
    if m < 2 * n:
        return out
    up = high[1:] - high[:-1]
    down = low[:-1] - low[1:]
    plus_dm = np.where((up > down) & (up > 0.0), up, 0.0)
    minus_dm = np.where((down > up) & (down > 0.0), down, 0.0)
    tr = np.maximum.reduce(
        [high[1:] - low[1:], np.abs(high[1:] - close[:-1]), np.abs(low[1:] - close[:-1])]
    )
    sm_plus, sm_minus, sm_tr = plus_dm[:n].mean(), minus_dm[:n].mean(), tr[:n].mean()
    dx = np.full(m, np.nan)
    for t in range(n, m):
        if t > n:
            sm_plus = (sm_plus * (n - 1) + plus_dm[t - 1]) / n
            sm_minus = (sm_minus * (n - 1) + minus_dm[t - 1]) / n
            sm_tr = (sm_tr * (n - 1) + tr[t - 1]) / n
        plus_di = 100.0 * sm_plus / sm_tr if sm_tr > 0.0 else 0.0
        minus_di = 100.0 * sm_minus / sm_tr if sm_tr > 0.0 else 0.0
        di_sum = plus_di + minus_di
        dx[t] = 100.0 * abs(plus_di - minus_di) / di_sum if di_sum > 0.0 else 0.0
    acc = dx[n : 2 * n].mean()
    out[2 * n - 1] = acc
    for t in range(2 * n, m):
        acc = (acc * (n - 1) + dx[t]) / n
        out[t] = acc
    return out


def loop_crossovers(fast, slow):
    d = np.asarray(fast, dtype=np.float64) - np.asarray(slow, dtype=np.float64)
    events = []
    prev_sign = 0
    for t in range(len(d)):
        if not np.isfinite(d[t]):
            continue
        sign = 0 if d[t] == 0.0 else (1 if d[t] > 0.0 else -1)
        if sign == 0:
            continue
        if prev_sign != 0 and sign != prev_sign:
            events.append(CrossEvent(t, BULLISH if sign > 0 else BEARISH))
        prev_sign = sign
    return events


def loop_find_retracement(series, cross, trend, params, barrier=None):
    closes = series.closes
    n = len(closes)
    if barrier is None:
        barrier = n
    m = params.local_radius
    ref = closes[cross.index]
    end = min(cross.index + params.lookahead, barrier)
    for t in range(cross.index + 1, end):
        if t - m < 0 or t + m >= n:
            continue
        window = closes[t - m : t + m + 1]
        c = closes[t]
        if trend == UP:
            if c < ref and c < np.delete(window, m).min():
                return t, float(c)
        else:
            if c > ref and c > np.delete(window, m).max():
                return t, float(c)
    return None


def quadratic_assemble_sequences(pivots, crosses, series, params):
    diags = SequenceDiagnostics(pivots=len(pivots))
    sequences = []
    used = [False] * len(crosses)
    for p_idx, pivot in enumerate(pivots):
        next_pivot_index = pivots[p_idx + 1].index if p_idx + 1 < len(pivots) else len(series)
        want = BULLISH if pivot.kind == TROUGH else BEARISH
        trend = UP if pivot.kind == TROUGH else DOWN
        chosen = None
        for c_idx, cross in enumerate(crosses):
            if used[c_idx] or cross.direction != want:
                continue
            if pivot.index < cross.index < next_pivot_index:
                chosen = c_idx
                break
            if cross.index >= next_pivot_index:
                break
        if chosen is None:
            diags.pivots_unmatched += 1
            continue
        used[chosen] = True
        diags.eligible_crossovers += 1
        cross = crosses[chosen]
        hit = loop_find_retracement(series, cross, trend, params, barrier=next_pivot_index)
        if hit is None:
            diags.no_retracement += 1
            continue
        sequences.append(EventSequence(pivot, cross, hit[0]))
        diags.emitted += 1
    sequences.sort(key=lambda s: s.cross.index)
    return sequences, diags


# ---------------------------------------------------------------------------
# Per-gate recurrent cells: one (x @ W_g + h @ U_g + b_g) per gate and step,
# batch-major (B, T, D), gradients accumulated per step and per gate. The fused
# cells in fxevent.nn.models must match these to rounding.


def _sigmoid(x):
    """Two-branch logistic: exp is only taken of non-positive arguments."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _uniform(rng, fan_in, shape):
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


class PerGateRNN:
    """h_t = tanh(x_t @ W + h_{t-1} @ U + b)"""

    GATES = ("h",)

    def __init__(self, input_dim, hidden, rng, name):
        self.hidden = hidden
        self.W = {"h": Param(f"{name}.W", _uniform(rng, input_dim, (input_dim, hidden)))}
        self.U = {"h": Param(f"{name}.U", _uniform(rng, hidden, (hidden, hidden)))}
        self.b = {"h": Param(f"{name}.b", np.zeros(hidden))}
        self._cache = None

    def params(self):
        return [self.W["h"], self.U["h"], self.b["h"]]

    def forward(self, x):
        B, T, D = x.shape
        W, U, b = self.W["h"].value, self.U["h"].value, self.b["h"].value
        h = np.zeros((B, self.hidden))
        hs = np.empty((B, T, self.hidden))
        for t in range(T):
            h = np.tanh(x[:, t] @ W + h @ U + b)
            hs[:, t] = h
        self._cache = (x, hs)
        return hs

    def backward(self, dh_seq):
        x, hs = self._cache
        B, T, _ = x.shape
        W, U, b = self.W["h"], self.U["h"], self.b["h"]
        dx = np.empty_like(x)
        carry = np.zeros((B, self.hidden))
        for t in range(T - 1, -1, -1):
            h_t = hs[:, t]
            h_prev = hs[:, t - 1] if t > 0 else np.zeros((B, self.hidden))
            da = (dh_seq[:, t] + carry) * (1.0 - h_t * h_t)
            W.grad += x[:, t].T @ da
            U.grad += h_prev.T @ da
            b.grad += da.sum(axis=0)
            dx[:, t] = da @ W.value.T
            carry = da @ U.value.T
        return dx


class PerGateLSTM:
    """Gated cell: f, i, o sigmoid gates, tanh candidate, additive cell state."""

    GATES = ("f", "i", "c", "o")

    def __init__(self, input_dim, hidden, rng, name):
        self.hidden = hidden
        self.W, self.U, self.b = {}, {}, {}
        for g in self.GATES:
            self.W[g] = Param(f"{name}.W{g}", _uniform(rng, input_dim, (input_dim, hidden)))
            self.U[g] = Param(f"{name}.U{g}", _uniform(rng, hidden, (hidden, hidden)))
            self.b[g] = Param(f"{name}.b{g}", np.full(hidden, 1.0 if g == "f" else 0.0))
        self._cache = None

    def params(self):
        out = []
        for g in self.GATES:
            out += [self.W[g], self.U[g], self.b[g]]
        return out

    def step(self, x_t, h_prev, c_prev):
        pre = {
            g: x_t @ self.W[g].value + h_prev @ self.U[g].value + self.b[g].value
            for g in self.GATES
        }
        f = _sigmoid(pre["f"])
        i = _sigmoid(pre["i"])
        o = _sigmoid(pre["o"])
        c_bar = np.tanh(pre["c"])
        C = f * c_prev + i * c_bar
        tC = np.tanh(C)
        h = o * tC
        return h, C, (f, i, o, c_bar, tC)

    def forward(self, x):
        B, T, D = x.shape
        h = np.zeros((B, self.hidden))
        C = np.zeros((B, self.hidden))
        hs = np.empty((B, T, self.hidden))
        cells = []
        for t in range(T):
            h, C, gates = self.step(x[:, t], h, C)
            hs[:, t] = h
            cells.append((C, gates))
        self._cache = (x, hs, cells)
        return hs

    def backward(self, dh_seq):
        x, hs, cells = self._cache
        B, T, _ = x.shape
        H = self.hidden
        dx = np.empty_like(x)
        dh_carry = np.zeros((B, H))
        dC_carry = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            C_t, (f, i, o, c_bar, tC) = cells[t]
            h_prev = hs[:, t - 1] if t > 0 else np.zeros((B, H))
            C_prev = cells[t - 1][0] if t > 0 else np.zeros((B, H))
            dh = dh_seq[:, t] + dh_carry
            da_o = dh * tC * o * (1.0 - o)
            dC = dC_carry + dh * o * (1.0 - tC * tC)
            da_f = dC * C_prev * f * (1.0 - f)
            da_i = dC * c_bar * i * (1.0 - i)
            da_c = dC * i * (1.0 - c_bar * c_bar)
            dC_carry = dC * f
            dh_carry = np.zeros((B, H))
            dx_t = np.zeros_like(x[:, t])
            for g, da in (("f", da_f), ("i", da_i), ("c", da_c), ("o", da_o)):
                self.W[g].grad += x[:, t].T @ da
                self.U[g].grad += h_prev.T @ da
                self.b[g].grad += da.sum(axis=0)
                dx_t += da @ self.W[g].value.T
                dh_carry += da @ self.U[g].value.T
            dx[:, t] = dx_t
        return dx


class PerGateGRU:
    """Reset/update gated cell; the carry term uses h_{t-1} (standard recurrence)."""

    GATES = ("r", "z", "h")

    def __init__(self, input_dim, hidden, rng, name):
        self.hidden = hidden
        self.W, self.U, self.b = {}, {}, {}
        for g in self.GATES:
            self.W[g] = Param(f"{name}.W{g}", _uniform(rng, input_dim, (input_dim, hidden)))
            self.U[g] = Param(f"{name}.U{g}", _uniform(rng, hidden, (hidden, hidden)))
            self.b[g] = Param(f"{name}.b{g}", np.zeros(hidden))
        self._cache = None

    def params(self):
        out = []
        for g in self.GATES:
            out += [self.W[g], self.U[g], self.b[g]]
        return out

    def step(self, x_t, h_prev):
        r = _sigmoid(x_t @ self.W["r"].value + h_prev @ self.U["r"].value + self.b["r"].value)
        z = _sigmoid(x_t @ self.W["z"].value + h_prev @ self.U["z"].value + self.b["z"].value)
        rh = r * h_prev
        h_bar = np.tanh(x_t @ self.W["h"].value + rh @ self.U["h"].value + self.b["h"].value)
        h = (1.0 - z) * h_prev + z * h_bar
        return h, (r, z, rh, h_bar)

    def forward(self, x):
        B, T, D = x.shape
        h = np.zeros((B, self.hidden))
        hs = np.empty((B, T, self.hidden))
        gates = []
        for t in range(T):
            h, g = self.step(x[:, t], h)
            hs[:, t] = h
            gates.append(g)
        self._cache = (x, hs, gates)
        return hs

    def backward(self, dh_seq):
        x, hs, gates = self._cache
        B, T, _ = x.shape
        H = self.hidden
        dx = np.empty_like(x)
        carry = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            r, z, rh, h_bar = gates[t]
            h_prev = hs[:, t - 1] if t > 0 else np.zeros((B, H))
            dh = dh_seq[:, t] + carry
            da_z = dh * (h_bar - h_prev) * z * (1.0 - z)
            da_h = dh * z * (1.0 - h_bar * h_bar)
            dh_prev = dh * (1.0 - z)
            drh = da_h @ self.U["h"].value.T
            da_r = drh * h_prev * r * (1.0 - r)
            dh_prev += drh * r
            dh_prev += da_r @ self.U["r"].value.T + da_z @ self.U["z"].value.T
            dx[:, t] = (
                da_r @ self.W["r"].value.T
                + da_z @ self.W["z"].value.T
                + da_h @ self.W["h"].value.T
            )
            for g, da, rec_in in (("r", da_r, h_prev), ("z", da_z, h_prev), ("h", da_h, rh)):
                self.W[g].grad += x[:, t].T @ da
                self.U[g].grad += rec_in.T @ da
                self.b[g].grad += da.sum(axis=0)
            carry = dh_prev
        return dx


class PerGateBidirectional:
    """Forward cell plus a cell on the reversed sequence, outputs concatenated per step."""

    def __init__(self, fwd, bwd):
        self.fwd = fwd
        self.bwd = bwd
        self.hidden = fwd.hidden

    def params(self):
        return self.fwd.params() + self.bwd.params()

    def forward(self, x):
        out_f = self.fwd.forward(x)
        out_b = self.bwd.forward(x[:, ::-1])[:, ::-1]
        return np.concatenate([out_f, out_b], axis=2)

    def backward(self, dout):
        H = self.hidden
        dx_f = self.fwd.backward(np.ascontiguousarray(dout[:, :, :H]))
        dx_b = self.bwd.backward(np.ascontiguousarray(dout[:, ::-1, H:]))[:, ::-1]
        return dx_f + dx_b


class PerGateModel:
    """Per-gate stack plus dense head, drawn from the same seeded stream and in the
    same order as fxevent.nn.models.RecurrentModel."""

    def __init__(self, config):
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
        cell_cls = {"rnn": PerGateRNN, "lstm": PerGateLSTM, "gru": PerGateGRU}[config.cell]
        self.layers = []
        in_dim = config.input_dim
        for l in range(config.layers):
            if config.bidirectional:
                fwd = cell_cls(in_dim, config.hidden, rng, f"layer{l}.fwd")
                bwd = cell_cls(in_dim, config.hidden, rng, f"layer{l}.bwd")
                self.layers.append(PerGateBidirectional(fwd, bwd))
            else:
                self.layers.append(cell_cls(in_dim, config.hidden, rng, f"layer{l}"))
            in_dim = config.hidden * (2 if config.bidirectional else 1)
        self.head = Dense(in_dim, 1, rng, name="head")

    def params(self):
        out = []
        for layer in self.layers:
            out += layer.params()
        return out + self.head.params()

    def forward_batch(self, X):
        seq = X
        for layer in self.layers:
            seq = layer.forward(seq)
        self._top_shape = seq.shape
        if self.config.bidirectional:
            H = self.config.hidden
            head_in = np.concatenate([seq[:, -1, :H], seq[:, 0, H:]], axis=1)
        else:
            head_in = seq[:, -1]
        return self.head.forward(head_in)[:, 0]

    def backward_batch(self, dpred):
        dhead_in = self.head.backward(np.asarray(dpred, dtype=np.float64).reshape(-1, 1))
        dseq = np.zeros(self._top_shape)
        if self.config.bidirectional:
            H = self.config.hidden
            dseq[:, -1, :H] = dhead_in[:, :H]
            dseq[:, 0, H:] = dhead_in[:, H:]
        else:
            dseq[:, -1] = dhead_in
        for layer in reversed(self.layers):
            dseq = layer.backward(dseq)


# ---------------------------------------------------------------------------
# The candle CSV reader as a csv row loop: one row at a time through Python's
# csv, int, float and parse_timestamp, the first bad row raising. load_csv must
# give the same arrays bitwise, and the same error up to numpy's wording of a
# malformed row.

CANDLE_COLUMNS = ("timestamp", "open", "high", "low", "close")


def load_csv_rows(path, symbol, pip_size=1e-4):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next((row for row in reader if row), None)
        if header is None:
            raise DataError(f"{path}: empty file")
        missing = [col for col in CANDLE_COLUMNS if col not in header]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        it, io, ih, il, ic = (header.index(col) for col in CANDLE_COLUMNS)
        rows = []
        for rec in reader:
            if not rec:
                continue
            try:
                ts = parse_timestamp(rec[it])
                o, h, l, c = float(rec[io]), float(rec[ih]), float(rec[il]), float(rec[ic])
            except (DataError, IndexError, ValueError) as exc:
                raise DataError(f"{path}: malformed row at line {reader.line_num}: {exc}") from exc
            if not (0.0 < l <= o <= h < inf and l <= c <= h):
                fault = "non-finite price" if not all(map(isfinite, (o, h, l, c))) else "OHLC invariant violated"
                raise DataError(f"{path}: {fault} at line {reader.line_num} (o={o} h={h} l={l} c={c})")
            rows.append((ts, o, h, l, c))
    if not rows:
        raise DataError(f"{path}: no data rows")
    columns = [np.array(col, dtype=np.int64 if i == 0 else np.float64) for i, col in enumerate(zip(*rows))]
    return make_series(symbol, pip_size, *columns, source=str(path))
