"""Recurrent regression models: RNN, LSTM, BiLSTM and GRU with analytic BPTT.

Each cell holds one fused set of weights for its G gates: W (D, G*H) on the
input, U (H, G*H) on the recurrence and b (G*H,), so each gate's
concatenated-input form is realized as x @ W + h_prev @ U + b.

Layers run on time-major (time, batch, features) float64 arrays, so every
per-step slice is a contiguous view; the model takes and returns batch-major
windows. A forward pass computes x @ W for all timesteps in one matmul into a
(T, B, G*H) buffer, and each step adds its h @ U term and turns its slice into
gate activations in place, the whole loop under one np.errstate for the
sigmoid's exp overflow. The backward pass overwrites that buffer with the gate
pre-activation gradients, one @ U.T per step for the carry, then accumulates
the W, U and b gradients and the input gradient with one matmul each. The
dense head reads the final hidden state of the top layer; for bidirectional
stacks, the forward direction's last state then the backward direction's.

Each per-sequence array a layer fills views the front of a flat buffer that
the layer keeps and grows when a larger batch comes, so any batch size reuses
its pages: returned hidden states live until the layer's next forward, dx until
its next backward. Inference (`predict` and the validation pass in `train`)
runs INFERENCE_BATCH windows at a time, so the buffers grow to at most one
training batch or INFERENCE_BATCH + 1 windows, whatever the dataset size.

Gradients here are exact; tests hold them to central finite differences at
1e-4 max relative error (criterion 1, with the checker in tests/oracles.py),
and the fused cells to the per-gate reference cells there at 1e-12.

This module owns the model file: `save_model` writes it and `load_model` reads
and checks it.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zipfile
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from ..dataset import Dataset, NormStats, invert_target
from ..errors import ConfigError
from .core import (
    ONE,
    Dense,
    Param,
    adam_step,
    clip_global_norm,
    mse_loss,
    sigmoid_,
    zero_grads,
)

KINDS = ("rnn", "lstm", "bilstm", "gru")  # in this order: a kind's code in experiment.cell_seed is its index + 1
INFERENCE_BATCH = 32  # windows per inference forward pass; see _forward_chunked


@dataclass(frozen=True)
class ModelConfig:
    kind: str  # one of KINDS; "bilstm" is an LSTM cell run in both directions
    n_timesteps: int
    input_dim: int = 28
    layers: int = 2
    hidden: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}, expected one of {KINDS}")
        if self.layers < 1 or self.hidden < 1 or self.n_timesteps < 1 or self.input_dim < 1:
            raise ConfigError("layers, hidden, n_timesteps and input_dim must all be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def bidirectional(self) -> bool:
        return self.kind == "bilstm"

    @property
    def cell(self) -> str:
        return "lstm" if self.kind == "bilstm" else self.kind


@dataclass
class TrainHyper:
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    clip_norm: float = 5.0

    def __post_init__(self):
        if not self.lr > 0.0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 0:
            raise ConfigError(f"patience must be >= 0, got {self.patience}")
        if self.clip_norm < 0:  # 0 turns clipping off
            raise ConfigError(f"clip_norm must be >= 0, got {self.clip_norm}")


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = 0
    epochs_run: int = 0


def _uniform(rng, fan_in, shape):
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _flat(seq):
    """(T, B, n) -> (T*B, n): time and batch merged, so one matmul covers every step."""
    return seq.reshape(-1, seq.shape[-1])


def _view(bufs, role, shape):
    """The front of the flat buffer bufs[role], grown when too small, as a contiguous `shape` array."""
    n = math.prod(shape)
    if role not in bufs or bufs[role].size < n:
        bufs[role] = np.empty(n)
    return bufs[role][:n].reshape(shape)


class _FusedCell:
    """Weights and the whole-sequence matmuls shared by the recurrent cells.

    Gate g of GATES owns columns g*H:(g+1)*H of W, U and b. A cell's forward
    maps a time-major (T, B, D) sequence to its (T, B, H) hidden states;
    backward takes their gradient, accumulates the parameter gradients and
    returns the input gradient (None when need_dx is false).
    """

    GATES: tuple[str, ...] = ()

    def __init__(self, input_dim, hidden, rng, name):
        self.hidden = hidden
        W, U = [], []
        for _ in self.GATES:
            # W_g then U_g per gate: a seed gives the same initial weights as
            # drawing each gate's matrices separately
            W.append(_uniform(rng, input_dim, (input_dim, hidden)))
            U.append(_uniform(rng, hidden, (hidden, hidden)))
        self.W = Param(f"{name}.W", np.concatenate(W, axis=1))
        self.U = Param(f"{name}.U", np.concatenate(U, axis=1))
        self.b = Param(f"{name}.b", self._initial_bias(hidden))
        self.release()

    def _initial_bias(self, hidden):
        return np.zeros(len(self.GATES) * hidden)

    def params(self):
        return [self.W, self.U, self.b]

    def release(self):
        """Drop the forward cache and the reused buffers, leaving only the weights."""
        self._cache = None
        self._bufs = {}

    def _project(self, x):
        """x @ W + b for every timestep: (T, B, D) -> the (T, B, G*H) buffer A."""
        T, B, D = x.shape
        if D != self.W.value.shape[0]:
            raise ConfigError(f"{self.W.name}: expected input dim {self.W.value.shape[0]}, got {D}")
        A = _view(self._bufs, "A", (T, B, self.b.value.size))
        np.matmul(_flat(x), self.W.value, out=_flat(A))
        A += self.b.value
        return A

    def _take_cache(self):
        if self._cache is None:
            raise ConfigError(f"{self.W.name}: backward called without a forward pass")
        cache, self._cache = self._cache, None
        return cache

    def _input_grads(self, x, dA, need_dx):
        """Accumulate W and b gradients from the (T, B, G*H) gate gradients; return dx."""
        dA = _flat(dA)
        self.W.grad += _flat(x).T @ dA
        self.b.grad += dA.sum(axis=0)
        if need_dx:
            dx = _view(self._bufs, "dx", x.shape)
            return np.matmul(dA, self.W.value.T, out=_flat(dx)).reshape(x.shape)


class RNNLayer(_FusedCell):
    """h_t = tanh(x_t @ W + h_{t-1} @ U + b)"""

    GATES = ("h",)

    def forward(self, x):
        hs = self._project(x)  # turned into the hidden states step by step
        U = self.U.value
        for t, h in enumerate(hs):
            if t:
                h += h_prev @ U
            np.tanh(h, out=h)
            h_prev = h
        self._cache = (x, hs)
        return hs

    def backward(self, dh_seq, need_dx=True):
        x, hs = self._take_cache()
        dA = np.multiply(hs, hs, out=_view(self._bufs, "dA", hs.shape))
        np.subtract(1.0, dA, out=dA)  # tanh', scaled in place into the pre-activation gradient
        U_T = self.U.value.T
        dh = dh_seq[-1]
        for t in range(len(hs) - 1, -1, -1):
            dA[t] *= dh
            if t:
                dh = dh_seq[t - 1] + dA[t] @ U_T
        self.U.grad += _flat(hs[:-1]).T @ _flat(dA[1:])
        return self._input_grads(x, dA, need_dx)


class LSTMLayer(_FusedCell):
    """Gated cell: f, i, o sigmoid gates, tanh candidate c, additive cell state."""

    GATES = ("f", "i", "c", "o")

    def _initial_bias(self, hidden):
        b = np.zeros(4 * hidden)
        b[:hidden] = 1.0  # forget gate starts open so early training can retain state
        return b

    def forward(self, x):
        A = self._project(x)  # pre-activations, then activations [f, i, c, o] in place
        T, B, _ = A.shape
        H = self.hidden
        U = self.U.value
        Cs = _view(self._bufs, "Cs", (T, B, H))
        hs = _view(self._bufs, "hs", (T, B, H))
        with np.errstate(over="ignore"):  # sigmoid_'s exp overflow
            for t, (a, C, h) in enumerate(zip(A, Cs, hs)):
                if t:
                    a += h_prev @ U
                f, i, c, o = a[:, :H], a[:, H : 2 * H], a[:, 2 * H : 3 * H], a[:, 3 * H :]
                # one sigmoid over the contiguous row is cheaper than one per column
                # block, so the candidate's tanh is parked in C and put back
                np.tanh(c, out=C)
                sigmoid_(a)
                c[...] = C
                C *= i
                if t:
                    C += f * C_prev
                np.tanh(C, out=h)
                h *= o
                C_prev, h_prev = C, h
        self._cache = (x, A, Cs, hs)
        return hs

    def backward(self, dh_seq, need_dx=True):
        x, A, Cs, hs = self._take_cache()
        T, B, _ = A.shape
        H = self.hidden
        f, i, c, o = (A[..., k * H : (k + 1) * H] for k in range(4))
        # The factors that do not depend on the carried gradients are formed for
        # all steps at once, in place over the activations: gate gradient =
        # factor * dC_t for f, i and c, and factor * dh_t for o. Cs is dead once
        # read, so it holds tanh(C) and then the c factor.
        F = _view(self._bufs, "F", (T, B, H))  # dC_{t-1} = dC_t * f_t
        F[...] = f
        np.subtract(1.0, f, out=f)
        f *= F
        f[1:] *= Cs[:-1]
        f[0] = 0.0  # f (1 - f) C_{t-1}, with C_{-1} = 0
        tC = np.tanh(Cs, out=Cs)  # recomputed rather than cached, to keep the cache small
        dC_dh = np.multiply(tC, tC, out=_view(self._bufs, "dC_dh", (T, B, H)))
        np.subtract(1.0, dC_dh, out=dC_dh)
        dC_dh *= o  # dC_t += dh_t * o (1 - tanh(C)^2)
        tC *= o
        np.subtract(1.0, o, out=o)
        o *= tC  # o (1 - o) tanh(C)
        np.multiply(c, c, out=Cs)
        np.subtract(1.0, Cs, out=Cs)
        Cs *= i  # i (1 - c^2)
        c *= i
        np.subtract(1.0, i, out=i)
        i *= c  # i (1 - i) c
        c[...] = Cs
        U_T = self.U.value.T
        dh = dh_seq[-1]
        dC_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            a = A[t]
            a4 = a.reshape(B, 4, H)
            dC = dh * dC_dh[t]
            dC += dC_next
            a4[:, :3] *= dC[:, None]
            a4[:, 3] *= dh
            if t:
                dC_next = dC * F[t]
                dh = dh_seq[t - 1] + a @ U_T
        self.U.grad += _flat(hs[:-1]).T @ _flat(A[1:])
        return self._input_grads(x, A, need_dx)


class GRULayer(_FusedCell):
    """Reset/update gated cell; the carry term uses h_{t-1} (standard recurrence)."""

    GATES = ("r", "z", "h")

    def forward(self, x):
        A = self._project(x)  # pre-activations, then activations [r, z, h_bar] in place
        T, B, _ = A.shape
        H = self.hidden
        U_rz, U_h = self.U.value[:, : 2 * H], self.U.value[:, 2 * H :]
        hs = _view(self._bufs, "hs", (T, B, H))
        rhs = _view(self._bufs, "rhs", (T, B, H))  # r * h_{t-1}, the input of U_h
        h_prev = np.zeros((B, H))
        with np.errstate(over="ignore"):  # sigmoid_'s exp overflow
            for t, (a, h, rh) in enumerate(zip(A, hs, rhs)):
                rz, z, h_bar = a[:, : 2 * H], a[:, H : 2 * H], a[:, 2 * H :]
                if t:
                    rz += h_prev @ U_rz
                sigmoid_(rz)
                np.multiply(a[:, :H], h_prev, out=rh)
                if t:
                    h_bar += rh @ U_h
                np.tanh(h_bar, out=h_bar)
                np.multiply(np.subtract(ONE, z, out=h), h_prev, out=h)
                h += z * h_bar
                h_prev = h
        self._cache = (x, A, rhs, hs)
        return hs

    def backward(self, dh_seq, need_dx=True):
        x, A, rhs, hs = self._take_cache()
        T, B, _ = A.shape
        H = self.hidden
        r, z, h_bar = (A[..., k * H : (k + 1) * H] for k in range(3))
        # Carry-independent factors for all steps, in place over the activations:
        # the z and h_bar gradients are factor * dh_t, the r gradient factor * drh_t.
        R = _view(self._bufs, "R", (T, B, H))
        R[...] = r
        dprev_dh = np.subtract(1.0, z, out=_view(self._bufs, "dprev_dh", (T, B, H)))
        h_factor = np.multiply(h_bar, h_bar, out=_view(self._bufs, "h_factor", (T, B, H)))
        np.subtract(1.0, h_factor, out=h_factor)
        h_factor *= z  # z (1 - h_bar^2)
        np.subtract(h_bar[1:], hs[:-1], out=h_bar[1:])  # h_bar - h_{t-1}, with h_{-1} = 0
        h_bar *= z
        np.subtract(1.0, z, out=z)
        z *= h_bar  # z (1 - z) (h_bar - h_{t-1})
        h_bar[...] = h_factor
        np.subtract(1.0, r, out=r)
        r *= R
        r[1:] *= hs[:-1]
        r[0] = 0.0  # r (1 - r) h_{t-1}
        U_rz_T = self.U.value[:, : 2 * H].T
        U_h_T = self.U.value[:, 2 * H :].T
        dh = dh_seq[-1]
        for t in range(T - 1, -1, -1):
            a = A[t]
            a.reshape(B, 3, H)[:, 1:] *= dh[:, None]  # z and h_bar
            drh = a[:, 2 * H :] @ U_h_T
            a[:, :H] *= drh
            if t:
                dh_prev = dh * dprev_dh[t]
                dh_prev += drh * R[t]
                dh_prev += a[:, : 2 * H] @ U_rz_T
                dh = dh_seq[t - 1] + dh_prev
        self.U.grad[:, : 2 * H] += _flat(hs[:-1]).T @ _flat(A[1:, :, : 2 * H])
        self.U.grad[:, 2 * H :] += _flat(rhs).T @ _flat(A[:, :, 2 * H :])
        return self._input_grads(x, A, need_dx)


class BidirectionalLayer:
    """Runs one cell layer forward in time and a second one on the reversed
    sequence; outputs are concatenated per timestep (forward half first)."""

    def __init__(self, fwd, bwd):
        self.fwd = fwd
        self.bwd = bwd
        self.hidden = fwd.hidden
        self._bufs = {}

    def params(self):
        return self.fwd.params() + self.bwd.params()

    def release(self):
        self.fwd.release()
        self.bwd.release()
        self._bufs = {}

    def forward(self, x):
        out = _view(self._bufs, "out", (*x.shape[:2], 2 * self.hidden))
        x_rev = _view(self._bufs, "x_rev", x.shape)
        x_rev[...] = x[::-1]
        out[..., : self.hidden] = self.fwd.forward(x)
        out[..., self.hidden :] = self.bwd.forward(x_rev)[::-1]
        return out

    def backward(self, dout, need_dx=True):
        H = self.hidden
        dx_f = self.fwd.backward(dout[:, :, :H], need_dx)
        dx_b = self.bwd.backward(dout[::-1, :, H:], need_dx)
        return np.add(dx_f, dx_b[::-1], out=_view(self._bufs, "dx", dx_f.shape)) if need_dx else None


_CELLS = {"rnn": RNNLayer, "lstm": LSTMLayer, "gru": GRULayer}


class RecurrentModel:
    """Stack of recurrent layers plus a linear head producing one scalar per window."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.stats_fingerprint: str | None = None
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
        cell_cls = _CELLS[config.cell]
        width = 2 if config.bidirectional else 1
        self.layers = []
        in_dim = config.input_dim
        for l in range(config.layers):
            if config.bidirectional:
                fwd = cell_cls(in_dim, config.hidden, rng, f"layer{l}.fwd")
                bwd = cell_cls(in_dim, config.hidden, rng, f"layer{l}.bwd")
                self.layers.append(BidirectionalLayer(fwd, bwd))
            else:
                self.layers.append(cell_cls(in_dim, config.hidden, rng, f"layer{l}"))
            in_dim = config.hidden * width
        self.head = Dense(in_dim, 1, rng, name="head")

    def params(self) -> list[Param]:
        out = []
        for layer in self.layers:
            out += layer.params()
        return out + self.head.params()

    def forward_batch(self, X: np.ndarray) -> np.ndarray:
        """(B, T, D) windows -> (B,) predictions."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 3 or X.shape[1] != self.config.n_timesteps or X.shape[2] != self.config.input_dim:
            raise ConfigError(
                f"expected windows of shape (*, {self.config.n_timesteps}, "
                f"{self.config.input_dim}), got {X.shape}"
            )
        seq = np.ascontiguousarray(X.transpose(1, 0, 2))
        for layer in self.layers:
            seq = layer.forward(seq)
        self._top_shape = seq.shape
        if self.config.bidirectional:
            H = self.config.hidden
            head_in = np.concatenate([seq[-1, :, :H], seq[0, :, H:]], axis=1)
        else:
            head_in = seq[-1]
        return self.head.forward(head_in)[:, 0]

    def backward_batch(self, dpred: np.ndarray) -> None:
        """Accumulate parameter gradients for the last forward_batch call."""
        dhead_in = self.head.backward(np.asarray(dpred, dtype=np.float64).reshape(-1, 1))
        dseq = np.zeros(self._top_shape)
        if self.config.bidirectional:
            H = self.config.hidden
            dseq[-1, :, :H] = dhead_in[:, :H]
            dseq[0, :, H:] = dhead_in[:, H:]
        else:
            dseq[-1] = dhead_in
        for depth in range(len(self.layers) - 1, -1, -1):
            # the bottom layer's input gradient would only be thrown away
            dseq = self.layers[depth].backward(dseq, need_dx=depth > 0)

    def _drop_caches(self) -> None:
        """Release the forward caches and the layers' buffers, leaving only the parameters."""
        for layer in self.layers:
            layer.release()
        self.head._x = None


def _forward_chunked(model: RecurrentModel, X: np.ndarray) -> np.ndarray:
    """forward_batch over consecutive INFERENCE_BATCH-window chunks, concatenated.

    Equal bitwise to one whole-batch pass: OpenBLAS can round a row by its
    position modulo 4 within a matmul, which chunks of 32 keep, and a lone row
    would take numpy's matrix-vector path, so a 1-window remainder joins the
    chunk before it.
    """
    starts = list(range(0, max(len(X) - 1, 1), INFERENCE_BATCH))
    ends = starts[1:] + [len(X)]
    return np.concatenate([model.forward_batch(X[lo:hi]) for lo, hi in zip(starts, ends)])


def train(
    train_ds: Dataset,
    val_fraction: float,
    config: ModelConfig,
    hyper: TrainHyper = TrainHyper(),
) -> tuple[RecurrentModel, TrainReport]:
    """Mini-batch Adam on MSE with a chronological validation split and early stopping.

    The last round(val_fraction * n) samples form the validation set. Training
    restores the parameters of the best validation epoch. Deterministic for a
    fixed (data, config.seed, hyper).
    """
    if not 0.0 <= val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in [0, 1), got {val_fraction}")
    X = train_ds.windows()
    y = train_ds.targets()
    n_val = int(round(len(y) * val_fraction))
    n_val = min(n_val, len(y) - 1)
    X_tr, y_tr = (X[:-n_val], y[:-n_val]) if n_val else (X, y)
    X_val, y_val = (X[-n_val:], y[-n_val:]) if n_val else (None, None)

    model = RecurrentModel(config)
    params = model.params()
    step = 0
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    report = TrainReport()

    best_monitor = np.inf
    best_values = [p.value.copy() for p in params]
    stale = 0
    for epoch in range(hyper.max_epochs):
        order = shuffle_rng.permutation(len(y_tr))
        sq_sum = 0.0
        for lo in range(0, len(order), hyper.batch_size):
            batch = order[lo : lo + hyper.batch_size]
            zero_grads(params)
            pred = model.forward_batch(X_tr[batch])
            loss, dpred = mse_loss(pred, y_tr[batch])
            if not np.isfinite(loss):
                norm = float(np.sqrt(sum(np.sum(p.value**2) for p in params)))
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch offset {lo} "
                    f"(parameter norm {norm:.3e})"
                )
            model.backward_batch(dpred)
            clip_global_norm(params, hyper.clip_norm)
            step += 1
            adam_step(params, hyper, step)
            sq_sum += loss * len(batch)
        train_loss = sq_sum / len(y_tr)
        report.train_losses.append(train_loss)

        if n_val:
            val_loss = mse_loss(_forward_chunked(model, X_val), y_val)[0]
            report.val_losses.append(val_loss)
            monitor = val_loss
        else:
            monitor = train_loss
        report.epochs_run = epoch + 1

        if monitor < best_monitor:
            best_monitor = monitor
            report.best_epoch = epoch
            best_values = [p.value.copy() for p in params]
            stale = 0
        else:
            stale += 1
            if stale > hyper.patience:
                break

    for p, v in zip(params, best_values):
        p.value[...] = v
    # once here, not after each validation pass, which would re-fault every buffer
    model._drop_caches()
    if train_ds.norm_fingerprint is not None:
        model.stats_fingerprint = train_ds.norm_fingerprint
    return model, report


def predict(model: RecurrentModel, ds: Dataset, stats: NormStats) -> np.ndarray:
    """Raw-price predictions, one per sample in order.

    The dataset must have been normalized with exactly these stats; fingerprints
    are compared to catch train/serve skew.
    """
    if ds.norm_fingerprint != stats.fingerprint:
        raise ConfigError(
            f"dataset normalized with stats {ds.norm_fingerprint}, got {stats.fingerprint}"
        )
    if model.stats_fingerprint is not None and model.stats_fingerprint != stats.fingerprint:
        raise ConfigError(
            f"model trained with stats {model.stats_fingerprint}, got {stats.fingerprint}"
        )
    pred = _forward_chunked(model, ds.windows())
    model._drop_caches()
    return invert_target(pred, stats)


_MODEL_MAGIC = "fxevent-model v3"
_ZIP_END = struct.Struct("<4s4H2LH")  # a zip file's end of central directory record


def save_model(model: RecurrentModel, path) -> None:
    """An uncompressed `.npz` archive: the strings magic, config and stats_fingerprint,
    then one float64 array per parameter, under its name and at its shape."""
    header = {"magic": _MODEL_MAGIC, "config": json.dumps(asdict(model.config), sort_keys=True),
              "stats_fingerprint": model.stats_fingerprint or "-"}
    with open(path, "wb") as fh:  # a file object, so numpy adds no `.npz` to the name
        np.savez(fh, **header, **{p.name: p.value for p in model.params()})


def _text(members, name, path) -> str:
    """A header member's string; a missing or non-string member raises ConfigError naming the file."""
    value = members.get(name)
    if value is None or value.shape != () or value.dtype.kind != "U":
        raise ConfigError(f"{path}: {name}: expected a string member")
    return str(value)


def load_model(path) -> RecurrentModel:
    """Read a file written by save_model; any fault raises ConfigError naming the file."""
    with open(path, "rb") as fh:
        try:
            npz = np.load(fh, allow_pickle=False)
            names = getattr(npz, "files", [])  # none in a plain .npy
            members = {name: npz[name] for name in names}
        except (ValueError, EOFError, zipfile.BadZipFile):  # a text file, a truncated archive, ...
            raise ConfigError(f"{path}: not a model file (not a readable npz archive)") from None
        magic = str(members.get("magic"))
        if magic != _MODEL_MAGIC:
            raise ConfigError(f"{path}: not a model file (magic {magic!r})")
        # zipfile reads an archive with bytes before or after it, such as a second copy:
        # here its end record must be the file's last bytes, right after the central directory
        end = fh.seek(-_ZIP_END.size, os.SEEK_END)
        signature, *_, cd_size, cd_offset, comment_size = _ZIP_END.unpack(fh.read())
        if (signature, comment_size, cd_offset + cd_size) != (b"PK\x05\x06", 0, end):
            raise ConfigError(f"{path}: bytes before or after the archive")
    config_json, fingerprint = _text(members, "config", path), _text(members, "stats_fingerprint", path)
    try:
        config = ModelConfig(**json.loads(config_json))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: bad config member: {exc}") from None
    model = RecurrentModel(config)
    found = Counter(names)
    wanted = Counter(["magic", "config", "stats_fingerprint"] + [p.name for p in model.params()])
    if found != wanted:
        raise ConfigError(f"{path}: members do not match a {config.kind} model: "
                          f"missing {sorted(wanted - found)}, extra {sorted(found - wanted)}")
    for p in model.params():
        value = members[p.name]
        if value.dtype != np.float64 or value.shape != p.value.shape:
            raise ConfigError(f"{path}: {p.name}: file holds {value.dtype} {value.shape}, "
                              f"model expects float64 {p.value.shape}")
        if not np.isfinite(value).all():
            raise ConfigError(f"{path}: {p.name}: non-finite value")
        p.value[...] = value
    if fingerprint != "-":
        model.stats_fingerprint = fingerprint
    return model
