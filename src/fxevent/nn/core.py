"""Minimal float64 substrate for the recurrent models.

Hand-rolled on purpose: every backward pass here is checked against central
finite differences (criterion 1's checker is in tests/oracles.py), so the
numerics stay in 64-bit and nothing is delegated to an autodiff framework.
numpy supplies the array arithmetic only. This module holds only what a
training step runs; the model file format lives in models.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


@dataclass
class Param:
    """A trainable tensor with its gradient and Adam state, all shape-aligned."""

    name: str
    value: np.ndarray

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.adam_m = np.zeros_like(self.value)
        self.adam_v = np.zeros_like(self.value)


def zero_grads(params: list[Param]) -> None:
    for p in params:
        p.grad[...] = 0.0


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


def adam_step(params: list[Param], hyper, t: int) -> None:
    """Bias-corrected Adam update in place, as step t >= 1, with a TrainHyper's lr."""
    bc1, bc2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
    work = np.empty(2 * max(p.value.size for p in params))
    for p in params:
        # m = b1 m + (1-b1) g; v = b2 v + (1-b2) g^2; value -= lr (m/bc1) / (sqrt(v/bc2) + eps)
        num, den = work[: 2 * p.value.size].reshape(2, *p.value.shape)
        p.adam_m *= ADAM_BETA1
        p.adam_m += np.multiply(1.0 - ADAM_BETA1, p.grad, out=num)
        p.adam_v *= ADAM_BETA2
        p.adam_v += np.multiply(np.multiply(p.grad, p.grad, out=den), 1.0 - ADAM_BETA2, out=den)
        np.divide(p.adam_m, bc1, out=num)
        num *= hyper.lr
        np.sqrt(np.divide(p.adam_v, bc2, out=den), out=den)
        den += ADAM_EPS
        p.value -= np.divide(num, den, out=num)


def clip_global_norm(params: list[Param], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is <= max_norm; returns the pre-clip norm."""
    work = np.empty(max(p.grad.size for p in params))
    squares = (np.multiply(p.grad, p.grad, out=work[: p.grad.size].reshape(p.grad.shape)) for p in params)
    total = np.sqrt(sum(float(np.sum(sq)) for sq in squares))
    if max_norm > 0.0 and total > max_norm:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


# 1.0 as a 0-d array for the recurrence steps, which allocate nothing: a Python
# float operand is converted again on every call, about 0.5 us each at batch size 1
ONE = np.array(1.0)
ONE.setflags(write=False)


def sigmoid_(a: np.ndarray) -> np.ndarray:
    """a = 1 / (1 + exp(-a)) in place, outputs passed positionally as each recurrence step's are.

    Callers silence exp's overflow (a < -709): its limit 0.0 is right.
    """
    np.negative(a, a)
    np.exp(a, a)
    np.add(a, ONE, a)
    return np.divide(ONE, a, a)


def mse_loss(pred, target) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient w.r.t. pred: 2*(pred-target)/len."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ConfigError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    if pred.size == 0:
        raise ConfigError("mse_loss on empty input")
    diff = pred - target
    loss = float(np.mean(diff**2))
    return loss, 2.0 * diff / pred.size


class Dense:
    """y = x @ W + b with gradient accumulation into the params."""

    def __init__(self, input_dim: int, output_dim: int, rng: np.random.Generator, name: str = "dense"):
        limit = 1.0 / np.sqrt(input_dim)
        self.W = Param(f"{name}.W", rng.uniform(-limit, limit, size=(input_dim, output_dim)))
        self.b = Param(f"{name}.b", np.zeros(output_dim))
        self._x = None

    def params(self) -> list[Param]:
        return [self.W, self.b]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.W.value.shape[0]:
            raise ConfigError(
                f"dense expects input dim {self.W.value.shape[0]}, got shape {x.shape}"
            )
        self._x = x
        return x @ self.W.value + self.b.value

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ConfigError("dense backward called before forward")
        self.W.grad += self._x.T @ upstream
        self.b.grad += upstream.sum(axis=0)
        return upstream @ self.W.value.T
