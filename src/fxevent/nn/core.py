"""Minimal float64 substrate for the recurrent models.

Hand-rolled on purpose: every backward pass here is checked against central
finite differences, so the numerics stay in 64-bit and nothing is delegated to
an autodiff framework. numpy supplies the array arithmetic only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, GradCheckError


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


def adam_step(params: list[Param], hyper, t: int) -> None:
    """Bias-corrected Adam update in place, as step t >= 1, with a TrainHyper's lr, betas and eps."""
    b1, b2 = hyper.beta1, hyper.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    work = np.empty(2 * max(p.value.size for p in params))
    for p in params:
        # m = b1 m + (1-b1) g; v = b2 v + (1-b2) g^2; value -= lr (m/bc1) / (sqrt(v/bc2) + eps)
        num, den = work[: 2 * p.value.size].reshape(2, *p.value.shape)
        p.adam_m *= b1
        p.adam_m += np.multiply(1.0 - b1, p.grad, out=num)
        p.adam_v *= b2
        p.adam_v += np.multiply(np.multiply(p.grad, p.grad, out=den), 1.0 - b2, out=den)
        np.divide(p.adam_m, bc1, out=num)
        num *= hyper.lr
        np.sqrt(np.divide(p.adam_v, bc2, out=den), out=den)
        den += hyper.eps
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


def sigmoid_(a: np.ndarray) -> np.ndarray:
    """a = 1 / (1 + exp(-a)) in place. Callers silence exp's overflow (a < -709): its limit 0.0 is right."""
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    return np.divide(1.0, a, out=a)


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


def grad_check(loss_fn, backward_fn, params: list[Param], h: float = 1e-5) -> float:
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


def save_params(params: list[Param], fh) -> None:
    """One block per tensor: `name rows cols` then row-major values, 17 significant digits."""
    for p in params:
        mat = p.value if p.value.ndim == 2 else p.value.reshape(1, -1)
        fh.write(f"{p.name} {mat.shape[0]} {mat.shape[1]}\n")
        for row in mat:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_params(params: list[Param], fh) -> None:
    """Read values written by save_params back into matching live params, in order."""
    for p in params:
        header = fh.readline().split()
        if len(header) != 3 or not (header[1].isdigit() and header[2].isdigit()):
            raise ConfigError(f"bad parameter header while loading {p.name}: {header}")
        name, rows, cols = header[0], int(header[1]), int(header[2])
        if name != p.name:
            raise ConfigError(f"parameter order mismatch: file has {name}, model expects {p.name}")
        if rows * cols != p.value.size:
            raise ConfigError(f"{name}: file holds {rows}x{cols}, model expects {p.value.shape}")
        data = np.empty((rows, cols))
        for r in range(rows):
            fields = fh.readline().split()
            if len(fields) != cols:
                raise ConfigError(f"{name}: row {r} holds {len(fields)} values, expected {cols}")
            try:
                data[r] = [float(v) for v in fields]
            except ValueError:
                raise ConfigError(f"{name}: non-numeric value in row {r}") from None
        p.value[...] = data.reshape(p.value.shape)
