"""Regression metrics on raw (denormalized) prices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def _check(true, pred):
    true = np.asarray(true, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if true.shape != pred.shape:
        raise ConfigError(f"shape mismatch: true {true.shape} vs pred {pred.shape}")
    if true.size == 0:
        raise ConfigError("metrics on empty input")
    return true, pred


def mse(true, pred) -> float:
    true, pred = _check(true, pred)
    return float(np.mean((true - pred) ** 2))


def rmse(true, pred) -> float:
    return float(np.sqrt(mse(true, pred)))


def mae(true, pred) -> float:
    true, pred = _check(true, pred)
    return float(np.mean(np.abs(true - pred)))


def mape(true, pred) -> float:
    """Mean absolute percentage error, in percent. Zero true values are corrupt data."""
    true, pred = _check(true, pred)
    if np.any(true == 0.0):
        raise ConfigError("mape undefined: true values contain zero")
    return float(np.mean(np.abs(true - pred) / true) * 100.0)


SCALED_HEADER = (
    f"{'model':<12} {'n':>4} {'MSE(1e-3)':>12} {'RMSE(1e-3)':>12} {'MAE(1e-3)':>12} "
    f"{'MAPE(%)':>10} {'count':>6}"
)


@dataclass(frozen=True)
class MetricsReport:
    model_kind: str
    n_timesteps: int
    mse: float
    rmse: float
    mae: float
    mape: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("metrics need at least one sample")

    @classmethod
    def compute(cls, model_kind: str, n_timesteps: int, true, pred) -> "MetricsReport":
        return cls(
            model_kind=model_kind,
            n_timesteps=n_timesteps,
            mse=mse(true, pred),
            rmse=rmse(true, pred),
            mae=mae(true, pred),
            mape=mape(true, pred),
            n=int(np.asarray(true).size),
        )

    def row(self) -> dict:
        """The JSON record of report.json and metrics.json, in raw price units."""
        return {
            "model": self.model_kind,
            "timesteps": self.n_timesteps,
            "mse": self.mse,
            "rmse": self.rmse,
            "mae": self.mae,
            "mape_pct": self.mape,
            "n": self.n,
        }

    def scaled_row(self) -> str:
        """A line under SCALED_HEADER: values in the x10^-3 convention of the result tables, MAPE in %."""
        return (
            f"{self.model_kind:<12} {self.n_timesteps:>4} "
            f"{self.mse * 1e3:>12.6f} {self.rmse * 1e3:>12.3f} "
            f"{self.mae * 1e3:>12.3f} {self.mape:>10.3f} {self.n:>6}"
        )
