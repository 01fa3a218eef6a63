"""Training-window construction, normalization and the two `.npy` files of a dataset.

One sample per detected event sequence: the feature rows for the n bars ending at
the crossover (inclusive), with the close at the retracement point as the scalar
target. Samples whose window would touch the indicator warm-up region are skipped,
never imputed.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .events import EventSequence
from .indicators import FeatureMatrix
from .market_data import CandleSeries


@dataclass(frozen=True)
class Sample:
    window: np.ndarray  # (n_timesteps, n_features), oldest row first, last row = crossover bar
    target: float  # close at the retracement bar
    e2_index: int  # crossover bar index in the source series (-1 when unknown)
    e2_ts: int
    e3_ts: int

    def __post_init__(self):
        self.window.setflags(write=False)


@dataclass(frozen=True)
class Dataset:
    samples: tuple[Sample, ...]
    n_timesteps: int
    role: str  # "train" | "test"
    norm_fingerprint: str | None = None  # set once apply_norm has transformed the samples
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.samples:
            raise ConfigError("a dataset needs at least one sample")
        shape = (self.n_timesteps, self.n_features)
        for s in self.samples:  # save_dataset writes the windows' bytes back to back
            if s.window.shape != shape:
                raise ConfigError(f"sample window has shape {s.window.shape}, dataset expects {shape}")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def n_features(self) -> int:
        return self.samples[0].window.shape[1]

    def windows(self) -> np.ndarray:
        """(n_samples, n_timesteps, n_features) stack."""
        return np.stack([s.window for s in self.samples])

    def targets(self) -> np.ndarray:
        return np.array([s.target for s in self.samples])


def build_samples(
    features: FeatureMatrix,
    sequences: list[EventSequence],
    n: int,
    series: CandleSeries,
) -> tuple[list[Sample], int]:
    """One window per sequence covering feature rows [e2-n+1 .. e2]; returns (samples, skipped).

    Skips (and tallies) sequences whose window would start before the feature
    warm-up ends. Windows are read-only views of the feature matrix, so a
    sample keeps the whole matrix alive.
    """
    if n < 1:
        raise ConfigError(f"n_timesteps must be >= 1, got {n}")
    samples: list[Sample] = []
    skipped = 0
    for seq in sequences:
        e2 = seq.cross.index
        start = e2 - n + 1
        if start < features.warmup_len or start < 0:
            skipped += 1
            continue
        samples.append(
            Sample(
                window=features.values[start : e2 + 1],
                target=float(series.closes[seq.retrace_index]),
                e2_index=e2,
                e2_ts=int(series.timestamps[e2]),
                e3_ts=int(series.timestamps[seq.retrace_index]),
            )
        )
    return samples, skipped


@dataclass(frozen=True)
class NormStats:
    """Z-score statistics fitted on training data only."""

    feature_mean: np.ndarray  # (n_features,)
    feature_std: np.ndarray  # (n_features,), floored to 1.0 where degenerate
    target_mean: float
    target_std: float

    def __post_init__(self):
        if not np.isfinite([*self.feature_mean, *self.feature_std, self.target_mean, self.target_std]).all():
            raise ConfigError("stats hold a non-finite value")
        if not (np.all(self.feature_std > 0) and self.target_std > 0):
            raise ConfigError("stats hold a standard deviation that is not positive")
        self.feature_mean.setflags(write=False)
        self.feature_std.setflags(write=False)

    @cached_property  # hashed once: predict compares it on every request
    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.feature_mean.tobytes())
        digest.update(self.feature_std.tobytes())
        digest.update(np.float64(self.target_mean).tobytes())
        digest.update(np.float64(self.target_std).tobytes())
        return digest.hexdigest()[:16]

    def check_width(self, n_features: int) -> None:
        if not len(self.feature_mean) == len(self.feature_std) == n_features:
            raise ConfigError(
                f"stats hold {len(self.feature_mean)} feature means and {len(self.feature_std)} "
                f"feature stds, but the windows have {n_features} features"
            )


def save_stats(stats: NormStats, path) -> None:
    """Write the stats as one JSON object; `load_stats` reads it back exactly."""
    payload = {
        "feature_mean": list(stats.feature_mean),
        "feature_std": list(stats.feature_std),
        "target_mean": stats.target_mean,
        "target_std": stats.target_std,
    }
    Path(path).write_text(json.dumps(payload) + "\n")


def stats_path(model_path) -> Path:
    """The stats sidecar saved beside a model file: `m.model.npz` -> `m.model.stats.json`."""
    return Path(model_path).with_suffix(".stats.json")


def load_stats(path) -> NormStats:
    try:
        payload = json.loads(Path(path).read_text())
        return NormStats(
            np.array(payload["feature_mean"]),
            np.array(payload["feature_std"]),
            float(payload["target_mean"]),
            float(payload["target_std"]),
        )
    except ConfigError as exc:  # a rule of NormStats, on a file that parsed
        raise ConfigError(f"{path}: {exc}") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed stats file ({type(exc).__name__}: {exc})") from None


def fit_normalizer(train: Dataset) -> NormStats:
    """Per-feature mean/std over all rows of all training windows, plus target mean/std.

    Standard deviations below 1e-12 are replaced by 1.0 (with a warning) so constant
    columns pass through centered instead of exploding.
    """
    rows = train.windows().reshape(-1, train.n_features)  # a private copy, reused for the std
    mean = rows.mean(axis=0)
    # np.std's own steps, in place: bitwise equal to rows.std(axis=0) without its same-size temporary
    rows -= mean
    np.square(rows, out=rows)
    std = np.sqrt(rows.sum(axis=0) / len(rows))
    degenerate = std < 1e-12
    if degenerate.any():
        warnings.warn(
            f"{int(degenerate.sum())} constant feature column(s); std guarded to 1.0",
            UserWarning,
            stacklevel=2,
        )
        std = np.where(degenerate, 1.0, std)
    targets = train.targets()
    t_std = float(targets.std())
    if t_std < 1e-12:
        warnings.warn("constant targets; target std guarded to 1.0", UserWarning, stacklevel=2)
        t_std = 1.0
    return NormStats(mean, std, float(targets.mean()), t_std)


def apply_norm(ds: Dataset, stats: NormStats) -> Dataset:
    """Z-score features and targets; the result carries the stats fingerprint.

    The windows are normalized in place on one stacked (n_samples, n_timesteps,
    n_features) copy, and each normalized sample holds a read-only view of that
    block, so the block lives as long as any of its samples. Every value is
    bitwise (window - mean) / std of its own sample.
    """
    stats.check_width(ds.n_features)
    block = ds.windows()
    block -= stats.feature_mean
    block /= stats.feature_std
    block.setflags(write=False)
    samples = tuple(
        replace(s, window=w, target=(s.target - stats.target_mean) / stats.target_std)
        for s, w in zip(ds.samples, block)
    )
    return Dataset(samples, ds.n_timesteps, ds.role, stats.fingerprint, ds.feature_names)


def invert_target(y_norm, stats: NormStats):
    """Undo the target z-score; accepts scalars or arrays."""
    return y_norm * stats.target_std + stats.target_mean


_TARGET_ROW = np.dtype([("e2_ts", "<i8"), ("e3_ts", "<i8"), ("target", "<f8")])


def save_dataset(ds: Dataset, prefix) -> None:
    """Write `<prefix>_windows.npy`, one sample at a time, and `<prefix>_targets.npy`.

    The windows file is a `.npy` (format 1.0) array of (samples, timesteps)
    records, one little-endian float64 field per feature, named by the feature
    names (f0, f1, ... if none): `np.load(path).view("<f8").reshape(N, T, D)`
    gives the windows bitwise. The targets file is `np.save` of a `_TARGET_ROW` record per sample.
    Names that are empty, repeated or not latin-1 raise ConfigError first.
    """
    names = ds.feature_names or tuple(f"f{j}" for j in range(ds.n_features))
    if not 0 < len(names) == ds.n_features:
        raise ConfigError(f"a dataset needs one name per feature: {len(names)} names for {ds.n_features} features")
    for i, name in enumerate(names):
        if not name or name in names[:i] or max(map(ord, name)) > 255:  # a 1.0 header is latin-1
            raise ConfigError(f"feature name {name!r} is empty, repeated or not latin-1 text")
    header = {"descr": [(name, "<f8") for name in names], "fortran_order": False, "shape": (len(ds), ds.n_timesteps)}
    with open(f"{prefix}_windows.npy", "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        fh.writelines(np.ascontiguousarray(s.window, "<f8") for s in ds.samples)
    np.save(f"{prefix}_targets.npy", np.array([(s.e2_ts, s.e3_ts, s.target) for s in ds.samples], _TARGET_ROW))


def _read_npy(path: str, what: str) -> np.ndarray:
    """The one array of the `.npy` file `path`, read in one call; any fault raises ConfigError naming the file."""
    with open(path, "rb") as fh:
        try:  # the largest header a 1.0 file can hold, so that whatever save_dataset writes reads back
            array = np.lib.format.read_array(fh, allow_pickle=False, max_header_size=2**16)
        except ValueError as exc:
            raise ConfigError(f"{path}: not a {what} file ({exc})") from None
        if fh.read(1):  # numpy ignores them, and a value written twice would shift every later one
            raise ConfigError(f"{path}: not a {what} file (bytes past its {array.nbytes}-byte array)")
    return array


def load_dataset(prefix, role: str = "train") -> Dataset:
    """Read the pair save_dataset writes; the first fault raises ConfigError naming the file.

    The windows file must hold a non-empty (samples, timesteps) array of packed
    little-endian float64 records, all finite, and nothing past it, read in one
    call: each window is a read-only view of that block, and the field names
    are the feature names. The targets file must hold one `_TARGET_ROW`
    record per sample and nothing past it, each target a close (finite and > 0).
    Reloaded samples carry e2_index = -1: bar indices are not wire format.
    """
    windows_path, targets_path = f"{prefix}_windows.npy", f"{prefix}_targets.npy"
    records = _read_npy(windows_path, "windows")
    names = records.dtype.names
    if records.ndim != 2 or not records.size or not names or records.dtype != np.dtype([(n, "<f8") for n in names]):
        raise ConfigError(f"{windows_path}: holds an array of shape {records.shape} and dtype {records.dtype}, "
                          "expected (samples, timesteps) records of little-endian float64 features")
    windows = np.ascontiguousarray(records).view("<f8").reshape(*records.shape, len(names))
    if not (np.isfinite(windows.min()) and np.isfinite(windows.max())):  # no block-sized mask unless one is bad
        i, t, j = np.argwhere(~np.isfinite(windows))[0]
        raise ConfigError(f"{windows_path}: non-finite value in sample {i} at timestep {t}, feature {names[j]}")

    meta = _read_npy(targets_path, "targets")
    if meta.dtype != _TARGET_ROW or meta.shape != (len(windows),):
        raise ConfigError(f"{targets_path}: holds an array of shape {meta.shape} and dtype {meta.dtype}, "
                          f"expected {len(windows)} records of {_TARGET_ROW}, one per sample")
    target = meta["target"]  # a close
    bad = np.flatnonzero(~(np.isfinite(target) & (target > 0)))
    if bad.size:
        fault = "non-positive" if np.isfinite(target[bad[0]]) else "non-finite"
        raise ConfigError(f"{targets_path}: {fault} target in sample {bad[0]}")
    samples = tuple(Sample(w, target, -1, e2_ts, e3_ts) for w, (e2_ts, e3_ts, target) in zip(windows, meta.tolist()))
    return Dataset(samples, windows.shape[1], role, feature_names=names)
