"""Training-window construction and normalization.

One sample per detected event sequence: the feature rows for the n bars ending at
the crossover (inclusive), with the close at the retracement point as the scalar
target. Samples whose window would touch the indicator warm-up region are skipped,
never imputed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .csvio import format_rows
from .errors import ConfigError
from .events import EventSequence
from .indicators import FeatureMatrix
from .market_data import CandleSeries


@dataclass(frozen=True)
class Sample:
    window: np.ndarray  # (n_timesteps, n_features), oldest row first, last row = crossover bar
    target: float  # close at the retracement bar
    e2_index: int  # crossover bar index in the source series (-1 when unknown)
    e3_index: int  # retracement bar index (-1 when unknown)
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
        for s in self.samples:
            if s.window.shape[0] != self.n_timesteps:
                raise ConfigError(
                    f"sample window has {s.window.shape[0]} rows, dataset expects {self.n_timesteps}"
                )

    def __len__(self) -> int:
        return len(self.samples)

    def windows(self) -> np.ndarray:
        """(n_samples, n_timesteps, n_features) stack; empty datasets yield shape (0, n, 0)."""
        if not self.samples:
            return np.zeros((0, self.n_timesteps, 0))
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
    warm-up ends. Windows are verbatim slices of the feature matrix.
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
        window = features.values[start : e2 + 1].copy()
        samples.append(
            Sample(
                window=window,
                target=float(series.closes[seq.retrace_index]),
                e2_index=e2,
                e3_index=seq.retrace_index,
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


def fit_normalizer(train: Dataset) -> NormStats:
    """Per-feature mean/std over all rows of all training windows, plus target mean/std.

    Standard deviations below 1e-12 are replaced by 1.0 (with a warning) so constant
    columns pass through centered instead of exploding.
    """
    if len(train) == 0:
        raise ConfigError("cannot fit normalizer on an empty dataset")
    rows = train.windows().reshape(-1, train.samples[0].window.shape[1])
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
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
    """Z-score features and targets; the result carries the stats fingerprint."""
    n_feat = ds.samples[0].window.shape[1] if ds.samples else None
    if n_feat is not None and not len(stats.feature_mean) == len(stats.feature_std) == n_feat:
        raise ConfigError(
            f"stats hold {len(stats.feature_mean)} feature means and {len(stats.feature_std)} "
            f"feature stds, but the windows have {n_feat} features"
        )
    samples = tuple(
        replace(
            s,
            window=(s.window - stats.feature_mean) / stats.feature_std,
            target=(s.target - stats.target_mean) / stats.target_std,
        )
        for s in ds.samples
    )
    return Dataset(samples, ds.n_timesteps, ds.role, stats.fingerprint, ds.feature_names)


def apply_target(y: float, stats: NormStats) -> float:
    return (y - stats.target_mean) / stats.target_std


def invert_target(y_norm, stats: NormStats):
    """Undo the target z-score; accepts scalars or arrays."""
    return y_norm * stats.target_std + stats.target_mean


def save_dataset(ds: Dataset, prefix) -> None:
    """Write `<prefix>_windows.csv` and `<prefix>_targets.csv`.

    Windows are flattened row-major with header `sample_id,timestep,<feature names>`;
    targets carry `sample_id,e2_ts,e3_ts,target`. Values round-trip float64 exactly.
    """
    n_feat = ds.samples[0].window.shape[1] if ds.samples else 0
    names = list(ds.feature_names) if ds.feature_names else [f"f{j}" for j in range(n_feat)]
    with open(f"{prefix}_windows.csv", "w", newline="") as fh:
        csv.writer(fh).writerow(["sample_id", "timestep", *names])
        for sid, s in enumerate(ds.samples):
            fh.write(format_rows((f"{sid},{t}" for t in range(ds.n_timesteps)), s.window))
    with open(f"{prefix}_targets.csv", "w", newline="") as fh:
        csv.writer(fh).writerow(["sample_id", "e2_ts", "e3_ts", "target"])
        keys = (f"{sid},{s.e2_ts},{s.e3_ts}" for sid, s in enumerate(ds.samples))
        fh.write(format_rows(keys, np.reshape([s.target for s in ds.samples], (-1, 1))))


def load_dataset(prefix, role: str = "train") -> Dataset:
    """Read the CSV pair written by save_dataset.

    Rows may come in any order; each sample's rows are ordered by timestep.
    Every sample needs the same number of rows and a row in the targets file,
    every row the same number of fields, and every value must be finite; a
    file that breaks this raises ConfigError naming it. Source-series bar
    indices are not part of the wire format, so reloaded samples carry
    e2_index = e3_index = -1.
    """
    windows_path = f"{prefix}_windows.csv"
    with open(windows_path) as fh:
        feature_names = tuple(next(csv.reader([fh.readline()]), [])[2:])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body is reported below
            try:
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ConfigError(f"{windows_path}: {exc}") from exc
    if rows.size == 0:
        raise ConfigError(f"{windows_path} holds no samples")
    sid, step = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
    nonfinite = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if nonfinite.size:
        i = nonfinite[0]
        raise ConfigError(f"{windows_path}: non-finite value in sample {sid[i]} at timestep {step[i]}")
    order = np.lexsort((step, sid))
    ids, counts = np.unique(sid, return_counts=True)
    if np.any(counts != counts[0]):
        bad = int(np.flatnonzero(counts != counts[0])[0])
        raise ConfigError(
            f"{windows_path}: ragged windows, sample {ids[0]} has {counts[0]} rows "
            f"and sample {ids[bad]} has {counts[bad]}"
        )
    windows = rows[order, 2:].reshape(len(ids), int(counts[0]), rows.shape[1] - 2)

    targets_path = f"{prefix}_targets.csv"
    meta = {}
    with open(targets_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            target = float(row[3])
            if not math.isfinite(target):
                raise ConfigError(f"{targets_path}: non-finite target at line {reader.line_num}")
            meta[int(row[0])] = (int(row[1]), int(row[2]), target)
    samples = []
    for i, window in zip(ids.tolist(), windows):
        if i not in meta:
            raise ConfigError(f"{targets_path}: no row for sample {i}")
        e2_ts, e3_ts, target = meta[i]
        samples.append(Sample(window, target, -1, -1, e2_ts, e3_ts))
    return Dataset(tuple(samples), windows.shape[1], role, feature_names=feature_names)
