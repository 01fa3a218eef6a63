"""Training-window construction and normalization.

One sample per detected event sequence: the feature rows for the n bars ending at
the crossover (inclusive), with the close at the retracement point as the scalar
target. Samples whose window would touch the indicator warm-up region are skipped,
never imputed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .csvio import RowError, format_rows, line_of_row, read_rows
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
        for s in self.samples:
            if s.window.shape[0] != self.n_timesteps:
                raise ConfigError(
                    f"sample window has {s.window.shape[0]} rows, dataset expects {self.n_timesteps}"
                )

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
    """The stats sidecar saved beside a model file: `m.model.txt` -> `m.model.stats.json`."""
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


def save_dataset(ds: Dataset, prefix) -> None:
    """Write `<prefix>_windows.csv` and `<prefix>_targets.csv`.

    Windows are flattened row-major with header `sample_id,timestep,<feature names>`;
    targets carry `sample_id,e2_ts,e3_ts,target`. Values round-trip float64 exactly.
    """
    names = list(ds.feature_names) if ds.feature_names else [f"f{j}" for j in range(ds.n_features)]
    with open(f"{prefix}_windows.csv", "w", newline="") as fh:
        csv.writer(fh).writerow(["sample_id", "timestep", *names])
        for sid, s in enumerate(ds.samples):
            fh.write(format_rows((f"{sid},{t}" for t in range(ds.n_timesteps)), s.window))
    with open(f"{prefix}_targets.csv", "w", newline="") as fh:
        csv.writer(fh).writerow(["sample_id", "e2_ts", "e3_ts", "target"])
        keys = (f"{sid},{s.e2_ts},{s.e3_ts}" for sid, s in enumerate(ds.samples))
        fh.write(format_rows(keys, np.reshape([s.target for s in ds.samples], (-1, 1))))


_TARGET_ROW = np.dtype([("sample_id", np.int64), ("e2_ts", np.int64), ("e3_ts", np.int64), ("target", np.float64)])


def load_dataset(prefix, role: str = "train") -> Dataset:
    """Read the CSV pair written by save_dataset, in the layout it writes.

    Windows rows hold samples 0..N-1 in order, each sample's timesteps 0..T-1 in
    order, where T is the row count of sample 0; the targets file holds one row
    per sample in the same order. Every row needs the same number of fields and
    every value must be finite. Both bodies go through `csvio.read_rows`: empty
    lines are skipped, `"` quotes are read, and a `#` line is a malformed row
    like any other. The first fault in a file raises ConfigError naming the
    file, its line and what that line should hold. Source-series bar indices
    are not part of the wire format, so reloaded samples carry e2_index = -1.
    """
    windows_path = f"{prefix}_windows.csv"
    with open(windows_path) as fh:
        feature_names = tuple(next(csv.reader([fh.readline()]), [])[2:])
        try:
            rows = read_rows(windows_path, fh, 1, np.float64, ndmin=2)
        except RowError as exc:
            raise ConfigError(f"{windows_path}: {exc}") from None
    if rows.shape[1] < 2:  # an empty body parses to shape (0, 1)
        raise ConfigError(f"{windows_path} holds no samples")
    nonfinite = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if nonfinite.size:
        i = nonfinite[0]
        raise ConfigError(
            f"{windows_path}: non-finite value in sample {rows[i, 0]:.17g} at timestep {rows[i, 1]:.17g}"
        )
    n_steps = int(np.argmax(rows[:, 0] != 0)) or len(rows)  # T, the leading rows of sample 0
    sample, step = np.divmod(np.arange(len(rows) + 1), n_steps)  # each row's place, and one past the end
    misplaced = np.flatnonzero((rows[:, 0] != sample[:-1]) | (rows[:, 1] != step[:-1]))
    if misplaced.size or step[-1]:  # a row out of place, or a last sample cut short
        i = misplaced[0] if misplaced.size else len(rows)
        found = f"holds sample {rows[i, 0]:.15g} timestep {rows[i, 1]:.15g}" if i < len(rows) else "is missing"
        line = line_of_row(windows_path, 1, i)
        raise ConfigError(f"{windows_path}: line {line} {found}, expected sample {sample[i]} timestep {step[i]}")
    windows = rows[:, 2:].reshape(len(rows) // n_steps, n_steps, rows.shape[1] - 2)

    targets_path = f"{prefix}_targets.csv"
    with open(targets_path) as fh:
        fh.readline()
        try:
            meta = read_rows(targets_path, fh, 1, _TARGET_ROW, ndmin=1)
        except RowError as exc:
            raise ConfigError(f"{targets_path}: {exc}") from None
    ids = np.arange(len(meta))
    bad = np.flatnonzero((meta["sample_id"] != ids) | (ids >= len(windows)) | ~np.isfinite(meta["target"]))
    if bad.size:
        i = int(bad[0])
        key, line = int(meta["sample_id"][i]), line_of_row(targets_path, 1, i)
        if key == i < len(windows):
            raise ConfigError(f"{targets_path}: non-finite target at line {line}")
        expected = f"sample {i}" if i < len(windows) else "the end of the file"
        raise ConfigError(f"{targets_path}: line {line} holds sample {key}, expected {expected}")
    if len(meta) < len(windows):
        raise ConfigError(f"{targets_path}: no row for sample {len(meta)}")
    samples = tuple(Sample(w, target, -1, e2_ts, e3_ts) for w, (_, e2_ts, e3_ts, target) in zip(windows, meta.tolist()))
    return Dataset(samples, n_steps, role, feature_names=feature_names)
