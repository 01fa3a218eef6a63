"""Experiment configuration: a single INI-style file of key-value sections.

Every knob has a documented default; `write_example` prints all of them from the
key table that `load_config` reads. Values echo back into the run manifest so a
run is fully reproducible from its output directory.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import ClassVar

from .errors import ConfigError
from .market_data import DEFAULT_PIP_SIZE, RegimeParams, finite_float
from .nn.models import KINDS, ModelConfig, TrainHyper


@dataclass
class DataConfig:
    csv_path: str = ""  # the candle CSV; empty: the synthetic series
    symbol: str = "SYN"
    pip_size: float = DEFAULT_PIP_SIZE
    synth_seed: int = 7
    synth_n: int = 5000

    def __post_init__(self):
        if self.synth_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.synth_seed}")
        if self.synth_n < 1:
            raise ConfigError(f"n must be >= 1, got {self.synth_n}")
        if not self.pip_size > 0:
            raise ConfigError(f"pip_size must be > 0, got {self.pip_size}")


@dataclass
class SplitConfig:
    # the share of the bars before the first test bar
    cutoff_fraction: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.cutoff_fraction < 1.0:
            raise ConfigError(f"cutoff_fraction must be in (0, 1), got {self.cutoff_fraction}")


@dataclass
class GridConfig:
    kinds: tuple[str, ...] = ("rnn", "lstm", "bilstm", "gru")
    timesteps: tuple[int, ...] = (30, 60)

    def __post_init__(self):
        if not self.kinds or not self.timesteps:
            raise ConfigError("kinds and timesteps must each name at least one value")
        if not set(self.kinds) <= set(KINDS):
            raise ConfigError(f"unknown kind in {self.kinds}, expected a subset of {KINDS}")
        if any(n < 1 for n in self.timesteps):
            raise ConfigError(f"timesteps must all be >= 1, got {self.timesteps}")
        # a repeated cell would train again and overwrite the first one's files
        for key in ("kinds", "timesteps"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ConfigError(f"{key} lists a value more than once: {values}")


@dataclass
class ModelArch:
    layers: int = ModelConfig.layers
    hidden: int = ModelConfig.hidden
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.layers < 1 or self.hidden < 1:
            raise ConfigError(f"layers and hidden must be >= 1, got {self.layers} and {self.hidden}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")


@dataclass
class ExperimentConfig:
    # the fixed synthetic generator: a class constant, so no key sets it; bench/workloads.py reads `cfg.regime`
    regime: ClassVar[RegimeParams] = RegimeParams()
    data: DataConfig = field(default_factory=DataConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    arch: ModelArch = field(default_factory=ModelArch)
    training: TrainHyper = field(default_factory=TrainHyper)
    out_dir: str = "out"
    seed: int = 42
    save_models: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def validate(self):
        """Re-run every check on a copy, so a section or the seed edited in place is caught too."""
        for f in fields(self):
            section = getattr(self, f.name)
            if is_dataclass(section):
                try:
                    replace(section)
                except ConfigError as exc:
                    raise ConfigError(f"{f.name}: {exc}") from None
        replace(self)
        return self


def _keys(*specs):
    """INI key -> field name, in the order given: "key" names its own field, "key=field" another."""
    return {key: name or key for key, _, name in (spec.partition("=") for spec in specs)}


# INI section -> (the ExperimentConfig attribute it sets, None for the config
# itself; {INI key: field}). These are the only settable keys, in the order the
# example config prints them.
_SECTIONS = {
    "data": ("data", _keys("csv=csv_path", "symbol", "pip_size", "seed=synth_seed", "n=synth_n")),
    "split": ("split", _keys("cutoff_fraction")),
    "grid": ("grid", _keys("kinds", "timesteps")),
    "model": ("arch", _keys("layers", "hidden", "val_fraction")),
    "training": ("training", _keys("lr", "batch_size", "max_epochs", "patience", "clip_norm")),
    "output": (None, _keys("dir=out_dir", "save_models")),
    "run": (None, _keys("seed")),
}

_GETTERS = {bool: "getboolean", int: "getint", float: "getfloat", str: "get"}


def _parse(parser, section, key, default):
    """The value of `key`, typed like the field's default; a tuple default takes a comma list."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(v.strip()) for v in parser.get(section, key).split(",") if v.strip())
    return getattr(parser, _GETTERS[type(default)])(section, key)


def load_config(path) -> ExperimentConfig:
    """Read an INI config over the defaults.

    An unknown section or key, a value that does not parse (nan and infinities
    do not) and a value out of range each raise ConfigError naming the file.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), converters={"float": finite_float})
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if parser.defaults():
        raise ConfigError(f"{path}: unknown section [{parser.default_section}]")
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}], expected one of {', '.join(_SECTIONS)}")
        attr, fields = _SECTIONS[section]
        target = getattr(cfg, attr) if attr else cfg
        changes = {}
        for key in parser[section]:
            if key not in fields:
                raise ConfigError(
                    f"{path}: [{section}] unknown key {key!r}, expected one of {', '.join(fields)}"
                )
            try:
                changes[fields[key]] = _parse(parser, section, key, getattr(target, fields[key]))
            except (ValueError, configparser.Error) as exc:
                raise ConfigError(f"{path}: [{section}] {key}: {exc}") from None
        try:
            target = replace(target, **changes)
        except ConfigError as exc:
            raise ConfigError(f"{path}: [{section}] {exc}") from None
        if attr:
            setattr(cfg, attr, target)
        else:
            cfg = target
    return cfg


# "section.key" -> the note printed after the key in the example config
_NOTES = {
    "data.csv": "candle CSV path; empty: the synthetic series",
    "data.pip_size": "price of one pip; synthetic prices scale with it",
    "data.seed": "synthetic generator seed",
    "data.n": "synthetic bar count",
    "split.cutoff_fraction": "share of the bars before the first test bar",
}


def example_config() -> str:
    """The example config: every settable key at its default, in `_SECTIONS` order."""
    cfg = ExperimentConfig()
    lines = ["# fxevent experiment configuration (all values shown are the defaults)"]
    for section, (attr, keys) in _SECTIONS.items():
        lines += ["", f"[{section}]"]
        target = getattr(cfg, attr) if attr else cfg
        for key, name in keys.items():
            note = _NOTES.get(f"{section}.{key}", "")
            value = getattr(target, name)  # tuples comma-joined, bools in lower case
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            line = f"{key} = {str(value).lower() if isinstance(value, bool) else value}"
            lines.append(f"{line:<25} ; {note}" if note else line)
    return "\n".join(lines) + "\n"


def write_example(path) -> None:
    Path(path).write_text(example_config())
