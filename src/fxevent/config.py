"""Experiment configuration: a single INI-style file of key-value sections.

Every knob has a documented default; `write_example` emits a config.example
listing all of them. Values echo back into the run manifest so a run is fully
reproducible from its output directory.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError, DataError
from .events import RetraceParams, ZigZagParams
from .indicators import IndicatorParams
from .market_data import DEFAULT_PIP_SIZE, RegimeParams, parse_timestamp
from .nn.models import KINDS, TrainHyper


@dataclass
class DataConfig:
    source: str = "synthetic"  # "synthetic" | "csv"
    csv_path: str = ""
    symbol: str = "SYN"
    pip_size: float = DEFAULT_PIP_SIZE
    synth_seed: int = 7
    synth_n: int = 5000


@dataclass
class SplitConfig:
    # Exactly one of the two: an absolute cutoff, or a fraction of the series span.
    cutoff: int | None = None
    cutoff_fraction: float | None = 0.8


@dataclass
class EventConfig:
    cross_fast: int = 5
    cross_slow: int = 20
    causal_filter: bool = False


@dataclass
class GridConfig:
    kinds: tuple[str, ...] = ("rnn", "lstm", "bilstm", "gru")
    timesteps: tuple[int, ...] = (30, 60)

    def __post_init__(self):
        if any(n < 1 for n in self.timesteps):
            raise ConfigError(f"timesteps must all be >= 1, got {self.timesteps}")
        # a repeated cell would train again and overwrite the first one's files
        for key in ("kinds", "timesteps"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ConfigError(f"{key} lists a value more than once: {values}")


@dataclass
class ModelArch:
    layers: int = 2
    hidden: int = 64
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.layers < 1 or self.hidden < 1:
            raise ConfigError(f"layers and hidden must be >= 1, got {self.layers} and {self.hidden}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")


@dataclass
class ExperimentConfig:
    data: DataConfig = field(default_factory=DataConfig)
    regime: RegimeParams = field(default_factory=RegimeParams)
    split: SplitConfig = field(default_factory=SplitConfig)
    indicators: IndicatorParams = field(default_factory=IndicatorParams)
    zigzag: ZigZagParams = field(default_factory=ZigZagParams)
    events: EventConfig = field(default_factory=EventConfig)
    retrace: RetraceParams = field(default_factory=RetraceParams)
    grid: GridConfig = field(default_factory=GridConfig)
    arch: ModelArch = field(default_factory=ModelArch)
    training: TrainHyper = field(default_factory=TrainHyper)
    out_dir: str = "out"
    seed: int = 42
    save_models: bool = False

    def validate(self):
        if self.data.source not in ("synthetic", "csv"):
            raise ConfigError(f"data.source must be synthetic or csv, got {self.data.source!r}")
        if self.data.source == "csv" and not self.data.csv_path:
            raise ConfigError("data.source=csv requires data.csv")
        if not self.grid.kinds:
            raise ConfigError("grid.kinds must name at least one model")
        for k in self.grid.kinds:
            if k not in KINDS:
                raise ConfigError(f"unknown grid kind {k!r}, expected subset of {KINDS}")
        if not self.grid.timesteps:
            raise ConfigError("grid.timesteps must name at least one window length")
        if (self.split.cutoff is None) == (self.split.cutoff_fraction is None):
            raise ConfigError("set exactly one of split.cutoff / split.cutoff_fraction")
        if self.events.cross_fast >= self.events.cross_slow:
            raise ConfigError("crossover.fast must be < crossover.slow")
        return self


def _keys(*names, **renamed):
    """INI key -> field name: each name maps to itself, each keyword to its value."""
    return {**{n: n for n in names}, **renamed}


# INI section -> (the ExperimentConfig attribute it sets, None for the config
# itself; {INI key: field}). These are the only settable keys.
_SECTIONS = {
    "data": ("data", _keys("source", "symbol", "pip_size", csv="csv_path", seed="synth_seed", n="synth_n")),
    "regime": ("regime", _keys(
        "start_price", "pip", "leg_len", "slope_pips", "notch_frac", "notch_retrace", "notch_down_bars",
        "notch_recover_bars", "noise_pips", "wick_pips", "trend", "reversion_pips",
    )),
    "split": ("split", _keys("cutoff", "cutoff_fraction")),
    "indicators": ("indicators", _keys(
        "macd_fast", "macd_slow", "macd_signal", "boll_window", "boll_k",
        "sma_periods", "rsi_periods", "adx_periods", "wr_periods",
    )),
    "zigzag": ("zigzag", _keys("depth", "deviation_pips", "backstep")),
    "crossover": ("events", _keys(fast="cross_fast", slow="cross_slow")),
    "events": ("events", _keys("causal_filter")),
    "retracement": ("retrace", _keys("local_radius", "lookahead")),
    "grid": ("grid", _keys("kinds", "timesteps")),
    "model": ("arch", _keys("layers", "hidden", "val_fraction")),
    "training": ("training", _keys("lr", "batch_size", "max_epochs", "patience", "clip_norm")),
    "output": (None, _keys("save_models", dir="out_dir")),
    "run": (None, _keys("seed")),
}

_GETTERS = {bool: "getboolean", int: "getint", float: "getfloat", str: "get"}


def _parse(parser, section, key, default):
    """The value of `key`, typed like the field's default; a tuple default takes a comma list."""
    raw = parser.get(section, key)
    if section == "split":  # a timestamp cutoff or a fraction; an empty value counts as absent
        if not raw:
            return None
        return parse_timestamp(raw) if key == "cutoff" else float(raw)
    if isinstance(default, tuple):
        kind = type(default[0])
        return tuple(kind(v.strip()) for v in raw.split(",") if v.strip())
    return getattr(parser, _GETTERS[type(default)])(section, key)


def load_config(path) -> ExperimentConfig:
    """Read an INI config over the defaults.

    An unknown section or key, a value that does not parse and a value out of
    range each raise ConfigError naming the file.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
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
            except (ValueError, DataError, configparser.Error) as exc:
                raise ConfigError(f"{path}: [{section}] {key}: {exc}") from None
        if section == "split" and changes.get("cutoff_fraction") is None:
            # a cutoff alone replaces the default fraction
            changes["cutoff_fraction"] = None if changes.get("cutoff") is not None else target.cutoff_fraction
        try:
            target = replace(target, **changes)
        except ConfigError as exc:
            raise ConfigError(f"{path}: [{section}] {exc}") from None
        if attr:
            setattr(cfg, attr, target)
        else:
            cfg = target
    try:
        return cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


EXAMPLE = """\
# fxevent experiment configuration (all values shown are the defaults)

[data]
source = synthetic        ; synthetic | csv
# csv = path/to/series.csv
symbol = SYN
pip_size = 1e-4
seed = 7                  ; synthetic generator seed
n = 5000                  ; synthetic bar count

[regime]
start_price = 1.10
pip = 1e-4
leg_len = 36,62           ; bars per trend leg (inclusive range)
slope_pips = 1.2,2.5      ; per-bar drift magnitude
notch_frac = 0.38,0.52    ; where in the leg the retracement dip starts
notch_retrace = 0.84,0.92 ; fraction of the leg's gain given back
notch_down_bars = 3       ; 0 disables the dip
notch_recover_bars = 3
noise_pips = 0.25
wick_pips = 0.6
trend = alternate         ; alternate | up | down
reversion_pips = 250      ; price-level pull toward start_price; 0 disables

[split]
cutoff_fraction = 0.8     ; share of the series span before the cutoff
# cutoff = 2019-01-01T00:00:00Z ; instead of cutoff_fraction (epoch seconds also accepted)

[indicators]
macd_fast = 12
macd_slow = 26
macd_signal = 9
boll_window = 20
boll_k = 2.0
sma_periods = 5,10,15,20,25,30,36
rsi_periods = 5,14,20,25
adx_periods = 5,10,15,20,25,30,35
wr_periods = 5,14,20,25

[zigzag]
depth = 12
deviation_pips = 5
backstep = 3

[crossover]
fast = 5                  ; EMA periods forming the confirmation crossover
slow = 20

[events]
causal_filter = false     ; drop sequences whose crossover precedes pivot confirmation

[retracement]
local_radius = 3
lookahead = 60

[grid]
kinds = rnn,lstm,bilstm,gru
timesteps = 30,60

[model]
layers = 2
hidden = 64
val_fraction = 0.1

[training]
lr = 1e-3
batch_size = 32
max_epochs = 100
patience = 10
clip_norm = 5.0

[output]
dir = out
save_models = false

[run]
seed = 42
"""


def write_example(path) -> None:
    Path(path).write_text(EXAMPLE)
