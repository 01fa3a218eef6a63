"""Event-driven forex retracement forecasting.

Detects pivot -> crossover -> retracement setups on OHLC candle series, builds
fixed-length indicator windows at each crossover, and trains from-scratch
recurrent models (RNN / LSTM / BiLSTM / GRU) to predict the price at the
retracement point.
"""

__version__ = "0.1.0"

from .market_data import CandleSeries, RegimeParams, load_csv, synthetic_series
from .indicators import FeatureMatrix, IndicatorParams, feature_matrix
from .events import (
    CrossEvent,
    EventSequence,
    Pivot,
    RetraceParams,
    ZigZagParams,
    assemble_sequences,
    crossovers,
    find_retracement,
    zigzag,
)
from .dataset import Dataset, NormStats, Sample, apply_norm, build_samples, fit_normalizer, invert_target
from .metrics import MetricsReport, mae, mape, mse, rmse
from .nn.models import ModelConfig, RecurrentModel, TrainHyper, TrainReport, predict, train
from .experiment import run_experiment
from .config import ExperimentConfig, load_config

__all__ = [
    "CandleSeries",
    "CrossEvent",
    "Dataset",
    "EventSequence",
    "ExperimentConfig",
    "FeatureMatrix",
    "IndicatorParams",
    "MetricsReport",
    "ModelConfig",
    "NormStats",
    "Pivot",
    "RecurrentModel",
    "RegimeParams",
    "RetraceParams",
    "Sample",
    "TrainHyper",
    "TrainReport",
    "ZigZagParams",
    "apply_norm",
    "assemble_sequences",
    "build_samples",
    "crossovers",
    "feature_matrix",
    "find_retracement",
    "fit_normalizer",
    "invert_target",
    "load_csv",
    "load_config",
    "mae",
    "mape",
    "mse",
    "predict",
    "rmse",
    "run_experiment",
    "synthetic_series",
    "train",
    "zigzag",
]
