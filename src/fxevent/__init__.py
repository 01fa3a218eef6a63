"""Event-driven forex retracement forecasting.

Detects pivot -> crossover -> retracement setups on OHLC candle series, builds
fixed-length indicator windows at each crossover, and trains from-scratch
recurrent models (RNN / LSTM / BiLSTM / GRU) to predict the price at the
retracement point.

The package root exports nothing: import from the submodules.
"""

__version__ = "0.1.0"
