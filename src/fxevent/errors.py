class DataError(ValueError):
    """Malformed or inconsistent market data (bad CSV row, OHLC violation, duplicate timestamp)."""


class ConfigError(ValueError):
    """Invalid parameter or configuration value."""

