import os

import numpy as np
import pytest
from hypothesis import settings

from fxevent.market_data import CandleSeries, synthetic_series

# No property test has a per-example deadline: a machine's speed can vary
# enough between runs to fail a timed example at random. Each test sets only
# its example count.
settings.register_profile("fxevent", deadline=None)
settings.load_profile("fxevent")


def random_walk_series(rng, n, start=1.10, vol_pips=8.0, pip=1e-4, symbol="RND"):
    """Random-walk OHLC bars with valid invariants; noisier than the leg generator."""
    closes = start + np.cumsum(rng.normal(0.0, vol_pips * pip, size=n))
    closes = np.maximum(closes, 0.01)
    opens = np.empty(n)
    opens[0] = start
    opens[1:] = closes[:-1]
    highs = np.maximum(opens, closes) + np.abs(rng.normal(0.0, 2 * pip, size=n))
    lows = np.minimum(opens, closes) - np.abs(rng.normal(0.0, 2 * pip, size=n))
    ts = 1_600_000_000 + 900 * np.arange(n, dtype=np.int64)
    return CandleSeries(symbol, pip, ts, opens, highs, lows, closes)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that returns while this process still has a child, running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"test left a child process behind (waitpid gave pid {pid}, status {status})")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def synth():
    return synthetic_series(7, 5000)


@pytest.fixture(scope="session")
def small_synth():
    return synthetic_series(3, 1200)


@pytest.fixture
def walk(rng):
    return random_walk_series(rng, 600)
