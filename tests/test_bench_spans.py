"""The benchmark's tracer, bench/spans.py, against the names it wraps in fxevent.

`Tracer.install()` looks up every `TARGETS` name in its fxevent module, so a
rename under src/ breaks `bench/run.py --trace 1` runs; this test fails first.
Nothing under bench/ is changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(targets):
    """(owner, name) -> object for every target: each fxevent module that binds it, and its class."""
    found = {}
    modules = [m for name, m in sys.modules.items() if name == "fxevent" or name.startswith("fxevent.")]
    for mod_name, fn_name, _ in targets:
        if "." in fn_name:
            cls_name, meth = fn_name.split(".")
            cls = getattr(sys.modules[mod_name], cls_name)
            found[cls, meth] = cls.__dict__[meth]
            continue
        for mod in modules:
            if fn_name in mod.__dict__:
                found[mod, fn_name] = mod.__dict__[fn_name]
    return found


def test_install_wraps_every_target_and_uninstall_restores(spans):
    for mod_name, _, _ in spans.TARGETS:
        importlib.import_module(mod_name)
    before = bindings(spans.TARGETS)
    targets = set()  # each target where the tracer looks it up: its home module, or its class
    for mod_name, fn_name, _ in spans.TARGETS:
        owner = sys.modules[mod_name]
        if "." in fn_name:
            cls_name, fn_name = fn_name.split(".")
            owner = getattr(owner, cls_name)
        assert (owner, fn_name) in before, f"{mod_name}.{fn_name} is gone"
        targets.add(before[owner, fn_name])
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = bindings(spans.TARGETS)
        for key, orig in before.items():
            if orig in targets:  # a name bound to a target is wrapped wherever it is bound
                assert during[key] is not orig and during[key].__wrapped__ is orig, key
            else:
                assert during[key] is orig, key
        # a caller that imported the name sees the wrapper: experiment's `ema` is timed
        sys.modules["fxevent.experiment"].ema(np.arange(1.0, 6.0), 3)
        assert [span[2] for span in tracer.spans] == ["ema"]
    finally:
        tracer.uninstall()
    after = bindings(spans.TARGETS)
    assert after.keys() == before.keys()
    assert all(after[key] is orig for key, orig in before.items())
