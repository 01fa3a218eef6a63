"""The benchmark's calls into fxevent: `prepare` and `score` from bench/workloads.py
set up, run one pass and pass their own output checks.

A change to `Dataset`, `build_samples`, `train` or `predict` that breaks how the
benchmark calls them fails here. Nothing under bench/ is changed; the workloads
write only under tmp_path and, with an empty reference, check their outputs
against each other rather than against stored figures.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["prepare", "score"])
def test_workload_passes_its_checks(workloads, tmp_path, monkeypatch, name):
    monkeypatch.setattr(workloads.Prepare, "BARS", 5000)  # 100k bars take seconds to build
    workload = workloads.WORKLOADS[name](0, tmp_path, {})
    assert workload.setup() == []
    attempted, failed, problems = workload.check(workload.run_pass())
    assert attempted > 0
    assert (failed, problems) == (0, [])
