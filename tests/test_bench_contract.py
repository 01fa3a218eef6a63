"""The benchmark's calls into fxevent: the workloads in bench/workloads.py set up,
run one pass and pass their own output checks.

A change to `Dataset`, `build_samples`, `train` or `predict` that breaks how the
benchmark calls them fails here. `prepare` and `score` run with an empty
reference, so they check their outputs against each other. All three at seed 0
also run against the committed bench/reference.json, so a change that moves a
loss curve, a prediction, the grid's data or a bit of the 100k-bar `prepare`
digest fails here too. Nothing under bench/ is changed; the workloads write
only under tmp_path.
"""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def passes_its_checks(workload):
    assert workload.setup() == []
    attempted, failed, problems = workload.check(workload.run_pass())
    assert attempted > 0
    assert (failed, problems) == (0, [])


@pytest.mark.parametrize("name", ["prepare", "score"])
def test_workload_passes_its_checks(workloads, tmp_path, monkeypatch, name):
    monkeypatch.setattr(workloads.Prepare, "BARS", 5000)  # 100k bars take seconds to build
    passes_its_checks(workloads.WORKLOADS[name](0, tmp_path, {}))


# `prepare` runs at its full 100k bars (about 2 s), so a bit flipped anywhere
# in the feature matrix, at a block edge of the recurrence loop too, fails here.
@pytest.mark.parametrize("name", ["grid", "prepare", "score"])
def test_workload_matches_committed_reference(workloads, tmp_path, name):
    reference = json.loads((BENCH / "reference.json").read_text())
    passes_its_checks(workloads.WORKLOADS[name](0, tmp_path, reference))
