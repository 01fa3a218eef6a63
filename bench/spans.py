"""In-memory span tracer that wraps fxevent's public functions from outside.

Each wrapped function is replaced in every fxevent module namespace that
binds it, so a call made through `fxevent.experiment.train` or through
`fxevent.indicators.adx` is timed where the caller looks the name up. The
program itself is not modified. Spans stay in memory and are written once,
when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict

import numpy as np

# (module, function, layer) for every wrapped public name. Methods are wrapped
# on their class, which is where `model.forward_batch` is looked up.
TARGETS = [
    ("fxevent.market_data", "load_csv", "market_data"),
    ("fxevent.market_data", "synthetic_series", "market_data"),
    ("fxevent.indicators", "feature_matrix", "indicators"),
    ("fxevent.indicators", "adx", "indicators"),
    ("fxevent.indicators", "rsi", "indicators"),
    ("fxevent.indicators", "ema", "indicators"),
    ("fxevent.indicators", "macd", "indicators"),
    ("fxevent.indicators", "sma", "indicators"),
    ("fxevent.indicators", "bollinger", "indicators"),
    ("fxevent.indicators", "williams_r", "indicators"),
    ("fxevent.events", "zigzag", "events"),
    ("fxevent.events", "crossovers", "events"),
    ("fxevent.events", "assemble_sequences", "events"),
    ("fxevent.events", "find_retracement", "events"),
    ("fxevent.dataset", "build_samples", "dataset"),
    ("fxevent.dataset", "fit_normalizer", "dataset"),
    ("fxevent.dataset", "apply_norm", "dataset"),
    ("fxevent.dataset", "save_dataset", "dataset"),
    ("fxevent.dataset", "load_dataset", "dataset"),
    ("fxevent.nn.models", "train", "nn.models"),
    ("fxevent.nn.models", "predict", "nn.models"),
    ("fxevent.nn.models", "save_model", "nn.models"),
    ("fxevent.nn.models", "load_model", "nn.models"),
    ("fxevent.nn.models", "RecurrentModel.forward_batch", "nn.models"),
    ("fxevent.nn.models", "RecurrentModel.backward_batch", "nn.models"),
    ("fxevent.nn.core", "adam_step", "nn.core"),
    ("fxevent.nn.core", "clip_global_norm", "nn.core"),
    ("fxevent.nn.core", "zero_grads", "nn.core"),
    ("fxevent.nn.core", "mse_loss", "nn.core"),
    ("fxevent.experiment", "run_experiment", "experiment"),
]

LAYERS = ("market_data", "indicators", "events", "dataset", "nn.models", "nn.core", "experiment", "bench")


def _cell(model) -> str:
    return f"{model.config.kind}.{model.config.n_timesteps}"


def _label(fn_name: str, args, kwargs) -> str:
    """Span name; model calls carry the cell and batch size the metrics split on."""
    if fn_name == "train":
        config = args[2] if len(args) > 2 else kwargs["config"]
        return f"train.{config.kind}.{config.n_timesteps}"
    if fn_name == "RecurrentModel.forward_batch":
        return f"forward.{_cell(args[0])}.b{len(args[1])}"
    if fn_name == "RecurrentModel.backward_batch":
        return f"backward.{_cell(args[0])}.b{len(args[1])}"
    return fn_name


class Tracer:
    """Records (id, parent, name, layer, phase, start, end) spans plus counts and training records."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.counts: Counter = Counter()
        self.records: list[dict] = []
        self._patches: list[tuple] = []

    def open(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, parent, name, layer, self.phase, time.perf_counter(), None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][6] = time.perf_counter()
        self.stack.pop()

    def _enclosing(self, prefix: str) -> str | None:
        for sid in reversed(self.stack):
            if self.spans[sid][2].startswith(prefix):
                return self.spans[sid][2]
        return None

    def _observe(self, fn_name: str, label: str, args, kwargs, result) -> None:
        """Counts and records taken from arguments and return values, with no program change."""
        if self.phase != "pass":
            return
        c = self.counts
        if fn_name == "zigzag":
            c["events.pivots"] += len(result)
        elif fn_name == "crossovers":
            c["events.crossovers"] += len(result)
        elif fn_name == "find_retracement":
            c["events.find_retracement_calls"] += 1
        elif fn_name == "assemble_sequences":
            sequences, diags = result
            c["events.sequences"] += len(sequences)
            self.records.append({"type": "funnel", "stage": "events", **asdict(diags)})
        elif fn_name == "build_samples":
            samples, skipped = result
            n = args[2] if len(args) > 2 else kwargs["n"]
            c["dataset.samples"] += len(samples)
            c["dataset.skipped"] += skipped
            self.records.append(
                {"type": "funnel", "stage": "windows", "n_timesteps": n, "samples": len(samples), "skipped": skipped}
            )
        elif fn_name == "adam_step":
            c["nn.core.adam_steps"] += 1
        elif fn_name == "clip_global_norm":
            max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
            fired = bool(max_norm > 0.0 and result > max_norm)
            c["nn.core.clip_calls"] += 1
            c["nn.core.clip_fired"] += fired
            self.records.append(
                {"type": "grad_norm", "cell": self._enclosing("train."), "norm": float(result), "clipped": fired}
            )
        elif fn_name == "train":
            report = result[1]
            self.records.append(
                {
                    "type": "losses",
                    "cell": label[len("train.") :],
                    "train": report.train_losses,
                    "val": report.val_losses,
                }
            )

    def _wrap(self, fn, fn_name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = _label(fn_name, args, kwargs)
            sid = tracer.open(label, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            tracer._observe(fn_name, label, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target in each fxevent namespace that binds it (and on its class)."""
        modules = [m for name, m in sys.modules.items() if name == "fxevent" or name.startswith("fxevent.")]
        for mod_name, fn_name, layer in TARGETS:
            home = sys.modules[mod_name]
            if "." in fn_name:
                cls_name, meth = fn_name.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, fn_name, layer))
                continue
            orig = getattr(home, fn_name)
            wrapped = self._wrap(orig, fn_name, layer)
            for mod in modules:
                if mod.__dict__.get(fn_name) is orig:
                    self._patches.append((mod, fn_name, orig))
                    setattr(mod, fn_name, wrapped)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[6] - s[5] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[6] - s[5]
        return own

    def per_call(self) -> dict[str, list[float]]:
        """Inclusive durations per span name, over every phase."""
        out: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            out[s[2]].append(s[6] - s[5])
        return out

    def layer_self(self, passes: int) -> dict[str, float]:
        """Self time per layer, summed over traced passes and divided by their count."""
        total = dict.fromkeys(LAYERS, 0.0)
        for s, own in zip(self.spans, self.self_times()):
            if s[4] == "pass":
                total[s[3]] += own
        return {k: v / passes for k, v in total.items()}

    def write(self, path, env: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "env", **env}) + "\n")
            for sid, parent, name, layer, phase, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {"type": "span", "id": sid, "parent": parent, "name": name, "layer": layer,
                         "phase": phase, "start": t0, "end": t1}
                    )
                    + "\n"
                )
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")


def per_layer_metrics(tracer: Tracer, passes: int, traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Every per-layer metric BENCHMARK.json names, as {name: (value, unit)}."""
    calls = tracer.per_call()

    def mean(names, scale=1.0):
        vals = [d for n in names for d in calls.get(n, ())]
        return float(np.mean(vals)) * scale if vals else 0.0

    m: dict[str, tuple[float, str]] = {}
    for mod_name, fn_name, layer in TARGETS:
        if layer in ("market_data", "indicators", "events", "dataset"):
            m[f"{layer}.{fn_name}_s"] = (mean([fn_name]), "s")
    c = tracer.counts
    for key in ("events.pivots", "events.crossovers", "events.sequences", "events.find_retracement_calls",
                "dataset.samples", "dataset.skipped", "nn.core.adam_steps"):
        m[key] = (c[key] / passes, "count")
    m["events.sequences_per_pivot"] = (c["events.sequences"] / c["events.pivots"] if c["events.pivots"] else 0.0, "ratio")

    for kind in ("rnn", "lstm", "bilstm", "gru"):
        for n in (30, 60):
            m[f"nn.forward_ms.{kind}.{n}"] = (mean([f"forward.{kind}.{n}.b32"], 1e3), "ms")
            m[f"nn.backward_ms.{kind}.{n}"] = (mean([f"backward.{kind}.{n}.b32"], 1e3), "ms")
            m[f"nn.train_s.{kind}.{n}"] = (mean([f"train.{kind}.{n}"]), "s")
    m["nn.predict_s"] = (mean(["predict"]), "s")
    m["nn.forward_b1_ms"] = (mean([n for n in calls if n.startswith("forward.") and n.endswith(".b1")], 1e3), "ms")
    m["nn.save_model_s"] = (mean(["save_model"]), "s")
    m["nn.load_model_s"] = (mean(["load_model"]), "s")
    m["nn.core.adam_step_s"] = (mean(["adam_step"]), "s")
    m["nn.core.clip_global_norm_s"] = (mean(["clip_global_norm"]), "s")
    clip_calls = c["nn.core.clip_calls"]
    m["nn.core.clip_fired_ratio"] = (c["nn.core.clip_fired"] / clip_calls if clip_calls else 0.0, "ratio")
    norms = [r["norm"] for r in tracer.records if r["type"] == "grad_norm"]
    m["nn.core.grad_norm_p50"] = (float(np.median(norms)) if norms else 0.0, "norm")
    m["experiment.run_experiment_s"] = (mean(["run_experiment"]), "s")

    for layer, own in tracer.layer_self(passes).items():
        m[f"{layer}.self_s"] = (own, "s")
    # The layers' self times add up to this mean traced pass.
    m["trace.pass_wall_s"] = (float(np.mean(traced_walls)), "s")
    m["trace.overhead_ratio"] = (float(np.mean(traced_walls) / np.mean(untraced_walls) - 1.0), "ratio")
    return m
