"""fxevent benchmark: the `grid`, `prepare` and `score` workloads.

Run from the repository root:

    python3 bench/run.py --workload grid --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 36

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end metrics of BENCHMARK.json, with `--trace 1` the per-layer ones,
taken by wrapping fxevent's public functions (see spans.py). `--workload all`
runs each workload in its own process and prints one table. The exit code is
non-zero when any output check fails. BLAS thread variables are left as the
user has them; the thread count in effect is printed with every result.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / "bench_out"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None when it cannot be queried."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _percentile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) if len(values) > 1 else float(values[0])


def run_workload(name: str, seed: int, seconds: float, traced: bool, write_reference: bool) -> int:
    src = ROOT / "src"
    if not (src / "fxevent" / "__init__.py").is_file():
        print(f"error: fxevent sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    from spans import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    imported = time.perf_counter() - _STARTED
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    env = environment()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed, OUT, reference)
    tracer = Tracer() if traced else None

    # Set up several times and keep the median, so one slow repeat does not decide setup_s.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer:
            tracer.install()
        problems = workload.setup()
        if tracer:
            tracer.uninstall()
        setup_times.append(time.perf_counter() - t0)
    setup_s = imported + statistics.median(setup_times)
    setup_failed = bool(problems)

    # Timed phase: whole passes, started only while the next one is expected to
    # end within `seconds`. A traced run alternates untraced and traced passes,
    # so the tracing overhead is measured within the run.
    walls, traced_walls, latencies = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    i = 0
    while i < (2 if traced else 1) or (
        time.perf_counter() - started + statistics.median(walls + traced_walls) <= seconds
    ):
        tracing = traced and i % 2 == 1
        if tracing:
            tracer.install()
            tracer.phase = "pass"
            root = tracer.open("pass", "bench")
            out = workload.run_pass()
            tracer.close(root)
            tracer.uninstall()
            span = tracer.spans[root]
            traced_walls.append(span[6] - span[5])
        else:
            t0 = time.perf_counter()
            out = workload.run_pass()
            walls.append(time.perf_counter() - t0)
            latencies += getattr(workload, "latencies", walls[-1:])
        n, bad, pass_problems = workload.check(out)
        attempted += n
        failed += n if setup_failed else bad
        problems += pass_problems
        i += 1

    if traced:
        metrics = per_layer_metrics(tracer, len(traced_walls), traced_walls, walls)
        layer_sum = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        pass_wall = metrics["trace.pass_wall_s"][0]
        if abs(layer_sum - pass_wall) > 1e-9 * pass_wall:
            problems.append(f"layer self times sum to {layer_sum} s, traced pass took {pass_wall} s")
        trace_path = OUT / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(trace_path, env)
        print(f"trace: {len(tracer.spans)} spans, {len(tracer.records)} records -> {trace_path}")
        print(f"trace: layer self times sum to {layer_sum:.6f} s of {pass_wall:.6f} s per traced pass")
    else:
        lat_ms = [x * 1e3 for x in latencies]
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            # The mean, not the median: on a host whose speed switches between two
            # levels, the median of a run's passes jumps from one level to the other.
            "wall_s": (statistics.fmean(walls), "s"),
            "p90_ms": (_percentile(lat_ms, 90), "ms"),
        }
        # p50 and p99 are printed but not bounded: their run-to-run spread on a shared host exceeds any allowed bound.
        print(f"{name}: {len(walls)} passes, {len(lat_ms)} latency samples, p50 {statistics.median(lat_ms):.6g} ms, "
              f"p99 {_percentile(lat_ms, 99):.6g} ms, error_rate {failed / attempted:.6g}")
    print("env: " + json.dumps(env, sort_keys=True))
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}")
    correct = not problems
    for key, (value, unit) in metrics.items():
        print(f"  {key:<34} {value:>14.6g} {unit}")

    if write_reference:
        if not correct:
            print("error: reference not written, checks failed", file=sys.stderr)
            return 1
        _merge_reference(workload.reference_entry())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def _merge_reference(entry: dict) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for key, value in entry.items():
        if isinstance(value, dict) and key != "grid_data":
            data.setdefault(key, {}).update(value)
        else:
            data[key] = value
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# `--workload all` prints the workload-specific names for the end-to-end metrics.
ALIASES = {("grid", "wall_s"): "grid_wall_s", ("prepare", "wall_s"): "prepare_wall_s",
           ("score", "p90_ms"): "score_p90_ms"}


def run_all(args) -> int:
    rows, ok = [], True
    for name in ("grid", "prepare", "score"):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"error: workload {name} exited with {proc.returncode} and no result", file=sys.stderr)
            return proc.returncode or 1
        rows.append((name, json.loads(lines[-1])))
        ok = ok and proc.returncode == 0
    summary = {}
    print("\nmetric                                          value unit")
    for name, res in rows:
        summary[f"{name}.error_rate"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
        for key, m in res["metrics"].items():
            summary[ALIASES.get((name, key), f"{name}.{key}")] = m
    for key, m in summary.items():
        print(f"  {key:<36} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": ok and all(r["correct"] for _, r in rows),
        "attempted": sum(r["attempted"] for _, r in rows),
        "failed": sum(r["failed"] for _, r in rows),
        "metrics": summary,
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["grid", "prepare", "score", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference for its seed")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.write_reference)


if __name__ == "__main__":
    sys.exit(main())
