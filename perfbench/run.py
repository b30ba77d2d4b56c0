"""robust-dro benchmark: four closed-loop workloads, end-to-end and per-layer.

Usage, from the root of a checkout (no install needed; the library is
imported from ``src/``):

    python3 perfbench/run.py --workload contaminated-hinge --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload, one after another
    python3 perfbench/run.py --smoke                         # every workload at toy size, both modes

One operation runs at a time, from one process, with the BLAS thread
count fixed below.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` makes one untraced and one traced round and
reports the per-layer metrics (see tracing.py).  Every line before the
last is for people: the environment record, then one line per metric
with its unit and sample count.  The last line is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0
only when every operation passed its output checks.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads, so the caller's environment cannot change the numbers.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["RD_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("contaminated-hinge", "clean-logistic", "sweep-small", "cli-roundtrip")
RUN_TIMEOUT_S = 180
# An untraced run sets up this many times, on identical inputs, and reports
# the median set-up unit.  A fixed count, not a time budget, so every run
# holds the same memory when timing starts.
SETUP_REPEATS = 2

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_s_p50": "s",
    "excess_clean_p50": "objective",
    "peak_rss_mb": "MB",
}


def _environment(workload: str, seed: int, size: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "robust_dro").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "RD_THREADS": os.environ["RD_THREADS"],
    }


def _tail(values: list[float]) -> tuple[float, float] | None:
    """Value at the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _say(name: str, value: float, unit: str, samples: int, note: str = "") -> None:
    print(f"metric {name} = {value!r} {unit} (n={samples}){note}")


def measure(workload, seed: int, seconds: float) -> tuple[dict, list]:
    """Untraced run: set-up, then whole rounds for ``seconds``; returns
    (end-to-end metrics, every operation attempted)."""
    setup_times = [unit for _ in range(SETUP_REPEATS) for unit in workload.setup(seed)]
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rounds.append(workload.run_round(None))
        if len(rounds) == 1:
            # later rounds repeat the same work, yet raise the high-water mark
            # by amounts that differ from run to run (206 or 237 MB on cli-roundtrip)
            peak_rss_mb = _peak_rss_mb()
        # whole rounds only: stop when another one would overrun
        if time.perf_counter() - start + (time.perf_counter() - round_start) > seconds:
            break
    ops = [op for r in rounds for op in r.ops]
    durations = [op.seconds for op in ops]
    excesses = [op.excess for op in ops if op.excess is not None]
    # throughput of each batch (a round, or a part the workload times on its own)
    rates = [count / wall for r in rounds for count, wall in r.batches]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": statistics.median(rates),
        "op_s_p50": statistics.median(durations),
        "excess_clean_p50": statistics.median(excesses) if excesses else float("nan"),
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {"setup_s": len(setup_times), "ops_per_s": len(rates), "excess_clean_p50": len(excesses), "peak_rss_mb": 1}
    print(f"# {len(rounds)} round(s) of {len(rounds[0].ops)} operation(s) in {time.perf_counter() - start:.3f} s")
    for name, unit in E2E_UNITS.items():
        _say(name, metrics[name], unit, counts.get(name, len(ops)))
    tail = _tail(durations)
    if tail is None:
        print(f"metric op_s_tail omitted: {len(durations)} operations, fewer than 11")
    else:
        _say("op_s_tail", tail[1], "s", len(durations), f" at p{tail[0]:.1f}, 10 beyond")
    return {name: (metrics[name], unit) for name, unit in E2E_UNITS.items()}, ops


def measure_traced(workload, seed: int) -> tuple[dict, list]:
    """Traced run: traced set-up, one untraced and one traced round (and
    on the sweep a pooled one); returns (per-layer metrics, operations)."""
    from tracing import PER_LAYER_UNITS, Tracer
    from workloads import SweepSmall

    tracer = Tracer()
    with tracer.installed():
        workload.setup(seed)
    untraced = workload.run_round(None)
    with tracer.installed():
        traced = workload.run_round(tracer)
    tracer.values["trace.overhead_s"] = traced.wall - untraced.wall
    ops = untraced.ops + traced.ops
    if isinstance(workload, SweepSmall):  # the same grid again under the harness's thread pool
        pooled = workload.run_round(None, workers=os.cpu_count() or 1)
        tracer.values["harness.pool_speedup"] = untraced.wall / pooled.wall
        ops += pooled.ops
        print(f"# sweep wall: serial {untraced.wall:.3f} s, pooled ({os.cpu_count()} workers) {pooled.wall:.3f} s")
    values = tracer.metrics()
    for name, unit in PER_LAYER_UNITS.items():
        _say(name, values[name], unit, 1)
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}, ops


def run_one(args) -> int:
    if not (SRC / "robust_dro" / "__init__.py").is_file():
        print(f"error: no robust_dro sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import robust_dro

    if Path(robust_dro.__file__).resolve().parent != SRC / "robust_dro":
        print(f"error: robust_dro imported from {robust_dro.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    print("# env " + json.dumps(_environment(args.workload, args.seed, args.size)))
    workload = workloads.make(args.workload, args.size == "toy", ROOT)
    try:
        metrics, ops = measure_traced(workload, args.seed) if args.trace else measure(workload, args.seed, args.seconds)
    finally:
        workload.close()
    failures = [op.error for op in ops if op.error is not None]
    print(f"metric fail_ratio = {len(failures) / len(ops)!r} 1 (n={len(ops)})")
    for error in failures[:5]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


def _child(workload: str, seed: int, seconds: float, trace: int, size: str) -> tuple[int, list[str]]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def _check_report(lines: list[str], expected: dict) -> list[str]:
    """Problems with one run's report: every expected metric present in
    the final JSON with its unit, and printed with a sample count."""
    problems = []
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return ["last line is not a JSON result"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if sorted(result.get("metrics", {})) != sorted(expected):
        problems.append(f"metrics {sorted(result.get('metrics', {}))} != {sorted(expected)}")
    for name, unit in expected.items():
        got = result.get("metrics", {}).get(name)
        if got is None or got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name}: {got!r}, want unit {unit!r}")
        if not any(line.startswith(f"metric {name} = ") and "(n=" in line for line in lines):
            problems.append(f"{name}: no line with its sample count")
    return problems


def run_many(workloads: list[str], seed: int, seconds: float, traces: list[int], size: str) -> int:
    """Each workload in its own process, so peak memory is its own."""
    from tracing import PER_LAYER_UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if declared[0] != E2E_UNITS or declared[1] != PER_LAYER_UNITS:
        problems.append("BENCHMARK.json metric names or units differ from the ones this benchmark reports")
    for name in workloads:
        for trace in traces:
            code, lines = _child(name, seed, seconds, trace, size)
            if code != 0:
                problems.append(f"{name} --trace {trace}: exit code {code}")
            problems += [f"{name} --trace {trace}: {p}" for p in _check_report(lines, declared[trace])]
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"# {len(workloads) * len(traces)} run(s), {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="workload seed; every input is drawn from it")
    parser.add_argument("--seconds", type=float, default=25.0, help="how long the untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced round")
    parser.add_argument("--size", choices=("full", "toy"), default="full", help="toy: tiny inputs, for the smoke run")
    parser.add_argument("--smoke", action="store_true", help="every workload at toy size, untraced and traced")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_many(list(NAMES), args.seed, 1.0, [0, 1], "toy")
    if args.workload is None:
        parser.error("--workload is required without --smoke")
    if args.workload == "all":
        return run_many(list(NAMES), args.seed, args.seconds, [args.trace], args.size)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
