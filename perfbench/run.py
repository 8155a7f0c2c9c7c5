"""zetasech benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads: catalog, offgrid, closed-forms (see perfbench/workloads.py), or
``all`` to run each in turn. Every pass runs in a fresh interpreter started
from this script, one after another on a single thread, so each pass pays the
cold caches and imports a user pays on every ``zetasech run``.

``--trace 0`` runs passes until ``--seconds`` have gone (at least 3), each
preceded by a setup-only interpreter, and reports medians of the end-to-end
metrics. Times are scaled to a reference host speed with the calibration
kernel each interpreter times next to its pass (see calibrate.py); the raw
medians are printed beside them. ``--trace 1`` alternates untraced and traced passes (at least 2 of
each) and reports medians of the per-layer metrics from the traced ones; the
deterministic counters must agree exactly between traced passes. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

Exit code 0 when the result was printed; 1 when a pass could not run or the
deterministic counters differed; 2 for bad arguments.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
from calibrate import REFERENCE_S  # noqa: E402
from tracer import DETERMINISTIC  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PLAIN_PASSES = 3
MIN_TRACED_ROUNDS = 2
CHILD_TIMEOUT_S = 120
# a run stops starting passes after this long, whatever --seconds says
RUN_LIMIT_S = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cases_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "evaluator.integrand_samples": "count",
    "evaluator.integrand_s": "s",
    "evaluator.us_per_sample": "us",
    "quadrature.calls": "count",
    "quadrature.samples_per_call": "count",
    "quadrature.self_s": "s",
    "quadrature.unconverged": "count",
    "specfun.calls": "count",
    "specfun.s": "s",
    "specfun.hz_cache_hits": "count",
    "specfun.hz_cache_misses": "count",
    "ddmath.dd_exp_calls": "count",
    "ddmath.dd_exp_s": "s",
    "evaluator.exact_calls": "count",
    "evaluator.exact_s": "s",
    "evaluator.numeric_calls": "count",
    "evaluator.numeric_self_s": "s",
    "exprlang.parse_calls": "count",
    "exprlang.parse_s": "s",
    "catalog.build_s": "s",
    "verifier.cases": "count",
    "verifier.case_ms_p50": "ms",
    "verifier.case_ms_p99": "ms",
    "verifier.errors": "count",
    "verifier.report_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def child(workload, seed, mode):
    cmd = [sys.executable, "-I", "-S", CHILD, ROOT, workload, str(seed), mode]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} pass exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{workload} {mode} pass exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def scaled(p, key):
    """p[key] in seconds of a host on which the calibration kernel takes REFERENCE_S."""
    return p[key] * REFERENCE_S / p["cal_s"]


def _spread(values):
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  q1 {q1:.6g}  q3 {q3:.6g}"


def _tally(passes):
    attempted = sum(p["cases"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    exit_ok = all(p["exit_ok"] for p in passes)
    return attempted, failed, exit_ok


def run_plain(workload, seed, seconds):
    child(workload, seed, "setup")  # warm-up: writes bytecode, not counted
    start = time.perf_counter()
    passes, setups = [], []
    while len(passes) < MIN_PLAIN_PASSES or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > RUN_LIMIT_S:
            break
        setups.append(child(workload, seed, "setup"))
        p = child(workload, seed, "plain")
        setups.append(p)
        passes.append(p)
    walls = [scaled(p, "wall_s") for p in passes]
    samples = {
        "setup_s": [scaled(p, "setup_s") for p in setups],
        "wall_s": walls,
        "cases_per_s": [p["cases"] / w for p, w in zip(passes, walls)],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    raw = {"setup_s": [p["setup_s"] for p in setups], "wall_s": [p["wall_s"] for p in passes]}
    attempted, failed, exit_ok = _tally(passes)
    print(f"workload {workload}, seed {seed}: {len(passes)} passes, {len(setups)} setups,"
          f" {passes[0]['cases']} cases a pass, each in a fresh interpreter")
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        value = statistics.median(samples[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:14s} {value:12.6g} {unit:5s} median of {len(samples[name])}{_spread(samples[name])}")
    for name, values in raw.items():
        print(f"  {'raw ' + name:14s} {statistics.median(values):12.6g} {'s':5s} unscaled{_spread(values)}")
    cal = [p["cal_s"] for p in setups]
    print(f"  {'kernel':14s} {statistics.median(cal):12.6g} {'s':5s} calibration, reference"
          f" {REFERENCE_S:g}{_spread(cal)}")
    print(f"  {'fail_ratio':14s} {failed / attempted:12.6g} {'':5s} {failed} of {attempted} verdicts"
          " differ from expected")
    digests = [p["digest_ok"] for p in passes if p["digest_ok"] is not None]
    if digests:
        print(f"  catalog report digest matches the seed commit: {'yes' if all(digests) else 'NO'}")
    if not exit_ok:
        print("  zetasech run exit code was not 0")
    return {"correct": failed == 0 and exit_ok, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_traced(workload, seed, seconds):
    child(workload, seed, "setup")
    start = time.perf_counter()
    plain, traced = [], []
    while len(traced) < MIN_TRACED_ROUNDS or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > RUN_LIMIT_S:
            break
        plain.append(child(workload, seed, "plain"))
        traced.append(child(workload, seed, "traced"))
    first = traced[0]["layers"]
    for other in traced[1:]:
        diff = [k for k in DETERMINISTIC if other["layers"][k] != first[k]]
        if diff:
            detail = ", ".join(f"{k}: {first[k]} vs {other['layers'][k]}" for k in diff)
            raise BenchError(f"deterministic counters differ between traced passes: {detail}")
    for p in traced:
        if p["program_samples"] != p["layers"]["evaluator.integrand_samples"]:
            print(f"warning: traced integrand samples {p['layers']['evaluator.integrand_samples']}"
                  f" differ from the program's quad_evals {p['program_samples']}", file=sys.stderr)
    ratio = statistics.median(scaled(p, "wall_s") for p in traced) / statistics.median(
        scaled(p, "wall_s") for p in plain)
    print(f"workload {workload}, seed {seed}: {len(traced)} traced and {len(plain)} untraced"
          " passes; deterministic counters agree")
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if name == "trace.overhead_ratio":
            value = ratio
        else:
            pick = statistics.median_low if unit == "count" else statistics.median
            value = pick(p["layers"][name] for p in traced)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:28s} {value:14.6g} {unit}")
    attempted, failed, exit_ok = _tally(plain + traced)
    return {"correct": failed == 0 and exit_ok, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "zetasech")):
        print(f"perfbench: no zetasech sources under {ROOT}/src", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    measure = run_traced if args.trace else run_plain
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: measure(name, args.seed, args.seconds) for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
