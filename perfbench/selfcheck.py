"""Fast smoke check of the benchmark itself (a few seconds).

Usage: python3 perfbench/selfcheck.py

Checks the span tracer's self-time arithmetic, the offgrid draw rule, the
closed-forms enumeration against reference.json, the calibration sampler and
scaling, a traced in-process sample
of offgrid cases, one setup-only child interpreter, and that run.py reports
exactly the metrics BENCHMARK.json declares. Exits 1 on the first failure.
"""
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def check(cond, message):
    if not cond:
        print(f"selfcheck FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def check_tracer_arithmetic():
    t = tracing.Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_w = t.wrap("leaf", leaf)

    def outer():
        leaf_w()
        leaf_w()
        time.sleep(0.002)

    t.wrap("outer", outer)()
    (o,) = t.spans("outer")
    leaves = t.spans("leaf")
    check(len(leaves) == 2 and all(t.parent[i] == o for i in leaves), "span parents")
    covered = sum(t.duration(i) for i in leaves)
    check(abs(t.self_time("outer") - (t.duration(o) - covered)) < 1e-12, "self time")
    check(t.outermost(["outer", "leaf"]) == [o], "outermost spans")


def check_offgrid_rule(records):
    a = workloads.offgrid_cases(records, 7)
    check(len(a) == len(workloads.OFFGRID_RECORDS) * workloads.OFFGRID_DRAWS, "offgrid size")
    check([(r.id, p) for r, p in a] == [(r.id, p) for r, p in workloads.offgrid_cases(records, 7)],
          "offgrid draws repeat for one seed")
    check(a != workloads.offgrid_cases(records, 8), "offgrid draws change with the seed")
    seen = set()
    for rec, point in a:
        grid = dict(rec.grid)
        check(list(point) == list(grid), f"{rec.id}: axes")
        check(tuple(point.values()) not in {tuple(p.values()) for p in rec.case_params()},
              f"{rec.id}: on the catalog grid")
        key = (rec.id, tuple(point.values()))
        check(key not in seen, f"{rec.id}: duplicate draw")
        seen.add(key)
        for name, value in point.items():
            if name in workloads.INTEGER_AXES:
                check(value in grid[name], f"{rec.id}: {name} not a listed value")
            else:
                lo, hi = float(min(grid[name])), float(max(grid[name]))
                check(lo <= value <= hi and round(value, 2) == value, f"{rec.id}: {name}={value}")
        if "hzeta(" in rec.rhs_src or "S(" in rec.rhs_src:
            check(not float(point["s"]).is_integer(), f"{rec.id}: integer s on a pole route")


def check_closed_forms(records):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    units = workloads.closed_form_units(records, 3)
    sides = [u for u in units if u.side is not None]
    check(len(units) == 961 and len(sides) == 362, "closed-forms unit counts")
    for u in sides:
        check(workloads.case_key(u.record.id, u.params) in reference["integral_sides"],
              f"{u.record.id}: no reference value")


def check_traced_sample(records, t):
    from zetasech import verifier

    results = [verifier.verify_case(rec, p)
               for rec, p in workloads.offgrid_cases(records, 1)[::40]]
    check(all(r.status.value == "PASS" for r in results), "offgrid sample verdicts")
    layers = tracing.layer_metrics(t)
    check(layers["evaluator.integrand_samples"] == sum(r.quad_evals for r in results),
          "traced integrand samples match the program's own count")
    check(layers["verifier.cases"] == len(results) and layers["specfun.calls"] > 0,
          "traced layer counts")
    check(set(layers) | {"verifier.errors", "trace.overhead_ratio"} == set(run.LAYER_UNITS),
          "layer metric names")


def check_calibration():
    with calibrate.Sampler(0.01) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    check(sampler.times and 0 < sampler.spent < 0.2 + sum(sampler.times), "calibration sampler")
    p = {"wall_s": 3.0, "cal_s": 2 * calibrate.REFERENCE_S}
    check(run.scaled(p, "wall_s") == 1.5, "scaling by the calibration kernel")


def check_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
          "end-to-end metrics differ from BENCHMARK.json")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS,
          "per-layer metrics differ from BENCHMARK.json")
    check(tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS, "workload names")


def main():
    check_declared_metrics()
    check_tracer_arithmetic()
    check_calibration()
    import zetasech

    t = tracing.Tracer()
    tracing.install(t)  # before the catalog build, as in a traced pass
    records = zetasech.builtin_identities()
    check_offgrid_rule(records)
    check_closed_forms(records)
    check_traced_sample(records, t)
    check(run.child("catalog", 1, "setup")["setup_s"] > 0, "setup-only child")
    print("selfcheck ok")


if __name__ == "__main__":
    main()
