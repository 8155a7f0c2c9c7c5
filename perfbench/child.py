"""One pass of a perfbench workload in a fresh interpreter.

Usage: python3 -I -S perfbench/child.py ROOT WORKLOAD SEED MODE

MODE is ``setup`` (import zetasech and build the catalog, nothing else),
``plain`` (setup, then one timed pass) or ``traced`` (the same pass with the
span tracer installed). Prints one JSON object on the last line of stdout.

Only ``sys``, ``os`` and ``time`` are loaded before the setup clock starts,
so the standard-library modules zetasech imports are paid for in ``setup_s``
as they are by ``zetasech run``. After setup the calibration kernel
(calibrate.py) is timed before the pass, during an untraced pass and after
it; ``cal_s`` is the mean kernel time, and the kernels run during the pass are
taken out of ``wall_s``.
"""
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# calibration kernels timed back to back before and after a pass
CAL_REPEATS = 6


def _setup(root, traced):
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    t0 = time.perf_counter()
    import zetasech

    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    records = zetasech.builtin_identities()
    return time.perf_counter() - t0, records, tracer


def _catalog(records, seed, out_dir, reference):
    """zetasech run --out FILE; the seed does not change the catalog."""
    import contextlib
    import hashlib
    import io

    import workloads
    from zetasech import cli, verifier

    path = os.path.join(out_dir, "catalog-report.json")
    state = {}

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            state["code"] = cli.main(["run", "--out", path])

    def verdicts():
        with open(path, encoding="utf-8") as fh:
            suite = verifier.from_json(fh.read())
        # --out keeps timings; the refactor invariant is the report without them
        text = verifier.to_json(suite, include_ms=False)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        results = suite.results
        return {
            "statuses": [r.status.value for r in results],
            "expected": [workloads.expected_status(r) for r in results],
            "results": results,
            "exit_ok": state["code"] == 0,
            "digest_ok": digest == reference["catalog_digest"],
        }

    return run, verdicts


def _offgrid(records, seed, out_dir, reference):
    import workloads
    from zetasech import verifier

    cases = workloads.offgrid_cases(records, seed)
    state = {}

    def run():
        state["results"] = [verifier.verify_case(rec, params) for rec, params in cases]

    def verdicts():
        results = state["results"]
        return {
            "statuses": [r.status.value for r in results],
            "expected": [workloads.expected_status(rec) for rec, _ in cases],
            "results": results,
        }

    return run, verdicts


def _closed_forms(records, seed, out_dir, reference):
    import workloads
    from zetasech import evaluator, verifier

    units = workloads.closed_form_units(records, seed)
    state = {}

    def run():
        out = []
        for unit in units:
            rec = unit.record
            if unit.side is None:
                out.append(verifier.verify_case(rec, unit.params))
                continue
            node = rec.lhs() if unit.side == "lhs" else rec.rhs()
            try:
                value = evaluator.evaluate_numeric(node, unit.params, verifier.config_for(rec))
                out.append(value.value)
            except (ValueError, ArithmeticError) as exc:
                out.append(exc)
        state["out"] = out

    def verdicts():
        statuses = []
        results = []
        for unit, got in zip(units, state["out"]):
            rec = unit.record
            if unit.side is None:
                statuses.append(got.status.value)
                results.append(got)
            elif isinstance(got, Exception):
                statuses.append("ERROR")
            else:
                other, budget = reference["integral_sides"][workloads.case_key(rec.id, unit.params)]
                statuses.append(workloads.side_status(rec, got, other, budget, rec.tolerance()))
        return {
            "statuses": statuses,
            "expected": [workloads.expected_status(u.record) for u in units],
            "results": results,
        }

    return run, verdicts


PREPARE = {"catalog": _catalog, "offgrid": _offgrid, "closed-forms": _closed_forms}


def main(argv):
    root, workload, seed, mode = argv[1], argv[2], int(argv[3]), argv[4]
    if workload not in PREPARE or mode not in ("setup", "plain", "traced"):
        raise SystemExit(f"child: bad workload or mode: {workload} {mode}")
    setup_s, records, tracer = _setup(root, mode == "traced")

    import json

    import calibrate

    out = {"setup_s": setup_s}
    cal = calibrate.measure(CAL_REPEATS)
    if mode != "setup":
        import resource

        out_dir = os.path.join(root, ".bench_out")
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        run, verdicts = PREPARE[workload](records, seed, out_dir, reference)
        if tracer is None:
            with calibrate.Sampler() as sampler:
                t0 = time.perf_counter()
                run()
                elapsed = time.perf_counter() - t0
            out["wall_s"] = elapsed - sampler.spent
            cal += sampler.times
        else:
            # kernels inside the pass would land in the spans
            t0 = time.perf_counter()
            run()
            out["wall_s"] = time.perf_counter() - t0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cal += calibrate.measure(CAL_REPEATS)
        if tracer is not None:
            import tracer as tracing

            layers = tracing.layer_metrics(tracer)
            tracer.write(os.path.join(out_dir, f"spans-{workload}.tsv"))
        got = verdicts()
        statuses, expected = got["statuses"], got["expected"]
        out["cases"] = len(statuses)
        out["failed"] = sum(1 for s, e in zip(statuses, expected) if s != e)
        out["exit_ok"] = got.get("exit_ok", True)
        out["digest_ok"] = got.get("digest_ok")
        if tracer is not None:
            results = got["results"]
            layers["verifier.errors"] = sum(1 for r in results if r.status.value == "ERROR")
            out["layers"] = layers
            out["program_samples"] = sum(r.quad_evals for r in results)
    out["cal_s"] = sum(cal) / len(cal)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
