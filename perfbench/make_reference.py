"""Write perfbench/reference.json from the program as it stands.

Usage: python3 perfbench/make_reference.py

The checked-in file was made at the commit that introduced the benchmark.
It holds the digest of the builtin catalog report without timings (the
refactor invariant) and, for every case with exactly one integral side, that
side's value and error budget, which the closed-forms workload compares its
closed-form values against. Regenerate it only when a change is meant to
alter those numbers, and say so in the change.
"""
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402
from zetasech import builtin_identities, run_suite, to_json  # noqa: E402


def main() -> None:
    records = builtin_identities()
    suite = run_suite(records)
    text = to_json(suite, include_ms=False)
    sides = {}
    cases = iter(suite.results)
    for rec in records:
        lhs_int = workloads.has_integral(rec.lhs_src)
        rhs_int = workloads.has_integral(rec.rhs_src)
        for params in rec.case_params():
            res = next(cases)
            if lhs_int != rhs_int:
                value = res.lhs if lhs_int else res.rhs
                sides[workloads.case_key(rec.id, params)] = [value, res.err_budget]
    doc = {
        "catalog_digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "catalog_counts": {k: v for k, v in suite.counts().items() if v},
        "integral_sides": sides,
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(suite.summary())


if __name__ == "__main__":
    main()
