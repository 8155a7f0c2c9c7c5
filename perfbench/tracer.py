"""In-memory span tracer around zetasech's public layer functions.

The tracer wraps functions from outside the package: every module attribute
of ``zetasech`` that is the original function is replaced by a wrapper that
records one span (name, start, end, parent). Spans live in flat arrays until
the pass ends; self time is a span's duration minus the durations of its
direct children. Nothing inside ``src/`` is changed.
"""
from __future__ import annotations

import statistics
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List

# Counters that must repeat exactly across two traced passes of one seed.
DETERMINISTIC = (
    "evaluator.integrand_samples",
    "quadrature.calls",
    "specfun.hz_cache_hits",
    "specfun.hz_cache_misses",
    "evaluator.exact_calls",
    "exprlang.parse_calls",
)

# specfun.constants is a cached table lookup made once per named constant in
# every integrand sample; it is not a special function and stays unwrapped.
_SPECFUN_SKIP = frozenset(("constants",))


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.unconverged = 0
        self._stack = [-1]
        self._groups: Dict[int, List[int]] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- analysis ---------------------------------------------------------

    def _ids_of(self, names: Iterable[str]) -> frozenset:
        return frozenset(self._ids[n] for n in names if n in self._ids)

    def spans(self, name: str) -> List[int]:
        """Ids of the spans called name; the grouping is built on the first
        call, so call this only once recording has ended."""
        if not self._groups:
            for i, nid in enumerate(self.name):
                self._groups.setdefault(nid, []).append(i)
        return self._groups.get(self._ids.get(name, -1), [])

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def outermost(self, names: Iterable[str]) -> List[int]:
        """Spans named in names with no ancestor named in names."""
        wanted = self._ids_of(names)
        inside = bytearray(len(self.name))
        out = []
        for i, nid in enumerate(self.name):
            p = self.parent[i]
            covered = p >= 0 and (inside[p] or self.name[p] in wanted)
            inside[i] = covered
            if nid in wanted and not covered:
                out.append(i)
        return out

    def self_time(self, name: str) -> float:
        child = array("d", bytes(8 * len(self.name)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return sum(self.duration(i) - child[i] for i in self.spans(name))

    def write(self, path: str) -> None:
        """Spans as tab-separated rows: id, parent, name, start_s, end_s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, nid in enumerate(self.name):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[nid]}"
                    f"\t{self.start[i]!r}\t{self.end[i]!r}\n"
                )


def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "zetasech" or mod_name.startswith("zetasech.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public layer functions; call after import, before any work.

    The registry binds some specfun functions into its function table on
    first use, so wrapping must come before that table is built.
    """
    from zetasech import catalog, ddmath, evaluator, exprlang, registry, specfun, verifier

    if registry.function_table.cache_info().currsize:
        raise RuntimeError("function table already built; specfun wrappers would be missed")

    def wrap(name: str, fn: Callable) -> None:
        _replace_everywhere(fn, tracer.wrap(name, fn))

    wrap("exprlang.parse_expression", exprlang.parse_expression)
    wrap("catalog.builtin_identities", catalog.builtin_identities)
    wrap("verifier.verify_case", verifier.verify_case)
    wrap("verifier.to_json", verifier.to_json)
    wrap("evaluator.evaluate_numeric", evaluator.evaluate_numeric)
    wrap("evaluator.evaluate_exact", evaluator.evaluate_exact)
    wrap("ddmath.dd_exp", ddmath.dd_exp)
    for fname in specfun.__all__:
        fn = getattr(specfun, fname)
        if callable(fn) and not isinstance(fn, type) and fname not in _SPECFUN_SKIP:
            wrap("specfun." + fname, fn)

    integrate = evaluator.integrate_decaying

    def integrate_traced(f, *args, **kwargs):
        result = integrate(tracer.wrap("evaluator.integrand", f), *args, **kwargs)
        if not result.converged:
            tracer.unconverged += 1
        return result

    _replace_everywhere(integrate, tracer.wrap("quadrature.integrate_decaying", integrate_traced))


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, except verifier.errors, which
    comes from the verdicts."""
    from zetasech import specfun

    t = tracer
    samples = len(t.spans("evaluator.integrand"))
    integrand_s = sum(t.duration(i) for i in t.outermost(["evaluator.integrand"]))
    quad_calls = len(t.spans("quadrature.integrate_decaying"))
    specfun_names = [n for n in t.names if n.startswith("specfun.")]
    specfun_spans = t.outermost(specfun_names)
    hz = getattr(specfun, "_hz_dd", None)
    info = hz.cache_info() if hz is not None else None
    case_ms = [t.duration(i) * 1000.0 for i in t.spans("verifier.verify_case")]
    return {
        "evaluator.integrand_samples": samples,
        "evaluator.integrand_s": integrand_s,
        "evaluator.us_per_sample": integrand_s / samples * 1e6 if samples else 0.0,
        "quadrature.calls": quad_calls,
        "quadrature.samples_per_call": samples / quad_calls if quad_calls else 0.0,
        "quadrature.self_s": t.self_time("quadrature.integrate_decaying"),
        "quadrature.unconverged": t.unconverged,
        "specfun.calls": len(specfun_spans),
        "specfun.s": sum(t.duration(i) for i in specfun_spans),
        "specfun.hz_cache_hits": info.hits if info else 0,
        "specfun.hz_cache_misses": info.misses if info else 0,
        "ddmath.dd_exp_calls": len(t.spans("ddmath.dd_exp")),
        "ddmath.dd_exp_s": sum(t.duration(i) for i in t.outermost(["ddmath.dd_exp"])),
        "evaluator.exact_calls": len(t.spans("evaluator.evaluate_exact")),
        "evaluator.exact_s": sum(t.duration(i) for i in t.spans("evaluator.evaluate_exact")),
        "evaluator.numeric_calls": len(t.spans("evaluator.evaluate_numeric")),
        "evaluator.numeric_self_s": t.self_time("evaluator.evaluate_numeric"),
        "exprlang.parse_calls": len(t.spans("exprlang.parse_expression")),
        "exprlang.parse_s": sum(t.duration(i) for i in t.spans("exprlang.parse_expression")),
        "catalog.build_s": sum(t.duration(i) for i in t.spans("catalog.builtin_identities")),
        "verifier.cases": len(case_ms),
        "verifier.case_ms_p50": statistics.median(case_ms) if case_ms else 0.0,
        "verifier.case_ms_p99": _percentile(case_ms, 99),
        "verifier.report_s": sum(t.duration(i) for i in t.spans("verifier.to_json")),
    }
