"""Catalog of verifiable identities and its plain-text file format.

Every entry pairs two expression sources that must agree when evaluated
independently: typically a quadrature-backed integral on one side and a
series or special-function closed form on the other.  Records carry a
parameter grid (the cartesian product is the case list), a tolerance class,
and quadrature envelope hints.  EXACT records are evaluated over rationals
and must agree identically; NEGATIVE_CONTROL records encode a deliberately
wrong variant and must disagree by more than their floor.

The builtin records live in ``builtin_catalog.txt`` next to this module, in
the same text format that ``zetasech run --catalog`` reads, and are built by
``parse_catalog`` like any other catalog file; ``format_catalog`` of them
reproduces that file byte for byte.  Their groups:

- A: sech-kernel master transforms and their Laplace forms;
- B: arctan and log moment corollaries with closed forms;
- C: rational identities checked with exact arithmetic;
- D: closed-form special values of zeta, psi and friends;
- E: eta/zeta-difference consistency, kept on dual code paths;
- F: hypergeometric reductions and odd zeta evaluations;
- G: corrected published identities plus deliberate-wrong controls;
- H: Laplace-type kernels, quarter-argument gamma data.

The paper_anchor field holds a short verbatim fragment of the published
statement each entry was transcribed from; it is provenance data only and
never interpreted.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import namedtuple
from collections.abc import Callable, Sequence
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .exprlang import Node, SourceError, parse_expression

__all__ = [
    "CatalogError",
    "Grid",
    "GridValue",
    "IdentityRecord",
    "Kind",
    "TOLERANCES",
    "TolClass",
    "builtin_identities",
    "format_catalog",
    "get_identity",
    "parse_catalog",
]

GridValue = int | float | Fraction
Grid = tuple[tuple[str, tuple[GridValue, ...]], ...]


class CatalogError(ValueError):
    """Malformed catalog text or an inconsistent record definition."""


class Kind(Enum):
    NUMERIC = "NUMERIC"
    EXACT = "EXACT"
    NEGATIVE_CONTROL = "NEGATIVE_CONTROL"


class TolClass(Enum):
    EXACT = "EXACT"
    TIGHT = "TIGHT"
    MED = "MED"
    LOOSE = "LOOSE"


# relative tolerances per class; EXACT means a zero rational residual
TOLERANCES: dict[TolClass, float] = {
    TolClass.TIGHT: 1e-10,
    TolClass.MED: 1e-8,
    TolClass.LOOSE: 1e-6,
}


@lru_cache(maxsize=None)
def _parse(src: str) -> Node:
    return parse_expression(src)


class IdentityRecord(
    namedtuple(
        "IdentityRecord",
        (
            "id",  # str
            "group",  # str
            "paper_anchor",  # str
            "kind",  # Kind
            "tol_class",  # TolClass
            "lhs_src",  # str
            "rhs_src",  # str
            "grid",  # Grid
            "quad_decay",  # float
            "quad_vmax",  # float | None
            "quad_p_max",  # int
            "floor",  # float
            "notes",  # str
        ),
        defaults=((), math.pi, None, 8, 1e-3, ""),
    )
):
    """One catalog identity: two expression sources, the grid of parameter
    points they must agree at, the tolerance class and quadrature hints."""

    __slots__ = ()

    def lhs(self) -> Node:
        return _parse(self.lhs_src)

    def rhs(self) -> Node:
        return _parse(self.rhs_src)

    def tolerance(self) -> float | None:
        return TOLERANCES.get(self.tol_class)

    def case_params(self) -> list[dict[str, GridValue]]:
        """All parameter bindings, in deterministic grid order."""
        if not self.grid:
            return [{}]
        names = [name for name, _ in self.grid]
        pools = [values for _, values in self.grid]
        return [dict(zip(names, combo)) for combo in itertools.product(*pools)]

    def case_count(self) -> int:
        count = 1
        for _, values in self.grid:
            count *= len(values)
        return count


@lru_cache(maxsize=1)
def builtin_identities() -> tuple[IdentityRecord, ...]:
    """The built-in records, in the order of builtin_catalog.txt."""
    # the module loader reads package data without importing
    # importlib.resources, whose imports would dominate the build time
    path = os.path.join(os.path.dirname(__file__), "builtin_catalog.txt")
    return parse_catalog(__loader__.get_data(path).decode("utf-8"))


def get_identity(rid: str) -> IdentityRecord:
    for rec in builtin_identities():
        if rec.id == rid:
            return rec
    raise CatalogError(f"unknown identity id {rid!r}")


# ---------------------------------------------------------------------------
# plain-text catalog files


def _format_value(value: GridValue) -> str:
    if isinstance(value, bool):
        raise CatalogError("boolean grid values are not supported")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return repr(float(value))


def _checked_float(text: str, zero_ok: bool = False) -> float:
    """float(text) if it is finite and > 0 (or 0 with zero_ok); else ValueError."""
    value = float(text)
    if math.isfinite(value) and (value > 0.0 or (zero_ok and value == 0.0)):
        return value
    raise ValueError(f"out of range: {text!r}")


def _parse_value(token: str) -> GridValue:
    token = token.strip()
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        if any(ch in token for ch in ".eE") and not token.lstrip("+-").isdigit():
            value = float(token)
            if not math.isfinite(value):
                raise ValueError(f"not finite: {token!r}")
            return value
        return int(token)
    except (ValueError, ZeroDivisionError):
        raise CatalogError(f"bad grid value {token!r}") from None


def _format_grid(grid: Grid) -> str:
    parts = []
    for name, values in grid:
        inner = ", ".join(_format_value(v) for v in values)
        parts.append(f"{name} in {{{inner}}}")
    return "; ".join(parts)


def _parse_grid(text: str, lineno: int) -> Grid:
    items: list[tuple[str, tuple[GridValue, ...]]] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, sep, body = chunk.partition(" in ")
        name = head.strip()
        body = body.strip()
        if not sep or not name.isidentifier() or not body.startswith("{") or not body.endswith("}"):
            raise CatalogError(f"line {lineno}: bad params clause {chunk!r}")
        try:
            values = tuple(_parse_value(tok) for tok in body[1:-1].split(",") if tok.strip())
        except CatalogError as exc:
            raise CatalogError(f"line {lineno}: {exc}") from None
        if not values:
            raise CatalogError(f"line {lineno}: empty value set for {name!r}")
        if any(name == seen for seen, _ in items):
            raise CatalogError(f"line {lineno}: repeated parameter {name!r}")
        items.append((name, values))
    return tuple(items)


def _format_quad(rec: IdentityRecord) -> str:
    vmax = "none" if rec.quad_vmax is None else repr(float(rec.quad_vmax))
    return f"decay={rec.quad_decay!r} vmax={vmax} p_max={rec.quad_p_max}"


# quad token key -> parser of its value; a ValueError means a bad value
_QUAD_KEYS: dict[str, Callable[[str], object]] = {
    "decay": lambda val: _checked_float(val, zero_ok=True),
    "vmax": lambda val: None if val == "none" else _checked_float(val),
    "p_max": int,
}


def _parse_quad(text: str, lineno: int) -> dict[str, object]:
    out: dict[str, object] = {}
    for token in text.split():
        key, sep, val = token.partition("=")
        if not sep:
            raise CatalogError(f"line {lineno}: bad quad token {token!r}")
        if key not in _QUAD_KEYS:
            raise CatalogError(f"line {lineno}: unknown quad key {key!r}")
        try:
            out["quad_" + key] = _QUAD_KEYS[key](val)
        except ValueError:
            raise CatalogError(f"line {lineno}: bad quad value {token!r}") from None
    return out


def format_catalog(records: Sequence[IdentityRecord]) -> str:
    """Render records as catalog text; parse_catalog inverts this exactly."""
    lines: list[str] = ["# zetasech identity catalog", ""]
    for rec in records:
        lines.append(f"[identity {rec.id}]")
        lines.append(f"group = {rec.group}")
        lines.append(f"kind = {rec.kind.value}")
        lines.append(f"tol = {rec.tol_class.value}")
        lines.append(f"paper = {rec.paper_anchor}")
        lines.append(f"lhs = {rec.lhs_src}")
        lines.append(f"rhs = {rec.rhs_src}")
        if rec.grid:
            lines.append(f"params = {_format_grid(rec.grid)}")
        lines.append(f"quad = {_format_quad(rec)}")
        if rec.kind is Kind.NEGATIVE_CONTROL:
            lines.append(f"floor = {rec.floor!r}")
        if rec.notes:
            lines.append(f"notes = {rec.notes}")
        lines.append("")
    return "\n".join(lines)


_FIELD_KEYS = frozenset(
    {"group", "kind", "tol", "paper", "lhs", "rhs", "params", "quad", "floor", "notes"}
)


def parse_catalog(text: str) -> tuple[IdentityRecord, ...]:
    """Parse catalog text into records, rejecting duplicates and bad fields."""
    records: list[IdentityRecord] = []
    seen: set = set()
    current: dict[str, object] | None = None
    # the file line of each expression field and the 0-based index in that
    # line where its value starts, for positioning parse errors
    starts: dict[str, tuple[int, int]] = {}

    def flush() -> None:
        if current is None:
            return
        rid = str(current.pop("id"))
        lineno = current.pop("lineno")
        missing = {"group", "kind", "tol", "paper", "lhs", "rhs"} - current.keys()
        if missing:
            raise CatalogError(
                f"line {lineno}: identity {rid!r} missing {sorted(missing)}"
            )
        try:
            kind = Kind(str(current["kind"]))
            tol = TolClass(str(current["tol"]))
        except ValueError as exc:
            raise CatalogError(f"line {lineno}: {exc}") from None
        where = f"line {lineno}: record {rid}"
        lhs, rhs = str(current["lhs"]), str(current["rhs"])
        for side, src in (("lhs", lhs), ("rhs", rhs)):
            try:
                _parse(src)
            except SourceError as exc:
                # a field is one line, so the error is on line 1 of src
                line, start = starts[side]
                raise CatalogError(
                    f"line {line}, column {start + exc.col}: record {rid}: {exc.message}"
                ) from None
        if (kind is Kind.EXACT) != (tol is TolClass.EXACT):
            raise CatalogError(f"{where}: EXACT kind and EXACT tolerance go together")
        grid: Grid = current.get("params", ())  # type: ignore[assignment]
        if kind is Kind.EXACT and any(
            isinstance(v, float) for _, values in grid for v in values
        ):
            raise CatalogError(f"{where}: EXACT grids need rational values")
        quad = current.get("quad", {})
        assert isinstance(quad, dict)
        records.append(
            IdentityRecord(
                id=rid,
                group=str(current["group"]),
                paper_anchor=str(current["paper"]),
                kind=kind,
                tol_class=tol,
                lhs_src=lhs,
                rhs_src=rhs,
                grid=grid,
                floor=float(current.get("floor", 1e-3)),  # type: ignore[arg-type]
                notes=str(current.get("notes", "")),
                **quad,
            )
        )

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[identity ") and line.endswith("]"):
            flush()
            rid = line[len("[identity "):-1].strip()
            if not rid:
                raise CatalogError(f"line {lineno}: empty identity id")
            if rid in seen:
                raise CatalogError(f"line {lineno}: duplicate identity id {rid!r}")
            seen.add(rid)
            current = {"id": rid, "lineno": lineno}
            continue
        if current is None:
            raise CatalogError(f"line {lineno}: field outside any [identity] section")
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or key not in _FIELD_KEYS:
            raise CatalogError(f"line {lineno}: unrecognized line {line!r}")
        if key in current:
            raise CatalogError(f"line {lineno}: repeated field {key!r}")
        if key == "params":
            current["params"] = _parse_grid(value, lineno)
        elif key == "quad":
            current["quad"] = _parse_quad(value, lineno)
        elif key == "floor":
            try:
                current["floor"] = _checked_float(value)
            except ValueError:
                raise CatalogError(f"line {lineno}: bad floor {value!r}") from None
        else:
            current[key] = value
            if key in ("lhs", "rhs"):
                starts[key] = (lineno, raw.index(value, raw.index("=") + 1))
    flush()
    return tuple(records)
