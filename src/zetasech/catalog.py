"""Built-in catalog of verifiable identities plus a plain-text file format.

Every entry pairs two expression sources that must agree when evaluated
independently: typically a quadrature-backed integral on one side and a
series or special-function closed form on the other.  Records carry a
parameter grid (the cartesian product is the case list), a tolerance class,
and quadrature envelope hints.  EXACT records are evaluated over rationals
and must agree identically; NEGATIVE_CONTROL records encode a deliberately
wrong variant and must disagree by more than their floor.

The paper_anchor field holds a short verbatim fragment of the published
statement each entry was transcribed from; it is provenance data only and
never interpreted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

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

GridValue = Union[int, float, Fraction]
Grid = Tuple[Tuple[str, Tuple[GridValue, ...]], ...]


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
TOLERANCES: Dict[TolClass, float] = {
    TolClass.TIGHT: 1e-10,
    TolClass.MED: 1e-8,
    TolClass.LOOSE: 1e-6,
}


@lru_cache(maxsize=None)
def _parse(src: str) -> Node:
    return parse_expression(src)


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    group: str
    paper_anchor: str
    kind: Kind
    tol_class: TolClass
    lhs_src: str
    rhs_src: str
    grid: Grid = ()
    quad_decay: float = math.pi
    quad_vmax: Optional[float] = None
    quad_p_max: int = 8
    quad_scale: float = 1.0
    floor: float = 1e-3
    notes: str = ""

    def lhs(self) -> Node:
        return _parse(self.lhs_src)

    def rhs(self) -> Node:
        return _parse(self.rhs_src)

    def tolerance(self) -> Optional[float]:
        return TOLERANCES.get(self.tol_class)

    def case_params(self) -> List[Dict[str, GridValue]]:
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


def _mk(
    rid: str,
    group: str,
    anchor: str,
    kind: Kind,
    tol: TolClass,
    lhs: str,
    rhs: str,
    grid: Optional[Mapping[str, Sequence[GridValue]]] = None,
    decay: float = math.pi,
    vmax: Optional[float] = None,
    p_max: int = 8,
    scale: float = 1.0,
    floor: float = 1e-3,
    notes: str = "",
) -> IdentityRecord:
    try:
        _parse(lhs)
        _parse(rhs)
    except SourceError as exc:
        raise CatalogError(f"record {rid}: {exc}") from None
    if (kind is Kind.EXACT) != (tol is TolClass.EXACT):
        raise CatalogError(f"record {rid}: EXACT kind and EXACT tolerance go together")
    frozen: Grid = tuple(
        (name, tuple(values)) for name, values in (grid or {}).items()
    )
    for name, values in frozen:
        if not values:
            raise CatalogError(f"record {rid}: empty grid for {name!r}")
        if kind is Kind.EXACT and any(isinstance(v, float) for v in values):
            raise CatalogError(f"record {rid}: EXACT grids need rational values")
    return IdentityRecord(
        id=rid,
        group=group,
        paper_anchor=anchor,
        kind=kind,
        tol_class=tol,
        lhs_src=lhs,
        rhs_src=rhs,
        grid=frozen,
        quad_decay=decay,
        quad_vmax=vmax,
        quad_p_max=p_max,
        quad_scale=scale,
        floor=floor,
        notes=notes,
    )


_HALF_PI = math.pi / 2.0


def _sech_kernel_records() -> List[IdentityRecord]:
    """Group A: sech-kernel master transforms and their Laplace forms."""
    recs = [
        _mk(
            "Theorem4",
            "A",
            r"\frac{ \left( -1 \right) ^{n+1} \left( a/2 \right) ^{2\,n+1}\Gamma \left( 2+2\,n \right)}{{2}^{s}}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(2*n+1)*sin(s*arctan(2*v/a))"
            "/((a^2+4*v^2)^(s/2)*cosh(pi*v)) }",
            "(-1)^(n+1)*(a/2)^(2*n+1)*(fact(2*n+1)/2^s)"
            "*sum[j = 0, 2*n+1]{ (-2/a)^j*eta(s-j, 2*q)/(fact(2*n+1-j)*fact(j)) }",
            grid={"n": (0, 1, 2), "a": (0.5, 1, 2, 4), "s": (-1.5, 0.5, 1, 2.3, 4)},
        ),
        _mk(
            "Theorem4S",
            "A",
            r"{2}^{2\,n-2\,s-1} \left( -1 \right) ^{1+n}\,a",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(2*n+1)*sin(s*arctan(2*v/a))"
            "/((a^2+4*v^2)^(s/2)*cosh(pi*v)) }",
            "2^(2*n-2*s-1)*(-1)^(n+1)*a*( fact(2*n+1)"
            "*sum[j = 0, 2*n]{ (-a/4)^(2*n-1-j)"
            "*(hzeta(s-1-j, q) - hzeta(s-1-j, q+1/2))/(fact(j+1)*fact(2*n-j)) }"
            " + (hzeta(s, q) - hzeta(s, q+1/2))*(-a/4)^(2*n) )",
            grid={"n": (0, 1, 2), "a": (1, 2, 4), "s": (-1.5, 0.5, 2.3)},
            notes="zeta-difference route; companion of Theorem4",
        ),
        _mk(
            "Theorem2",
            "A",
            r"={2}^{-s} \left( -1 \right) ^{n} \left( \frac{a}{2} \right) ^{2\,n}\Gamma \left( 2\,n+1 \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(2*n)*cos(s*arctan(2*v/a))"
            "/((a^2+4*v^2)^(s/2)*cosh(pi*v)) }",
            "2^(-s)*(-1)^n*(a/2)^(2*n)*fact(2*n)"
            "*sum[j = 0, 2*n]{ (-2/a)^j*eta(s-j, 2*q)/(fact(2*n-j)*fact(j)) }",
            grid={"n": (0, 1, 2), "a": (0.5, 1, 2, 4), "s": (-1.5, 0.5, 2.3, 4)},
        ),
        _mk(
            "Theorem2S",
            "A",
            r"={2}^{2(n-s)} \left( -1 \right) ^{n}\Gamma \left( 2\,n+1 \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(2*n)*cos(s*arctan(2*v/a))"
            "/((a^2+4*v^2)^(s/2)*cosh(pi*v)) }",
            "2^(2*(n-s))*(-1)^n*fact(2*n)"
            "*sum[j = 0, 2*n]{ (-a/4)^j"
            "*(hzeta(j+s-2*n, q) - hzeta(j+s-2*n, q+1/2))/(fact(2*n-j)*fact(j)) }",
            grid={"n": (0, 1, 2), "a": (1, 2, 4), "s": (-1.5, 0.5, 2.3)},
            notes="zeta-difference route; companion of Theorem2",
        ),
        _mk(
            "Theorem4a",
            "A",
            r"\left( -1 \right) ^{n}{2}^{4\,n-2\,s+3}\sum _{j=0}^{2\,n}\binom{2\,n}{j}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(2*n+1)*sin(s*arctan(v/a))"
            "/((a^2+v^2)^(s/2)*cosh(pi*v/2)) }",
            "(-1)^n*2^(4*n-2*s+3)*sum[j = 0, 2*n]{ binom(2*n, j)*(-a/4)^j"
            "*(S(s-2*n+j-1, q) - (a/4)*S(s-2*n+j, q)) }",
            grid={"n": (0, 1), "a": (1, 2), "s": (-1.5, 0.5, 2.3)},
            decay=_HALF_PI,
        ),
        _mk(
            "Thm4b",
            "A",
            r"a\int_{0}^{\infty }\!{\frac {{{\rm e}^{-av}}{v}^{s}}{\cosh \left( v \right) }}\,{\rm d}v",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "a*integral[v]{ exp(-a*v)*v^s/cosh(v) }"
            " + integral[v]{ v^s*exp(-a*v)*sinh(v)/cosh(v)^2 }",
            "gammafn(s+1)*2^(1-2*s)*S(s, q)",
            grid={"s": (0.5, 2.3), "a": (1, 3)},
            decay=2.0,
        ),
        _mk(
            "Thm4c",
            "A",
            r"\left(2S(s,q)-\frac{a}{2}\,S(s+1,q)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[w]{ exp(-a*w)*w^s*sinh(w)/cosh(w)^2 }",
            "2^(-2*s)*gammafn(s+1)*(2*S(s, q) - (a/2)*S(s+1, q))",
            grid={"s": (0.5, 2.3), "a": (1, 3)},
            decay=2.0,
        ),
        _mk(
            "Eq3p3",
            "A",
            r"{\frac {{v}^{s-1}{{\rm e}^{-av}}}{\cosh \left( v \right) }}\,{\rm d}v={2}^{1-2\,s} \Gamma \left( s \right) S(s,q)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(s-1)*exp(-a*v)/cosh(v) }",
            "2^(1-2*s)*gammafn(s)*S(s, q)",
            grid={"s": (0.5, 2.3), "a": (1, 3)},
            decay=2.0,
        ),
        _mk(
            "sechT",
            "A",
            r"{\frac {v\sin \left( wv \right) }{\cosh \left( \pi\,v/2 \right) }}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v*sin(w*v)/cosh(pi*v/2) }",
            "sinh(w)/cosh(w)^2",
            grid={"w": (0.5, 1, 2)},
            decay=_HALF_PI,
        ),
        _mk(
            "FTnm1a",
            "A",
            r"{\frac {v^{-1}\sin \left( wv \right) }{\cosh \left( \pi\,v/2 \right)}}\,{\rm d}v=2\,\arctan",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ sin(w*v)/(v*cosh(pi*v/2)) }",
            "2*arctan(tanh(w/2))",
            grid={"w": (0.5, 1, 2)},
            decay=_HALF_PI,
        ),
        _mk(
            "T1s0",
            "A",
            r"=\left(\psi \left( 7/8 \right) -\psi \left( {{3}/{8}} \right) \right)/2",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ 1/((v^2+1)*cosh(pi*v/4)) }",
            "(digamma(7/8) - digamma(3/8))/2",
            decay=math.pi / 4.0,
        ),
        _mk(
            "SinId",
            "A",
            r"\sin \left( \arctan \left( x \right)  \right) ={\frac {x}{ \sqrt{{x}^{2}+1}}}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "sin(arctan(x))",
            "x/sqrt(x^2+1)",
            grid={"x": (0.3, 1, 2.7)},
        ),
        _mk(
            "CodId",
            "A",
            r"\cos \left( \arctan \left( x \right)  \right) = \frac{1}{  \sqrt{{x}^{2}+1} }",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "cos(arctan(x))",
            "1/sqrt(x^2+1)",
            grid={"x": (0.3, 1, 2.7)},
        ),
        _mk(
            "Rkb",
            "A",
            r"{2}^{2\,s} \left( -1 \right) ^{3/2+J/2}\sum _{k=1}^{J/2-1/2}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(-s)*(cos(s*pi/2)*cos(s*arctan(v/J))"
            " + sin(s*pi/2)*sin(s*arctan(v/J)))/((J^2+v^2)^(s/2)*cosh(pi*v)) }",
            "2^(2*s)*(-1)^((J+3)/2)"
            "*sum[k = 1, (J-1)/2]{ (-1)^k/(J^2-4*k^2)^s }"
            " - ((-1)^((J+1)/2)/2)*(2/J)^(2*s)",
            grid={"s": (-3, -1, 0.5), "J": (1, 3, 5)},
        ),
        _mk(
            "Rkbo",
            "A",
            r"{\frac { \left( -1 \right) ^{3/2+J/2+n}}{{2}^{4\,n+2}}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(1+2*n)*sin((1+2*n)*arctan(v/J))"
            "*(J^2+v^2)^(n+1/2)/cosh(pi*v) }",
            "((-1)^((J+3)/2+n)/2^(4*n+2))"
            "*sum[k = 1, (J-1)/2]{ (-1)^k*(J^2-4*k^2)^(1+2*n) }"
            " + (-1)^((J+3)/2+n)*J^(4*n+2)/2^(4*n+3)",
            grid={"n": (0, 1), "J": (1, 3)},
        ),
        _mk(
            "T1A",
            "A",
            r"\left( -1 \right) ^{n}{J}^{1+2\,n}\,\Gamma \left( 2+2\,n \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(1+2*n)*sin((1+2*n)*arctan(v/J))"
            "*(J^2+v^2)^(n+1/2)/cosh(pi*v) }",
            "(-1)^n*J^(1+2*n)*fact(2*n+1)"
            "*sum[j = 0, 1+2*n]{ (-1/J)^j*eta(-1-2*n-j, J+1/2)"
            "/(fact(2*n+1-j)*fact(j)) }",
            grid={"n": (0, 1), "J": (1, 3)},
        ),
    ]
    return recs


def _arctan_log_records() -> List[IdentityRecord]:
    """Group B: arctan and log moment corollaries with closed forms."""
    atan1 = "integral[v]{ v*arctan(2*v)/cosh(pi*v) }"
    atan2 = "integral[v]{ v*arctan(v)/cosh(pi*v) }"
    atan4 = "integral[v]{ v*arctan(v/2)/cosh(pi*v) }"
    cubic1 = "integral[v]{ v^3*arctan(2*v)/cosh(pi*v) }"
    cubic2 = "integral[v]{ v^3*arctan(v)/cosh(pi*v) }"
    recs = [
        _mk(
            "Cor2a",
            "B",
            r"\left( -1 \right) ^{n}{2}^{2\,n-3} \left( a/4 \right) ^{2\,n}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(2+2*n)/((a^2+4*v^2)*cosh(pi*v)) }",
            "(-1)^n*2^(2*n-3)*(a/4)^(2*n)*( fact(2*n+1)"
            "*sum[j = 0, 2*n]{ (-2/a)^j*eulerpoly(j, 2*q)/(fact(j+1)*fact(2*n-j)) }"
            " - (a/2)*(digamma(q+1/2) - digamma(q)) )",
            grid={"n": (0, 1, 2), "a": (1, 2, 4)},
        ),
        _mk(
            "C2na1",
            "B",
            r"\left( n+(1-\ln  \left( 2 \right))/2+\Gamma \left( 2+2n \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(2+2*n)/((4*v^2+1)*cosh(pi*v)) }",
            "(-1)^n*2^(-2-2*n)*( n + (1-ln2)/2 + fact(2*n+1)"
            "*sum[j = 0, n-1]{ 2^(2*j)*eulerpoly(2*j+1, 0)"
            "/(fact(2*j+2)*fact(2*n-2*j-1)) } )",
            grid={"n": (0, 1, 2)},
        ),
        _mk(
            "C2na2",
            "B",
            r"-\pi/2+{2}^{-2\,n}+n+1/2",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(2*n+2)/((v^2+1)*cosh(pi*v)) }",
            "(-1)^(n+1)*( (fact(2*n+1)/2)"
            "*sum[j = 1, n]{ eulernum(2*j)*2^(-2*j)/(fact(2*j+1)*fact(2*n-2*j)) }"
            " - pi/2 + 2^(-2*n) + n + 1/2 )",
            grid={"n": (0, 1, 2)},
        ),
        _mk(
            "C2na4",
            "B",
            r"+{2}^{-2\,n} \left( {3}^{2\,n+1}-1/3 \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(2*n+2)/((v^2+4)*cosh(pi*v)) }",
            "(-1)^n*( 2^(2*n-1)*fact(2*n+1)"
            "*sum[j = 1, n]{ 2^(-4*j)*eulernum(2*j)/(fact(2*j+1)*fact(2*n-2*j)) }"
            " - (pi-n-1/2)*2^(2*n) + 2^(-2*n)*(3^(2*n+1) - 1/3) )",
            grid={"n": (0, 1, 2)},
        ),
        _mk(
            "Tc3a",
            "B",
            r"{\frac {\zeta^{\prime} \left(-j,q \right) -\zeta^{\prime} \left(-j\,,q+1/2 \right) }",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(2*n+1)*arctan(2*v/a)/cosh(pi*v) }",
            "(-1)^(n+1)*(a/2)^(2*n+1)*fact(2*n+1)"
            "*sum[j = 0, 2*n+1]{ (-4/a)^j"
            "*(hzeta_ds(-j, q) - hzeta_ds(-j, q+1/2))/(fact(2*n+1-j)*fact(j)) }",
            grid={"n": (0, 1), "a": (1, 2, 4)},
        ),
        _mk(
            "T2s1D",
            "B",
            r"+2\,\sum _{j=0}^{\infty }{\frac { \left( -1 \right) ^{j}\ln  \left( j+2\,q \right) }{j+2\,q}}+\ln  \left( 2 \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(2*n+1)*arctan(2*v/a)/((a^2+4*v^2)*cosh(pi*v)) }"
            " + (a/4)*integral[v]{ v^(2*n)*ln(a^2+4*v^2)"
            "/((a^2+4*v^2)*cosh(pi*v)) }",
            "2^(2*n-3)*(-1)^n*(a/4)^(2*n)*( -(4*fact(2*n)/a)*( ln2"
            "*sum[j = 0, 2*n-1]{ eulerpoly(j, 2*q)*(-2/a)^j"
            "/(fact(j+1)*fact(2*n-1-j)) }"
            " - sum[j = 0, 2*n-1]{ (-4/a)^j*S_ds(-j, q)"
            "/(fact(j+1)*fact(2*n-1-j)) } )"
            " - 2*eta_ds(1, 2*q) + ln2*(digamma(q+1/2) - digamma(q)) )",
            grid={"n": (0, 1), "a": (1, 2)},
            notes="the alternating log series is -eta_ds(1, 2q)",
        ),
        _mk(
            "Cn0",
            "B",
            r"=a/2 \left( -\ln  \left( \Gamma \left( q \right)  \right) +\ln  \left( \Gamma \left( q+1/2 \right)  \right)  \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v*arctan(2*v/a)/cosh(pi*v) }",
            "(a/2)*(loggamma(q+1/2) - loggamma(q))"
            " + 2*(hzeta_ds(-1, q) - hzeta_ds(-1, q+1/2))",
            grid={"a": (1, 2, 4)},
        ),
        _mk(
            "a0n1",
            "B",
            r"=-3\,\zeta^{\prime} \left( -1 \right) +\ln  \left( 2 \right)/6",
            Kind.NUMERIC,
            TolClass.TIGHT,
            atan1,
            "-3*zetap(-1) + ln2/6 - ln(2*pi)/4",
        ),
        _mk(
            "C3n0a1",
            "B",
            r"=-\,\ln  \left( \pi \right)/4 -1/4+3\,\ln  \left( A \right)",
            Kind.NUMERIC,
            TolClass.MED,
            atan1,
            "-ln(pi)/4 - 1/4 + 3*ln_glaisher - ln2/12",
        ),
        _mk(
            "N0a2",
            "B",
            r"=-2\,\ln  \left( \Gamma \left( 3/4 \right)  \right) -\ln  \left( 2 \right)/2",
            Kind.NUMERIC,
            TolClass.TIGHT,
            atan2,
            "-2*loggamma(3/4) - ln2/2 + ln(pi)"
            " + 2*hzeta_ds(-1, 3/4) - 2*hzeta_ds(-1, 1/4)",
        ),
        _mk(
            "C3n0a2",
            "B",
            r"+\ln  \left( \pi \right) -{ {{G}}/{\pi}}",
            Kind.NUMERIC,
            TolClass.MED,
            atan2,
            "-ln2/2 - 2*loggamma(3/4) + ln(pi) - catalan/pi",
        ),
        _mk(
            "n0a4",
            "B",
            r"=2\,\ln  \left( {\frac {\Gamma \left( 7/4 \right) }{\Gamma \left( 5/4 \right) }} \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            atan4,
            "2*ln(gammafn(7/4)/gammafn(5/4)) + 2*hzeta_ds(-1, 1/4)"
            " - ln2 - 2*hzeta_ds(-1, 3/4) - (3/2)*ln(3/4)",
        ),
        _mk(
            "C3n0a4",
            "B",
            r"=\ln  \left( 2 \right) +4\,\ln  \left( \Gamma \left( 3/4 \right)  \right)",
            Kind.NUMERIC,
            TolClass.MED,
            atan4,
            "ln2 + 4*loggamma(3/4) + (1/2)*ln(3) - 2*ln(pi) + catalan/pi",
        ),
        _mk(
            "Actv2",
            "B",
            r"\arctan \left( v/2 \right) =\arctan \left( v \right) -\arctan \left( {\frac {v}{{v}^{2}+2}} \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "arctan(v/2)",
            "arctan(v) - arctan(v/(v^2+2))",
            grid={"v": (0.3, 1, 2.7)},
        ),
        _mk(
            "Actv3",
            "B",
            r"\arctan \left( v \right) =2\,\arctan \left( v/2 \right) -\arctan \left( {\frac {{v}^{3}}{3\,{v}^{2}+4}} \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "arctan(v)",
            "2*arctan(v/2) - arctan(v^3/(3*v^2+4))",
            grid={"v": (0.3, 1, 2.7)},
        ),
        _mk(
            "AtanId1",
            "B",
            r"=3\,\ln  \left( \pi \right) -6\,\ln  \left( \Gamma \left( 3/4 \right)  \right)",
            Kind.NUMERIC,
            TolClass.MED,
            "integral[v]{ v*arctan(v/(v^2+2))/cosh(pi*v) }",
            "3*ln(pi) - 6*loggamma(3/4) - (3/2)*ln2 - ln(3)/2 - 2*catalan/pi",
        ),
        _mk(
            "AtanId2",
            "B",
            r"=10\,\ln  \left( \Gamma \left( 3/4 \right)  \right)",
            Kind.NUMERIC,
            TolClass.MED,
            "integral[v]{ v*arctan(v^3/(3*v^2+4))/cosh(pi*v) }",
            "10*loggamma(3/4) + (5/2)*ln2 - 5*ln(pi) + 3*catalan/pi + ln(3)",
        ),
        _mk(
            "Cn1",
            "B",
            r"\frac{a^3}{8}\ln  \left( {\frac {\Gamma \left( q \right) }{\Gamma \left( q+1/2 \right) }} \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^3*arctan(2*v/a)/cosh(pi*v) }",
            "(a^3/8)*ln(gammafn(q)/gammafn(q+1/2)) - (3*a^2/2)*S_ds(-1, q)"
            " + 6*a*S_ds(-2, q) - 8*S_ds(-3, q)",
            grid={"a": (1, 2, 4)},
        ),
        _mk(
            "N1a1",
            "B",
            r"=3/2\,\left(\zeta^{\prime} \left(-1 \right)-\zeta^{\prime} \left(-1,1/2 \right)\right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            cubic1,
            "(3/2)*(zetap(-1) - hzeta_ds(-1, 1/2)) + 6*hzeta_ds(-2, 1/2)"
            " - 6*zetap(-2) - 8*hzeta_ds(-3, 1/2) + 8*zetap(-3) + ln(pi)/16",
        ),
        _mk(
            "N1a1f",
            "B",
            r"={\frac {13\,\ln  \left( 2 \right) }{240}}-9\,\ln  \left( A \right)/4",
            Kind.NUMERIC,
            TolClass.MED,
            cubic1,
            "13*ln2/240 - 9*ln_glaisher/4 + ln(pi)/16 + 15*zetap(-3)"
            " + 3/16 + 21*hzeta(3, 1)/(8*pi^2)",
        ),
        _mk(
            "N1a2",
            "B",
            r"-7/4\,\ln  \left( 2 \right) +\ln  \left( {\frac { 2 \sqrt{\,2}\left( \Gamma \left( 3/4 \right)  \right) ^{2}}{\pi}} \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            cubic2,
            "6*(hzeta_ds(-1, 1/4) - hzeta_ds(-1, 3/4))"
            " + 8*(hzeta_ds(-3, 1/4) - hzeta_ds(-3, 3/4))"
            " - 12*(hzeta_ds(-2, 1/4) - hzeta_ds(-2, 3/4))"
            " - (7/4)*ln2 + ln(2*sqrt(2)*gammafn(3/4)^2/pi)",
        ),
        _mk(
            "N1a1b",
            "B",
            r"+{ {7\,\ln  \left( 2 \right) }/{8}}-5\ln  \left( \pi \right)/8 +3\gamma/8",
            Kind.NUMERIC,
            TolClass.MED,
            cubic2,
            "2*loggamma(3/4) + 7*ln2/8 - 5*ln(pi)/8 + 3*euler_gamma/8 - 9/16"
            " + 3*catalan/pi + (45*ln2*hzeta(3, 1)/2 + 21*zetap(3)/2"
            " - 3*hzeta_ds(3, 1/4)/8 - 6*betadir(4))/pi^3",
        ),
        _mk(
            "Cor4",
            "B",
            r"-\frac{a\, \eta^{\prime}(1,2q)}{4}+\frac{\Gamma \left( 2\,n+2 \right)}{2}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "a*integral[v]{ v^(2*n+1)*arctan(2*v/a)/((a^2+4*v^2)*cosh(pi*v)) }"
            " - integral[v]{ v^(2*n+2)*ln(a^2+4*v^2)/((a^2+4*v^2)*cosh(pi*v)) }",
            "(-a^2/4)^n*( a*ln2*(digamma(q+1/2) - digamma(q))/8"
            " - a*eta_ds(1, 2*q)/4 + (fact(2*n+1)/2)*("
            " sum[j = 0, 2*n]{ S_ds(-j, q)*(-4/a)^j/(fact(j+1)*fact(2*n-j)) }"
            " - ln2*sum[j = 0, 2*n]{ eulerpoly(j, 2*q)*(-2/a)^j"
            "/(fact(j+1)*fact(2*n-j)) } ) )",
            grid={"n": (0, 1), "a": (1, 2)},
        ),
        _mk(
            "C4an0",
            "B",
            r"+a/4\,\sum _{j=0}^{\infty }{\frac { \left( -1 \right) ^{j}\ln  \left( j+2\,q \right) }{j+2\,q}}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "a*integral[v]{ v*arctan(2*v/a)/((a^2+4*v^2)*cosh(pi*v)) }"
            " - integral[v]{ v^2*ln(a^2+4*v^2)/((a^2+4*v^2)*cosh(pi*v)) }",
            "a*ln2*(digamma(q+1/2) - digamma(q))/8 - (a/4)*eta_ds(1, 2*q)"
            " + (loggamma(q) - loggamma(q+1/2) - ln2)/2",
            grid={"a": (1, 2, 4)},
        ),
        _mk(
            "C4n0a1",
            "B",
            r"=\frac{1}{4}\left(\frac{3}{2}  \ln^{2}  \left( 2 \right) -\gamma\ln  \left( 2 \right) +\ln  \left( \pi/4 \right)\right)",
            Kind.NUMERIC,
            TolClass.MED,
            "integral[v]{ v*arctan(2*v)/((4*v^2+1)*cosh(pi*v)) }"
            " - integral[v]{ v^2*ln(4*v^2+1)/((4*v^2+1)*cosh(pi*v)) }",
            "(1/4)*((3/2)*ln2^2 - euler_gamma*ln2 + ln(pi/4))",
        ),
        _mk(
            "C4n0a2",
            "B",
            r"=4\,\sum _{j=0}^{\infty }{\frac { \left( -1 \right) ^{j}\ln  \left( 2\,j+3 \right) }{2\,j+3}}+\pi\,\ln  \left( 2 \right)",
            Kind.NUMERIC,
            TolClass.MED,
            "2*integral[v]{ v*arctan(v)/((v^2+1)*cosh(pi*v)) }"
            " - integral[v]{ v^2*ln(v^2+1)/((v^2+1)*cosh(pi*v)) }",
            "4*((ln2/2)*eta(1, 3/2) - (1/2)*eta_ds(1, 3/2)) + pi*ln2"
            " + 4*loggamma(3/4) - 2*ln(2*pi)",
            notes="odd-denominator log series rewritten through eta at 3/2",
        ),
        _mk(
            "C4n0a4",
            "B",
            r"=8\,\sum _{m=0}^{\infty }{\frac { \left( -1 \right) ^{m}\ln  \left( 2\,m+5 \right) }{2\,m+5}}",
            Kind.NUMERIC,
            TolClass.MED,
            "4*integral[v]{ v*arctan(v/2)/((v^2+4)*cosh(pi*v)) }"
            " - integral[v]{ v^2*ln(v^2+4)/((v^2+4)*cosh(pi*v)) }",
            "8*((ln2/2)*eta(1, 5/2) - (1/2)*eta_ds(1, 5/2)) - 2*pi*ln2"
            " - 4*loggamma(3/4) + 16*ln2/3 + 2*ln(pi/3)",
        ),
        _mk(
            "Lint5",
            "B",
            r"2 ^{1-2\,n}\mathcal{E} \left( 2\,n \right) \ln  \left( 2 \right)- {2}^{2\,n+1}\,S^{\prime}(-2n,q)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(2*n)*ln(a^2+4*v^2)/cosh(pi*v) }",
            "(-1)^n*( 2^(1-2*n)*eulernum(2*n)*ln2 - 2^(2*n+1)*S_ds(-2*n, q)"
            " - 2*(a/2)^(2*n)*fact(2*n)"
            "*sum[j = 0, 2*n-1]{ (-4/a)^j*S_ds(-j, q)/(fact(2*n-j)*fact(j)) } )",
            grid={"n": (0, 1, 2), "a": (1, 2, 4)},
        ),
        _mk(
            "C4n0",
            "B",
            r"=2\,\ln  \left( 2 \right) -2\,\ln  \left( \Gamma \left( q \right)  \right)",
            Kind.NUMERIC,
            TolClass.MED,
            "integral[v]{ ln(a^2+4*v^2)/cosh(pi*v) }",
            "2*ln2 - 2*loggamma(q) + 2*loggamma(q+1/2)",
            grid={"a": (1, 2, 4)},
        ),
        _mk(
            "C4n1",
            "B",
            r"-4a\,S^{\prime} \left( -1,q \right) +8\,S^{\prime} \left( -2,q \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^2*ln(a^2+4*v^2)/cosh(pi*v) }",
            "(a^2/2)*(loggamma(q) - loggamma(q+1/2)) - 4*a*S_ds(-1, q)"
            " + 8*S_ds(-2, q) + ln2/2",
            grid={"a": (1, 2, 4)},
        ),
        _mk(
            "C4n1a0",
            "B",
            r"=\ln  \left( \pi \right)/4 +2\,\ln  \left( 2 \right)/3 +1/2",
            Kind.NUMERIC,
            TolClass.MED,
            "integral[v]{ v^2*ln(4*v^2+1)/cosh(pi*v) }",
            "ln(pi)/4 + 2*ln2/3 + 1/2 - 6*ln_glaisher + 7*hzeta(3, 1)/(2*pi^2)",
        ),
        _mk(
            "R1",
            "B",
            r"={\frac {23\,\ln  \left( 2 \right) }{40}}+{\frac {93\,\zeta \left( 5 \right) }{2\,{\pi}^{4}}}",
            Kind.NUMERIC,
            TolClass.MED,
            "integral[v]{ v^4*ln(4*v^2+1)/cosh(pi*v) }",
            "23*ln2/40 + 93*hzeta(5, 1)/(2*pi^4) - 60*zetap(-3)"
            " - 21*hzeta(3, 1)/(4*pi^2) - 1/4 + 3*ln_glaisher - ln(pi)/16",
        ),
    ]
    return recs


def _exact_records() -> List[IdentityRecord]:
    """Group C: rational identities checked with exact arithmetic."""
    half = Fraction(1, 2)
    quarters = (half, 1, 2, 3)
    n_small = tuple(range(7))
    n_mid = tuple(range(9))
    recs = [
        _mk(
            "Cor1",
            "C",
            r"={\frac {\mathcal{E} \left( 2\,n \right) }{2\,\Gamma \left( 2\,n+1 \right) {a}^{2\,n-1}}}",
            Kind.EXACT,
            TolClass.EXACT,
            "sum[j = 0, 2*n]{ (-a/2)^(-j)*eulerpoly(j+1, 2*q)"
            "/(fact(j)*fact(2*n-j)) }",
            "eulernum(2*n)/(2*fact(2*n)*a^(2*n-1))",
            grid={"n": n_mid, "a": (half, 1, 2, 3, 4)},
        ),
        _mk(
            "Euid1",
            "C",
            r"{\frac {\mathcal{E} \left( 2\,n \right) }{\Gamma \left( 1+2\,n \right) {a}^{2\,n}}}",
            Kind.EXACT,
            TolClass.EXACT,
            "sum[j = 0, 2*n]{ (-a/2)^(-j)*eulerpoly(j, 2*q)"
            "/(fact(j)*fact(2*n-j)) }",
            "eulernum(2*n)/(fact(2*n)*a^(2*n))",
            grid={"n": n_mid, "a": (half, 1, 2, 3, 4)},
        ),
        _mk(
            "Sx",
            "C",
            r"{\frac {\eta \left( -j,2\,q \right) }{\Gamma \left( 2\,n-j+2 \right) \Gamma \left( j+1 \right) } }=0",
            Kind.EXACT,
            TolClass.EXACT,
            "sum[j = 0, 2*n+1]{ (-2/a)^j*eta(-j, 2*q)"
            "/(fact(2*n+1-j)*fact(j)) }",
            "0",
            grid={"n": n_mid, "a": (Fraction(1, 2), 1, 2, 3, 4)},
        ),
        _mk(
            "SaSum",
            "C",
            r"\left( S \left( j-2\,n-1,q \right) -\frac{a}{4}S \left( j -2\,n,q\right)  \right)",
            Kind.EXACT,
            TolClass.EXACT,
            "sum[j = 0, 2*n]{ (-a/4)^j*(S(j-2*n-1, q) - (a/4)*S(j-2*n, q))"
            "/(fact(2*n-j)*fact(j)) }",
            "0",
            grid={"n": n_small, "a": quarters},
        ),
        _mk(
            "BernSum",
            "C",
            r"{\frac {B \left( j+2,q \right) }{j+2}}-{\frac {B \left( j+2,q+1/2 \right) }{j+2}}",
            Kind.EXACT,
            TolClass.EXACT,
            "sum[j = 0, 2*n]{ ((-a/4)^(2*n-j)/(fact(2*n-j)*fact(j)))"
            "*( bernpoly(j+2, q)/(j+2) - bernpoly(j+2, q+1/2)/(j+2)"
            " - (a/4)*(bernpoly(j+1, q)/(j+1) - bernpoly(j+1, q+1/2)/(j+1)) ) }",
            "0",
            grid={"n": n_small, "a": quarters},
        ),
        _mk(
            "BernId1",
            "C",
            r"=-{\frac {-B \left( 2\,n+1,q-a/4 \right)",
            Kind.EXACT,
            TolClass.EXACT,
            "sum[j = 0, 2*n]{ (-a/4)^(-j)*bernpoly(j+1, q)"
            "/(fact(j+1)*fact(2*n-j)) }",
            "-(-bernpoly(2*n+1, q-a/4) + (-a/4)^(2*n+1))"
            "/(fact(2*n+1)*(-a/4)^(2*n))",
            grid={"n": n_small, "a": quarters},
        ),
        _mk(
            "BernId2",
            "C",
            r"{B} \left( j+2,q+1/2 \right) -{B} \left( j+2,q \right) ={\frac { \left( j+2 \right) \mathcal{E} \left( j+1,2\,q \right)",
            Kind.EXACT,
            TolClass.EXACT,
            "bernpoly(j+2, q+1/2) - bernpoly(j+2, q)",
            "(j+2)*eulerpoly(j+1, 2*q)/2^(j+2)",
            grid={"j": n_mid, "a": quarters},
        ),
        _mk(
            "BernId3a",
            "C",
            r"B \left( 2\,n+1,1/4 \right) =-B \left( 2\,n+1,3/4 \right)",
            Kind.EXACT,
            TolClass.EXACT,
            "bernpoly(2*n+1, 1/4)",
            "-(2*n+1)*eulernum(2*n)/4^(2*n+1)",
            grid={"n": n_mid},
        ),
        _mk(
            "BernId3b",
            "C",
            r"B \left( 2\,n+1,1/4 \right) =-B \left( 2\,n+1,3/4 \right)",
            Kind.EXACT,
            TolClass.EXACT,
            "bernpoly(2*n+1, 3/4)",
            "(2*n+1)*eulernum(2*n)/4^(2*n+1)",
            grid={"n": n_mid},
        ),
        _mk(
            "EuId",
            "C",
            r"\mathcal{E} \left( n,1/2 \right) ={2}^{-n}\mathcal{E} \left( n \right)",
            Kind.EXACT,
            TolClass.EXACT,
            "eulerpoly(n, 1/2)",
            "2^(-n)*eulernum(n)",
            grid={"n": tuple(range(13))},
        ),
        _mk(
            "Ezm1",
            "C",
            r"\mathcal{E}(m,z)=2(z-1)^m-\mathcal{E}(m,z-1)",
            Kind.EXACT,
            TolClass.EXACT,
            "eulerpoly(m, z)",
            "2*(z-1)^m - eulerpoly(m, z-1)",
            grid={"m": n_mid, "z": (half, Fraction(3, 4), 2, Fraction(7, 2))},
        ),
        _mk(
            "EuRecur",
            "C",
            r"=-2\,\sum _{k=1}^{K} \left( -1 \right) ^{k} \left( z-k \right) ^{m}+ \left( -1 \right) ^{K}",
            Kind.EXACT,
            TolClass.EXACT,
            "eulerpoly(m, z)",
            "-2*sum[k = 1, K]{ (-1)^k*(z-k)^m } + (-1)^K*eulerpoly(m, z-K)",
            grid={"m": n_small, "z": (Fraction(3, 2), Fraction(5, 2)), "K": (1, 2, 5)},
        ),
        _mk(
            "ScJ1",
            "C",
            r"{\frac { \left( -1/2 \right) ^{j}{\mathcal{E}} \left( n+j \right) }{\Gamma \left( n+1-j \right) \Gamma \left( j+1 \right)",
            Kind.EXACT,
            TolClass.EXACT,
            "sum[j = 0, n]{ (-1/2)^j*eulernum(n+j)/(fact(n-j)*fact(j)) }",
            "2^(-n)/fact(n)",
            grid={"n": tuple(range(13))},
        ),
        _mk(
            "New3c",
            "C",
            r"\frac {\mathcal{E} \left( 1+n+j \right) }{\Gamma \left( n-j+2 \right) \Gamma \left( j+1 \right)",
            Kind.EXACT,
            TolClass.EXACT,
            "sum[j = 0, 1+n]{ (-1/(2*J))^j*eulernum(1+n+j)"
            "/(fact(n-j+1)*fact(j)) }",
            "2*(-1)^((J+1)/2)/((2*J)^(1+n)*fact(n+1))"
            "*sum[k = 1, (J-1)/2]{ (-1)^k*(J^2-4*k^2)^(1+n) }"
            " - 2^(2+n)*sum[j = 0, 1+n]{ (-1/J)^j/(fact(n-j+1)*fact(j))"
            "*sum[k = 1, J]{ (-1)^k*(k-1/2)^(1+n+j) } }"
            " + (-1)^((J+1)/2)*(J/2)^(1+n)/fact(n+1)",
            grid={"J": (1, 3, 5, 7), "n": n_mid},
        ),
        _mk(
            "New3a",
            "C",
            r"-{\frac { \left( J/4 \right) ^{n} \left( -1 \right) ^{J/2+1/2}}{2\,\Gamma \left( 1+n \right) }}",
            Kind.EXACT,
            TolClass.EXACT,
            "sum[j = 0, n]{ (-1/J)^j*eta(-n-j, J+1/2)/(fact(n-j)*fact(j)) }",
            "-(-1)^((J+1)/2)/((4*J)^n*fact(n))"
            "*sum[k = 1, (J-1)/2]{ (-1)^k*(J^2-4*k^2)^n }"
            " - (J/4)^n*(-1)^((J+1)/2)/(2*fact(n))",
            grid={"J": (1, 3, 5, 7), "n": n_mid},
        ),
        _mk(
            "New1A",
            "C",
            r"-{\frac {{J}^{1+2\,n} \left( -1 \right) ^{J/2+1/2}{2}^{-4\,n-3}}{\Gamma \left( 2+2\,n \right) }}",
            Kind.EXACT,
            TolClass.EXACT,
            "sum[j = 0, 1+2*n]{ (-1/J)^j*eta(-1-2*n-j, J+1/2)"
            "/(fact(2*n+1-j)*fact(j)) }",
            "-2^(-2-4*n)*(-1)^((J+1)/2)/(J^(1+2*n)*fact(2*n+1))"
            "*sum[k = 1, (J-1)/2]{ (-1)^k*(J^2-4*k^2)^(1+2*n) }"
            " - J^(1+2*n)*(-1)^((J+1)/2)*2^(-4*n-3)/fact(2*n+1)",
            grid={"J": (1, 3, 5), "n": tuple(range(5))},
        ),
    ]
    return recs


def _special_value_records() -> List[IdentityRecord]:
    """Group D: closed-form special values of zeta, psi and friends."""
    recs = [
        _mk(
            "Zeta2Bern",
            "D",
            r"\zeta(1-m,q)=-B(m,q)/m",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "hzeta(1-m, q)",
            "-bernpoly(m, q)/m",
            grid={"m": (1, 2, 3, 4, 5, 6), "q": (0.25, 0.75, 1.5)},
        ),
        _mk(
            "EtaMz",
            "D",
            r"\eta(-m,z)=\mathcal{E}(m,z)/2",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "eta(-m, z)",
            "eulerpoly(m, z)/2",
            grid={"m": (0, 1, 2, 3, 4, 5, 6), "z": (0.75, 1.25, 3)},
        ),
        _mk(
            "Lims1",
            "D",
            r"\lim _{s\rightarrow 1}S \left( s,q \right) =\psi \left( q+1/2 \right) -\psi \left( q \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "S(1, q)",
            "digamma(q+1/2) - digamma(q)",
            grid={"q": (0.375, 0.5, 0.75, 1.25)},
        ),
        _mk(
            "Zp0",
            "D",
            r"\zeta^{\prime}(0,q)=\ln(\Gamma(q))-\frac{1}{2}\ln(2\pi)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "hzeta_ds(0, q)",
            "loggamma(q) - ln(2*pi)/2",
            grid={"q": (0.25, 0.5, 1, 2.5)},
        ),
        _mk(
            "Z1m1",
            "D",
            r"=-\gamma/12-\ln  \left( 2\,\pi \right)/12 +1/12+{\frac {\zeta^{\prime} \left(2 \right) }{{2\pi}^{2}}}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "zetap(-1)",
            "-euler_gamma/12 - ln(2*pi)/12 + 1/12 + zetap(2)/(2*pi^2)",
        ),
        _mk(
            "Z1p2",
            "D",
            r"={\pi}^{2} \left( \gamma+\ln  \left( 2\,\pi \right) -12\,\ln  \left( A \right)  \right)/6",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "zetap(2)",
            "pi^2*(euler_gamma + ln(2*pi) - 12*ln_glaisher)/6",
        ),
        _mk(
            "Zdiff",
            "D",
            r"+{\frac {\psi^{\prime} \left( 3/4 \right) }{32\,\pi}}-\pi/32",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "hzeta_ds(-1, 3/4) - hzeta_ds(-1, 1/4)",
            "-catalan/(4*pi) + polygamma(1, 3/4)/(32*pi) - pi/32",
        ),
        _mk(
            "Psi3Q",
            "D",
            r"\psi^{\prime} \left( 3/4 \right) =  \zeta \left(2,3/4 \right) ={\pi}^{2}-8\,G",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "polygamma(1, 3/4)",
            "pi^2 - 8*catalan",
        ),
        _mk(
            "Zm1h",
            "D",
            r"=-\,\ln  \left( 2 \right)/24 -1/24+\ln  \left( A \right)/2",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "hzeta_ds(-1, 1/2)",
            "-ln2/24 - 1/24 + ln_glaisher/2",
        ),
        _mk(
            "Zm2h",
            "D",
            r"={\frac {3\,\zeta \left( 3 \right) }{{16\,\pi}^{2}}}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "hzeta_ds(-2, 1/2)",
            "3*hzeta(3, 1)/(16*pi^2)",
        ),
        _mk(
            "Zm3h",
            "D",
            r"={\frac {\ln  \left( 2 \right) }{960}}-{\frac {7\,\zeta^{\prime} \left( -3 \right) }{8}}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "hzeta_ds(-3, 1/2)",
            "ln2/960 - 7*zetap(-3)/8",
        ),
        _mk(
            "Zpm2",
            "D",
            r"\zeta^{\prime}(-2)=-\zeta(3)/(4\pi^2)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "zetap(-2)",
            "-hzeta(3, 1)/(4*pi^2)",
        ),
        _mk(
            "Zpminus4",
            "D",
            r"\zeta^{\prime} \left(-4 \right) ={\frac {3\,\zeta \left( 5 \right) }{{4\,\pi}^{4}}}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "zetap(-4)",
            "3*hzeta(5, 1)/(4*pi^4)",
        ),
        _mk(
            "Zpm4half",
            "D",
            r"\zeta^{\prime} \left(-4,1/2 \right) =-{\frac {45\,\zeta \left( 5 \right) }{64\,{\pi}^{4}}}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "hzeta_ds(-4, 1/2)",
            "-45*hzeta(5, 1)/(64*pi^4)",
        ),
        _mk(
            "V4mV5",
            "D",
            r"={\frac {\pi}{128}}-{\frac {\psi^{(3)} \left(1/4 \right) }{1024\,{\pi}^{3}}}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "hzeta_ds(-3, 1/4) - hzeta_ds(-3, 3/4)",
            "pi/128 - polygamma(3, 1/4)/(1024*pi^3)",
        ),
        _mk(
            "Rad1",
            "D",
            r"=-\,\ln  \left( \pi \right)/32 -{\frac {3\,\ln  \left( 2 \right) }{32}}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "hzeta_ds(-2, 1/4) - hzeta_ds(-2, 3/4)",
            "-ln(pi)/32 - 3*ln2/32 + 3/64 - euler_gamma/32"
            " + (hzeta_ds(3, 1/4) - hzeta_ds(3, 3/4))/(64*pi^3)",
        ),
        _mk(
            "Mult1",
            "D",
            r"=120\,\ln  \left( 2 \right) \zeta \left( 3 \right) +56\,\zeta^{\prime} \left( 3 \right) -\zeta^{\prime} \left( 3,1/4 \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "hzeta_ds(3, 3/4)",
            "120*ln2*hzeta(3, 1) + 56*zetap(3) - hzeta_ds(3, 1/4)",
        ),
        _mk(
            "TriPsi",
            "D",
            r"\psi^{(3)} \left(1/4 \right)=8\pi^{4}+768\beta(4)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "polygamma(3, 1/4)",
            "8*pi^4 + 768*betadir(4)",
        ),
        _mk(
            "PsiId",
            "D",
            r"= \sqrt{2} \left( \pi-2\,\ln  \left(  \sqrt{2}+1 \right)  \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "digamma(7/8) - digamma(3/8)",
            "sqrt(2)*(pi - 2*ln(sqrt(2)+1))",
        ),
        _mk(
            "zm1",
            "D",
            r"=\zeta^{\prime} \left(-1,q-1/2 \right) + \left( q-1/2 \right) \ln  \left( q-1/2 \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "hzeta_ds(-1, q+1/2)",
            "hzeta_ds(-1, q-1/2) + (q-1/2)*ln(q-1/2)",
            grid={"q": (0.75, 1, 1.25)},
        ),
    ]
    return recs


def _eta_route_records() -> List[IdentityRecord]:
    """Group E: eta/zeta-difference consistency, kept on dual code paths."""
    recs = [
        _mk(
            "SaDef",
            "E",
            r"S \left( s,a \right) \equiv\zeta \left(s,a \right) -\zeta \left( s,a+1/2 \right)=2^s\eta(s,2a)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "hzeta(s, a) - hzeta(s, a+1/2)",
            "2^s*eta(s, 2*a)",
            grid={"s": (0.5, 0.7, 1.3, 1.5), "a": (0.75, 1, 2)},
        ),
        _mk(
            "DefSa",
            "E",
            r"{\frac { \left( -1 \right) ^{j}}{ \left( j+2\,q \right) ^{s}}}={2}^{-s}S \left( s,q \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "eta(s, 2*q)",
            "2^(-s)*(hzeta(s, q) - hzeta(s, q+1/2))",
            grid={"s": (0.6, 1.4), "q": (0.5, 0.75, 1.25)},
        ),
        _mk(
            "Zids",
            "E",
            r"\lim _{s\rightarrow 1}\left( 2\,\ln  \left( 2 \right) S \left( s,q \right) -S^{\prime}   \left( s,q \right)\right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "2*ln2*S(1, q) - S_ds(1, q)",
            "-2*eta_ds(1, 2*q) + ln2*(digamma(q+1/2) - digamma(q))",
            grid={"q": (0.5, 0.75, 1.25)},
        ),
        _mk(
            "Zidd",
            "E",
            r"={2}^{s}\ln  \left( 2 \right) \sum _{j=0}^{\infty }{\frac { \left( -1 \right) ^{j}}{ \left( j+2\,q \right) ^{s}}}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "hzeta_ds(s, q) - hzeta_ds(s, q+1/2)",
            "2^s*(ln2*eta(s, 2*q) + eta_ds(s, 2*q))",
            grid={"s": (0.6, 1.2, 1.5), "q": (0.5, 0.75, 1.25)},
        ),
        _mk(
            "Zaltm1",
            "E",
            r"=\ln  \left( 2 \right)  \left( \ln  \left( 2 \right) -2\,\gamma \right)/2",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "-eta_ds(1, 1)",
            "ln2*(ln2 - 2*euler_gamma)/2",
        ),
    ]
    return recs


def _hypergeometric_records() -> List[IdentityRecord]:
    """Group F: hypergeometric reductions and odd zeta evaluations."""
    recs = [
        _mk(
            "H1",
            "F",
            r"{\mbox{$_2$F$_1$}(1,3/2+j;\,5/2+j;\,-4\,{t}^{2})}={\frac { \left( -1 \right) ^{j+1}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "h2f1_arctan(j, t)",
            "(-1)^(j+1)*(2*j+3)/(4*t^2)^(j+2)"
            "*(2*t*arctan(2*t) + sum[p = 1, j+1]{ (-4*t^2)^p/(2*p-1) })",
            grid={"j": (0, 1, 2), "t": (0.25, 1, 2)},
        ),
        _mk(
            "H2",
            "F",
            r"{\mbox{$_2$F$_1$}(1,k+1;\,2+k;\,-4\,{t}^{2})}=-{\frac {k+1}{ \left( -4\,{t}^{2} \right) ^{k+1}}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "h2f1_log(k, t)",
            "-(k+1)/(-4*t^2)^(k+1)"
            "*(ln(4*t^2+1) + sum[p = 1, k]{ (-4*t^2)^p/p })",
            grid={"k": (0, 1, 2), "t": (0.25, 1, 2)},
        ),
        _mk(
            "Shpot2",
            "F",
            r"\frac {2\,\Gamma \left( 2+m \right) \Gamma \left( m+3/2 \right) }{ \sqrt{\pi}}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "h3f2(m, -4*t^2)",
            "2*gammafn(2+m)*gammafn(m+3/2)/sqrt(pi)"
            "*sum[k = 0, m]{ sum[j = 0, m-1]{ (-1)^(k+j)"
            "/(fact(m-k)*gammafn(m-j)*fact(k)*fact(j))"
            "*( h2f1_arctan(j, t)/((3/2+j)*(k-j-1/2))"
            " + h2f1_log(k, t)/((k+1)*(j-k+1/2)) ) } }",
            grid={"m": (1, 2, 3), "t": (0.25, 0.4)},
        ),
        _mk(
            "Casem1",
            "F",
            r"{\frac {\zeta \left( 3 \right) }{{\pi}^{2}}}=\frac{2}{7}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "hzeta(3, 1)/pi^2",
            "(2/7)*integral[t]{ t^2*ln(4*t^2+1)/cosh(pi*t) }"
            " - (1/14)*integral[t]{ ln(4*t^2+1)/cosh(pi*t) }"
            " + (4/7)*integral[t]{ t*arctan(2*t)/cosh(pi*t) }"
            " - (6/7)*integral[t]{ t^2/cosh(pi*t) } + 3/28",
        ),
        _mk(
            "C2b",
            "F",
            r"{\frac {\zeta \left( 5 \right) }{{\pi}^{4}}}&={\frac {2}{93}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "hzeta(5, 1)/pi^4",
            "(2/93)*integral[t]{ ln(4*t^2+1)*t^4/cosh(pi*t) }"
            " - (1/31)*integral[t]{ ln(4*t^2+1)*t^2/cosh(pi*t) }"
            " + (1/744)*integral[t]{ ln(4*t^2+1)/cosh(pi*t) }"
            " + (8/93)*integral[t]{ arctan(2*t)*t^3/cosh(pi*t) }"
            " - (2/93)*integral[t]{ t*arctan(2*t)/cosh(pi*t) }"
            " - (25/279)*integral[t]{ t^4/cosh(pi*t) }"
            " + (7/186)*integral[t]{ t^2/cosh(pi*t) } + 83/8928",
        ),
        _mk(
            "Cp5a",
            "F",
            r"\left( {2}^{2\,m+1}-1 \right) \zeta \left( 2\,m+1 \right) =A(m)",
            Kind.NUMERIC,
            TolClass.MED,
            "(2^(2*m+1)-1)*hzeta(2*m+1, 1)",
            "2^(3+2*m)*pi^(2*m)/fact(2*m+2)"
            "*integral[t]{ t^(2*m+2)*h3f2(m, -4*t^2)/cosh(pi*t) }"
            " - (-1)^m*pi^(2*m)*sum[j = 0, m]{ eulernum(2*j)"
            "*digamma(1-2*j+2*m)/(fact(2*m-2*j)*fact(2*j)) }",
            grid={"m": (1, 2)},
        ),
    ]
    return recs


def _errata_records() -> List[IdentityRecord]:
    """Group G: corrected published identities plus deliberate-wrong controls."""
    pat17_lhs = (
        "integral[t]{ t^(2*n+1)*cos(s*arctan(t/a))"
        "/((a^2+t^2)^(s/2)*expm1(2*pi*t)) }"
    )
    pat17_sum = (
        "sum[m = 0, 2*n+1]{ (-1)^(m+n)*binom(2*n+1, m)*a^m"
        "*( hzeta(m+s-2*n-1, a) - a^(2*n+1-m-s)/2"
        " - a^(2*n+2-m-s)/(m+s-2*n-2) ) }"
    )
    pat18_lhs = (
        "integral[t]{ t^(2*n+1)*cos(s*arctan(t/a))"
        "/((a^2+t^2)^(s/2)*sinh(pi*t)) }"
    )
    pat18_sum = (
        "sum[m = 0, 2*n+1]{ (-1)^(m+n)*binom(2*n+1, m)*a^m"
        "*( 2^(2-(m+s-2*n-1))*hzeta(m+s-2*n-1, a/2)"
        " - 2*hzeta(m+s-2*n-1, a) ) }"
    )
    eq3p1_lhs = "integral[t]{ t^(s-1)*exp(-a*t)/sinh(t) }"
    recs = [
        _mk(
            "Eq3p1",
            "G",
            r"=2\,\Gamma \left( s \right)  \left( \zeta \left(s,a \right) -{2}^{-s}\zeta \left(s,a/2 \right)  \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            eq3p1_lhs,
            "2*gammafn(s)*(hzeta(s, a) - 2^(-s)*hzeta(s, a/2))",
            grid={"s": (1.5, 2.3), "a": (1, 2)},
            decay=2.0,
        ),
        _mk(
            "Eq3p8",
            "G",
            r"\tanh \left( w/2 \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[t]{ t^(2*n)*sin(s*arctan(t/a))"
            "/((a^2+t^2)^(s/2)*sinh(pi*t)) }",
            "((-1)^n*fact(2*n)/(2*gammafn(s)))"
            "*integral[w]{ laguerre(2*n, s-2*n-1, a*w)*tanh(w/2)"
            "*exp(-a*w)*w^(s-2*n-1) }",
            grid={"n": (0, 1), "s": (2.3,), "a": (1, 2)},
            decay=1.0,
        ),
        _mk(
            "PatkThm2",
            "G",
            r"=-\frac{a^{-s}}{2}\,\delta_{n,0}+\frac{1}{2}\,\sum _{m=0}^{2\,n}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[t]{ t^(2*n)*sin(s*arctan(t/a))"
            "/((a^2+t^2)^(s/2)*sinh(pi*t)) }",
            "-(a^(-s)/2)*kron(n, 0) + (1/2)"
            "*sum[m = 0, 2*n]{ (-1)^(m+n)*binom(2*n, m)*a^m"
            "*( 2^(2-(m+s-2*n))*hzeta(m+s-2*n, a/2)"
            " - 2*hzeta(m+s-2*n, a) ) }",
            grid={"n": (0, 1), "s": (2.3, 3.1), "a": (1, 2)},
        ),
        _mk(
            "PatTheorem3",
            "G",
            r"{a}^{m}P_{{3}} \left( a,m+s-2\,n \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[t]{ t^(2*n)*sin(s*arctan(t/a))"
            "/((a^2+t^2)^(s/2)*(exp(2*pi*t)+1)) }",
            "(1/2)*sum[m = 0, 2*n]{ (-1)^(m+n)*binom(2*n, m)*a^m"
            "*( a^(1-(m+s-2*n))/(m+s-2*n-1) + hzeta(m+s-2*n, a)"
            " - 2^(m+s-2*n)*hzeta(m+s-2*n, 2*a) ) }",
            grid={"n": (0, 1), "s": (2.3, 3.1), "a": (1, 2)},
            decay=2.0 * math.pi,
        ),
        _mk(
            "PatT3alt",
            "G",
            r"{{\rm e}^{-\pi\,t}}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[t]{ t^(2*n)*sin(s*arctan(t/a))"
            "/((a^2+t^2)^(s/2)*(exp(2*pi*t)+1)) }",
            "(1/2)*integral[t]{ t^(2*n)*sin(s*arctan(t/a))*exp(-pi*t)"
            "/((a^2+t^2)^(s/2)*cosh(pi*t)) }",
            grid={"n": (0, 1), "s": (2.3,), "a": (1, 2)},
            decay=2.0 * math.pi,
        ),
        _mk(
            "PatkEq3p10",
            "G",
            r"=\frac{\pi}{2\,\beta\, \cosh \left( {\displaystyle \frac {\pi\,w}{2\,\beta}} \right)  }",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[t]{ cos(w*t)/cosh(b*t) }",
            "pi/(2*b*cosh(pi*w/(2*b)))",
            grid={"w": (1, 2), "b": (1, 2)},
            decay=1.0,
        ),
        _mk(
            "Pat3p17",
            "G",
            r"=-\frac{1}{2}\sum _{m=0}^{2\,n+1} \left( -1 \right) ^{m+n}\binom{2\,n+1}{ m}{a}^{m}{\it P}_{1}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            pat17_lhs,
            "-(1/2)*" + pat17_sum,
            grid={"n": (0, 1), "s": (2.3, 3.1), "a": (1, 2)},
            decay=2.0 * math.pi,
        ),
        _mk(
            "Patk3p18",
            "G",
            r"=-\frac{1}{2}\,\sum _{m=0}^{2\,n+1} \left( -1 \right) ^{m+n}\binom{2\,n+1}{m}{a}^{m}{\it P}_{2}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            pat18_lhs,
            "-(1/2)*" + pat18_sum,
            grid={"n": (0, 1), "s": (2.3, 3.1), "a": (1, 2)},
        ),
        _mk(
            "Eq3p1Ctl",
            "G",
            r"=2\,\Gamma \left( s \right)  \left( \zeta \left(s,a \right) -{2}^{-s}\zeta \left(s,a/2 \right)  \right)",
            Kind.NEGATIVE_CONTROL,
            TolClass.MED,
            eq3p1_lhs,
            "gammafn(s)*(hzeta(s, a) - 2^(-s)*hzeta(s, a/2))",
            grid={"s": (1.5,), "a": (1,)},
            decay=2.0,
            notes="variant of Eq3p1 with the leading factor 2 dropped",
        ),
        _mk(
            "Eq3p3Ctl",
            "G",
            r"={2}^{1-2\,s} \Gamma \left( s \right) S(s,q)",
            Kind.NEGATIVE_CONTROL,
            TolClass.MED,
            "integral[v]{ v^(s-1)*exp(-a*v)/cosh(v) }",
            "2^(-2*s)*gammafn(s)*S(s, q)",
            grid={"s": (0.5,), "a": (1,)},
            decay=2.0,
            notes="variant of Eq3p3 with the leading factor 2 dropped",
        ),
        _mk(
            "Pat3p17Ctl",
            "G",
            r"=-\frac{1}{2}\sum _{m=0}^{2\,n+1} \left( -1 \right) ^{m+n}\binom{2\,n+1}{ m}{a}^{m}{\it P}_{1}",
            Kind.NEGATIVE_CONTROL,
            TolClass.MED,
            pat17_lhs,
            "(1/2)*" + pat17_sum,
            grid={"n": (0,), "s": (2.3,), "a": (1,)},
            decay=2.0 * math.pi,
            notes="sign-flipped variant of Pat3p17",
        ),
        _mk(
            "Patk3p18Ctl",
            "G",
            r"=-\frac{1}{2}\,\sum _{m=0}^{2\,n+1} \left( -1 \right) ^{m+n}\binom{2\,n+1}{m}{a}^{m}{\it P}_{2}",
            Kind.NEGATIVE_CONTROL,
            TolClass.MED,
            pat18_lhs,
            "(1/2)*" + pat18_sum,
            grid={"n": (0,), "s": (2.3,), "a": (1,)},
            notes="sign-flipped variant of Patk3p18",
        ),
    ]
    return recs


def _laplace_kernel_records() -> List[IdentityRecord]:
    """Group H: Laplace-type kernels, quarter-argument gamma data."""
    jbar = "integral[w]{ w^s*exp(-a*w)*loggamma_q4(w) }"
    jbar_down = "integral[w]{ w^(s-1)*exp(-a*w)*loggamma_q4(w) }"
    recs = [
        _mk(
            "Jensen",
            "H",
            r"\zeta \left( s \right) ={2}^{s}\int_{0}^{\infty }",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "hzeta(s, 1)",
            "2^s*integral[t]{ tanh(pi*t)*sin(s*arctan(2*t))/(4*t^2+1)^(s/2) }",
            grid={"s": (6, 8)},
            decay=0.0,
            p_max=-5,
            vmax=200.0,
            notes="sinh/cosh ratio written as tanh; algebraic tail envelope",
        ),
        _mk(
            "Hermite",
            "H",
            r"=1/(2{a}^{s})+{\frac {{a}^{-s+1}}{s-1}}+2\,",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "hzeta(s, a)",
            "1/(2*a^s) + a^(1-s)/(s-1)"
            " + 2*integral[t]{ sin(s*arctan(t/a))"
            "/((a^2+t^2)^(s/2)*expm1(2*pi*t)) }",
            grid={"s": (-1.5, 0.5, 2.3, 4), "a": (1, 2.5)},
            decay=2.0 * math.pi,
        ),
        _mk(
            "Laguerre",
            "H",
            r"{\it L} \left( 2\,n,s-2\,n-1,aw \right){{\rm e}^{-aw}}",
            Kind.NUMERIC,
            TolClass.MED,
            "integral[t]{ t^(2*n)*sin(w*t)*sin(s*arctan(t/a))"
            "/(a^2+t^2)^(s/2) }",
            "(-1)^n*pi*fact(2*n)*laguerre(2*n, s-2*n-1, a*w)*exp(-a*w)"
            "/(2*gammafn(s)*w^(2*n+1-s))",
            grid={"n": (0, 1), "s": (6, 8), "w": (1,), "a": (1, 2)},
            decay=0.0,
            p_max=-4,
            vmax=200.0,
        ),
        _mk(
            "Jid",
            "H",
            r"{\frac { \left( -a \right) ^{j}J \left( j+s-2\,n-1 \right) }",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(2*n-1)*sin(s*arctan(v/a))"
            "/((a^2+v^2)^(s/2)*cosh(pi*v/2)) }",
            "2*(-1)^n*fact(2*n)*sum[j = 0, 2*n]{ (-a)^j"
            "*integral[w]{ w^(j+s-2*n-1)*exp(-a*w)*arctan(tanh(w/2)) }"
            "/(fact(2*n-j)*gammafn(j+s-2*n)*fact(j)) }",
            grid={"n": (0, 1), "s": (2.3, 3.6), "a": (1, 2)},
            decay=1.0,
        ),
        _mk(
            "JgRecur",
            "H",
            r"J \left( s \right) ={\frac {sJ \left(s -1 \right) }{a}}",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[w]{ w^s*exp(-a*w)*arctan(tanh(w/2)) }",
            "(s/a)*integral[w]{ w^(s-1)*exp(-a*w)*arctan(tanh(w/2)) }"
            " + 2^(-1-2*s)*gammafn(1+s)*S(1+s, q)/(2*a)",
            grid={"s": (1.5, 2.5), "a": (1, 2)},
            decay=1.0,
        ),
        _mk(
            "T4a",
            "H",
            r"{2}^{2\,n-s} \left( \frac{a}{2} \right) ^{2\,n}\sum _{j=0}^{2\,n}{\frac {\left( -2/a \right) ^{j}\eta \left( s-j,2\,q \right) }",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(2*n-1)*sin(s*arctan(v/a))"
            "/((a^2+v^2)^(s/2)*cosh(pi*v/2)) }",
            "(2*(-1)^n*fact(2*n)/a)*( sum[j = 0, 2*n]{ (-a)^j"
            "*integral[w]{ w^(-2+j+s-2*n)*exp(-a*w)*arctan(tanh(w/2)) }"
            "/(fact(2*n-j)*gammafn(j+s-2*n-1)*fact(j)) }"
            " + 2^(2*n-s)*(a/2)^(2*n)"
            "*sum[j = 0, 2*n]{ (-2/a)^j*eta(s-j, 2*q)"
            "/(fact(2*n-j)*fact(j)) } )",
            grid={"n": (0,), "s": (1.8, 2.6), "a": (1, 2)},
            decay=1.0,
        ),
        _mk(
            "T4A",
            "H",
            r"{v}^{2\,n-1}\sin \left(  \left( s-1 \right) \arctan \left( {\frac {v}{a}} \right)  \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[v]{ v^(2*n-1)*sin((s-1)*arctan(v/a))"
            "/((a^2+v^2)^((s-1)/2)*cosh(pi*v/2)) }",
            "2*(-1)^n*fact(2*n)*sum[j = 0, 2*n]{ (-a)^j"
            "*integral[w]{ w^(-2+j+s-2*n)*exp(-a*w)*arctan(tanh(w/2)) }"
            "/(fact(2*n-j)*gammafn(j+s-2*n-1)*fact(j)) }",
            grid={"n": (1,), "s": (3.6, 4.4), "a": (1, 2)},
            decay=1.0,
        ),
        _mk(
            "Jint1",
            "H",
            r"\left( \zeta \left( 1+s,1+a/4 \right) +\zeta \left(1+s,a/4 \right) -2\,\zeta \left(1+s,1/2+a/4 \right)  \right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[w]{ w^s*tanh(w)*exp(-a*w) }",
            "2^(-2-2*s)*gammafn(1+s)*( hzeta(1+s, 1+a/4) + hzeta(1+s, a/4)"
            " - 2*hzeta(1+s, 1/2+a/4) )",
            grid={"s": (0.5, 1, 2), "a": (1, 2, 4)},
            decay=1.0,
        ),
        _mk(
            "E3",
            "H",
            r"=-\tanh \left( w \right) +{\frac {2}{\pi}\Im \left( \psi \left( {\frac{1}{4}+\frac {iw}{2\pi}} \right)  \right) }",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[x]{ sin(w*x)/cosh(pi*x/2) }",
            "-tanh(w) + (2/pi)*impsi_quarter(w)",
            grid={"w": (0.5, 1, 2, 4)},
            decay=_HALF_PI,
        ),
        _mk(
            "E4a",
            "H",
            r"=-\frac { \left( -1 \right) ^{n}\Gamma \left( 2\,n+1 \right) }{\pi\,\Gamma \left( s \right) }\left(\pi\,J_1(n,s,a)-2\,J_2(n,s,a)\right)",
            Kind.NUMERIC,
            TolClass.TIGHT,
            "integral[t]{ t^(2*n)*sin(s*arctan(t/a))"
            "/((a^2+t^2)^(s/2)*cosh(pi*t/2)) }",
            "-((-1)^n*fact(2*n)/(pi*gammafn(s)))*( pi"
            "*integral[w]{ laguerre(2*n, s-2*n-1, a*w)*w^(s-2*n-1)"
            "*tanh(w)*exp(-a*w) }"
            " - 2*integral[w]{ laguerre(2*n, s-2*n-1, a*w)*w^(s-2*n-1)"
            "*impsi_quarter(w)*exp(-a*w) } )",
            grid={"n": (0,), "s": (1.5, 2.5), "a": (1, 2)},
            decay=1.0,
        ),
        _mk(
            "PsId",
            "H",
            r"={\frac {1}{2\pi}\sum _{k=1}^{\infty }\frac{w}{  \left( k-3/4 \right) ^{2}",
            Kind.NUMERIC,
            TolClass.MED,
            "impsi_quarter(w)",
            "sum[k = 1, 400]{ (w/(2*pi))/((k-3/4)^2 + (w/(2*pi))^2) }"
            " + pi/2 - arctan((400.5 - 3/4)*2*pi/w)",
            grid={"w": (0.5, 2, 4)},
            notes="400-term partial sum with a midpoint-rule tail",
        ),
        _mk(
            "J2Jbar",
            "H",
            r"J_{2}(s,a)=\pi s \overset{-}{J}(s-1,a)-a\overset{-}{J}(s,a)",
            Kind.NUMERIC,
            TolClass.MED,
            "integral[w]{ w^s*impsi_quarter(w)*exp(-a*w) }",
            "pi*( s*" + jbar_down + " - a*" + jbar + " )",
            grid={"s": (1.5,), "a": (2,)},
            decay=2.0,
            notes="both terms carry the same pi prefactor",
        ),
    ]
    return recs


@lru_cache(maxsize=1)
def builtin_identities() -> Tuple[IdentityRecord, ...]:
    """The built-in records, deterministically ordered by group."""
    records = (
        *_sech_kernel_records(),
        *_arctan_log_records(),
        *_exact_records(),
        *_special_value_records(),
        *_eta_route_records(),
        *_hypergeometric_records(),
        *_errata_records(),
        *_laplace_kernel_records(),
    )
    seen: Dict[str, str] = {}
    for rec in records:
        if rec.id in seen:
            raise CatalogError(f"duplicate identity id {rec.id!r}")
        seen[rec.id] = rec.group
    return records


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
    items: List[Tuple[str, Tuple[GridValue, ...]]] = []
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
        items.append((name, values))
    return tuple(items)


def _format_quad(rec: IdentityRecord) -> str:
    vmax = "none" if rec.quad_vmax is None else repr(float(rec.quad_vmax))
    return (
        f"decay={rec.quad_decay!r} vmax={vmax}"
        f" p_max={rec.quad_p_max} scale={rec.quad_scale!r}"
    )


def _parse_quad(text: str, lineno: int) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for token in text.split():
        key, sep, val = token.partition("=")
        if not sep:
            raise CatalogError(f"line {lineno}: bad quad token {token!r}")
        try:
            if key == "decay":
                out["quad_decay"] = _checked_float(val, zero_ok=True)
            elif key == "vmax":
                out["quad_vmax"] = None if val == "none" else _checked_float(val)
            elif key == "p_max":
                out["quad_p_max"] = int(val)
            elif key == "scale":
                out["quad_scale"] = _checked_float(val)
            else:
                raise CatalogError(f"line {lineno}: unknown quad key {key!r}")
        except ValueError:
            raise CatalogError(f"line {lineno}: bad quad value {token!r}") from None
    return out


def format_catalog(records: Sequence[IdentityRecord]) -> str:
    """Render records as catalog text; parse_catalog inverts this exactly."""
    lines: List[str] = ["# zetasech identity catalog", ""]
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


def parse_catalog(text: str) -> Tuple[IdentityRecord, ...]:
    """Parse catalog text into records, rejecting duplicates and bad fields."""
    records: List[IdentityRecord] = []
    seen: set = set()
    current: Optional[Dict[str, object]] = None

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
        quad = current.get("quad", {})
        assert isinstance(quad, dict)
        try:
            rec = _mk(
                rid,
                str(current["group"]),
                str(current["paper"]),
                kind,
                tol,
                str(current["lhs"]),
                str(current["rhs"]),
                grid=dict(current.get("params", ())),  # type: ignore[arg-type]
                decay=float(quad.get("quad_decay", math.pi)),
                vmax=quad.get("quad_vmax"),  # type: ignore[arg-type]
                p_max=int(quad.get("quad_p_max", 8)),
                scale=float(quad.get("quad_scale", 1.0)),
                floor=float(current.get("floor", 1e-3)),  # type: ignore[arg-type]
                notes=str(current.get("notes", "")),
            )
        except CatalogError as exc:
            raise CatalogError(f"line {lineno}: {exc}") from None
        records.append(rec)

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
            if key in current:
                raise CatalogError(f"line {lineno}: repeated field {key!r}")
            current[key] = value
    flush()
    return tuple(records)
