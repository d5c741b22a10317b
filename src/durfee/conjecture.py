"""Verdicts, identities and counterexample search for Durfee-type bounds.

The classical strong bound mu >= (n+1)! p_g holds for hypersurface cones
but fails once the codimension grows; the replacement has coefficient
C(n, r) from the bounds module, strict for surfaces with r >= 2 where the
asymptotically sharp coefficient drops from 6 to below 36/7.  judge()
compares agreed values of mu and p_g with both bounds in integers only and
returns every per-spec value a report prints, verify() cross-checks mu and
p_g first and judges them, search() walks a degree grid and reports
violations deterministically, trace_ratio() reads mu / p_g off verify()'s
verdicts, and the identity checks pin the exact linear relations between
mu, p_g and the degree product that the verdicts rest on.
"""

from __future__ import annotations

import os
from collections import deque
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice
from math import comb, factorial
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .bounds import balanced_min_product, bound_coefficient, min_product_bound
from .exactmath import falling_factorial
from .invariants import (
    MILNOR_METHODS,
    DegreeSpec,
    agreed_value,
    geometric_genus,
    milnor_number,
)

STRONG_HOLDS = "strong-durfee-holds"
STRONG_VIOLATED = "strong-durfee-violated"
CONJECTURE_HOLDS = "new-conjecture-holds"
CONJECTURE_VIOLATED = "new-conjecture-violated"
IDENTITY_VERIFIED = "identity-verified"
IDENTITY_FAILED = "identity-failed"

SEARCH_MODES = ("equal_degrees", "full_grid")

# The genus routes verify() cross-checks: the distinct ones that are not
# dense in the degrees, unlike series_coeff.
VERIFY_PG_METHODS = ("compositions", "inclusion_exclusion")

# the fixed coefficients of judge(), built once
_TWO, _FOUR, _SIX = Fraction(2), Fraction(4), Fraction(6)


def _versus(mu: int, coeff, pg: int) -> str:
    """mu against coeff * p_g for an int or Fraction coeff, compared in integers."""
    lhs, rhs = mu * coeff.denominator, coeff.numerator * pg
    if lhs < rhs:
        return "<"
    if lhs == rhs:
        return "="
    return ">"


def _curve_holds(spec: DegreeSpec, mu: int, pg: int) -> bool:
    """n = 1: mu + (prod p_i) - 1 equals twice the delta invariant."""
    return mu + spec.degree_product - 1 == 2 * pg


class VerdictReport(NamedTuple):
    """Exact verdict for one degree spec.

    The applicable bound for the given dimension drives `classification`;
    the strong coefficient (n+1)! and the limiting coefficient C(n, r) are
    always evaluated alongside it.  Comparisons are exact rational
    comparisons of mu against coefficient * p_g, never floating point.
    `coefficient_value` is C(n, r) * p_g; `chi` is (-1)^n mu + 1.
    """

    spec: DegreeSpec
    mu: int
    pg: int
    bound_name: str
    bound_coefficient: Fraction
    bound_value: Fraction
    strict: bool
    comparison: str
    classification: str
    strong_value: Fraction
    strong_comparison: str
    strong_classification: str
    coefficient_ratio: Fraction
    coefficient_comparison: str
    coefficient_value: Fraction
    chi: int


class Violation(NamedTuple):
    verdict: VerdictReport
    kinds: tuple[str, ...]


class SearchResult(NamedTuple):
    """Deterministic outcome of a grid search.

    Violations are ordered lexicographically by (degree sum, degrees);
    `minimal` is the first violation in that order, or None.
    """

    n: int
    r: int
    p_min: int
    p_max: int
    mode: str
    scanned: int
    violations: tuple[Violation, ...]
    minimal: Optional[Violation]


class TracePoint(NamedTuple):
    p: int
    mu: int
    pg: int
    ratio: Optional[Fraction]
    coefficient: Fraction
    deviation: Optional[Fraction]
    included: bool


def verify(spec: DegreeSpec) -> VerdictReport:
    """Evaluate one spec against the applicable bound, cross-checked.

    mu and p_g are each computed by the routes in MILNOR_METHODS and
    VERIFY_PG_METHODS, which must agree, and then judged.
    """
    mu = agreed_value(spec, MILNOR_METHODS, milnor_number, "milnor")
    pg = agreed_value(spec, VERIFY_PG_METHODS, geometric_genus, "genus")
    return judge(spec, mu, pg)


def judge(spec: DegreeSpec, mu: int, pg: int) -> VerdictReport:
    """The verdict for one spec, given its already cross-checked mu and p_g.

    Each comparison of mu against coefficient * p_g is made in integers, by
    _versus(); only the reported values are Fractions.
    """
    n, r = spec.n, spec.r
    ratio = bound_coefficient(n, r)
    if n == 1:
        name, coeff, strict = "curve-identity", _TWO, False
    elif n == 2:
        name, coeff, strict = "new-conjecture", _SIX if r == 1 else _FOUR, r > 1
    else:
        name, coeff, strict = "new-conjecture", ratio, False
    comparison = _versus(mu, coeff, pg)
    if n == 1:
        holds = _curve_holds(spec, mu, pg)
        classification = IDENTITY_VERIFIED if holds else IDENTITY_FAILED
    else:
        holds = comparison == ">" or (not strict and comparison == "=")
        classification = CONJECTURE_HOLDS if holds else CONJECTURE_VIOLATED
    strong = factorial(n + 1)
    strong_comparison = _versus(mu, strong, pg)
    return VerdictReport(
        spec=spec,
        mu=mu,
        pg=pg,
        bound_name=name,
        bound_coefficient=coeff,
        bound_value=Fraction(coeff.numerator * pg, coeff.denominator),
        strict=strict,
        comparison=comparison,
        classification=classification,
        strong_value=Fraction(strong * pg),
        strong_comparison=strong_comparison,
        strong_classification=(
            STRONG_VIOLATED if strong_comparison == "<" else STRONG_HOLDS
        ),
        coefficient_ratio=ratio,
        coefficient_comparison=_versus(mu, ratio, pg),
        coefficient_value=Fraction(ratio.numerator * pg, ratio.denominator),
        chi=(-1) ** n * mu + 1,
    )


def curve_identity(spec: DegreeSpec) -> bool:
    """n = 1: mu + (prod p_i) - 1 equals twice the delta invariant."""
    if spec.n != 1:
        raise ValueError("curve identity needs n = 1")
    return _curve_holds(spec, milnor_number(spec), geometric_genus(spec))


def surface_excess(spec: DegreeSpec) -> Fraction:
    """The exact excess term E in the n = 2 identity; sign varies with degrees."""
    if spec.n != 2:
        raise ValueError("surface excess needs n = 2")
    r, degrees = spec.r, spec.degrees
    spread = sum(
        (a - b) ** 2 for a, b in combinations(degrees, 2)
    )
    return (
        Fraction(r - 1, 3 * r + 1) * sum(p - 1 for p in degrees)
        - Fraction(spread, 3 * r + 1)
        - 1
    )


def surface_identity(spec: DegreeSpec) -> bool:
    """n = 2: mu + P*E + 1 equals C(2, r) * p_g exactly."""
    if spec.n != 2:
        raise ValueError("surface identity needs n = 2")
    mu = milnor_number(spec)
    pg = geometric_genus(spec)
    lhs = mu + spec.degree_product * surface_excess(spec) + 1
    return lhs == bound_coefficient(2, spec.r) * pg


def hypersurface_identity(n: int, p: int) -> bool:
    """r = 1: mu - (n+1)! p_g equals (p-1)^(n+1) - p(p-1)..(p-n).

    The difference is non-negative for n >= 2, which gives the factorial
    bound in that range.  For n = 1 it equals 1 - p < 0 instead (curves
    obey the two-sided relation checked by curve_identity), so only the
    exact value is required there.
    """
    if n < 1 or p < 2:
        raise ValueError("expected n >= 1 and p >= 2")
    spec = DegreeSpec(n, (p,))
    mu = milnor_number(spec)
    pg = geometric_genus(spec)
    gap = (p - 1) ** (n + 1) - falling_factorial(p, n + 1)
    if mu - factorial(n + 1) * pg != gap:
        return False
    return gap >= 0 if n >= 2 else gap == 1 - p


def min_product_inequality(spec: DegreeSpec) -> bool:
    """The composition product bound: mu >= min(prod (k_i+1)!) p_g >= 2^n p_g.

    When n > r the strictly better balanced bound must hold strictly as
    well; for n <= r there is nothing extra to check.
    """
    if spec.n < 2:
        raise ValueError("product bound needs n >= 2")
    n, r = spec.n, spec.r
    mu = milnor_number(spec)
    pg = geometric_genus(spec)
    m = min_product_bound(n, r)
    ok = mu >= m * pg and m * pg >= 2**n * pg
    if n > r:
        ok = ok and mu > balanced_min_product(n, r) * pg
    return ok


def degree_grid(r: int, p_min: int, p_max: int) -> Iterator[tuple[int, ...]]:
    """All non-decreasing degree vectors of length r with entries in range.

    Non-decreasing is enough: the invariants are symmetric in the degrees.
    """
    if r < 1:
        raise ValueError("expected r >= 1")
    if not 2 <= p_min <= p_max:
        raise ValueError("expected 2 <= p_min <= p_max")
    return combinations_with_replacement(range(p_min, p_max + 1), r)


def _violations(specs: Iterable[DegreeSpec]) -> list[Violation]:
    """verify() over specs, keeping the verdicts that violate a bound, in order."""
    violations = []
    for verdict in map(verify, specs):
        kinds = ()
        if verdict.strong_classification == STRONG_VIOLATED:
            kinds += ("strong-durfee",)
        if verdict.spec.n == 2 and verdict.coefficient_comparison == "<":
            kinds += ("coefficient-bound",)
        if kinds:
            violations.append(Violation(verdict=verdict, kinds=kinds))
    return violations


def _pooled_violations(pool, specs: Iterator[DegreeSpec], chunk: int, window: int):
    """_violations() over specs on the pool, in order, with at most window tasks in flight."""
    pending = deque()
    for batch in iter(lambda: list(islice(specs, chunk)), []):
        if len(pending) == window:
            yield from pending.popleft().result()
        pending.append(pool.submit(_violations, batch))
    while pending:
        yield from pending.popleft().result()


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sort_key(violation: Violation):
    degrees = violation.verdict.spec.degrees
    return (sum(degrees), degrees)


def search(
    n: int,
    r: int,
    p_min: int,
    p_max: int,
    mode: str = "equal_degrees",
    jobs: int = 1,
) -> SearchResult:
    """Scan a degree grid for bound violations, deterministically.

    Reports every strong-Durfee violation (mu < (n+1)! p_g) and, for
    surfaces, every violation of mu >= C(2, r) p_g.  The outcome does not
    depend on jobs: workers verify their specs and send back only the
    violations, which are merged in grid order.  The pool never has more
    workers than there are specs or CPUs this process may use, and with
    one worker the scan runs in process.
    """
    if n < 1 or r < 1:
        raise ValueError("expected n >= 1 and r >= 1")
    if not 2 <= p_min <= p_max:
        raise ValueError("expected 2 <= p_min <= p_max")
    if mode not in SEARCH_MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {SEARCH_MODES}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")

    if mode == "equal_degrees":
        scanned = p_max - p_min + 1
        specs = (DegreeSpec(n, (p,) * r) for p in range(p_min, p_max + 1))
    else:
        scanned = comb(p_max - p_min + r, r)
        specs = (DegreeSpec(n, degrees) for degrees in degree_grid(r, p_min, p_max))

    workers = min(jobs, _usable_cpus(), scanned)
    if workers == 1:
        violations = _violations(specs)
    else:
        from concurrent.futures import ProcessPoolExecutor  # heavy, so only here
        # at most 256 specs a task and two tasks a worker in flight
        chunk = min(max(1, scanned // (4 * workers)), 256)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            violations = list(_pooled_violations(pool, specs, chunk, 2 * workers))

    violations.sort(key=_sort_key)
    return SearchResult(
        n=n,
        r=r,
        p_min=p_min,
        p_max=p_max,
        mode=mode,
        scanned=scanned,
        violations=tuple(violations),
        minimal=violations[0] if violations else None,
    )


def trace_ratio(n: int, r: int, p_values: Sequence[int]) -> tuple[TracePoint, ...]:
    """mu / p_g against the limiting coefficient along equal degrees.

    Points with p_g = 0 are reported but excluded from ratios.  Each point
    is verify()'s verdict on its spec, so mu and p_g are cross-checked.
    """
    if n < 1 or r < 1:
        raise ValueError("expected n >= 1 and r >= 1")
    points = []
    for p in p_values:
        if p < 2:
            raise ValueError("trace degrees must be >= 2")
        v = verify(DegreeSpec(n, (p,) * r))
        coefficient = v.coefficient_ratio
        ratio = Fraction(v.mu, v.pg) if v.pg else None
        deviation = None if ratio is None else abs(ratio - coefficient)
        points.append(TracePoint(p, v.mu, v.pg, ratio, coefficient, deviation, v.pg != 0))
    return tuple(points)
