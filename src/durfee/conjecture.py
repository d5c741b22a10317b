"""Verdicts, identities and counterexample search for Durfee-type bounds.

The classical strong bound mu >= (n+1)! p_g holds for hypersurface cones
but fails once the codimension grows; the replacement has coefficient
C(n, r) from the bounds module, strict for surfaces with r >= 2 where the
asymptotically sharp coefficient drops from 6 to below 36/7.  judge()
compares agreed values of mu and p_g with both bounds in integers only and
returns every per-spec value a report prints, verify() judges the mu and
p_g that invariants.agreed_invariants() cross-checks, search() walks a
degree grid by lines (the specs that share all degrees but the last),
cross-checks each line with invariants.agreed_line(), keeps a lean
Violation (spec, mu, p_g, kinds) for each spec that fails an integer
comparison, and reports them deterministically, trace_ratio() reads
mu / p_g off verify()'s verdicts, and the identity checks pin the exact
linear relations between mu, p_g and the degree product that the verdicts
rest on.  No route is named here: the invariants module holds them all.

The verdict constants are integers, so search() never builds a Fraction;
fractions is imported only where a reported value is built.
"""

from __future__ import annotations

import os
from collections import deque, namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, combinations, combinations_with_replacement
from math import comb, factorial, gcd

from .bounds import balanced_min_product, bound_coefficient, bound_ratio, min_product_bound
from .exactmath import falling_factorial
from .invariants import (
    DegreeSpec,
    agreed_invariants,
    agreed_line,
    geometric_genus,
    milnor_number,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from fractions import Fraction

STRONG_HOLDS = "strong-durfee-holds"
STRONG_VIOLATED = "strong-durfee-violated"
CONJECTURE_HOLDS = "new-conjecture-holds"
CONJECTURE_VIOLATED = "new-conjecture-violated"
IDENTITY_VERIFIED = "identity-verified"
IDENTITY_FAILED = "identity-failed"

SEARCH_MODES = ("equal_degrees", "full_grid")

# fractions.Fraction, imported by the first judge() call rather than on
# every one: search() compares in integers, so a search never loads it
_Fraction = None
# judge()'s coefficient Fraction by (n, r), built on first use
_COEFFICIENTS: dict[tuple[int, int], Fraction] = {}


def _order(lhs: int, rhs: int) -> str:
    """"<", "=" or ">" as lhs compares to rhs."""
    if lhs < rhs:
        return "<"
    if lhs == rhs:
        return "="
    return ">"


def _curve_holds(spec: DegreeSpec, mu: int, pg: int) -> bool:
    """n = 1: mu + (prod p_i) - 1 equals twice the delta invariant."""
    return mu + spec.degree_product - 1 == 2 * pg


class VerdictReport(namedtuple("VerdictReport", (
    "spec", "mu", "pg", "bound_name", "bound_coefficient", "bound_value", "strict",
    "comparison", "classification", "strong_value", "strong_comparison",
    "strong_classification", "coefficient_ratio", "coefficient_comparison",
    "coefficient_value", "chi",
))):
    """Exact verdict for one degree spec.

    The applicable bound for the given dimension drives `classification`;
    the strong coefficient (n+1)! and the limiting coefficient C(n, r) are
    always evaluated alongside it.  Comparisons are exact rational
    comparisons of mu against coefficient * p_g, never floating point.
    `coefficient_value` is C(n, r) * p_g; `chi` is (-1)^n mu + 1.  The two
    coefficients and the three values are Fractions.
    """

    __slots__ = ()


class Violation(namedtuple("Violation", ("spec", "mu", "pg", "kinds"))):
    """A spec that violates a bound, with its cross-checked mu and p_g.

    `kinds` names the bounds it violates, "strong-durfee" and, for
    surfaces, "coefficient-bound"; `verdict` is judge()'s full report on
    the spec, built only when it is read.
    """

    __slots__ = ()

    @property
    def verdict(self) -> VerdictReport:
        return judge(self.spec, self.mu, self.pg)


class SearchResult(namedtuple("SearchResult", (
    "n", "r", "p_min", "p_max", "mode", "scanned", "violations", "minimal",
))):
    """Deterministic outcome of a grid search.

    Violations are ordered lexicographically by (degree sum, degrees);
    `minimal` is the first violation in that order, or None.
    """

    __slots__ = ()


class TracePoint(namedtuple("TracePoint", (
    "p", "mu", "pg", "ratio", "coefficient", "deviation", "included",
))):
    """One equal-degree point of a trace: mu / p_g against C(n, r).

    `ratio` and `deviation`, |ratio - coefficient|, are Fractions, or None
    where p_g = 0 and the point is not `included`.
    """

    __slots__ = ()


def verify(spec: DegreeSpec) -> VerdictReport:
    """Evaluate one spec against the applicable bound, cross-checked.

    mu and p_g are each computed by several routes, which must agree
    (agreed_invariants()), and then judged.
    """
    mu, pg = agreed_invariants(spec)
    return judge(spec, mu, pg)


def _bound_terms(n: int, r: int) -> tuple:
    """The verdict constants of one (n, r), which judge(), search() and
    bound_cells() share, all integers: the applicable bound's name,
    coefficient (numerator, denominator) and strictness, C(n, r)
    (numerator, denominator), (n+1)! and (-1)^n."""
    ratio_num, ratio_den = bound_ratio(n, r)
    if n == 1:
        name, coeff_num, coeff_den, strict = "curve-identity", 2, 1, False
    elif n == 2:
        name, coeff_num, coeff_den, strict = "new-conjecture", 6 if r == 1 else 4, 1, r > 1
    else:
        name, coeff_num, coeff_den, strict = "new-conjecture", ratio_num, ratio_den, False
    return (
        name, coeff_num, coeff_den, strict, ratio_num, ratio_den, factorial(n + 1), (-1) ** n,
    )


def _quotient_text(num: int, den: int) -> str:
    """num/den in lowest terms, as str(Fraction(num, den)) writes it; den > 0."""
    common = gcd(num, den)
    num, den = num // common, den // common
    return str(num) if den == 1 else f"{num}/{den}"


def bound_cells(n: int, r: int) -> Callable[[int], tuple[str, str, str]]:
    """The search report's bound cells of one (n, r), as a function of p_g.

    It returns (n+1)! p_g, the applicable bound's value and C(n, r) p_g as
    text, each as str() writes the VerdictReport's strong_value,
    bound_value and coefficient_value, without building a Fraction.  Call
    it where unlimited_int_str() is in force: the cells may be long.
    """
    _, coeff_num, coeff_den, _, ratio_num, ratio_den, strong, _ = _bound_terms(n, r)

    def cells(pg: int) -> tuple[str, str, str]:
        return (
            str(strong * pg),
            _quotient_text(coeff_num * pg, coeff_den),
            _quotient_text(ratio_num * pg, ratio_den),
        )

    return cells


def judge(spec: DegreeSpec, mu: int, pg: int) -> VerdictReport:
    """The verdict for one spec, given its already cross-checked mu and p_g.

    Each comparison of mu against coefficient * p_g is made in integers,
    cross-multiplied by the coefficient's denominator; only the reported
    values are Fractions.
    """
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction

    n, r = spec.n, spec.r
    name, coeff_num, coeff_den, strict, ratio_num, ratio_den, strong, sign = _bound_terms(n, r)
    ratio = bound_coefficient(n, r)
    coeff = _COEFFICIENTS.get((n, r))
    if coeff is None:
        coeff = _COEFFICIENTS[n, r] = ratio if n > 2 else _Fraction(coeff_num)
    comparison = _order(mu * coeff_den, coeff_num * pg)
    if n == 1:
        holds = _curve_holds(spec, mu, pg)
        classification = IDENTITY_VERIFIED if holds else IDENTITY_FAILED
    else:
        holds = comparison == ">" or (not strict and comparison == "=")
        classification = CONJECTURE_HOLDS if holds else CONJECTURE_VIOLATED
    strong_comparison = _order(mu, strong * pg)
    return VerdictReport(
        spec=spec,
        mu=mu,
        pg=pg,
        bound_name=name,
        bound_coefficient=coeff,
        bound_value=_Fraction(coeff_num * pg, coeff_den),
        strict=strict,
        comparison=comparison,
        classification=classification,
        strong_value=_Fraction(strong * pg),
        strong_comparison=strong_comparison,
        strong_classification=(
            STRONG_VIOLATED if strong_comparison == "<" else STRONG_HOLDS
        ),
        coefficient_ratio=ratio,
        coefficient_comparison=_order(mu * ratio_den, ratio_num * pg),
        coefficient_value=_Fraction(ratio_num * pg, ratio_den),
        chi=sign * mu + 1,
    )


def curve_identity(spec: DegreeSpec) -> bool:
    """n = 1: mu + (prod p_i) - 1 equals twice the delta invariant."""
    if spec.n != 1:
        raise ValueError("curve identity needs n = 1")
    return _curve_holds(spec, milnor_number(spec), geometric_genus(spec))


def surface_excess(spec: DegreeSpec) -> Fraction:
    """The exact excess term E in the n = 2 identity; sign varies with degrees."""
    from fractions import Fraction

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


# the most specs one batch of lines holds, in process and on a pool
_BATCH_SPECS = 256


def _lines(r: int, p_min: int, p_max: int, mode: str) -> Iterable[tuple]:
    """The grid as lines, in grid order: (leading degrees, range of the last degree).

    A line holds the specs that share all degrees but the last; _batches()
    cuts the long ones.
    """
    if mode == "equal_degrees":
        return (((p,) * (r - 1), range(p, p + 1)) for p in range(p_min, p_max + 1))
    if r == 1:
        return [((), range(p_min, p_max + 1))]
    return (
        (leading, range(leading[-1], p_max + 1))
        for leading in degree_grid(r - 1, p_min, p_max)
    )


_STRONG = ("strong-durfee",)
_COEFFICIENT = ("coefficient-bound",)


def _line_violations(n: int, r: int, lines: Iterable[tuple]) -> list[Violation]:
    """The violations on the given lines, in grid order.

    agreed_line() folds a line's leading degrees once per route and returns
    the whole line's values in one step, so the lines should be short
    (_batches() cuts them).  A spec's kinds come from two integer
    comparisons, mu < (n+1)! p_g and, for surfaces, mu < C(2, r) p_g.
    """
    surface = n == 2
    strong = None
    violations = []
    for leading, last_degrees in lines:
        mus, pgs = agreed_line(n, r, leading, last_degrees)
        if strong is None:
            # only after the first folds: they fail at once on an n or r too
            # large to compute, where C(n, r) would run for as long as r
            *_, ratio_num, ratio_den, strong, _ = _bound_terms(n, r)
        for p, mu, pg in zip(last_degrees, mus, pgs):
            kinds = _STRONG if mu < strong * pg else ()
            if surface and mu * ratio_den < ratio_num * pg:
                kinds += _COEFFICIENT
            if kinds:
                violations.append(Violation(DegreeSpec._normal(n, leading + (p,)), mu, pg, kinds))
    return violations


def _batches(lines: Iterable[tuple], size: int) -> Iterator[list[tuple]]:
    """The lines in order, cut and grouped into batches of size specs (the last may hold fewer)."""
    batch, room = [], size
    for leading, last_degrees in lines:
        while last_degrees:
            piece = last_degrees[:room]
            batch.append((leading, piece))
            last_degrees = last_degrees[len(piece):]
            room -= len(piece)
            if not room:
                yield batch
                batch, room = [], size
    if batch:
        yield batch


def _pooled_violations(pool, n: int, r: int, batches: Iterator[list], window: int):
    """_line_violations() of each batch on the pool, in order, at most window tasks in flight."""
    pending = deque()
    for batch in batches:
        if len(pending) == window:
            yield from pending.popleft().result()
        pending.append(pool.submit(_line_violations, n, r, batch))
    while pending:
        yield from pending.popleft().result()


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sort_key(violation: Violation):
    degrees = violation.spec.degrees
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
    surfaces, every violation of mu >= C(2, r) p_g, as a Violation that
    holds the spec, mu, p_g and the kinds it violates.  The grid is walked
    by lines; every spec's mu and p_g are cross-checked on the routes
    verify() takes, and its kinds are the integer comparisons behind
    verify()'s strong_comparison and coefficient_comparison; no verdict is
    built.  Lines are cut into batches of at most 256 specs.  The outcome
    does not depend on jobs: workers take the batches and send back only
    the violations, which are merged in grid order.  The pool never has
    more workers than there are specs or CPUs this process may use, and
    with one worker the scan runs in process.
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
    else:
        scanned = comb(p_max - p_min + r, r)
    lines = _lines(r, p_min, p_max, mode)

    workers = min(jobs, _usable_cpus(), scanned)
    if workers == 1:
        violations = _line_violations(n, r, chain.from_iterable(_batches(lines, _BATCH_SPECS)))
    else:
        from concurrent.futures import ProcessPoolExecutor  # heavy, so only here
        # two tasks a worker in flight
        chunk = min(max(1, scanned // (4 * workers)), _BATCH_SPECS)
        batches = _batches(lines, chunk)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            violations = list(_pooled_violations(pool, n, r, batches, 2 * workers))

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
    from fractions import Fraction

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
