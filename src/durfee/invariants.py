"""Milnor number and geometric genus of cones over complete intersections.

The germ is the affine cone over a smooth projective complete intersection
of r generic hypersurfaces of degrees p_1..p_r in P^(N-1), where N = n + r
and n is the dimension of the singularity.  Both invariants admit several
genuinely different exact computations:

  * the Milnor number from an alternating sum of the complete symmetric
    sums h_k(p - 1), built in place in one O(r n) pass over
    prod_i 1 / (1 - (p_i - 1) x), or from the x^n coefficient of the
    rational function (1+x)^N / prod_i (1 + p_i x), which carries the Euler
    characteristic of the Milnor fiber;
  * the geometric genus from a composition sum of binomials, from an
    inclusion-exclusion count of lattice points keyed by signed subset sum,
    from a z-series coefficient of prod_i (1 - z^(p_i)) / (1-z)^(N+1).

Each route is implemented independently so any one can certify another;
agreed_value() runs a set of routes and returns the one value they agree
on, or raises CrossCheckError naming every route's value.

A degree equal to 1 is a hyperplane and does not change the germ, only the
ambient dimension, and every formula here is symmetric in the degrees; so
DegreeSpec drops such entries and sorts the rest when it is built.  A spec
whose degrees are all 1 is a smooth germ and cannot be built.
"""

from __future__ import annotations

from math import comb, prod
from operator import getitem
from typing import Callable, NamedTuple, Sequence

from .exactmath import CrossCheckError, binomial, compositions, unlimited_int_str
from .series import TruncatedSeries

MILNOR_METHODS = ("closed_sum", "series")
GENUS_METHODS = ("compositions", "inclusion_exclusion", "series_coeff")

SMOOTHNESS_NOTE = (
    "values assume a smooth generic complete intersection of the given degrees"
)


class SmoothGermError(ValueError):
    """All degrees equal 1: the cone is a smooth germ, nothing to compute."""


class _DegreeSpecFields(NamedTuple):
    n: int
    degrees: tuple[int, ...]


class DegreeSpec(_DegreeSpecFields):
    """A singularity dimension n together with the hypersurface degrees.

    The degrees are stored in normal form: degree-1 entries (hyperplanes)
    dropped and the rest sorted, so equal germs give equal specs.
    """

    __slots__ = ()

    def __new__(cls, n: int, degrees: Sequence[int]) -> DegreeSpec:
        degrees = tuple(degrees)
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("dimension n must be an integer >= 1")
        if not degrees:
            raise ValueError("at least one degree is required")
        for p in degrees:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError("degrees must be integers >= 1")
        kept = tuple(sorted(p for p in degrees if p != 1))
        if not kept:
            raise SmoothGermError(
                "all degrees equal 1: smooth germ, invariants are not computed"
            )
        return super().__new__(cls, n, kept)

    @classmethod
    def _make(cls, iterable) -> DegreeSpec:  # so _replace() normalises as well
        return cls(*iterable)

    @property
    def r(self) -> int:
        return len(self.degrees)

    @property
    def ambient_dim(self) -> int:
        return self.n + self.r

    @property
    def degree_product(self) -> int:
        return prod(self.degrees)


def _milnor_closed_sum(spec: DegreeSpec) -> int:
    """P sum_j (-1)^j h_(n-j)(p - 1) - (-1)^n, with h the complete symmetric sum.

    h_k(p - 1) is [x^k] prod_i 1 / (1 - (p_i - 1) x); each factor multiplies
    in place on integers, so the whole sum is O(r n).
    """
    n = spec.n
    h = [1] + [0] * n
    for p in spec.degrees:
        for k in range(1, n + 1):
            h[k] += (p - 1) * h[k - 1]
    alternating = 0
    for c in h:
        alternating = c - alternating
    return spec.degree_product * alternating - (-1) ** n


def _chi_series(spec: DegreeSpec) -> int:
    """Euler characteristic of the Milnor fiber, [x^n] (1+x)^N / prod(1 + p x).

    Each division by 1 + p x runs in place on integers; it is exact because
    the constant term is 1.
    """
    c = [comb(spec.ambient_dim, k) for k in range(spec.n + 1)]
    for p in spec.degrees:
        for k in range(1, spec.n + 1):
            c[k] -= p * c[k - 1]
    return spec.degree_product * c[-1]


def _milnor_series(spec: DegreeSpec) -> int:
    chi = _chi_series(spec)
    return chi - 1 if spec.n % 2 == 0 else 1 - chi


def milnor_number(spec: DegreeSpec, method: str = "closed_sum") -> int:
    """Milnor number of the cone singularity, by the chosen route."""
    if method == "closed_sum":
        return _milnor_closed_sum(spec)
    if method == "series":
        return _milnor_series(spec)
    raise ValueError(f"unknown milnor method {method!r}; choose from {MILNOR_METHODS}")


def milnor_fiber_euler(spec: DegreeSpec) -> int:
    """Euler characteristic of the Milnor fiber; equals (-1)^n mu + 1."""
    return _chi_series(spec)


def _genus_compositions(spec: DegreeSpec) -> int:
    # a walk over the compositions on purpose: the kernel form of this sum is
    # the genus route of the benchmark's independent reference
    tables = [[comb(p, k + 1) for k in range(spec.n + 1)] for p in spec.degrees]
    return sum(
        prod(map(getitem, tables, comp)) for comp in compositions(spec.n, spec.r)
    )


def _genus_inclusion_exclusion(spec: DegreeSpec) -> int:
    # signed count of monomials of degree sum(p) - N in N variables, with
    # exponents capped by inclusion-exclusion over the degrees; a subset's
    # term depends only on its sum and the sign of its size, so subsets are
    # counted by sum with the sign carried in the count, and subsets that
    # cancel cost no binomial
    counts = {0: 1}
    for p in spec.degrees:
        grown = dict(counts)
        for subset_sum, count in counts.items():
            grown[subset_sum + p] = grown.get(subset_sum + p, 0) - count
        counts = grown
    N = spec.ambient_dim
    total_degree = sum(spec.degrees)
    return sum(
        count * binomial(total_degree - subset_sum, N)
        for subset_sum, count in counts.items()
        if count
    )


def _genus_series(spec: DegreeSpec) -> int:
    target = sum(spec.degrees) - spec.ambient_dim
    if target < 0:
        return 0
    num = TruncatedSeries([1], target)
    for p in spec.degrees:
        num = num * TruncatedSeries([1] + [0] * (p - 1) + [-1], target)
    binomials = TruncatedSeries([1, -1], target) ** -(spec.ambient_dim + 1)
    c = (num * binomials).coefficient(target)
    if c.denominator != 1:
        raise CrossCheckError(f"genus coefficient for {spec} is not an integer: {c}")
    return c.numerator


def geometric_genus(spec: DegreeSpec, method: str = "compositions") -> int:
    """Geometric genus of the cone singularity (delta invariant when n = 1)."""
    if method == "compositions":
        return _genus_compositions(spec)
    if method == "inclusion_exclusion":
        return _genus_inclusion_exclusion(spec)
    if method == "series_coeff":
        return _genus_series(spec)
    raise ValueError(f"unknown genus method {method!r}; choose from {GENUS_METHODS}")


class InvariantReport(NamedTuple):
    """The invariant values for one spec, agreed on by every route."""

    spec: DegreeSpec
    mu: int
    pg: int


def agreed_value(
    spec: DegreeSpec,
    methods: Sequence[str],
    compute: Callable[[DegreeSpec, str], int],
    label: str,
) -> int:
    """The value every route in methods gives for spec.

    Raises CrossCheckError, naming the spec and every route's value, unless
    they agree.
    """
    values = {m: compute(spec, m) for m in methods}
    if len(set(values.values())) != 1:
        with unlimited_int_str():
            message = f"{label} methods disagree for {spec}: {values}"
        raise CrossCheckError(message)
    return values[methods[0]]


def invariant_report(spec: DegreeSpec) -> InvariantReport:
    """Compute mu and p_g by every route and enforce agreement."""
    return InvariantReport(
        spec=spec,
        mu=agreed_value(spec, MILNOR_METHODS, milnor_number, "milnor"),
        pg=agreed_value(spec, GENUS_METHODS, geometric_genus, "genus"),
    )
