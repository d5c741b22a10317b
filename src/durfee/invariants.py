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
on, or raises CrossCheckError naming every route's value.  Every route but
the dense z-series one is a fold over the degrees, split into a prefix step
over all degrees but the last and a last-degree step (MILNOR_STEPS,
GENUS_STEPS): a spec's value is last(prefix(n, r, degrees[:-1]),
degrees[-1]), and a grid search reuses one prefix for a whole line of
specs that differ only in their last degree.

A degree equal to 1 is a hyperplane and does not change the germ, only the
ambient dimension, and every formula here is symmetric in the degrees; so
DegreeSpec drops such entries and sorts the rest when it is built.  A spec
whose degrees are all 1 is a smooth germ and cannot be built.
"""

from __future__ import annotations

from itertools import islice
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

    @classmethod
    def _normal(cls, n: int, degrees: tuple[int, ...]) -> DegreeSpec:
        """The spec of a valid n and degrees already in normal form, unchecked."""
        return tuple.__new__(cls, (n, degrees))

    @property
    def r(self) -> int:
        return len(self.degrees)

    @property
    def ambient_dim(self) -> int:
        return self.n + self.r

    @property
    def degree_product(self) -> int:
        return prod(self.degrees)


# The split routes: no last step mutates its state, so one prefix serves
# every spec of a line.


def _closed_sum_prefix(n: int, r: int, leading: Sequence[int]):
    """h_k(p - 1) for k <= n, [x^k] prod_i 1 / (1 - (p_i - 1) x), and prod p_i.

    Each factor multiplies in place on integers, so the fold is O(r n).
    """
    h = [1] + [0] * n
    for p in leading:
        for k in range(1, n + 1):
            h[k] += (p - 1) * h[k - 1]
    return h, prod(leading)


def _closed_sum_last(state, p: int) -> int:
    """P sum_j (-1)^j h_(n-j)(p - 1) - (-1)^n, one more h step folded in on the way."""
    h, product = state
    hk = alternating = 1
    for c in islice(h, 1, None):
        hk = c + (p - 1) * hk
        alternating = hk - alternating
    return product * p * alternating - (-1) ** (len(h) - 1)


def _series_prefix(n: int, r: int, leading: Sequence[int]):
    """[x^k] (1+x)^N / prod_i (1 + p_i x) for k <= n, and prod p_i.

    Each division by 1 + p x runs in place on integers; it is exact because
    the constant term is 1.
    """
    c = [comb(n + r, k) for k in range(n + 1)]
    for p in leading:
        for k in range(1, n + 1):
            c[k] -= p * c[k - 1]
    return c, prod(leading)


def _chi_last(state, p: int) -> int:
    """Euler characteristic of the Milnor fiber, [x^n] (1+x)^N / prod(1 + p x)."""
    c, product = state
    top = c[0]
    for ck in islice(c, 1, None):
        top = ck - p * top
    return product * p * top


def _series_last(state, p: int) -> int:
    chi = _chi_last(state, p)
    return chi - 1 if len(state[0]) % 2 else 1 - chi


def _compositions_prefix(n: int, r: int, leading: Sequence[int]) -> list[int]:
    """Sum of prod_(i<r) C(p_i, k_i+1) over the compositions k of n, by last part k_r.

    A walk over the compositions on purpose: the kernel form of this sum is
    the genus route of the benchmark's independent reference.
    """
    by_last = [0] * (n + 1)
    tables = [[comb(p, k + 1) for k in range(n + 1)] for p in leading]
    for comp in compositions(n, r):
        # map stops at the shorter: the tables leave out the last part
        by_last[comp[-1]] += prod(map(getitem, tables, comp))
    return by_last


def _compositions_last(by_last: list[int], p: int) -> int:
    return sum(s * comb(p, k + 1) for k, s in enumerate(by_last) if s)


def _inclusion_exclusion_prefix(n: int, r: int, leading: Sequence[int]):
    """The leading degrees' signed subset-sum counts, N and the degree sum so far.

    The genus is a signed count of monomials of degree sum(p) - N in N
    variables, with exponents capped by inclusion-exclusion over the
    degrees; a subset's term depends only on its sum and the sign of its
    size, so subsets are counted by sum with the sign carried in the count.
    """
    counts = {0: 1}
    for p in leading:
        grown = dict(counts)
        for subset_sum, count in counts.items():
            grown[subset_sum + p] = grown.get(subset_sum + p, 0) - count
        counts = grown
    return n + r, sum(leading), counts


def _inclusion_exclusion_last(state, p: int) -> int:
    # with the last degree p a sum s counts counts[s] - counts[s - p], and a
    # sum s + p not in the table counts -counts[s]; sums whose subsets
    # cancel cost no binomial
    N, total, counts = state
    top = total + p
    shifted = counts.get
    value = 0
    for subset_sum, count in counts.items():
        merged = count - shifted(subset_sum - p, 0)
        if merged:
            value += merged * binomial(top - subset_sum, N)
        if count and subset_sum + p not in counts:
            value -= count * binomial(top - subset_sum - p, N)
    return value


# route -> (prefix, last), for every route but the dense series_coeff
MILNOR_STEPS = {
    "closed_sum": (_closed_sum_prefix, _closed_sum_last),
    "series": (_series_prefix, _series_last),
}
GENUS_STEPS = {
    "compositions": (_compositions_prefix, _compositions_last),
    "inclusion_exclusion": (_inclusion_exclusion_prefix, _inclusion_exclusion_last),
}


def _folded(steps, spec: DegreeSpec) -> int:
    prefix, last = steps
    return last(prefix(spec.n, spec.r, spec.degrees[:-1]), spec.degrees[-1])


def _milnor_closed_sum(spec: DegreeSpec) -> int:
    return _folded(MILNOR_STEPS["closed_sum"], spec)


def _milnor_series(spec: DegreeSpec) -> int:
    return _folded(MILNOR_STEPS["series"], spec)


def milnor_number(spec: DegreeSpec, method: str = "closed_sum") -> int:
    """Milnor number of the cone singularity, by the chosen route."""
    if method == "closed_sum":
        return _milnor_closed_sum(spec)
    if method == "series":
        return _milnor_series(spec)
    raise ValueError(f"unknown milnor method {method!r}; choose from {MILNOR_METHODS}")


def milnor_fiber_euler(spec: DegreeSpec) -> int:
    """Euler characteristic of the Milnor fiber; equals (-1)^n mu + 1."""
    return _folded((_series_prefix, _chi_last), spec)


def _genus_compositions(spec: DegreeSpec) -> int:
    return _folded(GENUS_STEPS["compositions"], spec)


def _genus_inclusion_exclusion(spec: DegreeSpec) -> int:
    return _folded(GENUS_STEPS["inclusion_exclusion"], spec)


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
        raise disagreement(label, spec, values)
    return values[methods[0]]


def disagreement(label: str, spec: DegreeSpec, values: dict[str, int]) -> CrossCheckError:
    """The CrossCheckError for routes that disagree, naming the spec and every route's value."""
    with unlimited_int_str():
        message = f"{label} methods disagree for {spec}: {values}"
    return CrossCheckError(message)


def invariant_report(spec: DegreeSpec) -> InvariantReport:
    """Compute mu and p_g by every route and enforce agreement."""
    return InvariantReport(
        spec=spec,
        mu=agreed_value(spec, MILNOR_METHODS, milnor_number, "milnor"),
        pg=agreed_value(spec, GENUS_METHODS, geometric_genus, "genus"),
    )
