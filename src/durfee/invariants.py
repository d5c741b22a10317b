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

Each route is implemented independently so any one can certify another,
and is named once, as a route -> (prefix, line) entry of MILNOR_ROUTES or
GENUS_ROUTES that every caller reads: the prefix step folds all degrees but
the last, and the line step returns the value for each of a list of last
degrees.  A spec's value is line(prefix(n, r, degrees[:-1]),
degrees[-1:])[0], and a search folds one prefix for a whole line of specs.
agreed_invariants() and agreed_line() run the routes on a spec or on a line
and return the values they agree on, or raise CrossCheckError naming every
route's value.

A degree equal to 1 is a hyperplane and does not change the germ, only the
ambient dimension, and every formula here is symmetric in the degrees; so
DegreeSpec drops such entries and sorts the rest when it is built.  A spec
whose degrees are all 1 is a smooth germ and cannot be built.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence
from math import comb, prod
from operator import getitem

from .exactmath import CrossCheckError, binomial, compositions, unlimited_int_str

SMOOTHNESS_NOTE = (
    "values assume a smooth generic complete intersection of the given degrees"
)


class SmoothGermError(ValueError):
    """All degrees equal 1: the cone is a smooth germ, nothing to compute."""


class DegreeSpec(namedtuple("_DegreeSpecFields", ("n", "degrees"))):
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


# The routes: prefix(n, r, leading) -> state, and line(state, degrees) -> one
# value per last degree.  No line step mutates its state, so one prefix
# serves every spec of a line.


def _closed_sum_prefix(n: int, r: int, leading: Sequence[int]):
    """h_k(p - 1) for k <= n, [x^k] prod_i 1 / (1 - (p_i - 1) x), and prod p_i.

    Each factor multiplies in place on integers, so the fold is O(r n).
    """
    h = [1] + [0] * n
    for p in leading:
        for k in range(1, n + 1):
            h[k] += (p - 1) * h[k - 1]
    return h, prod(leading)


def _closed_sum_line(state, degrees: Sequence[int]) -> list[int]:
    """P sum_j (-1)^j h_(n-j)(p - 1) - (-1)^n, one more h step folded in on the way."""
    h, product = state
    tail = h[1:]
    sign = (-1) ** len(tail)
    values = []
    for p in degrees:
        hk = alternating = 1
        for c in tail:
            hk = c + (p - 1) * hk
            alternating = hk - alternating
        values.append(product * p * alternating - sign)
    return values


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


def _series_line(state, degrees: Sequence[int]) -> list[int]:
    """(-1)^n (chi - 1), where chi = [x^n] (1+x)^N / prod(1 + p x) is the
    Euler characteristic of the Milnor fiber."""
    c, product = state
    first, tail = c[0], c[1:]
    sign = (-1) ** len(tail)
    values = []
    for p in degrees:
        top = first
        for ck in tail:
            top = ck - p * top
        values.append(sign * (product * p * top - 1))
    return values


def _compositions_prefix(n: int, r: int, leading: Sequence[int]):
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


def _compositions_line(by_last: list[int], degrees: Sequence[int]) -> list[int]:
    # a binomial only for a last part with a nonzero sum: one for hypersurfaces
    return [sum(s * comb(p, k) for k, s in enumerate(by_last, 1) if s) for p in degrees]


def _inclusion_exclusion_prefix(n: int, r: int, leading: Sequence[int]):
    """N, the leading degrees' sum and signed subset-sum counts.

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


def _inclusion_exclusion_line(state, degrees: Sequence[int]) -> list[int]:
    # with the last degree p a sum s counts counts[s] - counts[s - p], and a
    # sum s + p not in counts counts -counts[s]; sums whose subsets cancel
    # cost no binomial.  Each C(m, N) goes through the module's binomial,
    # not comb, so the binomials taken can be counted at that one binding.
    N, total, counts = state
    shifted = counts.get
    values = []
    for p in degrees:
        top = total + p
        value = 0
        for subset_sum, count in counts.items():
            merged = count - shifted(subset_sum - p, 0)
            if merged:
                value += merged * binomial(top - subset_sum, N)
            if count and subset_sum + p not in counts:
                value -= count * binomial(total - subset_sum, N)
        values.append(value)
    return values


def _series_coeff_prefix(n: int, r: int, leading: Sequence[int]):
    """n and the leading degrees: the z-series is dense, so each spec builds its own."""
    return n, tuple(leading)


def _series_coeff_line(state, degrees: Sequence[int]) -> list[int]:
    """[z^(sum(p) - N)] prod_i (1 - z^(p_i)) / (1-z)^(N+1), one series per last degree."""
    from .series import TruncatedSeries  # only this route needs it, so search never loads it

    n, leading = state
    values = []
    for p in degrees:
        spec_degrees = leading + (p,)
        N = n + len(spec_degrees)
        target = sum(spec_degrees) - N
        if target < 0:
            values.append(0)
            continue
        num = TruncatedSeries([1], target)
        for q in spec_degrees:
            num = num * TruncatedSeries([1] + [0] * (q - 1) + [-1], target)
        binomials = TruncatedSeries([1, -1], target) ** -(N + 1)
        c = (num * binomials).coefficient(target)
        if c.denominator != 1:
            spec = DegreeSpec(n, spec_degrees)
            raise CrossCheckError(f"genus coefficient for {spec} is not an integer: {c}")
        values.append(c.numerator)
    return values


# route -> (prefix, line), the one place each route is named; the order is
# the order the routes run in and are reported in
MILNOR_ROUTES = {
    "closed_sum": (_closed_sum_prefix, _closed_sum_line),
    "series": (_series_prefix, _series_line),
}
GENUS_ROUTES = {
    "compositions": (_compositions_prefix, _compositions_line),
    "inclusion_exclusion": (_inclusion_exclusion_prefix, _inclusion_exclusion_line),
    "series_coeff": (_series_coeff_prefix, _series_coeff_line),
}
MILNOR_METHODS = tuple(MILNOR_ROUTES)
GENUS_METHODS = tuple(GENUS_ROUTES)
# the genus routes verify() and search() cross-check: every one but the
# series_coeff, which is dense in the degrees
VERIFY_PG_METHODS = ("compositions", "inclusion_exclusion")


def _folded(routes, method: str, spec: DegreeSpec, label: str) -> int:
    """spec's value by one route: the prefix on all degrees but the last, the line on the last."""
    try:
        prefix, line = routes[method]
    except (KeyError, TypeError):  # not a route name, or not even hashable
        choices = tuple(routes)
        raise ValueError(f"unknown {label} method {method!r}; choose from {choices}") from None
    n, degrees = spec
    return line(prefix(n, len(degrees), degrees[:-1]), degrees[-1:])[0]


def milnor_number(spec: DegreeSpec, method: str = "closed_sum") -> int:
    """Milnor number of the cone singularity, by the chosen route."""
    return _folded(MILNOR_ROUTES, method, spec, "milnor")


def milnor_fiber_euler(spec: DegreeSpec) -> int:
    """Euler characteristic of the Milnor fiber; equals (-1)^n mu + 1."""
    return (-1) ** spec.n * _folded(MILNOR_ROUTES, "series", spec, "milnor") + 1


def geometric_genus(spec: DegreeSpec, method: str = "compositions") -> int:
    """Geometric genus of the cone singularity (delta invariant when n = 1)."""
    return _folded(GENUS_ROUTES, method, spec, "genus")


class InvariantReport(namedtuple("InvariantReport", ("spec", "mu", "pg"))):
    """The invariant values for one spec, agreed on by every route."""

    __slots__ = ()


def agreed_value(spec: DegreeSpec, methods: Sequence[str], compute: Callable, label: str) -> int:
    """The value every route in methods gives for spec.

    Raises CrossCheckError, naming the spec and every route's value, unless
    they agree.
    """
    values = {m: compute(spec, m) for m in methods}
    if len(set(values.values())) != 1:
        raise disagreement(label, spec, values)
    return values[methods[0]]


def agreed_invariants(spec: DegreeSpec, genus_methods=VERIFY_PG_METHODS) -> tuple[int, int]:
    """mu on every Milnor route and p_g on the genus_methods routes, each agreed on."""
    mu = agreed_value(spec, MILNOR_METHODS, milnor_number, "milnor")
    return mu, agreed_value(spec, genus_methods, geometric_genus, "genus")


def agreed_line(n: int, r: int, leading: tuple[int, ...], last_degrees) -> list:
    """[mu values, p_g values] of the specs leading + (p,), p in last_degrees,
    on the routes agreed_invariants() takes.

    Each route's values are compared as whole lists; at the first spec where
    they differ, this raises as agreed_value() does.
    """
    agreed = []
    for label, routes, methods in (
        ("milnor", MILNOR_ROUTES, MILNOR_METHODS), ("genus", GENUS_ROUTES, VERIFY_PG_METHODS)
    ):
        values = []
        for method in methods:
            prefix, line = routes[method]
            values.append(line(prefix(n, r, leading), last_degrees))
        if values.count(values[0]) != len(values):
            for p, column in zip(last_degrees, zip(*values)):
                if column.count(column[0]) != len(column):
                    spec = DegreeSpec(n, leading + (p,))
                    raise disagreement(label, spec, dict(zip(methods, column)))
        agreed.append(values[0])
    return agreed


def disagreement(label: str, spec: DegreeSpec, values: dict[str, int]) -> CrossCheckError:
    """The CrossCheckError for routes that disagree, naming the spec and every route's value."""
    with unlimited_int_str():
        message = f"{label} methods disagree for {spec}: {values}"
    return CrossCheckError(message)


def invariant_report(spec: DegreeSpec) -> InvariantReport:
    """Compute mu and p_g by every route and enforce agreement."""
    mu, pg = agreed_invariants(spec, GENUS_METHODS)
    return InvariantReport(spec=spec, mu=mu, pg=pg)
