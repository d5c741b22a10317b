"""Milnor number and geometric genus of cones over complete intersections.

The germ is the affine cone over a smooth projective complete intersection
of r generic hypersurfaces of degrees p_1..p_r in P^(N-1), where N = n + r
and n is the dimension of the singularity.  Both invariants admit several
genuinely different exact computations:

  * the Milnor number from an alternating sum of the complete symmetric
    sums h_k(p - 1), built by one O(n) step per degree of
    prod_i 1 / (1 - (p_i - 1) x), or from the x^n coefficient of the
    rational function (1+x)^N / prod_i (1 + p_i x), which carries the Euler
    characteristic of the Milnor fiber;
  * the geometric genus from a composition sum of binomials, from an
    inclusion-exclusion count of lattice points keyed by signed subset sum,
    from a z-series coefficient of prod_i (1 - z^(p_i)) / (1-z)^(N+1).

Each route is implemented independently so any one can certify another,
and is named once, as a route -> (start, step, line) entry of MILNOR_ROUTES
or GENUS_ROUTES that every caller reads: start(n, r) is the state of no
leading degrees, step(state, p) a new state with one more, and line(state,
last_degrees) the value for each of a list of last degrees.  A spec's value
is start, a step per degree but the last, and the line on the last.
agreed_invariants() runs the routes on a spec, and agreed_lines() walks
the lines of a search in grid order, stepping each shared prefix of
leading degrees once; both return the values the routes agree on, or raise
CrossCheckError naming every route's value.  The compositions route steps
elementwise, one binomial factor into each composition's running product,
and never convolves the parts away: that O(r n^2) kernel is the genus route
of the benchmark's independent reference, which it must stay apart from.

A degree equal to 1 is a hyperplane and does not change the germ, only the
ambient dimension, and every formula here is symmetric in the degrees; so
DegreeSpec drops such entries and sorts the rest when it is built.  A spec
whose degrees are all 1 is a smooth germ and cannot be built.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from math import comb, prod
from operator import mul

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


# The routes: start(n, r) -> the state of no leading degrees, step(state, p)
# -> the state with one more leading degree p, and line(state, degrees) ->
# one value per last degree.  No step or line mutates its state, so a state
# serves every prefix that extends it and every line that finishes it.


def _closed_sum_start(n: int, r: int):
    """h_k(p - 1) for k <= n, [x^k] prod_i 1 / (1 - (p_i - 1) x), and prod p_i, of no degrees."""
    return [1] + [0] * n, 1


def _closed_sum_step(state, p: int):
    """One more factor 1 / (1 - (p - 1) x), multiplied in on integers: O(n)."""
    h, product = state
    hk = 1
    folded = [hk]
    for c in h[1:]:
        hk = c + (p - 1) * hk
        folded.append(hk)
    return folded, product * p


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


def _series_start(n: int, r: int):
    """[x^k] (1+x)^N for k <= n, and the empty degree product."""
    return [comb(n + r, k) for k in range(n + 1)], 1


def _series_step(state, p: int):
    """One more division by 1 + p x, on integers: exact because the constant term is 1."""
    c, product = state
    top = c[0]
    divided = [top]
    for ck in c[1:]:
        top = ck - p * top
        divided.append(top)
    return divided, product * p


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


def _compositions_start(n: int, r: int):
    """The compositions k of n into r parts, held as one column of parts per
    position, and a running product of 1 for each composition.

    A walk over the compositions on purpose: the kernel form of this sum is
    the genus route of the benchmark's independent reference.  The parts go
    into one flat list as the walk yields them, so no walked tuple outlives
    the walk, and the list is cut into the columns.
    """
    parts = []
    for comp in compositions(n, r):
        parts.extend(comp)
    columns = [parts[d::r] for d in range(r)]
    return n, columns, 0, [1] * len(columns[0])


def _compositions_step(state, p: int):
    """Each composition's product times C(p, k + 1), k its part at the next position.

    Elementwise over the compositions, not the O(n^2) kernel convolution
    that would sum them away: that convolution is the reference's route.
    """
    n, columns, depth, products = state
    row = [comb(p, k) for k in range(1, n + 2)]
    products = list(map(mul, products, map(row.__getitem__, columns[depth])))
    return n, columns, depth + 1, products


def _compositions_line(state, degrees: Sequence[int]) -> list[int]:
    """Sum of prod_i C(p_i, k_i + 1) over the compositions k of n: the
    products summed by last part, then one binomial of p for each part."""
    n, columns, _, products = state
    by_last = [0] * (n + 1)
    for k, product in zip(columns[-1], products):
        by_last[k] += product
    # a binomial only for a last part with a nonzero sum: one for hypersurfaces
    return [sum(s * comb(p, k) for k, s in enumerate(by_last, 1) if s) for p in degrees]


def _inclusion_exclusion_start(n: int, r: int):
    """N, the leading degrees' sum and signed subset-sum counts, of no degrees.

    The genus is a signed count of monomials of degree sum(p) - N in N
    variables, with exponents capped by inclusion-exclusion over the
    degrees; a subset's term depends only on its sum and the sign of its
    size, so subsets are counted by sum with the sign carried in the count.
    """
    return n + r, 0, {0: 1}


def _inclusion_exclusion_step(state, p: int):
    """One more degree merged into the counts: a sum s with p is s + p, of the other sign."""
    N, total, counts = state
    grown = dict(counts)
    for subset_sum, count in counts.items():
        grown[subset_sum + p] = grown.get(subset_sum + p, 0) - count
    return N, total + p, grown


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


def _series_coeff_start(n: int, r: int):
    """n and the leading degrees: the z-series is dense, so each spec builds its own."""
    return n, ()


def _series_coeff_step(state, p: int):
    n, leading = state
    return n, leading + (p,)


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


# route -> (start, step, line), the one place each route is named; the order
# is the order the routes run in and are reported in
MILNOR_ROUTES = {
    "closed_sum": (_closed_sum_start, _closed_sum_step, _closed_sum_line),
    "series": (_series_start, _series_step, _series_line),
}
GENUS_ROUTES = {
    "compositions": (_compositions_start, _compositions_step, _compositions_line),
    "inclusion_exclusion": (
        _inclusion_exclusion_start, _inclusion_exclusion_step, _inclusion_exclusion_line
    ),
    "series_coeff": (_series_coeff_start, _series_coeff_step, _series_coeff_line),
}
MILNOR_METHODS = tuple(MILNOR_ROUTES)
GENUS_METHODS = tuple(GENUS_ROUTES)
# the genus routes verify() and search() cross-check: every one but the
# series_coeff, which is dense in the degrees
VERIFY_PG_METHODS = ("compositions", "inclusion_exclusion")


def _folded(routes, method: str, spec: DegreeSpec, label: str) -> int:
    """spec's value by one route: a step per degree but the last, then the line on the last."""
    try:
        start, step, line = routes[method]
    except (KeyError, TypeError):  # not a route name, or not even hashable
        choices = tuple(routes)
        raise ValueError(f"unknown {label} method {method!r}; choose from {choices}") from None
    n, degrees = spec
    state = start(n, len(degrees))
    for p in degrees[:-1]:
        state = step(state, p)
    return line(state, degrees[-1:])[0]


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


def agreed_lines(n: int, r: int, lines: Iterable[tuple]) -> Iterator[tuple]:
    """(leading, last_degrees, mu values, p_g values) for each (leading,
    last_degrees) piece of lines, on the routes agreed_invariants() takes.

    The pieces come in grid order, so neighbours share their first leading
    degrees.  Each route keeps a stack of states, one for each leading
    degree of the piece before, and a piece steps only the degrees it does
    not share with that one: each route starts once, and steps each prefix
    of the grid once.  Each route's values are compared as whole lists; at
    the first spec where they differ, this raises as agreed_value() does.
    """
    # read at each call, not at import, so that a patched route is the one run
    routes = [MILNOR_ROUTES[m] for m in MILNOR_METHODS]
    routes += [GENUS_ROUTES[m] for m in VERIFY_PG_METHODS]
    split = len(MILNOR_METHODS)
    stack = [[start(n, r) for start, _, _ in routes]]
    walked = ()
    for leading, last_degrees in lines:
        shared = 0
        for p, q in zip(walked, leading):
            if p != q:
                break
            shared += 1
        del stack[shared + 1:]
        for p in leading[shared:]:
            stack.append([step(state, p) for (_, step, _), state in zip(routes, stack[-1])])
        walked = leading
        values = [line(state, last_degrees) for (_, _, line), state in zip(routes, stack[-1])]
        mus = _agreed_on_line("milnor", MILNOR_METHODS, values[:split], n, leading, last_degrees)
        pgs = _agreed_on_line("genus", VERIFY_PG_METHODS, values[split:], n, leading, last_degrees)
        yield leading, last_degrees, mus, pgs


def _agreed_on_line(label: str, methods, values: list, n: int, leading, last_degrees) -> list:
    """The values every route in methods gives along a line, or the disagreement at its first spec."""
    if values.count(values[0]) != len(values):
        for p, column in zip(last_degrees, zip(*values)):
            if column.count(column[0]) != len(column):
                spec = DegreeSpec(n, leading + (p,))
                raise disagreement(label, spec, dict(zip(methods, column)))
    return values[0]


def disagreement(label: str, spec: DegreeSpec, values: dict[str, int]) -> CrossCheckError:
    """The CrossCheckError for routes that disagree, naming the spec and every route's value."""
    with unlimited_int_str():
        message = f"{label} methods disagree for {spec}: {values}"
    return CrossCheckError(message)


def invariant_report(spec: DegreeSpec) -> InvariantReport:
    """Compute mu and p_g by every route and enforce agreement."""
    mu, pg = agreed_invariants(spec, GENUS_METHODS)
    return InvariantReport(spec=spec, mu=mu, pg=pg)
