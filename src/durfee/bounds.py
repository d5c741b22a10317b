"""Bound coefficients for Durfee-type inequalities, with their certificates.

The central object is the exact rational

    C(n, r) = binomial(n+r-1, n) / S(n, r),
    S(n, r) = sum over weak compositions (k_1..k_r) of n of prod 1/(k_i+1)!,

the limiting value of mu / p_g along equal degrees p -> infinity.  S(n, r)
collapses to the closed form stirling2(n+r, r) * r! / (n+r)!, so C(n, r)
is the integer quotient binomial(n+r-1, n) (n+r)! / (stirling2(n+r, r) r!),
memoised as its reduced numerator and denominator: a search compares in
integers and never builds a Fraction, and this module imports fractions
only inside the functions that return one.

C(n, 1) = (n+1)! recovers the classical strong Durfee coefficient; for
fixed n the sequence is non-increasing in r and approaches 2^n from above.
The monotonicity certificate lives here too: a growth inequality between
neighbouring Stirling numbers, itself certified by coefficientwise
dominance of exponential generating functions ((e^x - 1) dominates
x e^(x/2), and (e^x - 1)^2 dominates x^2 e^x).  Every coefficient involved
is an integer once scaled by a factorial, so every certificate runs on ints.

The module also carries the two auxiliary composition sums used to compare
mu against p_g termwise: a power sum prod (p_i - 1)^(k_i) on the mu side
and a falling-factorial sum prod (p_i-1)(p_i-2)..(p_i-k_i) on the genus
side, together with their recursion and comparison checks.  Like S(n, r),
both are coefficients of a product of one weight list per part, computed
by exactmath.product_coefficients without enumerating compositions.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial, gcd, prod

from .exactmath import (
    CrossCheckError,
    binomial,
    compositions,
    falling_factorial,
    product_coefficients,
    stirling2,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from fractions import Fraction


def composition_factorial_sum(n: int, r: int) -> Fraction:
    """S(n, r): the weak-composition sum of prod 1/(k_i + 1)!.

    Evaluated as the x^n coefficient of ((e^x - 1)/x)^r, which is the same
    sum reorganized as an r-fold convolution; literal enumeration has
    C(n+r-1, n) terms and is hopeless already around n + r = 30.  The
    weights 1/(k+1)! run as the integers (n+1)!/(k+1)!, so the coefficient
    is divided by ((n+1)!)^r.  The Stirling closed form is the independent route.
    """
    from fractions import Fraction

    if n < 0 or r < 0:
        raise ValueError("expected n >= 0 and r >= 0")
    scale = factorial(n + 1)
    weights = [scale // factorial(k + 1) for k in range(n + 1)]
    return Fraction(product_coefficients([weights] * r, n)[n], scale**r)


def stirling_factorial_sum(n: int, r: int) -> Fraction:
    """S(n, r) via the closed form stirling2(n+r, r) * r! / (n+r)!."""
    from fractions import Fraction

    if n < 0 or r < 0:
        raise ValueError("expected n >= 0 and r >= 0")
    return Fraction(stirling2(n + r, r) * factorial(r), factorial(n + r))


class BoundCoefficient(namedtuple("_BoundCoefficientFields", ("n", "r", "value"))):
    """One exact bound coefficient C(n, r) with its floor invariants."""

    __slots__ = ()

    def __new__(cls, n: int, r: int, value: Fraction) -> BoundCoefficient:
        if value <= 0:
            raise CrossCheckError(f"bound coefficient C({n},{r}) not positive")
        if value < 2**n:
            raise CrossCheckError(
                f"bound coefficient C({n},{r}) = {value} below floor 2^{n}"
            )
        return super().__new__(cls, n, r, value)

    @classmethod
    def _make(cls, iterable) -> BoundCoefficient:  # so _replace() checks as well
        return cls(*iterable)


# C(n, r) by (n, r), filled on first use: verify() and search() ask for the
# same few coefficients once per spec or line.  The reduced numerator and
# denominator are kept, and the Fraction once bound_coefficient() builds
# it.  Plain dicts, because functools.cache would give the functions a
# __wrapped__ attribute.
_BOUND_RATIOS: dict[tuple[int, int], tuple[int, int]] = {}
_BOUND_COEFFICIENTS: dict[tuple[int, int], Fraction] = {}


def bound_ratio(n: int, r: int) -> tuple[int, int]:
    """C(n, r) as its numerator and denominator in lowest terms, memoised.

    By the Stirling closed form, C(n, r) = binomial(n+r-1, n) (n+r)! /
    (stirling2(n+r, r) r!); no Fraction is built.
    """
    ratio = _BOUND_RATIOS.get((n, r))
    if ratio is None:
        if n < 1 or r < 1:
            raise ValueError("expected n >= 1 and r >= 1")
        num = binomial(n + r - 1, n) * factorial(n + r)
        den = stirling2(n + r, r) * factorial(r)
        common = gcd(num, den)
        ratio = _BOUND_RATIOS[n, r] = (num // common, den // common)
    return ratio


def bound_coefficient(n: int, r: int) -> Fraction:
    """C(n, r) as an exact rational: bound_ratio() as a Fraction, memoised."""
    value = _BOUND_COEFFICIENTS.get((n, r))
    if value is None:
        from fractions import Fraction

        value = _BOUND_COEFFICIENTS[n, r] = Fraction(*bound_ratio(n, r))
    return value


def monotone_scan(n: int, r_max: int) -> list[BoundCoefficient]:
    """C(n, 1..r_max), asserting the chain is non-increasing with floor 2^n."""
    if n < 1 or r_max < 1:
        raise ValueError("expected n >= 1 and r_max >= 1")
    out: list[BoundCoefficient] = []
    previous = None
    for r in range(1, r_max + 1):
        coeff = BoundCoefficient(n, r, bound_coefficient(n, r))
        if previous is not None and coeff.value > previous:
            raise CrossCheckError(
                f"C({n},{r}) = {coeff.value} exceeds C({n},{r-1}) = {previous}"
            )
        previous = coeff.value
        out.append(coeff)
    return out


def multinomial_recursion_check(n: int, r: int) -> bool:
    """Check r^(n+r)/(n+r)! = sum_j binomial(r, j) S(n+j, r-j).

    The left side is the n+r coefficient sum of the multinomial expansion
    of (x_1 + .. + x_r)^(n+r)/(n+r)! with every x_i = 1, the right side
    groups terms by how many parts are zero; S(m, 0) is 1 for m = 0 and 0
    otherwise, matching the empty composition.
    """
    from fractions import Fraction

    if n < 0 or r < 1:
        raise ValueError("expected n >= 0 and r >= 1")
    lhs = Fraction(r ** (n + r), factorial(n + r))
    rhs = sum(
        binomial(r, j) * composition_factorial_sum(n + j, r - j) for j in range(r + 1)
    )
    return lhs == rhs


def stirling_growth_inequality(n: int, r: int) -> bool:
    """stirling2(n+r+1, r+1) r (r+1) >= stirling2(n+r, r) (n+r) (n+r+1).

    This is exactly what C(n, r) >= C(n, r+1) unwinds to after clearing
    factorials, so it certifies the monotone scan from the Stirling side.
    """
    if n < 1 or r < 1:
        raise ValueError("expected n >= 1 and r >= 1")
    lhs = stirling2(n + r + 1, r + 1) * r * (r + 1)
    rhs = stirling2(n + r, r) * (n + r) * (n + r + 1)
    return lhs >= rhs


DOMINANCE_ORDER = 64
DOMINANCE_NR_MAX = 8


def dominance_inequality_checks() -> bool:
    """Certify the generating-function dominances and the Stirling growth.

    Times k!, the x^k coefficients of e^x - 1 and x e^(x/2) are 1 and
    k / 2^(k-1), those of (e^x - 1)^2 and x^2 e^x are 2^k - 2 and k (k-1),
    and all are 0 at k = 0; so, through DOMINANCE_ORDER, the dominances are
    2^(k-1) >= k and 2^k - 2 >= k (k-1).  The Stirling growth inequality is
    then re-derived for all n, r <= DOMINANCE_NR_MAX by direct evaluation.
    """
    order, nr_max = DOMINANCE_ORDER, DOMINANCE_NR_MAX
    return all(
        2 ** (k - 1) >= k and 2**k - 2 >= k * (k - 1) for k in range(1, order + 1)
    ) and all(
        stirling_growth_inequality(n, r)
        for n in range(1, nr_max + 1)
        for r in range(1, nr_max + 1)
    )


def min_product_bound(n: int, r: int) -> int:
    """min over weak compositions (k_i) of n of prod (k_i + 1)!, enumerated."""
    if n < 2 or r < 1:
        raise ValueError("expected n >= 2 and r >= 1")
    return min(
        prod(factorial(k + 1) for k in comp) for comp in compositions(n, r)
    )


def balanced_min_product(n: int, r: int) -> int:
    """Closed form of the minimum: parts as equal as possible.

    With n = a r + b, 0 <= b < r, the balanced composition gives
    ((a+1)!)^(r-b) ((a+2)!)^b.
    """
    if n < 1 or r < 1:
        raise ValueError("expected n >= 1 and r >= 1")
    a, b = divmod(n, r)
    return factorial(a + 1) ** (r - b) * factorial(a + 2) ** b


def power_composition_sum(m: int, degrees: tuple[int, ...]) -> int:
    """Sum over weak compositions (k_i) of m of prod (p_i - 1)^(k_i).

    This is h_m(p_1 - 1, .., p_r - 1), the x^m coefficient of
    prod_i sum_k (p_i - 1)^k x^k; a degree 1 contributes 0^0 = 1 at k = 0
    only, and an empty degree list gives 1 for m = 0, else 0.
    """
    return product_coefficients(
        ([(p - 1) ** k for k in range(m + 1)] for p in degrees), m
    )[-1]


def falling_composition_sum(m: int, degrees: tuple[int, ...]) -> int:
    """Sum over weak compositions (k_i) of m of prod (p_i-1)(p_i-2)..(p_i-k_i).

    The x^m coefficient of prod_i sum_k (p_i-1)..(p_i-k) x^k; a part k
    longer than p_i - 1 has weight 0.  An empty degree list is allowed and
    follows the empty-composition convention: 1 for m = 0, else 0.
    Termwise this sum is dominated by the power sum above, which is what
    makes the product bound on mu work.
    """
    return product_coefficients(
        ([falling_factorial(p - 1, k) for k in range(m + 1)] for p in degrees), m
    )[-1]


def falling_sum_recursion_check(n: int, degrees: tuple[int, ...]) -> bool:
    """Peeling the last degree out of the falling sum is exact.

    Checks D_n(p_1..p_r) - D_n(p_1..p_(r-1)) = (p_r - 1) D_(n-1)(p_1..p_(r-1), p_r - 1)
    where D is falling_composition_sum.
    """
    degrees = tuple(degrees)
    if n < 1 or not degrees:
        raise ValueError("expected n >= 1 and at least one degree")
    prefix, last = degrees[:-1], degrees[-1]
    lhs = falling_composition_sum(n, degrees) - falling_composition_sum(n, prefix)
    rhs = (last - 1) * falling_composition_sum(n - 1, prefix + (last - 1,))
    return lhs == rhs


def composition_sum_inequality(n: int, degrees: tuple[int, ...]) -> bool:
    """Power sum >= falling sum at n plus falling sum at n-1, termwise-driven.

    Holds from n = 2 on, which is all the product bound needs; at n = 1
    the two sides compare the other way and the check honestly reports
    False.
    """
    degrees = tuple(degrees)
    if n < 1 or not degrees:
        raise ValueError("expected n >= 1 and at least one degree")
    lhs = power_composition_sum(n, degrees)
    rhs = falling_composition_sum(n, degrees) + falling_composition_sum(n - 1, degrees)
    return lhs >= rhs
