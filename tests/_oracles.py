"""Slow reference implementations, coded independently of the package.

Everything here favours the dumbest correct formulation: Pascal's rule,
explicit set-partition enumeration, brute tuple scans.  Nothing imports
from durfee.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product


@lru_cache(maxsize=None)
def pascal(m: int, k: int) -> int:
    if k < 0 or k > m:
        return 0
    if k == 0 or k == m:
        return 1
    return pascal(m - 1, k - 1) + pascal(m - 1, k)


def partitions_into_blocks(m: int, r: int) -> int:
    """Count set partitions of {0..m-1} into exactly r nonempty blocks."""
    if m == 0:
        return 1 if r == 0 else 0

    count = 0

    def place(item: int, blocks: list[list[int]]) -> None:
        nonlocal count
        if item == m:
            if len(blocks) == r:
                count += 1
            return
        # open blocks left for remaining items is the only pruning needed
        if len(blocks) + (m - item) < r:
            return
        for b in blocks:
            b.append(item)
            place(item + 1, blocks)
            b.pop()
        if len(blocks) < r:
            blocks.append([item])
            place(item + 1, blocks)
            blocks.pop()

    place(0, [])
    return count


def stirling_recurrence_table(m_max: int) -> dict[tuple[int, int], int]:
    table = {(0, 0): 1}
    for m in range(1, m_max + 1):
        table[(m, 0)] = 0
        for r in range(1, m + 1):
            table[(m, r)] = r * table.get((m - 1, r), 0) + table.get((m - 1, r - 1), 0)
    return table


def tuples_with_sum(total: int, parts: int):
    return (t for t in product(range(total + 1), repeat=parts) if sum(t) == total)


def milnor_brute(n: int, degrees: tuple[int, ...]) -> int:
    """Alternating composition sum, written with a raw tuple scan."""
    r = len(degrees)
    prod_p = 1
    for p in degrees:
        prod_p *= p
    acc = 0
    for j in range(n + 1):
        inner = 0
        for t in tuples_with_sum(n - j, r):
            term = 1
            for p, k in zip(degrees, t):
                term *= (p - 1) ** k
            inner += term
        acc += (-1) ** j * inner
    return prod_p * acc - (-1) ** n


def milnor_equal_degree(n: int, r: int, p: int) -> int:
    """Closed form at r equal degrees p.

    With h_k(p-1, ..., p-1) = (p-1)^k C(k+r-1, k), the alternating
    composition sum collapses to (-1)^n (p^r sum_k (1-p)^k C(k+r-1, k) - 1).
    """
    s = sum((1 - p) ** k * pascal(k + r - 1, k) for k in range(n + 1))
    return (-1) ** n * (p**r * s - 1)


def euler_brute(n: int, degrees: tuple[int, ...]) -> int:
    """chi of the smoothing fibre via integer-only series expansion.

    (1+x)^N has binomial coefficients; each 1/(1+p x) expands as a
    geometric series with integer terms, so the whole coefficient is an
    exact integer convolution, no rationals involved.
    """
    N = n + len(degrees)
    coeffs = [pascal(N, k) for k in range(n + 1)]
    for p in degrees:
        geom = [(-p) ** k for k in range(n + 1)]
        coeffs = [
            sum(coeffs[i] * geom[k - i] for i in range(k + 1)) for k in range(n + 1)
        ]
    prod_p = 1
    for p in degrees:
        prod_p *= p
    return prod_p * coeffs[n]


def genus_brute(n: int, degrees: tuple[int, ...]) -> int:
    total = 0
    for t in tuples_with_sum(n, len(degrees)):
        term = 1
        for p, k in zip(degrees, t):
            term *= pascal(p, k + 1)
        total += term
    return total


def genus_series_brute(degrees: tuple[int, ...], n: int) -> int:
    """Coefficient extraction with sparse sign bookkeeping.

    prod (1 - z^{p_i}) expands over subsets; division by (1-z)^{N+1}
    contributes binomial(k + N, N) at shift k.
    """
    N = n + len(degrees)
    target = sum(degrees) - N
    if target < 0:
        return 0
    total = 0
    for mask in product((0, 1), repeat=len(degrees)):
        shift = sum(p for p, used in zip(degrees, mask) if used)
        if shift > target:
            continue
        sign = (-1) ** sum(mask)
        total += sign * pascal(target - shift + N, N)
    return total


def factorial_sum_brute(n: int, r: int) -> Fraction:
    total = Fraction(0)
    for t in tuples_with_sum(n, r):
        term = Fraction(1)
        for k in t:
            f = 1
            for i in range(2, k + 2):
                f *= i
            term /= f
        total += term
    return total


def convolve(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def equal_degree_genus(n: int, r: int, p: int) -> int:
    """Closed form of the genus at r equal degrees p, for n in {1, 2, 3}."""
    if n not in (1, 2, 3):
        raise ValueError("closed genus form is only available for n in {1, 2, 3}")
    lead = Fraction(r * (p - 1) * p**r, {1: 2, 2: 8, 3: 48}[n])  # n! 2^n
    if n == 1:
        value = lead
    elif n == 2:
        value = lead * (r * (p - 1) + Fraction(p - 5, 3))
    else:
        value = lead * (p * r - 2 - r) * (p * r - 3 + p - r)
    assert value.denominator == 1, (n, r, p, value)
    return value.numerator


def asymptotic_ratio(n: int, r: int) -> Fraction:
    """Limit of mu / p_g along equal degrees, by the n = 2 and n = 3 closed forms.

    4 (r+1) / (r + 1/3) and 8 (r+2) / r.
    """
    if n == 2:
        return Fraction(12 * (r + 1), 3 * r + 1)
    if n == 3:
        return Fraction(8 * (r + 2), r)
    raise ValueError("closed limit form is only available for n in {2, 3}")
