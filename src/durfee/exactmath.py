"""Exact integer building blocks: binomials, Stirling numbers, compositions.

Everything downstream (invariants, bound coefficients, verdicts) reduces to
integer arithmetic on binomial coefficients, factorials, Stirling numbers of
the second kind, weak compositions and truncated products of integer
polynomials.  A sum over the weak compositions of m into r parts of a
product of per-part weights is the x^m coefficient of a product of one
weight list per part, so product_coefficients() gets it in O(r m^2)
operations where an enumeration walks C(m+r-1, m) compositions.  Python
integers are arbitrary precision and fractions.Fraction keeps rationals in
lowest terms with a positive denominator, so nothing here can overflow or
round, and unlimited_int_str() lets any of them be written out in full.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from operator import mul

Composition = tuple[int, ...]


class CrossCheckError(RuntimeError):
    """An internal exactness or consistency check failed.

    Raised when two routes to the same quantity disagree, or when an
    integer division that must be exact is not.  Always indicates a bug in
    the arithmetic, never bad user input; the CLI maps it to exit code 3.
    """


class unlimited_int_str:
    """Lift the interpreter's int-to-str digit limit inside the block only.

    Exact results may have any number of digits, so the text of a report or
    of a CrossCheckError is built under this; input parsing keeps the limit.
    A plain class rather than a contextlib generator, so importing the
    library does not load contextlib and a block costs no generator.
    """

    __slots__ = ("_limit",)

    def __enter__(self) -> None:
        if hasattr(sys, "set_int_max_str_digits"):  # absent before 3.10.7
            self._limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc) -> None:
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(self._limit)


# C(m, k), 0 whenever k > m >= 0, and p (p-1) ... (p-k+1), 0 as soon as k
# exceeds p: math.comb and math.perm themselves, which raise ValueError on a
# negative argument, so no Python frame stands between a caller and the C call
binomial = math.comb
falling_factorial = math.perm


def stirling2(m: int, r: int) -> int:
    """Stirling number of the second kind, by the alternating binomial sum.

    Computed as sum_j (-1)^j C(r, j) (r - j)^m divided by r!, with the
    divisibility asserted on every call so the defining formula is itself
    under permanent test.  The triangle recurrence is not a library route:
    it is the independent oracle in the test suite, and selftest holds its
    own copy to check this one against.
    """
    if m < 0 or r < 0:
        raise ValueError("stirling2 expects non-negative arguments")
    total = sum((-1) ** j * math.comb(r, j) * (r - j) ** m for j in range(r + 1))
    quotient, remainder = divmod(total, math.factorial(r))
    if remainder:
        raise CrossCheckError(
            f"alternating sum for stirling2({m}, {r}) is not divisible by {r}!"
        )
    return quotient


def compositions(n: int, r: int) -> Iterator[Composition]:
    """Yield all weak compositions of n into r ordered parts, lexicographically.

    There are C(n+r-1, n) of them.  Lazy, so a caller keeps only what it
    needs of each: the compositions genus route copies the parts into one
    flat list as they come, and no walked tuple outlives its walk.  The
    walk is iterative: the next composition moves one unit from the last
    non-zero part to the part before it and the rest of that part to the
    last part.
    r = 0 is allowed: the empty composition exists exactly when n = 0.
    """
    if n < 0 or r < 0:
        raise ValueError("compositions expects non-negative arguments")
    if r == 0:
        if n == 0:
            yield ()
        return
    # each tuple is copied from a list of known length: a tuple built from
    # an iterator is resized while it grows, and such tuples, once freed,
    # pile up on the interpreter's tuple free list (seen as peak RSS)
    parts = [0] * (r - 1) + [n]
    while True:
        yield tuple(parts)
        j = r - 1
        while j and not parts[j]:
            j -= 1
        if not j:
            return
        rest = parts[j] - 1
        parts[j - 1] += 1
        parts[j] = 0
        parts[-1] = rest


def product_coefficients(factors: Iterable[Sequence[int]], m: int) -> list[int]:
    """Coefficients 0..m of the product of integer coefficient lists, truncated at x^m.

    factors are the coefficient lists of polynomials (or truncated series),
    constant term first; entries past x^m are ignored and missing ones are
    0.  The coefficient of x^k is the sum over weak compositions of k of the
    products of one coefficient per factor, so an empty product is 1.
    Costs O(r m^2) integer operations for r factors.
    """
    if m < 0:
        raise ValueError("expected m >= 0")
    acc = [1] + [0] * m
    for f in factors:
        # map stops at the shorter list, which drops f past x^k and pads it
        acc = [sum(map(mul, acc[k::-1], f)) for k in range(m + 1)]
    return acc
