"""Truncated power series with exact rational coefficients.

A series is a dense coefficient list c[0..order] over Fraction; every
operation truncates at the shared order.  The one caller is the z-series
genus route (series_coeff): the coefficient of z^(sum(p) - N) in
prod_i (1 - z^(p_i)) / (1 - z)^(N+1), which takes products, an inverse
and a power.  That route imports this module when it first runs, so
importing durfee.cli loads neither it nor fractions; of the library
calls, only invariant_report(), which runs every genus route, loads it.
No floating point anywhere.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction


class TruncatedSeries:
    """A power series modulo x^(order+1) over the rationals."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[int | Fraction], order: int):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = [Fraction(c) for c in coeffs][: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        self.order = order
        self.coeffs = cs

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise ValueError(f"coefficient {k} is outside truncation order {self.order}")
        return self.coeffs[k]

    def _aligned(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if other.order != self.order:
            raise ValueError(f"truncation orders differ: {self.order} vs {other.order}")
        return other

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        other = self._aligned(other)
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(out, self.order)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        if not self.coeffs[0]:
            raise ValueError("series with zero constant term has no inverse")
        inv0 = 1 / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * self.order
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                if self.coeffs[i]:
                    acc += self.coeffs[i] * out[k - i]
            out[k] = -inv0 * acc
        return TruncatedSeries(out, self.order)

    def __pow__(self, e: int) -> "TruncatedSeries":
        if not isinstance(e, int):
            raise TypeError("series powers must be integers")
        if e < 0:
            return self.inverse() ** (-e)
        result = TruncatedSeries([1], self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result
