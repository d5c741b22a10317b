from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from durfee.exactmath import stirling2
from durfee.series import TruncatedSeries

from _oracles import convolve

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
coeff_lists = st.lists(rationals, min_size=1, max_size=7)


def test_constructor_pads_and_truncates():
    s = TruncatedSeries([1, 2], 4)
    assert s.coeffs == [1, 2, 0, 0, 0]
    t = TruncatedSeries([1, 2, 3, 4], 1)
    assert t.coeffs == [1, 2]
    with pytest.raises(ValueError):
        TruncatedSeries([1], -1)


def test_coefficient_range_checked():
    s = TruncatedSeries([5, 7], 3)
    assert s.coefficient(0) == 5
    assert s.coefficient(3) == 0
    with pytest.raises(ValueError):
        s.coefficient(4)
    with pytest.raises(ValueError):
        s.coefficient(-1)


def test_alignment_errors():
    with pytest.raises(ValueError):
        TruncatedSeries([1], 2) * TruncatedSeries([1], 3)
    with pytest.raises(TypeError):
        TruncatedSeries([1], 2) * 1  # type: ignore[operator]


@given(coeff_lists, coeff_lists)
def test_multiplication_matches_naive_convolution(xs, ys):
    order = max(len(xs), len(ys))
    a, b = TruncatedSeries(xs, order), TruncatedSeries(ys, order)
    assert (a * b).coeffs == convolve(
        [Fraction(x) for x in xs], [Fraction(y) for y in ys], order
    )
    assert (a * b).coeffs == (b * a).coeffs


def test_inverse_roundtrip():
    s = TruncatedSeries([2, 1, -3, 5], 8)
    assert (s * s.inverse()).coeffs == [1] + [0] * 8
    assert (s.inverse() * s).coeffs == [1] + [0] * 8


def test_inverse_of_geometric():
    # 1/(1-x) = 1 + x + x^2 + ...
    inv = TruncatedSeries([1, -1], 6).inverse()
    assert inv.coeffs == [1] * 7


def test_inverse_needs_constant_term():
    with pytest.raises(ValueError):
        TruncatedSeries([0, 1], 3).inverse()


def test_power_matches_repeated_multiplication():
    s = TruncatedSeries([1, 1, 2], 6)
    acc = TruncatedSeries([1], 6)
    for e in range(0, 6):
        assert (s**e).coeffs == acc.coeffs
        acc = acc * s


def test_negative_power():
    s = TruncatedSeries([1, 3, -2], 5)
    assert (s**-2).coeffs == (s.inverse() ** 2).coeffs
    assert (s**-1 * s).coeffs == [1] + [0] * 5
    with pytest.raises(TypeError):
        s ** Fraction(1, 2)  # type: ignore[operator]


def test_binomial_series_power():
    # (1+x)^5 coefficients are binomials
    s = TruncatedSeries([1, 1], 5) ** 5
    assert s.coeffs == [1, 5, 10, 10, 5, 1]


def test_stirling_egf_identity():
    # coefficient m of (e^x - 1)^r equals stirling2(m, r) r! / m!
    order = 12
    e1 = TruncatedSeries([Fraction(int(k > 0), factorial(k)) for k in range(order + 1)], order)
    for r in range(1, 5):
        s = e1**r
        for m in range(order + 1):
            assert s.coefficient(m) == Fraction(
                stirling2(m, r) * factorial(r), factorial(m)
            )
    e1 = TruncatedSeries([Fraction(int(k > 0), factorial(k)) for k in range(5)], 4)
    assert (e1**2).coefficient(4) == Fraction(7, 12)


nonneg_lists = st.lists(
    st.fractions(min_value=0, max_value=4, max_denominator=6), min_size=1, max_size=6
)


@given(nonneg_lists, nonneg_lists, nonneg_lists)
def test_dominance_survives_nonnegative_multiplication(xs, ys, zs):
    order = max(len(xs), len(ys), len(zs))
    a, b, c = TruncatedSeries(xs, order), TruncatedSeries(ys, order), TruncatedSeries(zs, order)
    # dominates b and has non-negative coefficients
    big = TruncatedSeries([x + y for x, y in zip(a.coeffs, b.coeffs)], order)
    assert all(x >= y for x, y in zip(big.coeffs, b.coeffs))
    assert all(x >= y for x, y in zip((big * c).coeffs, (b * c).coeffs))
