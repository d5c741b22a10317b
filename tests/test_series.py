from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from durfee.exactmath import stirling2
from durfee.series import TruncatedSeries, exp_series, one, poly

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
    s = poly([5, 7], 3)
    assert s.coefficient(0) == 5
    assert s.coefficient(3) == 0
    with pytest.raises(ValueError):
        s.coefficient(4)
    with pytest.raises(ValueError):
        s.coefficient(-1)


def test_alignment_errors():
    with pytest.raises(ValueError):
        poly([1], 2) - poly([1], 3)
    with pytest.raises(TypeError):
        poly([1], 2) - 1  # type: ignore[operator]


def test_linear_ops():
    a = poly([1, 2, 3], 2)
    b = poly([4, 0, -1], 2)
    assert (a - b).coeffs == [-3, 2, 4]


@given(coeff_lists, coeff_lists)
def test_multiplication_matches_naive_convolution(xs, ys):
    order = max(len(xs), len(ys))
    a, b = poly(xs, order), poly(ys, order)
    assert (a * b).coeffs == convolve(
        [Fraction(x) for x in xs], [Fraction(y) for y in ys], order
    )
    assert a * b == b * a


def test_inverse_roundtrip():
    s = poly([2, 1, -3, 5], 8)
    assert s * s.inverse() == one(8)
    assert s.inverse() * s == one(8)


def test_inverse_of_geometric():
    # 1/(1-x) = 1 + x + x^2 + ...
    inv = poly([1, -1], 6).inverse()
    assert inv.coeffs == [1] * 7


def test_inverse_needs_constant_term():
    with pytest.raises(ValueError):
        poly([0, 1], 3).inverse()


def test_power_matches_repeated_multiplication():
    s = poly([1, 1, 2], 6)
    acc = one(6)
    for e in range(0, 6):
        assert s**e == acc
        acc = acc * s


def test_negative_power():
    s = poly([1, 3, -2], 5)
    assert s**-2 == (s.inverse()) ** 2
    assert s**-1 * s == one(5)
    with pytest.raises(TypeError):
        s ** Fraction(1, 2)  # type: ignore[operator]


def test_binomial_series_power():
    # (1+x)^5 coefficients are binomials
    s = poly([1, 1], 5) ** 5
    assert s.coeffs == [1, 5, 10, 10, 5, 1]


def test_exp_series_coefficients():
    e = exp_series(1, 5)
    assert e.coeffs == [Fraction(1, factorial(k)) for k in range(6)]
    h = exp_series(Fraction(1, 2), 3)
    assert h.coefficient(2) == Fraction(1, 8)
    assert h.coefficient(3) == Fraction(1, 48)


def test_exp_product_rule():
    order = 10
    assert exp_series(2, order) * exp_series(3, order) == exp_series(5, order)


def test_stirling_egf_identity():
    # coefficient m of (e^x - 1)^r equals stirling2(m, r) r! / m!
    order = 12
    for r in range(1, 5):
        s = (exp_series(1, order) - one(order)) ** r
        for m in range(order + 1):
            assert s.coefficient(m) == Fraction(
                stirling2(m, r) * factorial(r), factorial(m)
            )
    assert ((exp_series(1, 4) - one(4)) ** 2).coefficient(4) == Fraction(7, 12)


def test_dominates_basic():
    a = poly([1, 2, 3], 2)
    b = poly([1, 1, 3], 2)
    assert a.dominates(b)
    assert not b.dominates(a)
    assert a.dominates(a)


nonneg_lists = st.lists(
    st.fractions(min_value=0, max_value=4, max_denominator=6), min_size=1, max_size=6
)


@given(nonneg_lists, nonneg_lists, nonneg_lists)
def test_dominance_survives_nonnegative_multiplication(xs, ys, zs):
    order = max(len(xs), len(ys), len(zs))
    a, b, c = poly(xs, order), poly(ys, order), poly(zs, order)
    # dominates b and has non-negative coefficients
    big = poly([x + y for x, y in zip(a.coeffs, b.coeffs)], order)
    assert big.dominates(b)
    assert (big * c).dominates(b * c)


def test_repr_and_eq():
    s = poly([1, 2], 1)
    assert s == TruncatedSeries([1, 2], 1)
    assert s != poly([1, 2], 2)
    assert s != "not a series"
    assert "TruncatedSeries" in repr(s)
