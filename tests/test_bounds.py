import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod

import pytest

from durfee import (
    CrossCheckError,
    BoundCoefficient,
    balanced_min_product,
    bound_coefficient,
    composition_factorial_sum,
    composition_sum_inequality,
    dominance_inequality_checks,
    falling_composition_sum,
    falling_sum_recursion_check,
    min_product_bound,
    monotone_scan,
    multinomial_recursion_check,
    power_composition_sum,
    stirling_factorial_sum,
    stirling_growth_inequality,
)
from durfee.bounds import DOMINANCE_ORDER

from _oracles import asymptotic_ratio, convolve, factorial_sum_brute, tuples_with_sum


class TestFactorialSum:
    def test_small_values(self):
        assert composition_factorial_sum(0, 0) == 1
        assert composition_factorial_sum(0, 3) == 1
        assert composition_factorial_sum(3, 0) == 0
        assert composition_factorial_sum(2, 1) == Fraction(1, 6)
        assert composition_factorial_sum(2, 2) == Fraction(7, 12)
        assert composition_factorial_sum(1, 1) == Fraction(1, 2)

    def test_matches_brute_enumeration(self):
        for n in range(0, 7):
            for r in range(0, 5):
                assert composition_factorial_sum(n, r) == factorial_sum_brute(n, r)

    def test_two_routes_agree(self):
        for total in range(1, 19):
            for r in range(1, total + 1):
                n = total - r
                assert composition_factorial_sum(n, r) == stirling_factorial_sum(n, r)

    def test_two_routes_agree_at_large_index(self):
        # single deep spot check; full sweep up to n + r = 30 is in selftest
        assert composition_factorial_sum(15, 15) == stirling_factorial_sum(15, 15)

    def test_rejects_negative(self):
        for fn in (composition_factorial_sum, stirling_factorial_sum):
            with pytest.raises(ValueError):
                fn(-1, 2)
            with pytest.raises(ValueError):
                fn(2, -1)


class TestBoundCoefficient:
    def test_codimension_one_is_factorial(self):
        for n in range(1, 11):
            assert bound_coefficient(n, 1) == factorial(n + 1)

    def test_codimension_two_closed_form(self):
        for n in range(1, 11):
            expected = Fraction(factorial(n + 2) * (n + 1), 2 ** (n + 2) - 2)
            assert bound_coefficient(n, 2) == expected

    def test_frozen_values(self):
        assert bound_coefficient(1, 1) == 2
        assert bound_coefficient(2, 2) == Fraction(36, 7)
        assert bound_coefficient(2, 3) == Fraction(24, 5)
        assert bound_coefficient(3, 2) == 16
        assert bound_coefficient(3, 4) == 12
        assert bound_coefficient(2, 100) == Fraction(1212, 301)

    def test_surface_hyperbola(self):
        # C(2, r) = 12(r+1)/(3r+1), approaching 4 from above
        for r in range(1, 60):
            assert bound_coefficient(2, r) == Fraction(12 * (r + 1), 3 * r + 1)
        assert bound_coefficient(2, 100) - 4 < Fraction(1, 30)

    def test_asymptotic_ratio_routes(self):
        for r in range(1, 13):
            assert asymptotic_ratio(2, r) == bound_coefficient(2, r)
            assert asymptotic_ratio(3, r) == bound_coefficient(3, r)

    def test_ratio_definition(self):
        # C(n, r) = binomial(n+r-1, n) / S(n, r), straight from the defining sum
        from durfee import binomial

        for n in range(1, 6):
            for r in range(1, 6):
                assert bound_coefficient(n, r) == Fraction(
                    binomial(n + r - 1, n)
                ) / composition_factorial_sum(n, r)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bound_coefficient(0, 1)
        with pytest.raises(ValueError):
            bound_coefficient(1, 0)

    def test_floor_guard(self):
        BoundCoefficient(2, 2, Fraction(36, 7))
        with pytest.raises(CrossCheckError):
            BoundCoefficient(2, 1, Fraction(3))
        with pytest.raises(CrossCheckError):
            BoundCoefficient(1, 1, Fraction(-2))
        coeff = BoundCoefficient(2, 2, Fraction(36, 7))
        with pytest.raises(CrossCheckError, match="below floor"):
            coeff._replace(value=Fraction(3))
        for field in coeff._fields:
            with pytest.raises(AttributeError):
                setattr(coeff, field, 5)


class TestMonotoneScan:
    def test_chain_shape(self):
        chain = monotone_scan(3, 12)
        values = [c.value for c in chain]
        assert len(values) == 12
        assert values[0] == 24
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v >= 8 for v in values)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            monotone_scan(0, 5)
        with pytest.raises(ValueError):
            monotone_scan(2, 0)

    def test_growth_inequality(self):
        for n in range(1, 9):
            for r in range(1, 9):
                assert stirling_growth_inequality(n, r)

    def test_growth_inequality_range(self):
        with pytest.raises(ValueError):
            stirling_growth_inequality(0, 1)


class TestRecursionAndDominance:
    def test_multinomial_recursion(self):
        for n in range(0, 9):
            for r in range(1, 9):
                assert multinomial_recursion_check(n, r)

    def test_multinomial_recursion_range(self):
        with pytest.raises(ValueError):
            multinomial_recursion_check(-1, 2)
        with pytest.raises(ValueError):
            multinomial_recursion_check(2, 0)

    def test_dominance_chain(self):
        assert dominance_inequality_checks()

    def test_dominance_integer_forms_match_the_series(self):
        # k! [x^k] of e^x - 1, x e^(x/2), (e^x - 1)^2 and x^2 e^x, built as
        # Fraction lists, are the integers dominance_inequality_checks compares
        order = DOMINANCE_ORDER
        exp1 = [Fraction(1, factorial(k)) for k in range(order + 1)]
        exp_half = [Fraction(1, 2**k * factorial(k)) for k in range(order + 1)]
        e1 = [Fraction(0)] + exp1[1:]
        half = convolve([Fraction(0), Fraction(1)], exp_half, order)
        e1_squared = convolve(e1, e1, order)
        x2_exp = convolve([Fraction(0), Fraction(0), Fraction(1)], exp1, order)
        for series in (e1, half, e1_squared, x2_exp):
            assert series[0] == 0
        for k in range(1, order + 1):
            assert factorial(k) * e1[k] == 1
            assert factorial(k) * half[k] == Fraction(k, 2 ** (k - 1))
            assert factorial(k) * e1_squared[k] == 2**k - 2
            assert factorial(k) * x2_exp[k] == k * (k - 1)

    def test_certificates_build_no_series(self, monkeypatch):
        from durfee.series import TruncatedSeries

        expected = {
            (total - r, r): stirling_factorial_sum(total - r, r)
            for total in range(1, 31)
            for r in range(1, total + 1)
        }
        expected[15, 15] = stirling_factorial_sum(15, 15)

        def refuse(*args, **kwargs):
            raise AssertionError("a certificate built a TruncatedSeries")

        monkeypatch.setattr(TruncatedSeries, "__init__", refuse)
        for (n, r), value in expected.items():
            assert composition_factorial_sum(n, r) == value
        for n in range(0, 9):
            for r in range(1, 9):
                assert multinomial_recursion_check(n, r)
        assert dominance_inequality_checks()


class TestProductBounds:
    def test_min_product_values(self):
        assert min_product_bound(2, 1) == 6
        assert min_product_bound(2, 2) == 4
        assert min_product_bound(3, 2) == 12
        assert min_product_bound(4, 2) == 36
        assert min_product_bound(5, 2) == 144

    def test_balanced_closed_form_matches_enumeration(self):
        # balanced composition is optimal for every n, r, not only n > r
        for n in range(2, 8):
            for r in range(1, 6):
                assert balanced_min_product(n, r) == min_product_bound(n, r)

    def test_min_product_range(self):
        with pytest.raises(ValueError):
            min_product_bound(1, 2)
        with pytest.raises(ValueError):
            balanced_min_product(2, 0)

    def test_composition_sum_values(self):
        assert power_composition_sum(2, (3, 3)) == 12
        assert power_composition_sum(0, (3, 3)) == 1
        assert falling_composition_sum(2, (4,)) == 6
        assert falling_composition_sum(0, ()) == 1
        assert falling_composition_sum(1, ()) == 0
        # parts longer than p - 1 die inside the falling factorial
        assert falling_composition_sum(3, (2,)) == 0

    def test_composition_sums_match_brute_enumeration(self):
        # m = 0..10, r = 0..6 where the tuple scan stays small; degrees 1..6,
        # so 0^0 = 1 and parts longer than p - 1 both occur
        rng = random.Random(17)
        for m in range(11):
            for r in range(7):
                if (m + 1) ** r > 5000:
                    continue
                degrees = tuple(rng.randint(1, 6) for _ in range(r))
                comps = list(tuples_with_sum(m, r))
                power = sum(
                    prod((p - 1) ** k for p, k in zip(degrees, t)) for t in comps
                )
                falling = sum(
                    prod(prod(p - 1 - i for i in range(k)) for p, k in zip(degrees, t))
                    for t in comps
                )
                assert power_composition_sum(m, degrees) == power, (m, degrees)
                assert falling_composition_sum(m, degrees) == falling, (m, degrees)

    def test_composition_sum_conventions(self):
        # a degree 1 weighs 0^0 = 1 at k = 0 and 0 beyond
        assert power_composition_sum(0, (1,)) == 1
        assert power_composition_sum(3, (1,)) == 0
        assert power_composition_sum(3, (1, 3)) == 8
        assert falling_composition_sum(0, (1,)) == 1
        assert falling_composition_sum(2, (1, 4)) == 6
        # an empty degree list: 1 at m = 0, else 0
        for fn in (power_composition_sum, falling_composition_sum):
            assert fn(0, ()) == 1
            assert [fn(m, ()) for m in range(1, 5)] == [0] * 4
        # parts longer than p - 1 weigh 0: (0,2) gives 2, (1,1) gives 2
        assert falling_composition_sum(2, (2, 3)) == 4

    def test_composition_sum_range(self):
        with pytest.raises(ValueError):
            power_composition_sum(-1, (3,))
        with pytest.raises(ValueError):
            falling_composition_sum(-1, (3,))

    def test_falling_recursion(self):
        for r in range(1, 4):
            for degrees in combinations_with_replacement(range(2, 7), r):
                for n in range(1, 5):
                    assert falling_sum_recursion_check(n, degrees)

    def test_falling_recursion_range(self):
        with pytest.raises(ValueError):
            falling_sum_recursion_check(0, (3,))
        with pytest.raises(ValueError):
            falling_sum_recursion_check(2, ())

    def test_power_dominates_falling(self):
        for r in range(1, 4):
            for degrees in combinations_with_replacement(range(2, 7), r):
                for n in range(2, 5):
                    assert composition_sum_inequality(n, degrees)

    def test_power_falling_comparison_flips_for_curves(self):
        # at n = 1 the right side carries the extra D_0 = 1 and wins;
        # the product bound never consults this range
        assert not composition_sum_inequality(1, (2,))
        assert not composition_sum_inequality(1, (5, 5))

    def test_power_dominates_falling_range(self):
        with pytest.raises(ValueError):
            composition_sum_inequality(0, (3,))
        with pytest.raises(ValueError):
            composition_sum_inequality(2, ())
