import random
from math import prod

import pytest
from hypothesis import given, strategies as st

from durfee.exactmath import (
    CrossCheckError,
    binomial,
    compositions,
    falling_factorial,
    product_coefficients,
    stirling2,
)

from _oracles import (
    pascal,
    partitions_into_blocks,
    stirling_recurrence_table,
    tuples_with_sum,
)

# (m, r) shapes for the brute-force kernel comparisons: m = 0..10 and
# r = 0..6, wherever the tuple scan has at most 5,000 candidates
KERNEL_SHAPES = [
    (m, r) for m in range(11) for r in range(7) if (m + 1) ** r <= 5000
]


def test_binomial_matches_pascal_triangle():
    for m in range(0, 25):
        for k in range(0, m + 2):
            assert binomial(m, k) == pascal(m, k)


def test_binomial_vanishes_above_diagonal():
    assert binomial(3, 5) == 0
    assert binomial(0, 1) == 0


@pytest.mark.parametrize("m,k", [(-1, 0), (0, -1), (-2, -2)])
def test_binomial_rejects_negative(m, k):
    with pytest.raises(ValueError):
        binomial(m, k)


def test_falling_factorial_values():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 1) == 5
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(5, 5) == 120
    # one factor hits zero past p
    assert falling_factorial(3, 4) == 0
    assert falling_factorial(0, 2) == 0


def test_falling_factorial_rejects_negative():
    with pytest.raises(ValueError):
        falling_factorial(-1, 2)
    with pytest.raises(ValueError):
        falling_factorial(2, -1)


def test_falling_factorial_product_form():
    for p in range(0, 12):
        for k in range(0, p + 3):
            expected = 1
            for i in range(k):
                expected *= p - i
            assert falling_factorial(p, k) == expected


def test_stirling2_against_partition_enumeration():
    # brute set-partition count, small range only
    for m in range(0, 9):
        for r in range(0, m + 2):
            assert stirling2(m, r) == partitions_into_blocks(m, r)


def test_stirling2_against_recurrence():
    table = stirling_recurrence_table(20)
    for m in range(0, 21):
        for r in range(0, m + 1):
            assert stirling2(m, r) == table.get((m, r), 0)


def test_stirling2_edges():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 0) == 0
    assert stirling2(3, 5) == 0
    assert stirling2(6, 1) == 1
    assert stirling2(6, 6) == 1


def test_stirling2_rejects_negative():
    with pytest.raises(ValueError):
        stirling2(-1, 1)
    with pytest.raises(ValueError):
        stirling2(1, -1)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_stirling2_never_raises_crosscheck(m, r):
    # the alternating sum is always divisible by r!; a raise here is a bug
    try:
        value = stirling2(m, r)
    except CrossCheckError as exc:  # pragma: no cover
        pytest.fail(f"divisibility failed: {exc}")
    assert value >= 0


def test_compositions_enumeration():
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert list(compositions(3, 1)) == [(3,)]


def test_compositions_empty_arity():
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(2, 0)) == []


def test_compositions_count_and_sums():
    for n in range(0, 7):
        for r in range(1, 5):
            seen = list(compositions(n, r))
            assert len(seen) == binomial(n + r - 1, n)
            assert all(len(c) == r and sum(c) == n for c in seen)
            assert all(min(c) >= 0 for c in seen)
            # lexicographic and duplicate-free
            assert seen == sorted(set(seen))


def test_compositions_rejects_negative():
    with pytest.raises(ValueError):
        list(compositions(-1, 2))
    with pytest.raises(ValueError):
        list(compositions(2, -1))


def _brute_coefficient(factors, k):
    # sum over weak compositions of k of one coefficient per factor; a
    # coefficient past the end of its list is 0
    return sum(
        prod(f[i] if i < len(f) else 0 for f, i in zip(factors, t))
        for t in tuples_with_sum(k, len(factors))
    )


def test_product_coefficients_match_brute_enumeration():
    rng = random.Random(9)
    for m, r in KERNEL_SHAPES:
        # lists shorter and longer than m + 1, with signs and zeros
        factors = [
            [rng.randint(-4, 4) for _ in range(rng.randint(1, m + 3))]
            for _ in range(r)
        ]
        got = product_coefficients(factors, m)
        assert got == [_brute_coefficient(factors, k) for k in range(m + 1)], factors


def test_product_coefficients_conventions():
    # the empty product is 1
    assert product_coefficients([], 0) == [1]
    assert product_coefficients([], 3) == [1, 0, 0, 0]
    # truncation at x^m and zero padding of short lists
    assert product_coefficients([[1, 1], [1, 1]], 1) == [1, 2]
    assert product_coefficients([[1, 1], [1, 1]], 3) == [1, 2, 1, 0]
    # (1 - x) * (1 + x + x^2 + ...) = 1
    assert product_coefficients([[1, -1], [1] * 6], 5) == [1, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        product_coefficients([[1]], -1)


def test_product_coefficients_accept_any_iterable_of_lists():
    factors = [(2, 3), [5, 7]]
    assert product_coefficients(iter(factors), 2) == [10, 29, 21]
