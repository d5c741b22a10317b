"""One test per shipped acceptance criterion, exact arithmetic throughout.

Each test prints a single machine-greppable scoreboard line

    criterion NN PASS|FAIL: <what was checked>

before asserting, so `pytest tests/test_acceptance.py -v -s` shows the full
scoreboard even when something is red.  Stated runtime budgets are part of
the criteria and are asserted alongside the mathematics.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import durfee
from durfee import (
    DegreeSpec,
    balanced_min_product,
    bound_coefficient,
    composition_factorial_sum,
    composition_sum_inequality,
    curve_identity,
    degree_grid,
    dominance_inequality_checks,
    falling_factorial,
    falling_sum_recursion_check,
    geometric_genus,
    hypersurface_identity,
    invariant_report,
    milnor_number,
    min_product_bound,
    min_product_inequality,
    monotone_scan,
    multinomial_recursion_check,
    search,
    stirling2,
    stirling_factorial_sum,
    stirling_growth_inequality,
    surface_identity,
    trace_ratio,
    verify,
)
from durfee.conjecture import STRONG_HOLDS

from _oracles import stirling_recurrence_table


def check(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num:02d}: {description}"


def test_criterion_01_minimal_surface_counterexample():
    t0 = time.monotonic()
    result = search(2, 2, 2, 10, mode="equal_degrees")
    elapsed = time.monotonic() - t0

    m = result.minimal.verdict
    ok = m.spec.degrees == (3, 3)
    ok = ok and (m.mu, m.pg) == (80, 15)
    ok = ok and m.strong_value == 90 and m.mu < m.strong_value
    ok = ok and "strong-durfee" in result.minimal.kinds
    ok = ok and all(v.verdict.spec.degrees != (2, 2) for v in result.violations)
    v22 = verify(DegreeSpec(2, (2, 2)))
    ok = ok and (v22.mu, v22.pg) == (7, 1)
    ok = ok and v22.strong_classification == STRONG_HOLDS
    ok = ok and elapsed < 1.0
    check(1, "equal-degree surface scan p=2..10, minimal violation at p=3", ok)


def test_criterion_02_every_surface_family_violates():
    t0 = time.monotonic()
    ok = True
    for r in range(2, 6):
        for p in range(3, 21):
            spec = DegreeSpec(2, (p,) * r)
            ok = ok and milnor_number(spec) < 6 * geometric_genus(spec)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    check(2, "mu < 6 pg for n=2, r=2..5, equal degrees p=3..20", ok)


def test_criterion_03_identity_suites():
    ok = True
    for r in range(1, 5):
        for degrees in degree_grid(r, 2, 9):
            ok = ok and curve_identity(DegreeSpec(1, degrees))
            ok = ok and surface_identity(DegreeSpec(2, degrees))
    for n in range(1, 7):
        for p in range(2, 13):
            ok = ok and hypersurface_identity(n, p)
            # non-negativity of the right side, recomputed from scratch;
            # stated for n >= 2, at n = 1 the gap equals 1 - p instead
            gap = (p - 1) ** (n + 1) - falling_factorial(p, n + 1)
            mu = milnor_number(DegreeSpec(n, (p,)))
            pg = geometric_genus(DegreeSpec(n, (p,)))
            ok = ok and mu - factorial(n + 1) * pg == gap
            ok = ok and (gap >= 0 if n >= 2 else gap == 1 - p)
    check(3, "curve, surface and codimension-one identity grids, zero failures", ok)


def test_criterion_04_surface_hypersurface_relation():
    ok = True
    for p in range(2, 13):
        spec = DegreeSpec(2, (p,))
        ok = ok and 6 * geometric_genus(spec) == milnor_number(spec) - p + 1
    check(4, "6 pg = mu - P + 1 for n=2, r=1, p=2..12", ok)


def test_criterion_05_bound_coefficient_table():
    ok = True
    for n in range(1, 11):
        ok = ok and bound_coefficient(n, 1) == factorial(n + 1)
        ok = ok and bound_coefficient(n, 2) == Fraction(
            factorial(n + 2) * (n + 1), 2 ** (n + 2) - 2
        )
    for n in range(1, 9):
        values = [c.value for c in monotone_scan(n, 40)]
        ok = ok and all(a >= b for a, b in zip(values, values[1:]))
        ok = ok and all(v >= 2**n for v in values)
    for r in range(1, 101):
        ok = ok and bound_coefficient(2, r) == Fraction(12 * (r + 1), 3 * r + 1)
    ok = ok and bound_coefficient(2, 100) - 4 < Fraction(1, 30)
    check(5, "C(n,1), C(n,2) closed forms; monotone chain with floor 2^n", ok)


def test_criterion_06_cross_method_agreement():
    t0 = time.monotonic()
    count = 0
    for n in range(1, 6):
        for r in range(1, 5):
            for degrees in degree_grid(r, 2, 7):
                invariant_report(DegreeSpec(n, degrees))  # raises on any mismatch
                count += 1
    elapsed = time.monotonic() - t0
    ok = count == 5 * (6 + 21 + 56 + 126) and elapsed < 60.0
    check(6, f"all mu and pg routes agree on {count} specs (n<=5, r<=4, p<=7)", ok)


def test_criterion_07_stirling_machinery():
    ok = True
    for total in range(1, 31):
        for r in range(1, total + 1):
            ok = ok and composition_factorial_sum(
                total - r, r
            ) == stirling_factorial_sum(total - r, r)
    for n in range(0, 11):
        for r in range(1, 11):
            ok = ok and multinomial_recursion_check(n, r)
    table = stirling_recurrence_table(20)
    for m in range(0, 21):
        for r in range(0, m + 1):
            ok = ok and stirling2(m, r) == table.get((m, r), 0)
    check(7, "factorial-sum routes to n+r=30; recursion; alternating formula", ok)


def test_criterion_08_dominance_chain():
    ok = dominance_inequality_checks()
    for n in range(1, 9):
        for r in range(1, 9):
            ok = ok and stirling_growth_inequality(n, r)
    check(8, "EGF dominances through order 64 and Stirling growth, n,r<=8", ok)


def test_criterion_09_product_bound_suite():
    ok = True
    for n in range(2, 6):
        for r in range(1, 5):
            if n > r:
                ok = ok and min_product_bound(n, r) == balanced_min_product(n, r)
            for degrees in degree_grid(r, 2, 7):
                ok = ok and min_product_inequality(DegreeSpec(n, degrees))
                ok = ok and falling_sum_recursion_check(n, degrees)
                ok = ok and composition_sum_inequality(n, degrees)
    check(9, "mu >= min-product pg >= 2^n pg; recursion and comparison sums", ok)


def test_criterion_10_threefold_strictness():
    ok = True
    for r in range(1, 5):
        coefficient = bound_coefficient(3, r)
        assert coefficient == Fraction(8 * (r + 2), r)
        for degrees in degree_grid(r, 2, 7):
            spec = DegreeSpec(3, degrees)
            ok = ok and milnor_number(spec) > coefficient * geometric_genus(spec)
    check(10, "mu > (8(r+2)/r) pg strictly for n=3, r<=4, p<=7", ok)


@pytest.mark.parametrize("n,r", [(2, 2), (3, 2), (2, 3)])
def test_criterion_11_deviation_strictly_decreasing(n, r):
    # the (2,2) family is known to dip under the limit near p=5 and only
    # decay monotonically past p=8, so its leg fails; the exact values are
    # pinned in test_conjecture.py
    t0 = time.monotonic()
    points = trace_ratio(n, r, (5, 10, 20, 50))
    elapsed = time.monotonic() - t0
    devs = [pt.deviation for pt in points]
    ok = all(pt.included for pt in points)
    ok = ok and all(a > b for a, b in zip(devs, devs[1:]))
    ok = ok and elapsed < 30.0
    check(11, f"|mu/pg - C({n},{r})| strictly decreasing over p=5,10,20,50", ok)


def test_criterion_12_parallel_search_is_byte_identical():
    # the child imports the same durfee package as this test, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(durfee.__file__).resolve().parents[1])}
    base = [
        sys.executable,
        "-m",
        "durfee",
        "search",
        "--n",
        "2",
        "--r",
        "2",
        "--p",
        "2..10",
    ]
    ok = True
    for fmt in ("csv", "json-lines", "table"):
        runs = [
            subprocess.run(
                base + ["--format", fmt, "--jobs", jobs],
                capture_output=True,
                check=True,
                env=env,
            )
            for jobs in ("1", "8")
        ]
        ok = ok and runs[0].stdout == runs[1].stdout
        ok = ok and runs[0].stderr == runs[1].stderr
    check(12, "search --jobs 1 and --jobs 8 emit byte-identical reports", ok)
