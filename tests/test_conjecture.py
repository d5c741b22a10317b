import pickle
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest

from durfee import (
    GENUS_METHODS,
    MILNOR_METHODS,
    CrossCheckError,
    DegreeSpec,
    SearchResult,
    binomial,
    curve_identity,
    degree_grid,
    geometric_genus,
    hypersurface_identity,
    milnor_number,
    min_product_inequality,
    search,
    surface_excess,
    surface_identity,
    trace_ratio,
    verify,
)
from durfee.cli import ReportDocument
from durfee.conjecture import (
    CONJECTURE_HOLDS,
    CONJECTURE_VIOLATED,
    IDENTITY_VERIFIED,
    STRONG_HOLDS,
    STRONG_VIOLATED,
    Violation,
    _order,
    judge,
)
from durfee.invariants import VERIFY_PG_METHODS


@pytest.fixture
def inline_pool(monkeypatch):
    """ProcessPoolExecutor swapped for a pool that runs each task in process
    as it is submitted, recording its max_workers and each task's return."""
    import concurrent.futures

    seen = SimpleNamespace(workers=[], returns=[])

    class InlinePool:
        def __init__(self, max_workers):
            seen.workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            seen.returns.append(future.result())
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return seen


def _search_shapes():
    """Seeded (n, r, p_min, p_max): n <= 6, r <= 5, spans <= 8, with r = 1
    (no leading degrees) and p_min = p_max among them."""
    rng = random.Random(16)
    shapes = [(1, 1, 2, 9), (3, 1, 4, 4), (2, 3, 5, 5), (6, 2, 2, 2)]
    for _ in range(12):
        n, r, p_min = rng.randint(1, 6), rng.randint(1, 5), rng.randint(2, 6)
        shapes.append((n, r, p_min, p_min + rng.randint(0, 7)))
    return shapes


SEARCH_SHAPES = _search_shapes()


def search_oracle(n, r, p_min, p_max, mode):
    """search() rebuilt from per-spec verify(), the violation filter and the sort.

    Each violation is the lean record search() keeps, and its verdict is
    verify()'s report on the spec.
    """
    if mode == "full_grid":
        grid = list(combinations_with_replacement(range(p_min, p_max + 1), r))
    else:
        grid = [(p,) * r for p in range(p_min, p_max + 1)]
    violations = []
    for degrees in grid:
        verdict = verify(DegreeSpec(n, degrees))
        kinds = ()
        if verdict.strong_comparison == "<":
            kinds += ("strong-durfee",)
        if n == 2 and verdict.coefficient_comparison == "<":
            kinds += ("coefficient-bound",)
        if kinds:
            violation = Violation(verdict.spec, verdict.mu, verdict.pg, kinds)
            assert violation.verdict == verdict
            violations.append(violation)
    violations.sort(key=lambda v: (sum(v.spec.degrees), v.spec.degrees))
    return SearchResult(
        n, r, p_min, p_max, mode, len(grid), tuple(violations),
        violations[0] if violations else None,
    )


class TestVerify:
    def test_surface_pair_of_cubics(self):
        v = verify(DegreeSpec(2, (3, 3)))
        assert (v.mu, v.pg) == (80, 15)
        assert v.bound_name == "new-conjecture"
        assert v.bound_coefficient == 4
        assert v.strict
        assert v.comparison == ">"
        assert v.classification == CONJECTURE_HOLDS
        assert v.strong_value == 90
        assert v.strong_comparison == "<"
        assert v.strong_classification == STRONG_VIOLATED
        assert v.coefficient_ratio == Fraction(36, 7)
        # 80 = 560/7 still beats 540/7, the limit bound only fails later
        assert v.coefficient_comparison == ">"

    def test_surface_pair_of_quintics(self):
        v = verify(DegreeSpec(2, (5, 5)))
        assert (v.mu, v.pg) == (1024, 200)
        assert v.classification == CONJECTURE_HOLDS
        assert v.strong_classification == STRONG_VIOLATED
        assert v.coefficient_comparison == "<"

    def test_surface_hypersurface_keeps_six(self):
        v = verify(DegreeSpec(2, (3,)))
        assert v.bound_coefficient == 6
        assert not v.strict
        assert (v.mu, v.pg) == (8, 1)
        assert v.comparison == ">"
        assert v.classification == CONJECTURE_HOLDS
        assert v.strong_classification == STRONG_HOLDS

    def test_curve_verdict_is_identity(self):
        v = verify(DegreeSpec(1, (2,)))
        assert v.bound_name == "curve-identity"
        assert v.classification == IDENTITY_VERIFIED
        assert (v.mu, v.pg) == (1, 1)

    def test_threefold_uses_limit_coefficient(self):
        v = verify(DegreeSpec(3, (2, 2)))
        assert v.bound_coefficient == 16
        assert not v.strict
        assert v.pg == 0
        assert v.classification == CONJECTURE_HOLDS

    def test_violated_surface(self):
        v = verify(DegreeSpec(2, (2, 3)))
        assert (v.mu, v.pg) == (29, 5)
        assert v.strong_classification == STRONG_VIOLATED  # 29 < 30
        assert v.classification == CONJECTURE_HOLDS  # 29 > 20 strictly

    def test_reduces_before_judging(self):
        v = verify(DegreeSpec(2, (1, 3)))
        assert v.spec == DegreeSpec(2, (3,))
        assert v.bound_coefficient == 6

    def test_needs_two_methods(self):
        # each constant names at least two distinct routes its function knows
        spec = DegreeSpec(2, (3, 3))
        for methods, compute in (
            (MILNOR_METHODS, milnor_number),
            (VERIFY_PG_METHODS, geometric_genus),
            (GENUS_METHODS, geometric_genus),
        ):
            assert len(set(methods)) >= 2
            assert len({compute(spec, m) for m in methods}) == 1
        assert set(VERIFY_PG_METHODS) <= set(GENUS_METHODS)

    def test_method_disagreement_raises(self, monkeypatch):
        import durfee.invariants as invariants

        def fake_milnor(spec, method="closed_sum"):
            return 80 if method == "closed_sum" else 81

        monkeypatch.setattr(invariants, "milnor_number", fake_milnor)
        with pytest.raises(CrossCheckError, match=r"\{'closed_sum': 80, 'series': 81\}"):
            verify(DegreeSpec(2, (3, 3)))
        # trace points go through verify(), so they are cross-checked alike
        with pytest.raises(CrossCheckError, match=r"\{'closed_sum': 80, 'series': 81\}"):
            trace_ratio(2, 2, (3,))

    def test_compare_helper(self):
        # judge() compares mu against coefficient * p_g in integers: the
        # strong coefficient of surfaces is 6, and C(2, 2) = 36/7
        spec = DegreeSpec(2, (3, 3))
        assert judge(spec, 6, 1).strong_comparison == "="
        assert judge(spec, 5, 1).strong_comparison == "<"
        assert judge(spec, 7, 1).strong_comparison == ">"
        # 77 * 7 = 539 against 36 * 15 = 540
        assert judge(spec, 77, 15).coefficient_comparison == "<"
        assert judge(spec, 78, 15).coefficient_comparison == ">"
        assert [_order(*pair) for pair in ((1, 2), (2, 2), (3, 2))] == ["<", "=", ">"]


class TestRecords:
    def test_verdict_pickles(self):
        # search --jobs K sends violations, and so verdicts, back from its workers
        v = verify(DegreeSpec(3, (3, 2)))
        back = pickle.loads(pickle.dumps(v))
        assert back == v
        assert type(back) is type(v)
        assert type(back.spec) is DegreeSpec

    def test_fields_are_read_only(self):
        result = search(2, 2, 2, 4, mode="full_grid")
        records = [result, result.minimal, result.minimal.verdict, trace_ratio(2, 2, [3])[0],
                   ReportDocument("sample", {}, ("a",), [(1,)])]
        for record in records:
            for field in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, field, None)


class TestJudgeBoundaries:
    # judge() is called directly, with mu placed on each bound and one off it
    SIGNS = {-1: "<", 0: "=", 1: ">"}

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_limit_coefficient_of_surfaces(self, k, delta):
        # C(2, 2) = 36/7 is not an integer; pg = 7k puts C * pg at 36k
        pg = 7 * k
        v = judge(DegreeSpec(2, (3, 3)), 36 * k + delta, pg)
        assert v.coefficient_ratio == Fraction(36, 7)
        assert v.coefficient_comparison == self.SIGNS[delta]
        assert v.coefficient_ratio * v.pg == 36 * k
        # the applicable surface bound 4 is strict and far below here
        assert v.bound_coefficient == 4 and v.strict
        assert v.classification == CONJECTURE_HOLDS

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_strong_coefficient(self, delta):
        pg = 7
        v = judge(DegreeSpec(2, (3, 3)), 6 * pg + delta, pg)
        assert v.strong_value == 42
        assert v.strong_comparison == self.SIGNS[delta]
        assert v.strong_classification == (
            STRONG_VIOLATED if delta < 0 else STRONG_HOLDS
        )

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_non_strict_limit_coefficient_above_surfaces(self, delta):
        # C(3, 3) = 40/3 is the applicable bound for threefolds, not strict
        pg = 3 * 4
        v = judge(DegreeSpec(3, (2, 2, 2)), 40 * 4 + delta, pg)
        assert v.bound_coefficient == Fraction(40, 3) and not v.strict
        assert v.bound_value == 160
        assert v.comparison == v.coefficient_comparison == self.SIGNS[delta]
        assert v.classification == (
            CONJECTURE_VIOLATED if delta < 0 else CONJECTURE_HOLDS
        )

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_strict_surface_bound(self, delta):
        pg = 5
        v = judge(DegreeSpec(2, (3, 3)), 4 * pg + delta, pg)
        assert v.comparison == self.SIGNS[delta]
        assert v.classification == (
            CONJECTURE_HOLDS if delta > 0 else CONJECTURE_VIOLATED
        )

    def test_reported_values_stay_fractions(self):
        for spec in (DegreeSpec(1, (3,)), DegreeSpec(2, (3,)), DegreeSpec(2, (3, 3)),
                     DegreeSpec(3, (2, 2, 2))):
            v = judge(spec, 100, 7)
            for name in ("strong_value", "bound_value", "bound_coefficient",
                         "coefficient_ratio"):
                assert type(getattr(v, name)) is Fraction, (spec, name)

    def test_bound_coefficient_memo_is_not_a_wrapper(self):
        import durfee.bounds as bounds

        assert not hasattr(bounds.bound_coefficient, "__wrapped__")
        assert bounds.bound_coefficient(3, 3) is bounds.bound_coefficient(3, 3)
        with pytest.raises(ValueError):
            bounds.bound_coefficient(0, 3)


class TestIdentities:
    def test_curve_identity_grid(self):
        for r in range(1, 4):
            for degrees in degree_grid(r, 2, 7):
                assert curve_identity(DegreeSpec(1, degrees))

    def test_curve_identity_needs_curves(self):
        with pytest.raises(ValueError):
            curve_identity(DegreeSpec(2, (3,)))

    def test_surface_excess_values(self):
        assert surface_excess(DegreeSpec(2, (3, 3))) == Fraction(-3, 7)
        assert surface_excess(DegreeSpec(2, (5, 5))) == Fraction(1, 7)
        assert surface_excess(DegreeSpec(2, (3,))) == -1

    def test_surface_excess_needs_surfaces(self):
        with pytest.raises(ValueError):
            surface_excess(DegreeSpec(3, (3,)))

    def test_surface_identity_grid(self):
        for r in range(1, 4):
            for degrees in degree_grid(r, 2, 7):
                assert surface_identity(DegreeSpec(2, degrees))

    def test_surface_identity_pair_of_cubics_by_hand(self):
        # 80 + 9(-3/7) + 1 = 540/7 = (36/7) * 15
        lhs = 80 + 9 * Fraction(-3, 7) + 1
        assert lhs == Fraction(540, 7) == Fraction(36, 7) * 15
        assert surface_identity(DegreeSpec(2, (3, 3)))

    def test_hypersurface_identity_grid(self):
        for n in range(1, 7):
            for p in range(2, 13):
                assert hypersurface_identity(n, p)

    def test_hypersurface_gap_sign(self):
        from durfee import falling_factorial, geometric_genus, milnor_number
        from math import factorial

        for n in range(1, 7):
            for p in range(2, 13):
                spec = DegreeSpec(n, (p,))
                gap = milnor_number(spec) - factorial(n + 1) * geometric_genus(spec)
                assert gap == (p - 1) ** (n + 1) - falling_factorial(p, n + 1)
                if n >= 2:
                    assert gap >= 0
                else:
                    # curves sit strictly below twice the delta invariant
                    assert gap == 1 - p

    def test_hypersurface_identity_range(self):
        with pytest.raises(ValueError):
            hypersurface_identity(0, 3)
        with pytest.raises(ValueError):
            hypersurface_identity(2, 1)

    def test_min_product_inequality_grid(self):
        for n in range(2, 5):
            for r in range(1, 4):
                for degrees in degree_grid(r, 2, 5):
                    assert min_product_inequality(DegreeSpec(n, degrees))

    def test_min_product_inequality_needs_n2(self):
        with pytest.raises(ValueError):
            min_product_inequality(DegreeSpec(1, (3,)))


class TestDegreeGrid:
    def test_enumeration(self):
        assert list(degree_grid(2, 2, 4)) == [
            (2, 2),
            (2, 3),
            (2, 4),
            (3, 3),
            (3, 4),
            (4, 4),
        ]

    def test_range_errors(self):
        with pytest.raises(ValueError):
            degree_grid(0, 2, 4)
        with pytest.raises(ValueError):
            degree_grid(2, 1, 4)
        with pytest.raises(ValueError):
            degree_grid(2, 5, 4)


class TestSearch:
    def test_equal_degree_surface_scan(self):
        result = search(2, 2, 2, 10)
        assert result.scanned == 9
        assert len(result.violations) == 8  # every p from 3 to 10
        minimal = result.minimal
        assert minimal.verdict.spec.degrees == (3, 3)
        assert (minimal.verdict.mu, minimal.verdict.pg) == (80, 15)
        assert "strong-durfee" in minimal.kinds
        scanned_ps = {v.verdict.spec.degrees[0] for v in result.violations}
        assert 2 not in scanned_ps
        # limit-coefficient failures only appear from p = 5 on
        for v in result.violations:
            p = v.verdict.spec.degrees[0]
            if p >= 5:
                assert v.kinds == ("strong-durfee", "coefficient-bound")
            else:
                assert v.kinds == ("strong-durfee",)

    def test_hypersurface_scan_is_clean(self):
        result = search(2, 1, 2, 10)
        assert result.scanned == 9
        assert result.violations == ()
        assert result.minimal is None

    def test_full_grid_scan(self):
        result = search(2, 2, 2, 4, mode="full_grid")
        assert result.scanned == 6
        degrees = [v.verdict.spec.degrees for v in result.violations]
        assert degrees == [(2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]
        assert result.minimal.verdict.spec.degrees == (2, 3)
        assert (result.minimal.verdict.mu, result.minimal.verdict.pg) == (29, 5)

    def test_threefold_scan(self):
        # strong bound 24 fails from p = 5 on while the limit bound 16 holds,
        # so these rows carry a single violation kind
        result = search(3, 2, 2, 6)
        degrees = [v.verdict.spec.degrees for v in result.violations]
        assert degrees == [(5, 5), (6, 6)]
        assert (result.minimal.verdict.mu, result.minimal.verdict.pg) == (5376, 250)
        assert result.minimal.kinds == ("strong-durfee",)

    def test_jobs_do_not_change_the_result(self):
        serial = search(2, 2, 2, 8, jobs=1)
        parallel = search(2, 2, 2, 8, jobs=3)
        assert serial == parallel

    @pytest.mark.parametrize("cpus, specs, workers", [(2, 5, 2), (8, 3, 3), (1, 5, None)])
    def test_pool_is_clamped(self, monkeypatch, inline_pool, cpus, specs, workers):
        import durfee.conjecture as conjecture

        monkeypatch.setattr(conjecture, "_usable_cpus", lambda: cpus)
        result = search(2, 2, 2, 1 + specs, jobs=10**6)
        assert result.scanned == specs
        assert inline_pool.workers == ([] if workers is None else [workers])
        monkeypatch.undo()
        assert result == search(2, 2, 2, 1 + specs)

    @pytest.mark.parametrize(
        "affinity, cpus, usable", [(1, 2, 1), (3, 8, 3), (None, None, 1), (None, 4, 4)]
    )
    def test_usable_cpus(self, monkeypatch, inline_pool, affinity, cpus, usable):
        # the affinity mask, where the platform has one, wins over cpu_count(),
        # so --jobs 8 on one allowed CPU scans in process
        import durfee.conjecture as conjecture

        monkeypatch.setattr(conjecture.os, "cpu_count", lambda: cpus)
        if affinity is None:
            monkeypatch.delattr(conjecture.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(conjecture.os, "sched_getaffinity",
                                lambda pid: set(range(affinity)), raising=False)
        assert conjecture._usable_cpus() == usable
        result = search(2, 2, 2, 6, jobs=8)
        assert inline_pool.workers == ([] if usable == 1 else [usable])
        monkeypatch.undo()
        assert result == search(2, 2, 2, 6)

    def test_pool_tasks_send_back_only_violations(self, monkeypatch, inline_pool):
        import durfee.conjecture as conjecture

        monkeypatch.setattr(conjecture, "_usable_cpus", lambda: 2)
        result = search(2, 2, 2, 40, mode="full_grid", jobs=2)
        returned = [item for task in inline_pool.returns for item in task]
        assert all(type(item) is Violation for item in returned)
        assert 0 < len(returned) < result.scanned
        assert sorted(returned, key=conjecture._sort_key) == list(result.violations)

    def test_pool_keeps_a_bounded_window(self, monkeypatch):
        # an in-process pool whose tasks run when their result is read; at
        # most two tasks per worker may be outstanding at any time
        import concurrent.futures

        import durfee.conjecture as conjecture

        outstanding, peak, submitted = [], [0], []

        class Task:
            def __init__(self, fn, args):
                self.fn, self.args = fn, args
                outstanding.append(self)
                peak[0] = max(peak[0], len(outstanding))

            def result(self):
                outstanding.remove(self)
                return self.fn(*self.args)

        class WindowPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                # a task is a batch of (leading degrees, last degrees) pieces of lines
                submitted.append(sum(len(last) for _, last in args[-1]))
                return Task(fn, args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", WindowPool)
        monkeypatch.setattr(conjecture, "_usable_cpus", lambda: 2)
        result = search(2, 2, 2, 40, mode="full_grid", jobs=2)
        assert sum(submitted) == result.scanned == 780
        assert len(submitted) > 4 and max(submitted) <= 256
        assert peak[0] == 4
        assert not outstanding
        monkeypatch.undo()
        assert result == search(2, 2, 2, 40, mode="full_grid")

    @pytest.mark.parametrize("n, r, p_min, p_max", [(2, 2, 2, 9), (1, 3, 3, 7), (3, 4, 2, 4)])
    def test_scanned_counts_the_grid(self, n, r, p_min, p_max):
        span = p_max - p_min + 1
        assert search(n, r, p_min, p_max, mode="full_grid").scanned == binomial(span + r - 1, r)
        assert search(n, r, p_min, p_max).scanned == span

    @pytest.mark.parametrize("mode", ["full_grid", "equal_degrees"])
    def test_line_walk_visits_each_spec_once_in_grid_order(self, monkeypatch, mode):
        # every route folds a line's leading degrees once and finishes the
        # line in one step over its last degrees, and no verdict is built
        import durfee.conjecture as conjecture
        import durfee.invariants as invariants

        events = []

        def recorded(table, route):
            prefix, line = table[route]

            def traced_prefix(n, r, leading):
                events.append(("prefix", route, leading))
                return prefix(n, r, leading)

            def traced_line(state, degrees):
                events.append(("line", route, tuple(degrees)))
                return line(state, degrees)

            monkeypatch.setitem(table, route, (traced_prefix, traced_line))

        for route in MILNOR_METHODS:
            recorded(invariants.MILNOR_ROUTES, route)
        for route in VERIFY_PG_METHODS:
            recorded(invariants.GENUS_ROUTES, route)

        def refuse(*args):
            raise AssertionError("search built a verdict")

        monkeypatch.setattr(conjecture, "judge", refuse)
        result = search(2, 3, 2, 5, mode=mode)
        if mode == "full_grid":
            grid = list(degree_grid(3, 2, 5))
        else:
            grid = [(p,) * 3 for p in range(2, 6)]
        lines = {}
        for degrees in grid:
            lines.setdefault(degrees[:-1], []).append(degrees[-1])
        routes = MILNOR_METHODS + VERIFY_PG_METHODS
        expected = [
            event
            for leading, last_degrees in lines.items()
            for route in routes
            for event in (("prefix", route, leading), ("line", route, tuple(last_degrees)))
        ]
        assert events == expected
        assert result.scanned == len(grid)
        monkeypatch.undo()
        assert result == search(2, 3, 2, 5, mode=mode)

    @pytest.mark.parametrize("mode", ["full_grid", "equal_degrees"])
    @pytest.mark.parametrize("n, r, p_min, p_max", SEARCH_SHAPES)
    def test_search_matches_per_spec_verify(self, n, r, p_min, p_max, mode):
        result = search(n, r, p_min, p_max, mode=mode)
        assert result == search_oracle(n, r, p_min, p_max, mode)
        assert all(v.verdict == verify(v.spec) for v in result.violations)

    @pytest.mark.parametrize("n, r, p_min, p_max", SEARCH_SHAPES[::3])
    def test_pooled_batches_cut_lines_and_keep_the_result(
        self, monkeypatch, inline_pool, n, r, p_min, p_max
    ):
        import durfee.conjecture as conjecture

        monkeypatch.setattr(conjecture, "_usable_cpus", lambda: 2)
        result = search(n, r, p_min, p_max, mode="full_grid", jobs=2)
        assert result == search_oracle(n, r, p_min, p_max, "full_grid")

    def test_batches_hold_size_specs_in_grid_order(self):
        import durfee.conjecture as conjecture

        lines = list(conjecture._lines(3, 2, 9, "full_grid"))
        batches = list(conjecture._batches(iter(lines), 7))
        sizes = [sum(len(last) for _, last in batch) for batch in batches]
        assert sizes[:-1] == [7] * (len(sizes) - 1) and 0 < sizes[-1] <= 7
        walked = [lead + (p,) for batch in batches for lead, last in batch for p in last]
        assert walked == list(degree_grid(3, 2, 9))

    def test_long_lines_are_cut_into_batches(self):
        # a line step holds at most 256 values, however wide the grid is
        import durfee.conjecture as conjecture

        def cut(r, p_max):
            lines = conjecture._lines(r, 2, p_max, "full_grid")
            return [piece for batch in conjecture._batches(lines, 256) for piece in batch]

        assert cut(1, 600) == [((), range(2, 258)), ((), range(258, 514)), ((), range(514, 601))]
        first, second, third = cut(2, 300)[:3]
        assert (first, second) == (((2,), range(2, 258)), ((2,), range(258, 301)))
        assert third == ((3,), range(3, 216))  # the rest of the second batch
        # lazy: a grid far past any list is never listed up front
        huge = conjecture._batches(conjecture._lines(1, 2, 10**30, "full_grid"), 256)
        assert next(huge) == [((), range(2, 258))]
        assert search(1, 1, 2, 600, mode="full_grid") == search_oracle(1, 1, 2, 600, "full_grid")

    def test_hypersurface_lines_take_one_comb_per_spec(self, monkeypatch):
        # at r = 1 only the last part k = n has a nonzero composition sum,
        # so the compositions route takes C(p, n+1) and no other binomial of p
        import durfee.invariants as invariants
        from math import comb

        calls = []

        def counted(m, k):
            calls.append((m, k))
            return comb(m, k)

        monkeypatch.setattr(invariants, "comb", counted)
        result = search(3, 1, 5, 605, mode="full_grid")
        monkeypatch.undo()
        # the series route's prefix takes C(N, k), k <= n, once per batch of 256
        assert [c for c in calls if c[0] != 4] == [(p, 4) for p in range(5, 606)]
        assert len(calls) == 601 + 3 * 4
        assert result == search_oracle(3, 1, 5, 605, "full_grid")

    @pytest.mark.parametrize("n, r, p_max, mode", [
        (2, 1, 300, "full_grid"), (3, 3, 12, "full_grid"), (2, 3, 80, "equal_degrees"),
    ])
    def test_wide_grids_match_the_oracle(self, n, r, p_max, mode):
        assert search(n, r, 2, p_max, mode=mode) == search_oracle(n, r, 2, p_max, mode)

    def test_route_disagreement_names_the_spec_and_both_values(self, monkeypatch):
        import durfee.invariants as invariants

        prefix, line = invariants.GENUS_ROUTES["inclusion_exclusion"]

        def off_at_4(state, degrees):
            return [value + (p == 4) for value, p in zip(line(state, degrees), degrees)]

        monkeypatch.setitem(invariants.GENUS_ROUTES, "inclusion_exclusion", (prefix, off_at_4))
        with pytest.raises(CrossCheckError) as info:
            search(2, 2, 2, 5, mode="full_grid")
        assert str(info.value) == (
            "genus methods disagree for DegreeSpec(n=2, degrees=(2, 4)): "
            "{'compositions': 14, 'inclusion_exclusion': 15}"
        )

    def test_full_grid_binomial_calls_repeat(self, monkeypatch):
        # inclusion-exclusion takes each C(m, N) through the module binding,
        # and two identical searches in a row make the same calls: no state
        # outlives a search
        import durfee.invariants as invariants

        calls = []

        def counted(m, k):
            calls.append((m, k))
            return binomial(m, k)

        monkeypatch.setattr(invariants, "binomial", counted)
        first = search(3, 4, 2, 9, mode="full_grid")
        first_calls, calls[:] = calls[:], []
        second = search(3, 4, 2, 9, mode="full_grid")
        assert first_calls and calls == first_calls
        monkeypatch.undo()
        assert first == second == search(3, 4, 2, 9, mode="full_grid")

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            search(0, 2, 2, 4)
        with pytest.raises(ValueError):
            search(2, 2, 1, 4)
        with pytest.raises(ValueError):
            search(2, 2, 5, 4)
        with pytest.raises(ValueError):
            search(2, 2, 2, 4, mode="random")
        with pytest.raises(ValueError):
            search(2, 2, 2, 4, jobs=0)


class TestTrace:
    def test_surface_pair_deviations(self):
        points = trace_ratio(2, 2, (3, 10, 50))
        assert [pt.deviation for pt in points] == [
            Fraction(4, 21),
            Fraction(369, 10325),
            Fraction(4643, 494375),
        ]
        assert all(pt.included for pt in points)
        assert points[0].ratio == Fraction(16, 3)
        assert points[0].coefficient == Fraction(36, 7)

    def test_zero_genus_points_excluded(self):
        # for n = 3, r = 1 the genus stays 0 up to p = 3 and turns on at p = 4
        points = trace_ratio(3, 1, (2, 3, 4))
        assert [pt.included for pt in points] == [False, False, True]
        assert points[0].ratio is None and points[0].deviation is None
        assert points[0].pg == 0
        assert points[2].pg == 1
        assert points[2].ratio == 81

    def test_deviation_not_monotone_from_the_start(self):
        # the surface pair family dips below the limit, crosses it, and
        # only decays once past the hump around p = 8
        devs = [pt.deviation for pt in trace_ratio(2, 2, (5, 10))]
        assert devs[0] < devs[1]

    def test_deviation_eventually_decreasing(self):
        devs = [pt.deviation for pt in trace_ratio(2, 2, range(8, 17))]
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_other_families_decreasing_immediately(self):
        for n, r in ((3, 2), (2, 3)):
            devs = [pt.deviation for pt in trace_ratio(n, r, (5, 10, 20, 50))]
            assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            trace_ratio(0, 2, (3,))
        with pytest.raises(ValueError):
            trace_ratio(2, 2, (1,))

    def test_each_point_is_one_verdict(self, monkeypatch):
        import durfee.conjecture as conj

        specs = []

        def recording(spec):
            specs.append(spec)
            return verify(spec)

        monkeypatch.setattr(conj, "verify", recording)
        points = trace_ratio(2, 2, (3, 10, 50))
        assert specs == [DegreeSpec(2, (p, p)) for p in (3, 10, 50)]
        assert [(pt.mu, pt.pg) for pt in points] == [(s.mu, s.pg) for s in map(verify, specs)]
