import ast
import pickle
import random
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import durfee
from durfee import (
    CrossCheckError,
    DegreeSpec,
    GENUS_METHODS,
    MILNOR_METHODS,
    SmoothGermError,
    binomial,
    compositions,
    geometric_genus,
    invariant_report,
    milnor_fiber_euler,
    milnor_number,
)
from durfee.conjecture import judge
from durfee.invariants import GENUS_ROUTES, MILNOR_ROUTES, VERIFY_PG_METHODS

from _oracles import (
    equal_degree_genus,
    euler_brute,
    genus_brute,
    genus_series_brute,
    milnor_brute,
    milnor_equal_degree,
)

# small grid shared by the oracle comparisons; non-decreasing is enough
# because everything is symmetric in the degrees
GRID = [
    (n, degrees)
    for n in range(1, 5)
    for r in range(1, 4)
    for degrees in combinations_with_replacement(range(2, 7), r)
]


class TestDegreeSpec:
    def test_basic_properties(self):
        spec = DegreeSpec(2, (3, 3))
        assert spec.r == 2
        assert spec.ambient_dim == 4
        assert spec.degree_product == 9

    def test_coerces_degree_sequence(self):
        assert DegreeSpec(1, [2, 3]).degrees == (2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            DegreeSpec(0, (2,))
        with pytest.raises(ValueError):
            DegreeSpec(2, ())
        with pytest.raises(ValueError):
            DegreeSpec(2, (2, 0))
        with pytest.raises(ValueError):
            DegreeSpec("2", (2,))  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            DegreeSpec(True, (2,))
        with pytest.raises(ValueError):
            DegreeSpec(2, (True, 3))

    def test_drops_hyperplanes(self):
        spec = DegreeSpec(2, (1, 3, 1))
        assert spec.degrees == (3,)
        assert spec.r == 1
        assert spec == DegreeSpec(2, (3,))

    def test_all_ones_is_smooth(self):
        with pytest.raises(SmoothGermError, match="smooth germ"):
            DegreeSpec(3, (1, 1))
        # validation comes first: a bad entry is not reported as smooth
        with pytest.raises(ValueError, match="integers >= 1"):
            DegreeSpec(3, (1, 0))

    def test_sorted(self):
        assert DegreeSpec(2, (5, 2, 3)).degrees == (2, 3, 5)
        assert DegreeSpec(2, (5, 1, 2)).degrees == (2, 5)
        assert DegreeSpec(2, (3, 2)) == DegreeSpec(2, (2, 3))

    def test_error_order(self):
        # n first, then an empty list, then each degree, then all ones
        with pytest.raises(ValueError, match="dimension n"):
            DegreeSpec(0, ())
        with pytest.raises(ValueError, match="at least one degree"):
            DegreeSpec(2, ())
        with pytest.raises(ValueError, match="integers >= 1"):
            DegreeSpec(2, (1, 1, False))
        with pytest.raises(SmoothGermError, match="all degrees equal 1"):
            DegreeSpec(2, (1, 1))

    def test_is_an_immutable_value(self):
        spec = DegreeSpec(2, (3, 2))
        assert repr(spec) == "DegreeSpec(n=2, degrees=(2, 3))"
        assert hash(spec) == hash(DegreeSpec(2, [1, 2, 3]))
        # a named tuple also equals the plain tuple of its values
        assert spec == (2, (2, 3))
        for field in ("n", "degrees"):
            with pytest.raises(AttributeError):
                setattr(spec, field, 3)
        with pytest.raises(AttributeError):
            spec.extra = 1

    def test_pickle_round_trip(self):
        spec = DegreeSpec(3, (4, 1, 2))
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec
        assert type(back) is DegreeSpec

    def test_replace_keeps_the_normal_form(self):
        spec = DegreeSpec(2, (3,))
        assert spec._replace(degrees=(5, 1, 4)).degrees == (4, 5)
        with pytest.raises(ValueError, match="dimension n"):
            spec._replace(n=0)


class TestMilnor:
    def test_known_values(self):
        assert milnor_number(DegreeSpec(2, (3, 3))) == 80
        assert milnor_number(DegreeSpec(2, (3,))) == 8
        assert milnor_number(DegreeSpec(1, (3,))) == 4
        assert milnor_number(DegreeSpec(2, (2, 2))) == 7
        assert milnor_number(DegreeSpec(2, (2, 3))) == 29
        assert milnor_number(DegreeSpec(3, (2,))) == 1

    def test_hypersurface_power_law(self):
        # r = 1 must reduce to (p-1)^(n+1)
        for n in range(1, 7):
            for p in range(2, 9):
                assert milnor_number(DegreeSpec(n, (p,))) == (p - 1) ** (n + 1)

    def test_matches_brute_oracle(self):
        for n, degrees in GRID:
            assert milnor_number(DegreeSpec(n, degrees)) == milnor_brute(n, degrees)

    def test_methods_agree(self):
        for n, degrees in GRID:
            spec = DegreeSpec(n, degrees)
            assert milnor_number(spec, "series") == milnor_number(spec, "closed_sum")

    def test_matches_equal_degree_closed_form(self):
        equal = [(n, degrees) for n, degrees in GRID if len(set(degrees)) == 1]
        assert len(equal) == 4 * 3 * 5
        for n, degrees in equal:
            expected = milnor_equal_degree(n, len(degrees), degrees[0])
            for method in MILNOR_METHODS:
                assert milnor_number(DegreeSpec(n, degrees), method) == expected

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            milnor_number(DegreeSpec(2, (3,)), "guess")

    def test_smooth_germ_rejected(self):
        with pytest.raises(SmoothGermError):
            milnor_number(DegreeSpec(2, (1, 1)))

    def test_positive_on_grid(self):
        for n, degrees in GRID:
            assert milnor_number(DegreeSpec(n, degrees)) >= 1


class TestEuler:
    def test_chi_relation(self):
        for n, degrees in GRID[::5]:
            spec = DegreeSpec(n, degrees)
            assert milnor_fiber_euler(spec) == (-1) ** n * milnor_number(spec) + 1

    def test_chi_matches_integer_convolution_oracle(self):
        for n, degrees in GRID:
            assert milnor_fiber_euler(DegreeSpec(n, degrees)) == euler_brute(n, degrees)


def _mu_from_euler_oracle(n, degrees):
    chi = euler_brute(n, degrees)
    return chi - 1 if n % 2 == 0 else 1 - chi


class TestIntegerSeriesRoute:
    # deep shapes, seeded: n = 1..10, r = 1..6, degrees 2..9; and huge degrees
    DEEP = [
        (n, tuple(random.Random(100 * n + r).choices(range(2, 10), k=r)))
        for n in range(1, 11)
        for r in range(1, 7)
    ]
    HUGE = (3, (10**40, 10**60 + 7))

    def test_routes_match_oracle(self):
        for n, degrees in self.DEEP + [self.HUGE]:
            spec = DegreeSpec(n, degrees)
            expected = _mu_from_euler_oracle(n, degrees)
            assert milnor_number(spec, "series") == expected, (n, degrees)
            assert milnor_number(spec, "closed_sum") == expected, (n, degrees)

    def test_builds_no_series(self, monkeypatch):
        from durfee.series import TruncatedSeries

        def refuse(*args, **kwargs):
            raise AssertionError("the series mu route used TruncatedSeries arithmetic")

        for name in ("__mul__", "inverse", "__pow__"):
            monkeypatch.setattr(TruncatedSeries, name, refuse)
        for n, degrees in self.DEEP[::7] + [self.HUGE]:
            spec = DegreeSpec(n, degrees)
            assert milnor_number(spec, "series") == _mu_from_euler_oracle(n, degrees)
            assert milnor_fiber_euler(spec) == euler_brute(n, degrees)


class TestClosedSumRoute:
    # n = 1..10 with r as large as milnor_brute's tuple scan allows, seeded
    SHAPES = [
        (n, tuple(random.Random(31 * n + r).choices(range(2, 10), k=r)))
        for n in range(1, 11)
        for r in range(1, 7)
        if (n + 1) ** r <= 5000
    ]

    def test_matches_brute_oracle(self):
        for n, degrees in self.SHAPES:
            spec = DegreeSpec(n, degrees)
            assert milnor_number(spec, "closed_sum") == milnor_brute(n, degrees)

    def test_enumerates_no_compositions(self, monkeypatch):
        # closed_sum is one product of truncated series, while the genus
        # compositions route walks the C(n+r-1, n) compositions; this pins
        # that split
        import durfee.bounds as bounds
        import durfee.invariants as invariants

        def refuse(n, r):
            raise AssertionError("closed_sum enumerated compositions")

        monkeypatch.setattr(invariants, "compositions", refuse)
        monkeypatch.setattr(bounds, "compositions", refuse)
        for n, degrees in self.SHAPES:
            spec = DegreeSpec(n, degrees)
            assert milnor_number(spec, "closed_sum") == milnor_brute(n, degrees)

    def test_matches_brute_oracle_deep(self):
        # every n = 1..10 and r = 1..6 once, seeded, and two huge degrees
        for n in range(1, 11):
            for r in range(1, 7):
                degrees = tuple(random.Random(53 * n + r).choices(range(2, 10), k=r))
                spec = DegreeSpec(n, degrees)
                assert milnor_number(spec, "closed_sum") == milnor_brute(n, degrees)
            huge = (10**40, 10**60 + 7)
            assert milnor_number(DegreeSpec(n, huge), "closed_sum") == milnor_brute(n, huge)

    def test_convolves_nothing(self, monkeypatch):
        # closed_sum multiplies the geometric series in place, so the
        # O(r n^2) coefficient kernel is never reached
        import durfee.bounds as bounds
        import durfee.exactmath as exactmath
        import durfee.invariants as invariants

        def refuse(factors, m):
            raise AssertionError("closed_sum called product_coefficients")

        for module in (exactmath, bounds, invariants):
            monkeypatch.setattr(module, "product_coefficients", refuse, raising=False)
        for n, degrees in self.SHAPES:
            spec = DegreeSpec(n, degrees)
            assert milnor_number(spec, "closed_sum") == milnor_brute(n, degrees)

    def test_genus_compositions_walks_every_composition(self, monkeypatch):
        import durfee.invariants as invariants

        walked = []

        def counted(n, r):
            for comp in compositions(n, r):
                walked.append(comp)
                yield comp

        monkeypatch.setattr(invariants, "compositions", counted)
        for n, degrees in self.SHAPES:
            walked.clear()
            spec = DegreeSpec(n, degrees)
            assert geometric_genus(spec, "compositions") == genus_brute(n, degrees)
            assert len(walked) == binomial(n + spec.r - 1, n)


class TestGenus:
    def test_known_values(self):
        assert geometric_genus(DegreeSpec(2, (3, 3))) == 15
        assert geometric_genus(DegreeSpec(2, (3,))) == 1
        assert geometric_genus(DegreeSpec(1, (3,))) == 3
        assert geometric_genus(DegreeSpec(2, (2, 3))) == 5
        assert geometric_genus(DegreeSpec(3, (2,))) == 0
        assert geometric_genus(DegreeSpec(2, (5, 5))) == 200

    def test_matches_brute_oracles(self):
        for n, degrees in GRID:
            expected = genus_brute(n, degrees)
            assert geometric_genus(DegreeSpec(n, degrees)) == expected
            assert genus_series_brute(degrees, n) == expected

    def test_all_methods_agree(self):
        for n, degrees in GRID:
            spec = DegreeSpec(n, degrees)
            values = {m: geometric_genus(spec, m) for m in GENUS_METHODS}
            assert len(set(values.values())) == 1, values

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("r", range(1, 7))
    def test_inclusion_exclusion_matches_oracle(self, n, r):
        # mixed, equal and unsorted degrees; grouping subsets by (size, sum)
        # must not change the signed subset sum
        shapes = [
            tuple(2 + i % 4 for i in range(r)),
            (3,) * r,
            tuple(reversed(range(2, 2 + r))),
            tuple(2 + (5 * i) % 7 for i in range(r)),
        ]
        for degrees in shapes:
            spec = DegreeSpec(n, degrees)
            expected = genus_series_brute(degrees, n)
            assert geometric_genus(spec, "inclusion_exclusion") == expected
            assert geometric_genus(spec, "compositions") == expected

    def test_inclusion_exclusion_groups_equal_degrees(self, monkeypatch):
        import durfee.invariants as invariants

        calls = []

        def counted(m, k):
            calls.append((m, k))
            return binomial(m, k)

        monkeypatch.setattr(invariants, "binomial", counted)
        spec = DegreeSpec(2, (3,) * 20)
        value = geometric_genus(spec, "inclusion_exclusion")
        assert len(calls) <= 21
        monkeypatch.undo()
        assert value == geometric_genus(spec, "compositions")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_inclusion_exclusion_cancels_equal_sums(self, monkeypatch, n):
        # for degrees (2, 2, 4) the subsets {2, 2} and {4} have equal sums and
        # opposite signs, so their terms cancel before any binomial is taken:
        # 4 calls, where counting subsets by (size, sum) made 6
        import durfee.invariants as invariants

        calls = []

        def counted(m, k):
            calls.append((m, k))
            return binomial(m, k)

        monkeypatch.setattr(invariants, "binomial", counted)
        value = geometric_genus(DegreeSpec(n, (2, 2, 4)), "inclusion_exclusion")
        assert len(calls) == 4
        assert sorted(m for m, _ in calls) == [0, 2, 6, 8]
        assert value == genus_series_brute((2, 2, 4), n)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            geometric_genus(DegreeSpec(2, (3,)), "guess")

    def test_non_negative_on_grid(self):
        for n, degrees in GRID:
            assert geometric_genus(DegreeSpec(n, degrees)) >= 0


class TestInvarianceProperties:
    def test_permutation_invariance(self):
        a = DegreeSpec(2, (2, 5, 3))
        b = DegreeSpec(2, (5, 3, 2))
        assert milnor_number(a) == milnor_number(b)
        for m in GENUS_METHODS:
            assert geometric_genus(a, m) == geometric_genus(b, m)

    def test_hyperplane_invariance(self):
        # degree-1 entries change the ambient space, not the germ
        plain = DegreeSpec(2, (3, 4))
        padded = DegreeSpec(2, (1, 3, 1, 4))
        assert milnor_number(plain) == milnor_number(padded)
        assert milnor_number(plain, "series") == milnor_number(padded, "series")
        for m in GENUS_METHODS:
            assert geometric_genus(plain, m) == geometric_genus(padded, m)


class TestEqualDegreeGenus:
    def test_matches_general_formula(self):
        for n in (1, 2, 3):
            for r in range(1, 5):
                for p in range(1, 8):
                    spec_value = (
                        0
                        if p == 1
                        else geometric_genus(DegreeSpec(n, (p,) * r))
                    )
                    assert equal_degree_genus(n, r, p) == spec_value

    def test_degree_one_gives_zero(self):
        assert equal_degree_genus(2, 3, 1) == 0

    def test_out_of_range(self):
        # there is no closed form past n = 3
        with pytest.raises(ValueError):
            equal_degree_genus(4, 1, 3)


def _record_routes(monkeypatch) -> list[tuple[str, str]]:
    """Make invariant_report log each (invariant, route) it runs."""
    import durfee.invariants as inv

    calls = []
    for label, name in (("mu", "milnor_number"), ("pg", "geometric_genus")):
        def recording(spec, method, _label=label, _compute=getattr(inv, name)):
            calls.append((_label, method))
            return _compute(spec, method)

        monkeypatch.setattr(inv, name, recording)
    return calls


class TestInvariantReport:
    def test_fields_and_agreement(self, monkeypatch):
        calls = _record_routes(monkeypatch)
        spec = DegreeSpec(2, (3, 3))
        report = invariant_report(spec)
        assert (report.spec, report.mu, report.pg) == (spec, 80, 15)
        assert judge(spec, report.mu, report.pg).chi == 81
        assert sorted(calls) == sorted(
            [("mu", m) for m in MILNOR_METHODS] + [("pg", m) for m in GENUS_METHODS]
        )
        assert MILNOR_METHODS == ("closed_sum", "series")

    def test_same_routes_for_mixed_degrees(self, monkeypatch):
        calls = _record_routes(monkeypatch)
        invariant_report(DegreeSpec(2, (2, 3)))
        assert sorted(calls) == sorted(
            [("mu", m) for m in MILNOR_METHODS] + [("pg", m) for m in GENUS_METHODS]
        )

    def test_smooth_germ_rejected(self):
        with pytest.raises(SmoothGermError):
            invariant_report(DegreeSpec(2, (1,)))

    def test_fields_are_read_only(self):
        report = invariant_report(DegreeSpec(2, (3, 3)))
        for field in report._fields:
            with pytest.raises(AttributeError):
                setattr(report, field, 0)

    def test_disagreement_raises(self, monkeypatch):
        import durfee.invariants as inv

        start, step, _ = inv.GENUS_ROUTES["series_coeff"]
        monkeypatch.setitem(
            inv.GENUS_ROUTES, "series_coeff",
            (start, step, lambda state, degrees: [-1] * len(degrees)),
        )
        with pytest.raises(CrossCheckError) as info:
            invariant_report(DegreeSpec(2, (3, 3)))
        # the message names the spec and every route's value
        assert str(info.value) == (
            "genus methods disagree for DegreeSpec(n=2, degrees=(3, 3)): "
            "{'compositions': 15, 'inclusion_exclusion': 15, 'series_coeff': -1}"
        )


def _line_shapes():
    """Seeded lines (n, leading degrees, last degrees): n <= 6, r <= 5, spans <= 8.

    A line with no leading degrees (r = 1) and a line of one spec are among them.
    """
    rng = random.Random(1978)
    shapes = [(2, (), range(2, 10)), (4, (), range(3, 4)), (6, (2, 3, 3, 4), range(4, 5))]
    for _ in range(13):
        n, r = rng.randint(1, 6), rng.randint(1, 5)
        leading = tuple(sorted(rng.randint(2, 7) for _ in range(r - 1)))
        first = leading[-1] if leading else rng.randint(2, 7)
        shapes.append((n, leading, range(first, first + rng.randint(1, 8))))
    return shapes


def _genus_coefficient(n: int, degrees: tuple[int, ...]) -> int:
    return genus_series_brute(degrees, n)


class TestSplitRoutes:
    ORACLES = {
        "closed_sum": milnor_brute,
        "series": milnor_brute,
        "compositions": genus_brute,
        "inclusion_exclusion": _genus_coefficient,
        "series_coeff": _genus_coefficient,
    }

    def test_the_registries_list_every_route_in_order(self):
        assert MILNOR_METHODS == tuple(MILNOR_ROUTES) == ("closed_sum", "series")
        assert GENUS_METHODS == tuple(GENUS_ROUTES) == (
            "compositions", "inclusion_exclusion", "series_coeff"
        )
        assert set(VERIFY_PG_METHODS) < set(GENUS_ROUTES)
        assert set(self.ORACLES) == set(MILNOR_ROUTES) | set(GENUS_ROUTES)

    @pytest.mark.parametrize(
        "compute, label, method, choices",
        [
            (milnor_number, "milnor", "compositions", MILNOR_METHODS),
            (geometric_genus, "genus", "series", GENUS_METHODS),
            (geometric_genus, "genus", ["compositions"], GENUS_METHODS),
        ],
    )
    def test_an_unknown_method_names_the_choices(self, compute, label, method, choices):
        with pytest.raises(ValueError) as info:
            compute(DegreeSpec(2, (3, 3)), method)
        assert str(info.value) == f"unknown {label} method {method!r}; choose from {choices}"

    @pytest.mark.parametrize("n, leading, last_degrees", _line_shapes())
    def test_last_of_prefix_matches_the_brute_oracles(self, n, leading, last_degrees):
        # one state of the leading degrees serves every spec of the line, and
        # one line step gives the same values as a step per spec
        r = len(leading) + 1
        expected = {}
        for route, (start, step, line) in {**MILNOR_ROUTES, **GENUS_ROUTES}.items():
            oracle = self.ORACLES[route]
            if oracle not in expected:
                expected[oracle] = [oracle(n, leading + (p,)) for p in last_degrees]
            state = start(n, r)
            for p in leading:
                state = step(state, p)
            assert line(state, last_degrees) == expected[oracle], route
            assert [line(state, (p,))[0] for p in last_degrees] == expected[oracle], route
        for p in last_degrees:
            spec = DegreeSpec(n, leading + (p,))
            assert milnor_fiber_euler(spec) == euler_brute(n, spec.degrees)

    @pytest.mark.parametrize("seed", range(6))
    def test_steps_in_any_order_give_the_same_line(self, seed):
        # a search steps the leading degrees in grid order only; every
        # route's value is symmetric in them, so a shuffled order must agree
        rng = random.Random(seed)
        n, r = rng.randint(1, 5), rng.randint(2, 6)
        leading = [rng.randint(2, 8) for _ in range(r - 1)]
        shuffled = rng.sample(leading, len(leading))
        last_degrees = range(2, 2 + rng.randint(1, 6))
        for route, (start, step, line) in {**MILNOR_ROUTES, **GENUS_ROUTES}.items():
            values = []
            for order in (sorted(leading), shuffled):
                state = start(n, r)
                for p in order:
                    state = step(state, p)
                values.append(line(state, last_degrees))
            assert values[0] == values[1], (route, n, leading, shuffled)


class TestRouteRegistry:
    ROUTE_NAMES = {"closed_sum", "series", "compositions", "inclusion_exclusion", "series_coeff"}
    # what the registries replaced: a step table per invariant and a
    # wrapper per route; and the search's binomial table, gone with the
    # wrapper around math.comb it spared calls to
    DELETED = (
        "MILNOR_STEPS", "GENUS_STEPS", "_milnor_closed_sum", "_milnor_series",
        "_genus_compositions", "_genus_inclusion_exclusion", "_genus_series",
        "binomial_table", "_Binomials", "_TABLE_ENTRIES",
    )
    SOURCES = sorted(Path(durfee.__file__).parent.glob("*.py"))

    def test_route_names_live_in_one_module(self):
        # every string constant that names a route is in invariants.py; the
        # one exception is __init__.__all__, where "compositions" names the
        # exactmath function
        assert durfee.compositions is durfee.exactmath.compositions
        found = []
        for path in self.SOURCES:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            exempt = set()
            if path.name == "__init__.py":
                (listing,) = [
                    node.value for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]
                ]
                exempt = {id(node) for node in ast.walk(listing)}
            found += [
                (path.name, node.value) for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value in self.ROUTE_NAMES and id(node) not in exempt
            ]
        assert {name for name, _ in found} == {"invariants.py"}
        assert {value for _, value in found} == self.ROUTE_NAMES

    def test_the_replaced_names_are_gone(self):
        for path in self.SOURCES:
            text = path.read_text(encoding="utf-8")
            assert [name for name in self.DELETED if name in text] == [], path.name
