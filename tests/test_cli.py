import csv
import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import durfee
from durfee import DegreeSpec, invariant_report, monotone_scan, search, trace_ratio, verify
from durfee.bounds import bound_coefficient
from durfee.cli import (
    ReportDocument,
    _approx,
    _parse_degrees,
    _parse_int_list,
    _parse_span,
    build_parser,
    emit,
    main,
    render_csv,
    render_json_lines,
    render_table,
)
from durfee.exactmath import CrossCheckError, unlimited_int_str
from durfee.invariants import GENUS_ROUTES, MILNOR_ROUTES, VERIFY_PG_METHODS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# (label, route) of every registry route; the label is the one a
# disagreement of the invariant's routes names
REGISTRY_ROUTES = [("milnor", route) for route in MILNOR_ROUTES] + [
    ("genus", route) for route in GENUS_ROUTES
]


def off_by_one(monkeypatch, label, route):
    """Make one registry route's line step return each value plus one."""
    routes = MILNOR_ROUTES if label == "milnor" else GENUS_ROUTES
    start, step, line = routes[route]
    monkeypatch.setitem(
        routes, route, (start, step, lambda state, degrees: [v + 1 for v in line(state, degrees)])
    )


def run_fresh(*argv):
    """main(argv) in a fresh interpreter whose address space is capped at 1 GiB.

    A traceback would show on the child's stderr, and an allocation that
    runs away fails there instead of in the test process.
    """
    src = str(Path(durfee.__file__).resolve().parents[1])
    code = (
        "import resource, sys; "
        "_, hard = resource.getrlimit(resource.RLIMIT_AS); "
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, hard)); "
        "sys.path.insert(0, sys.argv[1]); from durfee.cli import main; "
        "sys.exit(main(sys.argv[2:]))"
    )
    return subprocess.run(
        [sys.executable, "-I", "-c", code, src, *argv],
        capture_output=True, text=True, timeout=60,
    )


# 20 digits: past every list index, so each use of it as a size fails at once
PAST_INDEX = "1" + "0" * 19
# an index, but 2^62 list entries cannot be held: [x] * n fails before allocating
PAST_MEMORY = str(2**62)


def contract_corpus():
    """About 1,400 edge-case argvs; every size in them fails at once or is small."""
    n_tokens = ["", "-1", "0", "1", "2", "\u0663", "1_0", PAST_INDEX]
    degree_tokens = [
        "", ",", "3,", ",3", "x", "3e2", "3.0", "3_3", "\u0663", "\uff13", "-3", "0",
        "1", "1,1", "2", "3", "+3", " 3 ", "3,3", "5,5", "2,2,2", "1,3", "4,1,2",
        "2,3,4,5", PAST_INDEX, f"{PAST_INDEX},7", PAST_MEMORY, f"{PAST_MEMORY},3",
        f"3,{PAST_MEMORY}",
    ]
    for command in ("invariants", "verify"):
        for n in n_tokens:
            for degrees in degree_tokens:
                yield [command, "--n", n, "--degrees", degrees]
    order_tokens = ["0", "1", "2", PAST_INDEX]
    # never lo..hi with a huge hi: every such spec would be computed
    p_tokens = [
        "", "x", "2", "3,5", "2..2", "2..4", "4..2", "1..3", "0..2", "2..", "..4",
        "2..1_0", "\u0662..\u0664", f"{PAST_INDEX}..{PAST_INDEX}",
    ]
    for command in (["trace"], ["search"], ["search", "--full-grid"], ["search", "--jobs", "2"]):
        for n in order_tokens:
            for r in order_tokens:
                for p in p_tokens:
                    yield [*command, "--n", n, "--r", r, "--p", p]
    for n_max in ("-1", "0", "1", "200"):
        for r_max in ("-1", "0", "1", "2"):
            yield ["bounds", "--n-max", n_max, "--r-max", r_max]


class TestParsing:
    # int() alone would also take underscores and non-ASCII digits
    def test_degrees(self):
        assert _parse_degrees("3,3") == (3, 3)
        assert _parse_degrees("7") == (7,)
        assert _parse_degrees(" 3, +4 ,-2") == (3, 4, -2)
        for text in ("3;3", "a,b", "3_3", "\u0663,\u0663", "3,1_0", "+", "- 3"):
            with pytest.raises(ValueError, match="cannot parse degrees"):
                _parse_degrees(text)

    def test_span(self):
        assert _parse_span("2..10") == (2, 10)
        assert _parse_span(" 2 .. 5 ") == (2, 5)
        for text in ("2-10", "x..y", "2..1_0", "\u0662..5"):
            with pytest.raises(ValueError, match="cannot parse range"):
                _parse_span(text)

    def test_int_list(self):
        assert _parse_int_list("3,10,50") == (3, 10, 50)
        assert _parse_int_list(" 3 ,10") == (3, 10)
        assert tuple(_parse_int_list("2..5")) == (2, 3, 4, 5)
        for text in ("3,x", "3,1_0"):
            with pytest.raises(ValueError, match="cannot parse list"):
                _parse_int_list(text)
        with pytest.raises(ValueError, match="cannot parse range"):
            _parse_int_list("2..1_0")

    def test_int_range_is_lazy(self):
        # a range is never materialised, so a huge one parses at once
        points = _parse_int_list("2..1000000000000")
        assert len(points) == 999_999_999_999
        assert points[0] == 2


SAMPLE = ReportDocument(
    command="sample",
    params={"k": "v"},
    columns=("a", "b"),
    rows=[(1, "x/y"), (2, "z")],
    notes=["first note"],
)


# n, r, --n-max and --r-max up to 6, degrees and spans up to 12: every
# drawn argv either fails at once or is small enough to compute in a moment.
# Some values are out of range (n = 0, degree 0, a span that starts below 2
# or runs backwards); _BAD adds malformed ones.
_ORDERS = st.integers(0, 6).map(str)
_DEGREES = st.lists(st.integers(0, 12), min_size=1, max_size=5).map(
    lambda ps: ",".join(map(str, ps))
)
_SPANS = st.builds(
    lambda ends, backwards: "{}..{}".format(*sorted(ends, reverse=backwards)),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    st.sampled_from([False, False, True]),
)
_FORMATS = st.sampled_from(["table", "csv", "json-lines"])
# a value that is malformed, out of range or of the wrong kind; as a --jobs
# value each is rejected before any worker is started
_BAD = st.sampled_from(
    ["", "x", "0", "-1", "+0", "1_0", "\u0663", "3,", ",3", "0,3", "3.0", "..", "9..2", "1..3",
     "2..", "xml"]
)
_JUNK = _BAD | st.sampled_from(["-", "--", "--bogus", "-h", "--n", "--p", "--full-grid", "verify"])


def _option_groups(command: str):
    """The option groups of command, each as (flag, value strategy); a value None is a switch."""
    fmt = [("--format", _FORMATS)]
    if command in ("invariants", "verify"):
        return [("--n", _ORDERS), ("--degrees", _DEGREES), *fmt]
    if command == "bounds":
        return [("--n-max", _ORDERS), ("--r-max", _ORDERS), *fmt]
    p = _SPANS if command == "search" else _SPANS | _DEGREES
    groups = [("--n", _ORDERS), ("--r", _ORDERS), ("--p", p), *fmt]
    if command == "search":
        groups += [("--full-grid", None), ("--jobs", st.just("1"))]
    return groups


@st.composite
def fuzzed_argvs(draw):
    """A valid argv, its option groups in any order, with up to two faults:
    a group left out, a group's value replaced by a bad one, a junk token anywhere."""
    command = draw(st.sampled_from(["invariants", "verify", "bounds", "search", "trace"]))
    groups = [
        [flag] if values is None else [flag, draw(values)]
        for flag, values in draw(st.permutations(_option_groups(command)))
    ]
    junk = []
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        fault = draw(st.sampled_from(["drop", "bad", "junk"]))
        if fault == "junk":
            junk.append(draw(_JUNK))
            continue
        i = draw(st.integers(0, len(groups) - 1))
        if fault == "drop":
            del groups[i]
        else:  # a switch takes the bad value as a stray argument
            groups[i] = [groups[i][0], draw(_BAD)]
    argv = [command] + [token for group in groups for token in group]
    for token in junk:
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


class TestRendering:
    def test_table(self):
        text = render_table(SAMPLE)
        lines = text.splitlines()
        assert "# command: sample" in lines
        assert "# k: v" in lines
        assert "# note: first note" in lines
        # header then rows, aligned, notes last
        assert lines[-4].startswith("a")
        assert lines[-3].split() == ["1", "x/y"]
        assert lines[-1] == "# note: first note"

    def test_table_literal(self):
        # a cell wider than its header widens the column; the last column
        # is padded like the others and then stripped
        doc = ReportDocument(
            command="sample",
            params={},
            columns=("a", "bb", "c"),
            rows=[(12345, "x", "y"), (1, "long", "")],
            notes=["n"],
        )
        assert render_table(doc) == (
            f"# command: sample\n# version: {durfee.__version__}\n"
            "a      bb    c\n"
            "12345  x     y\n"
            "1      long\n"
            "# note: n\n"
        )

    def test_table_without_rows_is_header_only(self):
        doc = ReportDocument(
            command="empty", params={"k": "v"}, columns=("first", "second"), rows=[]
        )
        assert render_table(doc) == (
            f"# command: empty\n# version: {durfee.__version__}\n# k: v\n"
            "first  second\n"
        )

    def test_version_header_is_the_package_version(self):
        assert f"# version: {durfee.__version__}" in render_table(SAMPLE).splitlines()

    def test_csv(self):
        text = render_csv(SAMPLE)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows == [["a", "b"], ["1", "x/y"], ["2", "z"]]

    def test_json_lines(self):
        text = render_json_lines(SAMPLE)
        parsed = [json.loads(line) for line in text.splitlines()]
        assert parsed == [{"a": 1, "b": "x/y"}, {"a": 2, "b": "z"}]

    def test_emit_routes_metadata_to_stderr(self):
        out, err = io.StringIO(), io.StringIO()
        emit(SAMPLE, "csv", out=out, err=err)
        assert out.getvalue() == render_csv(SAMPLE)
        assert "# command: sample" in err.getvalue()
        assert "# note: first note" in err.getvalue()

    def test_emit_table_is_stdout_only(self):
        out, err = io.StringIO(), io.StringIO()
        emit(SAMPLE, "table", out=out, err=err)
        assert err.getvalue() == ""
        assert "# command: sample" in out.getvalue()

    def test_emit_unknown_format(self):
        with pytest.raises(ValueError):
            emit(SAMPLE, "yaml", out=io.StringIO(), err=io.StringIO())


class TestReportPath:
    @pytest.mark.parametrize("fmt", ["table", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("invariants", "--n", "2", "--degrees", "3,3"),
            ("verify", "--n", "2", "--degrees", "3,3"),
            ("bounds", "--n-max", "2", "--r-max", "3"),
            ("search", "--n", "2", "--r", "2", "--p", "2..4", "--full-grid"),
            ("trace", "--n", "2", "--r", "2", "--p", "3,10"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_commands_return_their_document(self, capsys, argv, fmt):
        # a reporting command writes nothing; main renders what it returns
        args = build_parser().parse_args([*argv, "--format", fmt])
        doc = args.func(args)
        assert type(doc) is ReportDocument
        assert capsys.readouterr() == ("", "")
        out, err = io.StringIO(), io.StringIO()
        emit(doc, fmt, out=out, err=err)
        assert run_cli(capsys, *argv, "--format", fmt) == (0, out.getvalue(), err.getvalue())


class TestInvariantsCommand:
    def test_table_output(self, capsys):
        code, out, err = run_cli(
            capsys, "invariants", "--n", "2", "--degrees", "3,3"
        )
        assert code == 0
        assert "# command: invariants" in out
        assert "80" in out and "15" in out and "81" in out
        assert "strong-durfee-violated" in out
        assert "new-conjecture-holds" in out

    def test_csv_split_streams(self, capsys):
        code, out, err = run_cli(
            capsys, "invariants", "--n", "2", "--degrees", "3,3", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:5] == ["n", "r", "degrees", "mu", "pg"]
        assert rows[1][:6] == ["2", "2", "3,3", "80", "15", "81"]
        assert "# command: invariants" in err
        assert "mu agrees across" in err

    def test_csv_and_json_lines_carry_the_same_row(self, capsys):
        _, csv_out, _ = run_cli(
            capsys, "invariants", "--n", "2", "--degrees", "4,2", "--format", "csv"
        )
        _, jl_out, _ = run_cli(
            capsys,
            "invariants",
            "--n",
            "2",
            "--degrees",
            "4,2",
            "--format",
            "json-lines",
        )
        header, row = list(csv.reader(io.StringIO(csv_out)))
        parsed = json.loads(jl_out)
        assert [str(parsed[c]) for c in header] == row

    def test_degrees_echoed_sorted_with_note(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--n", "2", "--degrees", "5,3")
        assert code == 0
        assert "3,5" in out
        assert "sorted order" in out

    def test_hyperplane_degrees_reduced_with_note(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--n", "2", "--degrees", "1,3")
        assert code == 0
        assert "dropped 1 hyperplane" in out
        # reported row is the reduced spec
        assert " 8" in out or "\t8" in out

    def test_smoothness_note_present(self, capsys):
        _, out, _ = run_cli(capsys, "invariants", "--n", "2", "--degrees", "3")
        assert "smooth generic complete intersection" in out

    @pytest.mark.parametrize(
        "n, degrees",
        [(1, "3"), (1, "4,4"), (2, "3,3"), (2, "5,2,3"), (2, "1,3,1"), (3, "2,4"), (3, "4,1,2,2")],
    )
    def test_same_row_as_verify(self, capsys, n, degrees):
        rows = {}
        for command in ("invariants", "verify"):
            code, out, _ = run_cli(
                capsys, command, "--n", str(n), "--degrees", degrees, "--format", "csv"
            )
            assert code == 0
            rows[command] = out
        assert rows["invariants"] == rows["verify"]

    def test_does_not_call_verify(self, capsys, monkeypatch):
        import durfee.cli as cli

        def boom(spec):
            raise AssertionError("invariants must not run verify")

        monkeypatch.setattr(cli, "verify", boom)
        code, out, _ = run_cli(capsys, "invariants", "--n", "2", "--degrees", "3,3")
        assert code == 0
        assert "new-conjecture-holds" in out


class TestVerifyCommand:
    def test_surface_notes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--degrees", "3,3")
        assert code == 0
        assert "new-conjecture: mu > 4 * pg (strict bound)" in out
        assert "strong coefficient 6: mu < 90" in out
        assert "limit coefficient 36/7" in out
        assert "surface excess E = -3/7 (negative)" in out

    def test_positive_excess_reported(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--n", "2", "--degrees", "5,5")
        assert "surface excess E = 1/7 (positive)" in out

    def test_curve_identity_verdict(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--n", "1", "--degrees", "3")
        assert "identity-verified" in out


class TestBoundsCommand:
    def test_default_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n-max", "3", "--r-max", "4")
        assert code == 0
        assert "36/7" in out
        assert "5.142857" in out
        # n = 1 sits at its floor 2 for every r
        lines = [l for l in out.splitlines() if l.startswith("1 ")]
        assert lines and all("true" in l for l in lines)

    def test_row_count_csv(self, capsys):
        _, out, _ = run_cli(
            capsys, "bounds", "--n-max", "4", "--r-max", "6", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 4 * 6
        assert all(row[6] == "true" for row in rows[1:])  # non_increasing

    def test_rejects_bad_limits(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n-max", "0")
        assert code == 2
        assert "error:" in err

    def test_coefficients_past_the_float_range(self, capsys):
        # C(n, 1) = (n+1)! passes the largest float from n = 170 on
        code, out, err = run_cli(
            capsys, "bounds", "--n-max", "200", "--r-max", "2", "--format", "csv"
        )
        assert code == 0, err
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 200 * 2
        assert rows[1 + 14 * 2 + 1][:4] == ["15", "2", "11158821273600/257", "43419538029.571984"]


class TestApprox:
    def test_rounds_the_exact_value(self):
        # the nearest float to C(15, 2) prints ...571983
        assert _approx(bound_coefficient(15, 2)) == "43419538029.571984"
        assert _approx(bound_coefficient(17, 2)) == "4176369018739.726027"
        assert _approx(Fraction(1, 3)) == "0.333333"
        assert _approx(7) == "7.000000"

    def test_ties_round_half_to_even(self):
        assert _approx(Fraction(1, 2 * 10**6)) == "0.000000"
        assert _approx(Fraction(3, 2 * 10**6)) == "0.000002"

    def test_whole_part_past_the_digit_limit(self):
        text = _approx(10**5000 + Fraction(2, 3))
        assert text == "1" + "0" * 5000 + ".666667"

    def test_default_bounds_table_matches_the_float_text(self):
        # every value of the default table is small enough for a float to round right
        for n in range(1, 9):
            for r in range(1, 13):
                value = bound_coefficient(n, r)
                assert _approx(value) == f"{float(value):.6f}"


class TestSearchCommand:
    def test_equal_scan_table(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "2", "--r", "2", "--p", "2..6")
        assert code == 0
        assert "scanned 5 specs, 4 violations" in out
        assert "minimal violation: degrees 3,3 (mu 80, pg 15)" in out
        assert "strong-durfee+coefficient-bound" in out

    def test_no_violation_note(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "2", "--r", "1", "--p", "2..8")
        assert code == 0
        assert "no violations found" in out

    def test_full_grid_csv(self, capsys):
        _, out, err = run_cli(
            capsys,
            "search",
            "--n",
            "2",
            "--r",
            "2",
            "--p",
            "2..4",
            "--full-grid",
            "--format",
            "csv",
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[2] for r in rows[1:]] == ["2,3", "2,4", "3,3", "3,4", "4,4"]
        assert "# mode: full_grid" in err

    def test_jobs_leave_stdout_byte_identical(self, capsys):
        _, serial, _ = run_cli(
            capsys,
            "search", "--n", "2", "--r", "2", "--p", "2..6",
            "--jobs", "1", "--format", "json-lines",
        )
        _, parallel, _ = run_cli(
            capsys,
            "search", "--n", "2", "--r", "2", "--p", "2..6",
            "--jobs", "2", "--format", "json-lines",
        )
        assert serial == parallel

    def test_route_disagreement_exits_3(self, capsys, monkeypatch):
        # one route's line step off by one: the line walk compares both
        # routes at every spec, so the first spec already fails
        off_by_one(monkeypatch, "milnor", "series")
        code, out, err = run_cli(
            capsys, "search", "--n", "2", "--r", "3", "--p", "2..5", "--full-grid"
        )
        assert code == 3
        assert out == ""
        assert err == (
            "internal cross-check failure: milnor methods disagree for "
            "DegreeSpec(n=2, degrees=(2, 2, 2)): {'closed_sum': 31, 'series': 32}\n"
        )

    def test_equal_flag_is_gone(self, capsys):
        # equal degrees are the default, and there is no flag that selects them
        code, out, err = run_cli(
            capsys, "search", "--n", "2", "--r", "2", "--p", "2..6", "--equal"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage: durfee ")
        assert err.endswith("\ndurfee: error: unrecognized arguments: --equal\n")

    def test_bad_span_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "search", "--n", "2", "--r", "2", "--p", "2-6")
        assert code == 2
        assert "error:" in err


class TestTraceCommand:
    def test_list_input(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--n", "2", "--r", "2", "--p", "3,10", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][0] == "3" and rows[1][5] == "4/21"
        assert rows[2][5] == "369/10325"

    def test_excluded_point_has_empty_cells(self, capsys):
        _, out, _ = run_cli(
            capsys, "trace", "--n", "3", "--r", "1", "--p", "2..4", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][7] == "false" and rows[1][3] == ""
        assert rows[3][7] == "true"

    @pytest.mark.parametrize(
        "label, route", [("milnor", "series"), ("genus", "inclusion_exclusion")]
    )
    def test_values_are_cross_checked(self, capsys, monkeypatch, label, route):
        off_by_one(monkeypatch, label, route)
        code, out, err = run_cli(capsys, "trace", "--n", "2", "--r", "2", "--p", "3,10")
        assert code == 3
        assert out == ""
        assert err.startswith("internal cross-check failure: ")

    @pytest.mark.parametrize("span", ["5..2", "3..2"])
    def test_reversed_range_exits_2(self, capsys, span):
        code, out, err = run_cli(capsys, "trace", "--n", "2", "--r", "2", "--p", span)
        assert code == 2
        assert out == ""
        assert err == f"error: empty range {span!r}; expected lo <= hi, like 2..10\n"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="interpreters before 3.10.7 have no int-to-str digit limit",
)
class TestLongResults:
    # five degrees of 10^900: pg has about 6,300 digits, past the
    # interpreter's default int-to-str limit of 4,300
    BIG = ",".join(["1" + "0" * 900] * 5)

    @pytest.mark.parametrize("fmt", ["table", "csv", "json-lines"])
    def test_render(self, capsys, fmt):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(
            capsys, "verify", "--n", "2", "--degrees", self.BIG, "--format", fmt
        )
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit
        text = out + err
        assert "new-conjecture-holds" in text
        assert max(len(word) for word in text.replace(",", " ").split()) > 4300

    def test_long_disagreement_exits_3(self, capsys, monkeypatch):
        off_by_one(monkeypatch, "genus", "inclusion_exclusion")
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--degrees", self.BIG)
        assert code == 3
        assert out == ""
        assert err.startswith("internal cross-check failure: genus methods disagree")
        assert sys.get_int_max_str_digits() == limit

    # a curve of degree 10^2200 - 1: pg and the bound cells have about 4,400
    # digits; the stdout of the renderer that printed Fraction cells, as
    # (bytes, sha256)
    NINES = "9" * 2200
    SEARCH_STDOUT = {
        "table": (59645, "17afff4af95c11f8368e6a06b3e75974c52b909f612b50362d5d0b1391963ec4"),
        "json-lines": (24329, "98927d43b020890435355cdf4f4107b208386853bc3337d7f9a46b57bbf928ba"),
    }

    @pytest.mark.parametrize("fmt", ["table", "json-lines"])
    def test_search_bound_cells_past_the_digit_limit(self, capsys, fmt):
        limit = sys.get_int_max_str_digits()
        span = f"{self.NINES}..{self.NINES}"
        code, out, err = run_cli(
            capsys, "search", "--n", "1", "--r", "1", "--p", span, "--format", fmt
        )
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit
        data = out.encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == self.SEARCH_STDOUT[fmt]
        if fmt == "json-lines":
            # the text cells are what str() of verify()'s Fractions writes
            v = verify(DegreeSpec(1, (int(self.NINES),)))
            with unlimited_int_str():
                (row,) = map(json.loads, out.splitlines())
                cells = [str(v.strong_value), str(v.bound_value), str(v.coefficient_value)]
            assert [row["strong_bound"], row["conjecture_bound"], row["coefficient_bound"]] == cells

    def test_long_degree_still_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "2", "--degrees", "1" * 4301)
        assert code == 2
        assert "cannot parse degrees" in err


class TestExitCodes:
    def test_invalid_dimension(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "--n", "0", "--degrees", "3")
        assert code == 2
        assert "error:" in err

    def test_smooth_germ(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "--n", "2", "--degrees", "1,1")
        assert code == 2
        assert "smooth germ" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["invariants", "--n", "2", "--degrees", "3_3"],
            ["verify", "--n", "2", "--degrees", "\u0663,\u0663"],
            ["search", "--n", "2", "--r", "2", "--p", "2..1_0"],
            ["trace", "--n", "2", "--r", "2", "--p", "3,1_0"],
        ],
    )
    def test_python_literal_extras_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot parse ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["invariants", "--degrees", "3", "--n", "1_0"],
            ["bounds", "--n-max", "\u0662"],
            ["bounds", "--r-max", "1_2"],
            ["search", "--n", "2", "--p", "2..4", "--r", "\u0663"],
            ["search", "--n", "2", "--r", "2", "--p", "2..4", "--jobs", "\u0662"],
            ["trace", "--n", "2", "--p", "3", "--r", "x"],
        ],
    )
    def test_integer_options_take_ascii_digits_only(self, capsys, argv):
        # the bad value comes last; argparse rejects it with int's usage error
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage: durfee {argv[0]} ")
        assert err.endswith(
            f"\ndurfee {argv[0]}: error: argument {argv[-2]}: invalid int value: {argv[-1]!r}\n"
        )

    @pytest.mark.parametrize("label, route", REGISTRY_ROUTES)
    def test_one_route_off_by_one_exits_3(self, capsys, monkeypatch, label, route):
        # every command cross-checks the routes it reports from; the dense
        # series_coeff is only among the routes of invariants
        off_by_one(monkeypatch, label, route)
        checked = label == "milnor" or route in VERIFY_PG_METHODS
        for argv in (
            ["invariants", "--n", "2", "--degrees", "3,4"],
            ["verify", "--n", "2", "--degrees", "3,4"],
            ["trace", "--n", "2", "--r", "2", "--p", "3,4"],
            ["search", "--n", "2", "--r", "2", "--p", "2..5", "--full-grid"],
        ):
            code, out, err = run_cli(capsys, *argv)
            if checked or argv[0] == "invariants":
                assert (code, out) == (3, ""), argv
                assert err.startswith(
                    f"internal cross-check failure: {label} methods disagree for DegreeSpec("
                ), argv
            else:
                assert (code, err) == (0, ""), argv

    def test_unparsable_degrees(self, capsys):
        code, _, _ = run_cli(capsys, "invariants", "--n", "2", "--degrees", "x")
        assert code == 2

    def test_cross_check_failure_exits_3(self, capsys, monkeypatch):
        import durfee.cli as cli

        def boom(spec):
            raise CrossCheckError("boom")

        monkeypatch.setattr(cli, "invariant_report", boom)
        code, _, err = run_cli(capsys, "invariants", "--n", "2", "--degrees", "3")
        assert code == 3
        assert "internal cross-check failure: boom" in err

    def test_degree_past_the_dense_series_index_exits_2(self, capsys):
        # the z-series genus route would need a list of about 10^300 entries
        degrees = f"{10**300},7"
        done = run_fresh("invariants", "--n", "2", "--degrees", degrees)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith("error: too large to compute: ")
        # verify does not take that route and still reports
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--degrees", degrees)
        assert code == 0, err
        assert "new-conjecture-holds" in out

    @pytest.mark.parametrize(
        "argv, line",
        [
            # MemoryError carries no message of its own
            (["invariants", "--n", "2", "--degrees", PAST_MEMORY],
             "error: too large to compute: out of memory\n"),
            # raised in a worker and re-raised by .result(); the pool must shut down
            (["search", "--n", PAST_INDEX, "--r", "1", "--p", "2..40", "--full-grid",
              "--jobs", "2"], None),
        ],
        ids=["degree-past-memory", "pooled-search-past-index"],
    )
    def test_oversized_input_exits_2(self, argv, line):
        done = run_fresh(*argv)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith("error: too large to compute: ")
        assert line is None or done.stderr == line

    def test_every_corpus_argv_keeps_the_exit_code_contract(self, capsys):
        escaped, broken = [], []
        for argv in contract_corpus():
            try:
                code = main(argv)
            except (SystemExit, Exception) as exc:  # main returns every code itself
                escaped.append((argv, repr(exc)))
                continue
            out, err = capsys.readouterr()
            if code not in (0, 2, 3):
                broken.append((argv, code))
            elif code == 2 and not (out == "" and self._is_one_error(err)):
                broken.append((argv, err))
        assert escaped == []
        assert broken == []

    @settings(derandomize=True, deadline=timedelta(seconds=5), max_examples=300, database=None)
    @given(argv=fuzzed_argvs())
    def test_fuzzed_argv_keeps_the_exit_code_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except (SystemExit, Exception) as exc:  # main returns every code itself
            raise AssertionError(f"{exc!r} escaped main on {argv}") from exc
        assert code in (0, 2), (argv, code, err.getvalue())
        if code == 2:
            assert out.getvalue() == "", argv
            assert self._is_one_error(err.getvalue()), (argv, err.getvalue())

    @staticmethod
    def _is_one_error(err: str) -> bool:
        """main's own failure, one error line; or argparse's usage, then one
        `durfee ...: error: ...` line."""
        if not err.startswith("usage: durfee"):
            return err.count("\n") == 1 and err.startswith("error: ")
        last = err.splitlines()[-1]
        return (err.endswith("\n") and last.startswith("durfee")
                and err.count(": error: ") == last.count(": error: ") == 1)

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: durfee [-h] ")
        assert err.endswith("\ndurfee: error: the following arguments are required: subcommand\n")

    @pytest.mark.parametrize(
        "argv, usage, listed",
        [
            (["--help"], "durfee [-h]", "selftest"),
            (["search", "-h"], "durfee search [-h]", "--jobs"),
        ],
        ids=["durfee", "search"],
    )
    def test_help_prints_and_exits_0(self, capsys, argv, usage, listed):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == ""
        assert out.startswith(f"usage: {usage} ")
        assert listed in out


class TestSelftestCommand:
    def test_runs_clean(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "dominance-chain-order-64" in out
        assert "selftest: all suites passed" in out
        assert "FAIL" not in out


class TestImportCost:
    @staticmethod
    def loaded_after_cli_import(names, *argv, flags=("-I",)):
        """Which of names a fresh interpreter, started with flags, holds after
        importing durfee.cli and, if argv is given, running main(argv) with
        its output discarded."""
        src = str(Path(durfee.__file__).resolve().parents[1])
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import durfee.cli\n"
            "if sys.argv[2:]:\n"
            "    import contextlib, io\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        assert durfee.cli.main(sys.argv[2:]) == 0\n"
            f"print(sorted({set(names)!r} & set(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, *flags, "-c", code, src, *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_cli_import_loads_no_process_pool(self):
        # the pool machinery is imported only when search starts workers
        names = {"multiprocessing", "concurrent.futures.process"}
        assert self.loaded_after_cli_import(names) == "[]\n"

    def test_cli_import_loads_no_csv_or_json(self):
        # only the csv and json-lines renderers import them
        assert self.loaded_after_cli_import({"csv", "json"}) == "[]\n"

    def test_cli_import_generates_no_record_code(self):
        # the records are named tuples: no dataclasses, and so no inspect
        assert self.loaded_after_cli_import({"dataclasses", "inspect"}) == "[]\n"

    def test_cli_import_loads_no_fractions_or_series(self):
        # the verdict constants are integers; Fractions and the z-series
        # are imported where they are built
        names = {"fractions", "decimal", "numbers", "durfee.series"}
        assert self.loaded_after_cli_import(names) == "[]\n"

    def test_cli_import_loads_no_typing(self):
        # annotations are strings and the abstract types come from
        # collections.abc; -S keeps out site, which may import typing itself
        assert self.loaded_after_cli_import({"typing"}, flags=("-I", "-S")) == "[]\n"

    def test_cli_import_loads_no_contextlib(self):
        # unlimited_int_str is a plain class, not a contextlib generator;
        # -S keeps out site, which imports contextlib itself
        assert self.loaded_after_cli_import({"contextlib"}, flags=("-I", "-S")) == "[]\n"

    @pytest.mark.parametrize("fmt", ["table", "csv", "json-lines"])
    def test_search_loads_no_fractions(self, fmt):
        # search compares and writes its cells in integers, violations included
        argv = ["search", "--n", "3", "--r", "4", "--p", "5..12", "--full-grid",
                "--jobs", "1", "--format", fmt]
        assert self.loaded_after_cli_import({"fractions"}, *argv) == "[]\n"

    def test_only_a_run_of_the_z_series_route_loads_the_series(self):
        # invariant_report runs every genus route, the z-series one too
        argv = ["invariants", "--n", "3", "--degrees", "5,6"]
        names = {"durfee.series"}
        assert self.loaded_after_cli_import(names) == "[]\n"
        assert self.loaded_after_cli_import(names, *argv) == "['durfee.series']\n"


# every named-tuple record of the package: a built instance, and its fields in order
RECORDS = {
    "ReportDocument": (lambda: ReportDocument("c", {}, (), []),
                       ("command", "params", "columns", "rows", "notes")),
    "VerdictReport": (lambda: verify(DegreeSpec(2, (3, 4))), (
        "spec", "mu", "pg", "bound_name", "bound_coefficient", "bound_value", "strict",
        "comparison", "classification", "strong_value", "strong_comparison",
        "strong_classification", "coefficient_ratio", "coefficient_comparison",
        "coefficient_value", "chi",
    )),
    "Violation": (lambda: search(2, 2, 2, 8).minimal, ("spec", "mu", "pg", "kinds")),
    "SearchResult": (lambda: search(2, 2, 2, 8), (
        "n", "r", "p_min", "p_max", "mode", "scanned", "violations", "minimal",
    )),
    "TracePoint": (lambda: trace_ratio(2, 2, [3])[0], (
        "p", "mu", "pg", "ratio", "coefficient", "deviation", "included",
    )),
    "InvariantReport": (lambda: invariant_report(DegreeSpec(2, (3, 4))), ("spec", "mu", "pg")),
    "DegreeSpec": (lambda: DegreeSpec(2, (3, 4)), ("n", "degrees")),
    "BoundCoefficient": (lambda: monotone_scan(2, 1)[0], ("n", "r", "value")),
}


class TestRecords:
    @pytest.mark.parametrize("name", RECORDS)
    def test_slotted_immutable_and_in_field_order(self, name):
        build, fields = RECORDS[name]
        record = build()
        assert type(record).__name__ == name
        assert record._fields == fields
        # a class between the record and tuple without __slots__ = () would
        # give every instance a dict
        assert not hasattr(record, "__dict__")
        for cls in type(record).__mro__[: type(record).__mro__.index(tuple)]:
            assert vars(cls).get("__slots__") == (), cls
        with pytest.raises(AttributeError):
            setattr(record, fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_report_notes_default_to_empty(self):
        assert ReportDocument("c", {}, (), []).notes == ()


class TestPackageSurface:
    def test_all_names_resolve_once(self):
        import durfee.bounds

        assert all(hasattr(durfee, name) for name in durfee.__all__)
        assert len(set(durfee.__all__)) == len(durfee.__all__)
        # the certificates run on integers, not on the Fraction series
        assert not hasattr(durfee.bounds, "TruncatedSeries")
