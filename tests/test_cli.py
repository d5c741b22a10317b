import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import durfee
from durfee.cli import (
    ReportDocument,
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
from durfee.exactmath import CrossCheckError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_equal_flag_is_gone(self, capsys):
        # equal degrees are the default, and there is no flag that selects them
        with pytest.raises(SystemExit) as exc:
            main(["search", "--n", "2", "--r", "2", "--p", "2..6", "--equal"])
        assert exc.value.code == 2

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

    @pytest.mark.parametrize("route", ["_milnor_series", "_genus_inclusion_exclusion"])
    def test_values_are_cross_checked(self, capsys, monkeypatch, route):
        import durfee.invariants as invariants

        original = getattr(invariants, route)
        monkeypatch.setattr(invariants, route, lambda spec: original(spec) + 1)
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
        import durfee.invariants as invariants

        original = invariants._genus_inclusion_exclusion
        monkeypatch.setattr(
            invariants, "_genus_inclusion_exclusion", lambda spec: original(spec) + 1
        )
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--degrees", self.BIG)
        assert code == 3
        assert out == ""
        assert err.startswith("internal cross-check failure: genus methods disagree")
        assert sys.get_int_max_str_digits() == limit

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
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.rstrip().endswith(f"argument {argv[-2]}: invalid int value: {argv[-1]!r}")

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
        # the z-series genus route would need a list of about 10^300 entries;
        # checked in a fresh process, so a traceback would show on its stderr
        degrees = f"{10**300},7"
        src = str(Path(durfee.__file__).resolve().parents[1])
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); from durfee.cli import main; "
            "sys.exit(main(sys.argv[2:]))"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, src, "invariants", "--n", "2",
             "--degrees", degrees],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith("error: the dense z-series genus route (series_coeff)")
        assert f"order {10**300 + 3}" in done.stderr
        # verify does not take that route and still reports
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--degrees", degrees)
        assert code == 0, err
        assert "new-conjecture-holds" in out

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestSelftestCommand:
    def test_runs_clean(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "dominance-chain-order-64" in out
        assert "selftest: all suites passed" in out
        assert "FAIL" not in out


class TestImportCost:
    @staticmethod
    def loaded_after_cli_import(names):
        src = str(Path(durfee.__file__).resolve().parents[1])
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import durfee.cli; "
            f"print(sorted({set(names)!r} & set(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, src],
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


class TestPackageSurface:
    def test_all_names_resolve_once(self):
        import durfee.bounds

        assert all(hasattr(durfee, name) for name in durfee.__all__)
        assert len(set(durfee.__all__)) == len(durfee.__all__)
        # the certificates run on integers, not on the Fraction series
        assert not hasattr(durfee.bounds, "TruncatedSeries")
