"""Command line interface: invariants, bounds, verify, search, trace, selftest.

Output discipline: every value is exact (integers plain, rationals as
num/den in lowest terms); optional decimal columns are explicitly named
approx_* and rounded in integers to six digits.  For csv and json-lines
the rows go to stdout and all metadata/notes go to stderr, so stdout is
byte-identical across repeated runs and across --jobs counts.  main() alone
sets exit codes: 0 success, 2 bad or too large input, 3 cross-check failure.
"""

from __future__ import annotations

import argparse
import io
import sys
from collections import namedtuple
from collections.abc import Callable, Sequence
from math import factorial

from . import __version__
from .bounds import (
    DOMINANCE_ORDER,
    composition_factorial_sum,
    dominance_inequality_checks,
    composition_sum_inequality,
    falling_sum_recursion_check,
    min_product_bound,
    balanced_min_product,
    monotone_scan,
    multinomial_recursion_check,
    stirling_factorial_sum,
)
from .conjecture import (
    bound_cells,
    curve_identity,
    hypersurface_identity,
    judge,
    min_product_inequality,
    degree_grid,
    search,
    surface_excess,
    surface_identity,
    trace_ratio,
    verify,
)
from .exactmath import CrossCheckError, stirling2, unlimited_int_str
from .invariants import (
    GENUS_METHODS,
    MILNOR_METHODS,
    SMOOTHNESS_NOTE,
    DegreeSpec,
    invariant_report,
    milnor_number,
    geometric_genus,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from fractions import Fraction

    Cell = int | Fraction | str


class ReportDocument(namedtuple(
    "ReportDocument", ("command", "params", "columns", "rows", "notes"), defaults=((),)
)):
    """One renderable report: echoed inputs, fixed columns, exact-value rows.

    Each reporting command returns one, and main() alone renders it.
    `params` maps echoed input names to text, `columns` names the columns,
    `rows` holds tuples of int, Fraction or str cells, and `notes` holds
    strings or callables that return one.  Cells stay exact and a note
    quoting a result is a callable, so that both become text inside emit(),
    past the int-to-str digit limit.
    """

    __slots__ = ()

    def meta_lines(self) -> list[str]:
        lines = [f"# command: {self.command}", f"# version: {__version__}"]
        lines += [f"# {key}: {value}" for key, value in self.params.items()]
        return lines

    def note_lines(self) -> list[str]:
        return [f"# note: {note() if callable(note) else note}" for note in self.notes]


def _approx(x: int | Fraction) -> str:  # x >= 0, rounded half to even
    whole, frac = divmod(round(x * 10**6), 10**6)
    with unlimited_int_str():
        return f"{whole}.{frac:06d}"


def _flag(b: bool) -> str:
    return "true" if b else "false"


def _degrees_cell(degrees: Sequence[int]) -> str:
    return ",".join(map(str, degrees))


def render_table(doc: ReportDocument) -> str:
    body = [list(map(str, row)) for row in doc.rows]
    widths = [max(map(len, column)) for column in zip(doc.columns, *body)]
    template = "  ".join("%%-%ds" % w for w in widths)
    out = doc.meta_lines()
    out += [(template % tuple(line)).rstrip() for line in [doc.columns, *body]]
    out += doc.note_lines()
    return "\n".join(out) + "\n"


def render_csv(doc: ReportDocument) -> str:
    import csv  # only this format needs it, so the table path never loads it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(doc.columns)
    writer.writerows(doc.rows)
    return buf.getvalue()


def render_json_lines(doc: ReportDocument) -> str:
    import json  # only this format needs it, so the table path never loads it

    lines = [
        json.dumps(dict(zip(doc.columns, row)), separators=(",", ":"), default=str)
        for row in doc.rows
    ]
    return "".join(line + "\n" for line in lines)


def emit(doc: ReportDocument, fmt: str, out=None, err=None) -> None:
    """Render doc: rows to out, and metadata and notes to err unless table.

    The int-to-str digit limit is lifted only while rendering, so input
    parsing keeps it.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    with unlimited_int_str():
        if fmt == "table":
            out.write(render_table(doc))
            return
        if fmt == "csv":
            out.write(render_csv(doc))
        elif fmt == "json-lines":
            out.write(render_json_lines(doc))
        else:
            raise ValueError(f"unknown format {fmt!r}")
        for line in doc.meta_lines() + doc.note_lines():
            err.write(line + "\n")


def _parse_int(text: str) -> int:
    """An optionally signed run of ASCII digits, with surrounding whitespace.

    Stricter than int(), which also takes underscores and non-ASCII digits.
    """
    stripped = text.strip()
    digits = stripped[1:] if stripped[:1] in ("+", "-") else stripped
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(stripped)


def _option_int(text: str) -> int:
    """argparse type of the integer options: _parse_int, with int's usage error."""
    try:
        return _parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        return tuple(_parse_int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse degrees {text!r}; expected like 3,3") from None


def _parse_span(text: str) -> tuple[int, int]:
    if ".." not in text:
        raise ValueError(f"cannot parse range {text!r}; expected like 2..10")
    lo, _, hi = text.partition("..")
    try:
        return _parse_int(lo), _parse_int(hi)
    except ValueError:
        raise ValueError(f"cannot parse range {text!r}; expected like 2..10") from None


def _parse_int_list(text: str) -> Sequence[int]:
    if ".." in text:
        lo, hi = _parse_span(text)
        if lo > hi:
            raise ValueError(f"empty range {text!r}; expected lo <= hi, like 2..10")
        return range(lo, hi + 1)  # lazy: a long range is never materialised
    try:
        return tuple(_parse_int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse list {text!r}; expected like 3,10,50") from None


INVARIANT_COLUMNS = (
    "n",
    "r",
    "degrees",
    "mu",
    "pg",
    "chi",
    "strong_verdict",
    "new_verdict",
    "bound_value",
)
BOUNDS_COLUMNS = (
    "n",
    "r",
    "coefficient",
    "approx_coefficient",
    "floor",
    "at_floor",
    "non_increasing",
)
SEARCH_COLUMNS = (
    "n",
    "r",
    "degrees",
    "mu",
    "pg",
    "violates",
    "strong_bound",
    "conjecture_bound",
    "coefficient_bound",
)
TRACE_COLUMNS = (
    "p",
    "mu",
    "pg",
    "ratio",
    "coefficient",
    "deviation",
    "approx_deviation",
    "included",
)


def _spec_from_args(args) -> tuple[DegreeSpec, list[str]]:
    """Build the spec to report on, with notes on how its degrees were echoed."""
    given = _parse_degrees(args.degrees)
    spec = DegreeSpec(args.n, given)
    notes = []
    dropped = len(given) - spec.r
    if dropped:
        notes.append(
            f"degrees reduced: dropped {dropped} hyperplane "
            f"entr{'y' if dropped == 1 else 'ies'} of degree 1"
        )
    if [p for p in given if p != 1] != list(spec.degrees):
        notes.append("degrees echoed in sorted order")
    return spec, notes


def _verdict_document(command, echo_notes, verdict) -> ReportDocument:
    """The one-row report invariants and verify share; they append own notes."""
    spec = verdict.spec
    return ReportDocument(
        command=command,
        params={"n": str(spec.n), "degrees": _degrees_cell(spec.degrees)},
        columns=INVARIANT_COLUMNS,
        rows=[(spec.n, spec.r, _degrees_cell(spec.degrees),
               verdict.mu, verdict.pg, verdict.chi, verdict.strong_classification,
               verdict.classification, verdict.bound_value)],
        notes=[*echo_notes, SMOOTHNESS_NOTE],
    )


def cmd_invariants(args) -> ReportDocument:
    spec, notes = _spec_from_args(args)
    report = invariant_report(spec)
    doc = _verdict_document("invariants", notes, judge(spec, report.mu, report.pg))
    doc.notes.append("mu agrees across " + ", ".join(MILNOR_METHODS))
    doc.notes.append("pg agrees across " + ", ".join(GENUS_METHODS))
    return doc


def cmd_verify(args) -> ReportDocument:
    spec, notes = _spec_from_args(args)
    verdict = verify(spec)
    doc = _verdict_document("verify", notes, verdict)
    strict = " (strict bound)" if verdict.strict else ""
    doc.notes.append(
        f"{verdict.bound_name}: mu {verdict.comparison} "
        f"{verdict.bound_coefficient} * pg{strict}"
    )
    doc.notes.append(
        lambda: f"strong coefficient {factorial(spec.n + 1)}: "
        f"mu {verdict.strong_comparison} {verdict.strong_value}"
    )
    doc.notes.append(
        lambda: f"limit coefficient {verdict.coefficient_ratio}: mu "
        f"{verdict.coefficient_comparison} {verdict.coefficient_value}"
    )
    if spec.n == 2:
        e = surface_excess(spec)
        sign = "zero" if e == 0 else ("positive" if e > 0 else "negative")
        doc.notes.append(lambda: f"surface excess E = {e} ({sign})")
    return doc


def cmd_bounds(args) -> ReportDocument:
    if args.n_max < 1 or args.r_max < 1:
        raise ValueError("need --n-max >= 1 and --r-max >= 1")
    rows: list[tuple[Cell, ...]] = []
    for n in range(1, args.n_max + 1):
        previous = None
        for coeff in monotone_scan(n, args.r_max):
            rows.append((
                coeff.n,
                coeff.r,
                coeff.value,
                _approx(coeff.value),
                2**coeff.n,
                _flag(coeff.value == 2**coeff.n),
                _flag(previous is None or coeff.value <= previous),
            ))
            previous = coeff.value
    return ReportDocument(
        command="bounds",
        params={"n_max": str(args.n_max), "r_max": str(args.r_max)},
        columns=BOUNDS_COLUMNS,
        rows=rows,
        notes=["approx_coefficient is a six-digit decimal approximation"],
    )


def cmd_search(args) -> ReportDocument:
    p_min, p_max = _parse_span(args.p)
    mode = "full_grid" if args.full_grid else "equal_degrees"
    result = search(args.n, args.r, p_min, p_max, mode=mode, jobs=args.jobs)
    n, r = result.n, result.r
    rows: list[tuple[Cell, ...]] = []
    if result.violations:
        cells = bound_cells(n, r)
        with unlimited_int_str():  # the bound cells are text, and may be long
            for v in result.violations:
                rows.append((
                    n, r, _degrees_cell(v.spec.degrees), v.mu, v.pg, "+".join(v.kinds),
                    *cells(v.pg),
                ))
    notes = [f"scanned {result.scanned} specs, {len(result.violations)} violations"]
    if result.minimal is not None:
        m = result.minimal
        notes.append(
            lambda: f"minimal violation: degrees {_degrees_cell(m.spec.degrees)} "
            f"(mu {m.mu}, pg {m.pg})"
        )
    else:
        notes.append("no violations found")
    return ReportDocument(
        command="search",
        params={
            "n": str(result.n),
            "r": str(result.r),
            "p": f"{result.p_min}..{result.p_max}",
            "mode": result.mode,
        },
        columns=SEARCH_COLUMNS,
        rows=rows,
        notes=notes,
    )


def cmd_trace(args) -> ReportDocument:
    points = trace_ratio(args.n, args.r, _parse_int_list(args.p))
    rows: list[tuple[Cell, ...]] = []
    for pt in points:
        rows.append((
            pt.p,
            pt.mu,
            pt.pg,
            "" if pt.ratio is None else pt.ratio,
            pt.coefficient,
            "" if pt.deviation is None else pt.deviation,
            "" if pt.deviation is None else _approx(pt.deviation),
            _flag(pt.included),
        ))
    return ReportDocument(
        command="trace",
        params={"n": str(args.n), "r": str(args.r), "p": args.p},
        columns=TRACE_COLUMNS,
        rows=rows,
        notes=[
            "approx_deviation is a six-digit decimal approximation",
            "points with pg = 0 are excluded from ratios",
        ],
    )


def _stirling_recurrence_table(m_max: int) -> dict[tuple[int, int], int]:
    table = {(0, 0): 1}
    for m in range(1, m_max + 1):
        table[(m, 0)] = 0
        for r in range(1, m + 1):
            table[(m, r)] = r * table.get((m - 1, r), 0) + table.get((m - 1, r - 1), 0)
    return table


def _selftest_suites():
    def stirling_routes() -> bool:
        table = _stirling_recurrence_table(20)
        return all(
            stirling2(m, r) == table.get((m, r), 0)
            for m in range(21)
            for r in range(m + 1)
        )

    def factorial_sum_routes() -> bool:
        return all(
            composition_factorial_sum(n, r) == stirling_factorial_sum(n, r)
            for total in range(1, 31)
            for r in range(1, total + 1)
            for n in (total - r,)
        )

    def multinomial_recursion() -> bool:
        return all(
            multinomial_recursion_check(n, r)
            for n in range(0, 11)
            for r in range(1, 11)
        )

    def monotone() -> bool:
        for n in range(1, 9):
            monotone_scan(n, 40)
        return True

    def curve_identities() -> bool:
        return all(
            curve_identity(DegreeSpec(1, degrees))
            for r in range(1, 5)
            for degrees in degree_grid(r, 2, 9)
        )

    def surface_identities() -> bool:
        return all(
            surface_identity(DegreeSpec(2, degrees))
            for r in range(1, 5)
            for degrees in degree_grid(r, 2, 9)
        )

    def hypersurface_identities() -> bool:
        return all(
            hypersurface_identity(n, p) for n in range(1, 7) for p in range(2, 13)
        )

    def surface_hypersurface_gap() -> bool:
        for p in range(2, 13):
            spec = DegreeSpec(2, (p,))
            if 6 * geometric_genus(spec) != milnor_number(spec) - p + 1:
                return False
        return True

    def method_agreement() -> bool:
        for n in range(1, 4):
            for r in range(1, 4):
                for degrees in degree_grid(r, 2, 5):
                    invariant_report(DegreeSpec(n, degrees))
        return True

    def product_bounds() -> bool:
        for n in range(2, 5):
            for r in range(1, 4):
                if n > r and min_product_bound(n, r) != balanced_min_product(n, r):
                    return False
                for degrees in degree_grid(r, 2, 5):
                    spec = DegreeSpec(n, degrees)
                    if not min_product_inequality(spec):
                        return False
                    if not falling_sum_recursion_check(n, degrees):
                        return False
                    if not composition_sum_inequality(n, degrees):
                        return False
        return True

    return [
        ("stirling-alternating-vs-recurrence", stirling_routes),
        ("factorial-sum-routes", factorial_sum_routes),
        ("multinomial-recursion", multinomial_recursion),
        (f"dominance-chain-order-{DOMINANCE_ORDER}", dominance_inequality_checks),
        ("bound-coefficient-monotone-scan", monotone),
        ("curve-identity-grid", curve_identities),
        ("surface-identity-grid", surface_identities),
        ("hypersurface-identity-grid", hypersurface_identities),
        ("surface-hypersurface-gap", surface_hypersurface_gap),
        ("method-agreement-grid", method_agreement),
        ("product-bound-grid", product_bounds),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    for name, suite in _selftest_suites():
        try:
            ok = suite()
        except CrossCheckError as exc:
            print(f"FAIL {name}: {exc}")
            failures += 1
            continue
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    if failures:
        print(f"selftest: {failures} suite(s) failed")
        return 3
    print("selftest: all suites passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="durfee",
        description="Exact invariants of cone singularities and Durfee-type bound checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("table", "csv", "json-lines"),
            default="table",
            help="output format (default: table)",
        )

    p_inv = sub.add_parser("invariants", help="compute mu, pg, chi for one spec")
    p_inv.add_argument("--n", type=_option_int, required=True, help="singularity dimension")
    p_inv.add_argument("--degrees", required=True, help="comma-separated degrees, like 3,3")
    add_format(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_ver = sub.add_parser("verify", help="evaluate the bounds for one spec")
    p_ver.add_argument("--n", type=_option_int, required=True)
    p_ver.add_argument("--degrees", required=True)
    add_format(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_bounds = sub.add_parser("bounds", help="tabulate bound coefficients C(n, r)")
    p_bounds.add_argument("--n-max", type=_option_int, default=8)
    p_bounds.add_argument("--r-max", type=_option_int, default=12)
    add_format(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_search = sub.add_parser("search", help="scan a degree grid for violations")
    p_search.add_argument("--n", type=_option_int, required=True)
    p_search.add_argument("--r", type=_option_int, required=True)
    p_search.add_argument("--p", required=True, help="degree range, like 2..10")
    p_search.add_argument("--full-grid", action="store_true",
                          help="all non-decreasing vectors (default: equal degrees)")
    p_search.add_argument("--jobs", type=_option_int, default=1, help="worker processes")
    add_format(p_search)
    p_search.set_defaults(func=cmd_search)

    p_trace = sub.add_parser("trace", help="trace mu/pg against the limit coefficient")
    p_trace.add_argument("--n", type=_option_int, required=True)
    p_trace.add_argument("--r", type=_option_int, required=True)
    p_trace.add_argument("--p", required=True, help="list like 3,10,50 or range like 2..10")
    add_format(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_self = sub.add_parser("selftest", help="run the identity and property suites")
    p_self.set_defaults(func=cmd_selftest)

    return parser


# Built on the first call and kept: a parser is a web of reference cycles,
# so a fresh one per call would leave cyclic garbage behind every call.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:  # argparse wrote its usage error (2) or the help (0)
        return exc.code
    try:
        doc = args.func(args)
        if isinstance(doc, int):  # selftest prints its own lines
            return doc
        emit(doc, args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:  # a size past what can be indexed or held
        print(f"error: too large to compute: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except CrossCheckError as exc:
        print(f"internal cross-check failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
