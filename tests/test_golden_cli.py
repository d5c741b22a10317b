"""Golden digests of the command line: every report, byte for byte.

Each entry of golden_cli.json is an argv and the sha256 of its exit code,
stdout and stderr, run in process through durfee.cli.main.  A change that
must not alter any report leaves the file as it is and passes; a change
that means to alter some output regenerates it with

    PYTHONPATH=src python tests/test_golden_cli.py

and the diff of golden_cli.json names exactly the argvs whose output moved.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from durfee.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
FORMATS = ("table", "csv", "json-lines")

# hyperplanes (degree 1) and unsorted lists included, so the echo notes show
SPEC_DEGREES = ("3,3", "5", "3,2", "1,4", "2,2,2", "4,1,2,3")
BAD_DEGREES = ("", "3,,4", "-3", "1,1", "x", " 3, 3", "+3,3", "3_3", "٣,٣")
BOUNDS_LIMITS = ((1, 1), (3, 4), (4, 6), (0, 3), (2, 0))
SEARCH_SHAPES = ((1, 2, "2..6"), (2, 2, "2..8"), (2, 3, "2..5"), (3, 1, "2..6"), (2, 1, "3..3"))
# full grids whose lines (specs that share all but the last degree) hold several specs
GRID_SHAPES = ((1, 4, "2..5"), (3, 3, "2..6"), (3, 4, "2..5"), (4, 2, "2..6"), (5, 3, "2..4"))
BAD_SPANS = ("5..2", "1..4", "2-6", "x..4", "2..1_0", " 2 .. 5 ")
# p = 2 gives pg = 0 for r = 1 and small n, so those points are excluded
TRACE_SHAPES = ((2, 2, "3,10,50"), (3, 1, "2..6"), (2, 1, "2,3,4"), (1, 3, "2..5"))
BAD_TRACES = ((2, 2, "5..2"), (2, 2, "1,3"), (0, 2, "3"), (2, 2, "3,x"), (2, 2, "2..1_0"))


def corpus() -> list[list[str]]:
    """The argvs, in a fixed order: each command in every format, then errors."""
    argvs = []
    for fmt in FORMATS:
        f = ["--format", fmt]
        for command in ("invariants", "verify"):
            for n in range(1, 5):
                for degrees in SPEC_DEGREES:
                    argvs.append([command, "--n", str(n), "--degrees", degrees, *f])
            for degrees in BAD_DEGREES:
                argvs.append([command, "--n", "2", "--degrees", degrees, *f])
            argvs.append([command, "--n", "0", "--degrees", "3,3", *f])
            argvs.append([command, "--n", "1_0", "--degrees", "3", *f])
        for n_max, r_max in BOUNDS_LIMITS:
            argvs.append(["bounds", "--n-max", str(n_max), "--r-max", str(r_max), *f])
        argvs.append(["bounds", "--n-max", "1_0", *f])
        for n, r, span in SEARCH_SHAPES:
            for grid in ([], ["--full-grid"]):
                for jobs in ("1", "2"):
                    argv = ["search", "--n", str(n), "--r", str(r), "--p", span]
                    argvs.append(argv + grid + ["--jobs", jobs] + f)
        for span in BAD_SPANS:
            argvs.append(["search", "--n", "2", "--r", "2", "--p", span, *f])
        argvs.append(["search", "--n", "2", "--r", "2", "--p", "2..4", "--jobs", "0", *f])
        argvs.append(["search", "--n", "2", "--r", "2", "--p", "2..4", "--jobs", "\u0662", *f])
        argvs.append(["search", "--n", "2", "--r", "\u0663", "--p", "2..4", *f])
        argvs.append(["search", "--n", "0", "--r", "2", "--p", "2..4", *f])
        for n, r, points in TRACE_SHAPES + BAD_TRACES:
            argvs.append(["trace", "--n", str(n), "--r", str(r), "--p", points, *f])
    argvs.append(["selftest"])
    for fmt in FORMATS:
        for n, r, span in GRID_SHAPES:
            for jobs in ("1", "2"):
                argv = ["search", "--n", str(n), "--r", str(r), "--p", span, "--full-grid"]
                argvs.append(argv + ["--jobs", jobs, "--format", fmt])
    return argvs


def digest(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects before main's handlers
            code = exc.code
    payload = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(payload.encode()).hexdigest()


def _recorded() -> list[list]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_is_the_recorded_one():
    assert [argv for argv, _ in _recorded()] == corpus()


def test_every_output_matches_its_digest():
    moved = [argv for argv, sha in _recorded() if digest(argv) != sha]
    assert moved == []


if __name__ == "__main__":
    entries = [json.dumps([argv, digest(argv)], ensure_ascii=False) for argv in corpus()]
    GOLDEN.write_text("[\n" + ",\n".join(entries) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(entries)} digests to {GOLDEN}", file=sys.stderr)
