from itertools import combinations_with_replacement

import pytest

from durfee.bounds import bound_coefficient
from durfee.invariants import DegreeSpec, geometric_genus, milnor_number
from perfbench import reference, run, workloads
from perfbench.checkout import import_cli

SMALL_OPS = [
    workloads.search_op(2, 2, 2, 12),
    workloads.search_op(3, 3, 2, 6),
    workloads.spec_op("invariants", 4, (4, 2, 3, 2)),
    workloads.spec_op("verify", 2, (3, 5, 2, 4, 2, 3, 2, 2, 3, 4)),
    workloads.spec_op("verify", 1, (2, 7)),
    workloads.trace_op(3, 2, 2, 30),
]


def test_routes_agree_with_durfee_on_a_small_grid():
    for n in range(1, 5):
        for r in range(1, 4):
            assert reference.coefficient(n, r) == bound_coefficient(n, r)
            for degrees in combinations_with_replacement(range(2, 7), r):
                spec = DegreeSpec(n, degrees)
                assert reference.milnor(n, degrees) == milnor_number(spec)
                assert reference.genus(n, degrees) == geometric_genus(spec)


def test_stirling_route_gives_the_surface_closed_form():
    for r in range(1, 21):
        assert reference.stirling_coefficient(2, r) == reference.coefficient(2, r)


@pytest.fixture(scope="module")
def outputs():
    main = import_cli().main
    return [run.run_op(main, op) for op in SMALL_OPS]


def test_reference_accepts_durfee_output(outputs):
    for out in outputs:
        assert reference.check(out.op.argv, out.status, out.stdout, out.stderr) is None, out.op.argv


def _corrupt_last_row(stdout: str, column: str) -> str:
    lines = stdout.splitlines(keepends=True)
    header, *_, last = [i for i, line in enumerate(lines) if not line.startswith("#")]
    row = lines[last]
    digit = next(i for i in range(lines[header].index(column), len(row)) if row[i].isdigit())
    lines[last] = row[:digit] + str((int(row[digit]) + 1) % 10) + row[digit + 1:]
    return "".join(lines)


@pytest.mark.parametrize("index, column", [(0, "mu"), (1, "pg"), (2, "chi"), (5, "deviation")])
def test_reference_rejects_a_corrupted_row(outputs, index, column):
    out = outputs[index]
    bad = _corrupt_last_row(out.stdout, column)
    assert bad != out.stdout
    assert reference.check(out.op.argv, out.status, bad, out.stderr) is not None


def test_reference_rejects_a_wrong_scan_count_and_a_failed_exit(outputs):
    out = outputs[0]
    bad = out.stdout.replace("# note: scanned ", "# note: scanned 1")
    assert reference.check(out.op.argv, out.status, bad, out.stderr) is not None
    assert reference.check(out.op.argv, 3, out.stdout, out.stderr) is not None
    assert reference.check(out.op.argv, 0, out.stdout, "error: boom\n") is not None
