"""Independent exact reference for the outputs of the benchmark's ops.

Nothing here imports durfee.  The invariants come from routes the library
does not take:

  mu = (-1)^n (P [x^n] (1+x)^N / prod_i (1 + p_i x) - 1), each 1/(1 + p x)
       expanded as an integer geometric series;
  pg = [x^n] prod_i sum_k C(p_i, k+1) x^k, an O(r n^2) integer convolution;
  C(n, r) = C(n+r-1, n) (n+r)! / (S(n+r, r) r!), with S from the triangle
       recurrence, and C(2, r) = 12(r+1)/(3r+1) in closed form.

check() parses a table-format stdout by its header's column positions and
compares the echoed parameters, every row and, for search, the scan count
and the minimal violation.  Notes that name library routes are not
checked, so a change of routes does not fail the benchmark.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, prod
from typing import Optional, Sequence

INVARIANT_COLUMNS = ("n", "r", "degrees", "mu", "pg", "chi",
                     "strong_verdict", "new_verdict", "bound_value")
SEARCH_COLUMNS = ("n", "r", "degrees", "mu", "pg", "violates",
                  "strong_bound", "conjecture_bound", "coefficient_bound")
TRACE_COLUMNS = ("p", "mu", "pg", "ratio", "coefficient", "deviation",
                 "approx_deviation", "included")


class Reject(ValueError):
    """An output that does not match the reference."""


def milnor(n: int, degrees: Sequence[int]) -> int:
    s = [comb(n + len(degrees), k) for k in range(n + 1)]
    for p in degrees:
        for k in range(1, n + 1):
            s[k] -= p * s[k - 1]
    return (-1) ** n * (prod(degrees) * s[n] - 1)


def genus(n: int, degrees: Sequence[int]) -> int:
    acc = [1] + [0] * n
    for p in degrees:
        f = [comb(p, k + 1) for k in range(n + 1)]
        acc = [sum(acc[i] * f[k - i] for i in range(k + 1)) for k in range(n + 1)]
    return acc[n]


@lru_cache(maxsize=None)
def stirling_row(m: int) -> tuple[int, ...]:
    """S(m, 0..m) by S(m, r) = r S(m-1, r) + S(m-1, r-1)."""
    if m == 0:
        return (1,)
    prev = stirling_row(m - 1) + (0,)
    return tuple(r * prev[r] + (prev[r - 1] if r else 0) for r in range(m + 1))


def stirling_coefficient(n: int, r: int) -> Fraction:
    return Fraction(comb(n + r - 1, n) * factorial(n + r),
                    stirling_row(n + r)[r] * factorial(r))


def coefficient(n: int, r: int) -> Fraction:
    """The limit coefficient C(n, r)."""
    if n == 2:
        return Fraction(12 * (r + 1), 3 * r + 1)
    return stirling_coefficient(n, r)


def applicable_bound(n: int, r: int) -> tuple[Fraction, bool]:
    """Coefficient of the bound a verdict is judged by, and whether it is strict."""
    if n == 1:
        return Fraction(2), False
    if n == 2:
        return (Fraction(6), False) if r == 1 else (Fraction(4), True)
    return coefficient(n, r), False


def _cells(values) -> str:
    return ",".join(str(v) for v in values)


def verdict_row(n: int, degrees: Sequence[int]) -> dict[str, str]:
    """The invariants/verify row for a reduced, sorted degree list."""
    r, mu, pg = len(degrees), milnor(n, degrees), genus(n, degrees)
    coeff, strict = applicable_bound(n, r)
    if n == 1:
        ok = mu + prod(degrees) - 1 == 2 * pg
        new = "identity-verified" if ok else "identity-failed"
    else:
        holds = mu > coeff * pg or (not strict and mu == coeff * pg)
        new = "new-conjecture-holds" if holds else "new-conjecture-violated"
    strong = "strong-durfee-holds" if mu >= factorial(n + 1) * pg else "strong-durfee-violated"
    values = (n, r, _cells(degrees), mu, pg, (-1) ** n * mu + 1, strong, new, coeff * pg)
    return dict(zip(INVARIANT_COLUMNS, map(str, values)))


def violation_kinds(n: int, r: int, mu: int, pg: int) -> list[str]:
    kinds = []
    if mu < factorial(n + 1) * pg:
        kinds.append("strong-durfee")
    if n == 2 and mu * (3 * r + 1) < 12 * (r + 1) * pg:
        kinds.append("coefficient-bound")
    return kinds


def search_expectation(n: int, r: int, p_lo: int, p_hi: int) -> tuple[list[dict[str, str]], list[str]]:
    """Violation rows and notes of search --full-grid over [p_lo, p_hi]^r."""
    coeff, _ = applicable_bound(n, r)
    limit = coefficient(n, r)
    found = []
    scanned = 0
    for degrees in combinations_with_replacement(range(p_lo, p_hi + 1), r):
        scanned += 1
        mu, pg = milnor(n, degrees), genus(n, degrees)
        kinds = violation_kinds(n, r, mu, pg)
        if kinds:
            values = (n, r, _cells(degrees), mu, pg, "+".join(kinds),
                      factorial(n + 1) * pg, coeff * pg, limit * pg)
            found.append(((sum(degrees), degrees), mu, pg, dict(zip(SEARCH_COLUMNS, map(str, values)))))
    if scanned != comb(p_hi - p_lo + r, r):
        raise AssertionError("grid enumeration disagrees with its combination count")
    found.sort(key=lambda item: item[0])
    notes = [f"scanned {scanned} specs, {len(found)} violations"]
    if found:
        (_, degrees), mu, pg, _ = found[0]
        notes.append(f"minimal violation: degrees {_cells(degrees)} (mu {mu}, pg {pg})")
    else:
        notes.append("no violations found")
    return [row for *_, row in found], notes


def trace_rows(n: int, r: int, p_values: Sequence[int]) -> list[dict[str, str]]:
    limit = coefficient(n, r)
    rows = []
    for p in p_values:
        mu, pg = milnor(n, (p,) * r), genus(n, (p,) * r)
        if pg == 0:
            values = (p, mu, pg, "", limit, "", "", "false")
        else:
            ratio = Fraction(mu, pg)
            deviation = abs(ratio - limit)
            values = (p, mu, pg, ratio, limit, deviation, f"{float(deviation):.6f}", "true")
        rows.append(dict(zip(TRACE_COLUMNS, map(str, values))))
    return rows


def _span(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    return int(lo), int(hi)


def _options(argv: Sequence[str]) -> dict[str, str]:
    opts, i = {}, 1
    while i < len(argv):
        if argv[i] == "--full-grid":
            opts["full-grid"] = "true"
            i += 1
        else:
            opts[argv[i][2:]] = argv[i + 1]
            i += 2
    return opts


def expectation(argv: Sequence[str]):
    """(echoed params, columns, rows, notes or None) that argv must produce."""
    command, opts = argv[0], _options(argv)
    n = int(opts["n"])
    if command in ("invariants", "verify"):
        degrees = sorted(p for p in map(int, opts["degrees"].split(",")) if p >= 2)
        params = {"n": str(n), "degrees": _cells(degrees)}
        return params, INVARIANT_COLUMNS, [verdict_row(n, degrees)], None
    r = int(opts["r"])
    p_lo, p_hi = _span(opts["p"])
    if command == "search" and "full-grid" in opts:
        params = {"n": str(n), "r": str(r), "p": opts["p"], "mode": "full_grid"}
        rows, notes = search_expectation(n, r, p_lo, p_hi)
        return params, SEARCH_COLUMNS, rows, notes
    if command == "trace":
        params = {"n": str(n), "r": str(r), "p": opts["p"]}
        return params, TRACE_COLUMNS, trace_rows(n, r, range(p_lo, p_hi + 1)), None
    raise ValueError(f"the reference does not cover {' '.join(argv)!r}")


def parse_table(text: str):
    """(meta, columns, rows, notes) of a table report; cells by header position."""
    lines = text.splitlines()
    meta, i = {}, 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition(": ")
        meta[key] = value
        i += 1
    if i == len(lines):
        raise Reject("no header line")
    header = [(m.start(), m.group()) for m in re.finditer(r"\S+", lines[i])]
    bounds = [start for start, _ in header[1:]] + [None]
    rows, notes = [], []
    for line in lines[i + 1:]:
        if line.startswith("# note: "):
            notes.append(line[len("# note: "):])
        elif notes:
            raise Reject(f"row after notes: {line!r}")
        else:
            rows.append({name: line[start:end].strip()
                         for (start, name), end in zip(header, bounds)})
    return meta, tuple(name for _, name in header), rows, notes


def check(argv: Sequence[str], status, stdout: str, stderr: str) -> Optional[str]:
    """None when the op's output is exactly right, else the first reason it is not."""
    if status != 0:
        return f"exit status {status}: {stderr.strip()[-300:]}"
    if stderr:
        return f"unexpected stderr: {stderr[:300]!r}"
    params, columns, rows, notes = expectation(argv)
    try:
        meta, got_columns, got_rows, got_notes = parse_table(stdout)
    except Reject as exc:
        return str(exc)
    if meta.get("command") != argv[0] or "version" not in meta:
        return f"header names command {meta.get('command')!r}"
    got_params = {k: v for k, v in meta.items() if k not in ("command", "version")}
    if got_params != params:
        return f"echoed parameters {got_params} != {params}"
    if got_columns != columns:
        return f"columns {got_columns} != {columns}"
    if len(got_rows) != len(rows):
        return f"{len(got_rows)} rows, expected {len(rows)}"
    for i, (got, want) in enumerate(zip(got_rows, rows)):
        if got != want:
            return f"row {i}: {got} != {want}"
    if notes is not None and got_notes != notes:
        return f"notes {got_notes} != {notes}"
    return None
