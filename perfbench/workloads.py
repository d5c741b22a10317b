"""Seeded op lists for the benchmark workloads.

An op is one CLI invocation, given as the argv that durfee.cli.main
receives.  Ops come in rounds: a round holds one op per stratum of the
workload, in seeded order, so every round has the same mix of shapes and
a run that times whole rounds measures the same mix on every seed.  The
seed only moves degrees, p-ranges and the order within a round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

# Why each workload exists; BENCHMARK.json carries the same lines.
WORKLOADS = {
    "grid_scan": "many cheap specs through search --full-grid --jobs 1: the mu series route, verify and rendering",
    "wide_degrees": "many small degrees (2^r subset walk), few large ones (dense z-series) and long equal-degree traces",
}

# The percentile latency_tail_s reads: the highest that kept at least ten
# ops beyond it on the slowest of the recorded runs (perfbench/baseline.json).
# It is fixed per workload so that a faster commit, which completes more
# ops, is read at the same percentile as a slower one.
TAIL_PERCENTILE = {"grid_scan": 95, "wide_degrees": 93}

# Rounds in one op list; a run that outlasts them starts again at round 0.
ROUNDS = 64

# (n, r) strata and the p-range width that gives each grid a few hundred specs.
GRID_STRATA = [(n, r) for n in (1, 2, 3) for r in (2, 3, 4)]
GRID_WIDTH = {2: 24, 3: 11, 4: 8}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the number of specs it evaluates."""

    argv: tuple[str, ...]
    specs: int


def _degrees(values) -> str:
    return ",".join(str(p) for p in values)


def search_op(n: int, r: int, p_lo: int, p_hi: int) -> Op:
    argv = ("search", "--n", str(n), "--r", str(r), "--p", f"{p_lo}..{p_hi}",
            "--full-grid", "--jobs", "1")
    return Op(argv, comb(p_hi - p_lo + r, r))


def spec_op(command: str, n: int, degrees) -> Op:
    return Op((command, "--n", str(n), "--degrees", _degrees(degrees)), 1)


def trace_op(n: int, r: int, p_lo: int, p_hi: int) -> Op:
    return Op(("trace", "--n", str(n), "--r", str(r), "--p", f"{p_lo}..{p_hi}"), p_hi - p_lo + 1)


def _grid_round(rng: random.Random) -> list[Op]:
    ops = []
    for n, r in GRID_STRATA:
        p_lo = rng.randint(2, 14)
        ops.append(search_op(n, r, p_lo, p_lo + GRID_WIDTH[r] - 1))
    return ops


def _small_degrees(rng: random.Random, r: int) -> list[int]:
    return [rng.randint(2, 5) for _ in range(r)]


def _wide_round(rng: random.Random) -> list[Op]:
    # Cost classes are kept apart so the median op is always a dense
    # z-series of two degrees: three cheaper ops (the subset walks and the
    # trace), three of those, then three heavier dense z-series.
    trace_lo = rng.randint(2, 20)
    return [
        trace_op(2, 3, trace_lo, trace_lo + 199),
        spec_op("verify", 2, _small_degrees(rng, rng.randint(10, 14))),
        spec_op("verify", 2, _small_degrees(rng, 18)),
        *(spec_op("invariants", 3, [rng.randint(80, 100) for _ in range(2)]) for _ in range(3)),
        spec_op("invariants", 3, [rng.randint(240, 260)]),
        spec_op("invariants", 3, [rng.randint(220, 240)]),
        spec_op("invariants", 2, [rng.randint(80, 90) for _ in range(3)]),
    ]


def build(workload: str, seed: int, rounds: int = ROUNDS) -> list[list[Op]]:
    """The seeded op list of a workload, as rounds of ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(rounds):
        ops = _grid_round(rng) if workload == "grid_scan" else _wide_round(rng)
        rng.shuffle(ops)
        out.append(ops)
    return out


def warmup_ops(workload: str) -> list[Op]:
    """Tiny untimed ops that load every code path a workload's ops take."""
    if workload == "grid_scan":
        return [search_op(2, 2, 2, 4)]
    return [spec_op("invariants", 2, (3, 4)), spec_op("verify", 2, (3, 4)), trace_op(2, 2, 2, 5)]
