"""In-process A/B of two checkouts of durfee, stage by stage.

    python3 tools/stage_ab.py PARENT_CHECKOUT CHANGE_CHECKOUT [--seeds 1 2]
        [--rounds 12] [--best-of 9] [--alternations 3]

Both checkouts are imported into this one process in turn: before a side
runs, every durfee module of the other side is dropped from sys.modules and
its src/ directory from sys.path.  The sides alternate, the first side
switching each alternation, and every figure is the best over all of a
side's runs.  Reported, parent against change:

  * grid_scan: the best-of-K time of each op of perfbench.workloads.build()
    for each seed, run through durfee.cli.main with its output captured, as
    a mean per (n, r) stratum, with the p50 and p95 over all ops;
  * verify: the mean time of one conjecture.verify() over 300 seeded random
    specs (n <= 3, r <= 4, p <= 9) and over 30 specs of 10-18 degrees in
    2..5 at n = 2;
  * routes: each registry route's single-spec cost on the 300-spec set,
    through milnor_number() and geometric_genus().

The op lists come from this checkout's perfbench/.  Timings are wall
clock on a possibly shared machine: compare the two sides of one run, not
runs made at different times.
"""

from __future__ import annotations

import argparse
import io
import random
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402


def small_specs() -> list[tuple[int, tuple[int, ...]]]:
    rng = random.Random(300)
    return [
        (rng.randint(1, 3), tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 4))))
        for _ in range(300)
    ]


def wide_specs() -> list[tuple[int, tuple[int, ...]]]:
    rng = random.Random(30)
    return [(2, tuple(rng.randint(2, 5) for _ in range(rng.randint(10, 18)))) for _ in range(30)]


def load(checkout: Path, others: list[Path]):
    """The durfee package of checkout, imported afresh, with none of others' modules left."""
    for name in [m for m in sys.modules if m == "durfee" or m.startswith("durfee.")]:
        del sys.modules[name]
    src = str(checkout / "src")
    dropped = {str(other / "src") for other in others}
    sys.path[:] = [p for p in sys.path if p not in dropped]
    sys.path.insert(0, src)
    import durfee.cli

    if not durfee.__file__.startswith(src):
        raise SystemExit(f"stage_ab: imported {durfee.__file__}, not from {src}")
    return durfee


def best_of(k: int, fn) -> float:
    best = float("inf")
    for _ in range(k):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def measure(durfee, ops, k: int) -> dict[str, list[float]]:
    """Seconds for each grid op, for one verify and for one call of each route."""
    from durfee import invariants
    from durfee.conjecture import verify

    main = durfee.cli.main

    def run(argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            if main(list(argv)) != 0:
                raise SystemExit(f"stage_ab: {' '.join(argv)} failed")

    out = {"ops": [best_of(k, lambda argv=op.argv: run(argv)) for op in ops]}
    for name, shapes in (("verify", small_specs()), ("verify_wide", wide_specs())):
        specs = [invariants.DegreeSpec(n, degrees) for n, degrees in shapes]
        out[name] = [best_of(k, lambda: [verify(s) for s in specs]) / len(specs)]
    specs = [invariants.DegreeSpec(n, degrees) for n, degrees in small_specs()]
    for compute, methods in ((invariants.milnor_number, invariants.MILNOR_METHODS),
                             (invariants.geometric_genus, invariants.GENUS_METHODS)):
        for method in methods:
            cost = best_of(k, lambda: [compute(s, method) for s in specs]) / len(specs)
            out[f"route {method}"] = [cost]
    return out


def percentile(values: list[float], q: int) -> float:
    ordered = sorted(values)
    return ordered[max(1, -(-q * len(ordered) // 100)) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--best-of", type=int, default=9)
    parser.add_argument("--alternations", type=int, default=3)
    args = parser.parse_args(argv)

    ops = [op for seed in args.seeds
           for ops in workloads.build("grid_scan", seed, args.rounds) for op in ops]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    best: dict[str, dict[str, list[float]]] = {}
    for alternation in range(args.alternations):
        order = list(sides) if alternation % 2 == 0 else list(sides)[::-1]
        for side in order:
            figures = measure(load(sides[side], list(sides.values())), ops, args.best_of)
            kept = best.setdefault(side, figures)
            for key, values in figures.items():
                kept[key] = list(map(min, kept[key], values))

    def row(label, parent, change):
        print(f"{label:<28} {parent * 1e6:>12.1f} {change * 1e6:>12.1f} {change / parent - 1:>+8.1%}")

    print(f"{'(microseconds)':<28} {'parent':>12} {'change':>12} {'change':>8}")
    strata: dict[tuple[int, int], list[int]] = {}
    for i, op in enumerate(ops):
        argv = op.argv
        strata.setdefault((int(argv[2]), int(argv[4])), []).append(i)
    for (n, r), indices in sorted(strata.items()):
        row(f"grid n={n} r={r} mean",
            *(statistics.fmean(best[s]["ops"][i] for i in indices) for s in sides))
    for q in (50, 95):
        row(f"grid ops p{q}", *(percentile(best[s]["ops"], q) for s in sides))
    for key in best["parent"]:
        if key != "ops":
            row(key, *(best[s][key][0] for s in sides))
    return 0


if __name__ == "__main__":
    sys.exit(main())
