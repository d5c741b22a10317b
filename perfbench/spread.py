"""Run the benchmark (--trace 0) once per seed and report each end-to-end
metric's median and spread.

    python3 perfbench/spread.py --workloads grid_scan,wide_degrees --seeds 1..10 --seconds 35

Spread is (Q3 - Q1) / median, with the quartiles that
statistics.quantiles(values, n=4) gives.  --out writes the per-run info
lines (Python version, nproc, seed, op and spec counts, tail percentile)
and the per-metric statistics as JSON.  Exits non-zero, printing the run,
if any run fails or a check in it rejects an output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=RUN.parents[1],
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stdout}{done.stderr}")
    info = next(json.loads(line[len("# info "):]) for line in lines if line.startswith("# info "))
    return info, json.loads(lines[-1])


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1..10", help="range like 1..10")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("..")
    seeds = range(int(lo), int(hi) + 1)

    report = {}
    for workload in args.workloads.split(","):
        infos, values = [], {}
        attempted = failed = 0
        for seed in seeds:
            info, result = run_once(workload, seed, args.seconds)
            infos.append(info)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        stats = {name: summarize(vals) for name, vals in values.items()}
        report[workload] = {"runs": infos, "metrics": stats}
        print(f"{workload}: ops {min(i['ops'] for i in infos)}..{max(i['ops'] for i in infos)}, "
              f"tail p{infos[0]['tail_percentile']} with {min(i['tail_beyond'] for i in infos)}.."
              f"{max(i['tail_beyond'] for i in infos)} ops beyond, "
              f"failed_frac {failed / attempted} ({failed} of {attempted} ops)")
        for name, s in stats.items():
            print(f"  {name:34s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
