"""Closed-loop benchmark of the durfee command line.

    python3 perfbench/run.py --workload grid_scan --seed 1 --seconds 35 --trace 0

One client runs the workload's seeded ops one at a time, in process,
through durfee.cli.main(argv) with stdout and stderr captured, in whole
rounds until --seconds have passed and at least MEMORY_ROUNDS rounds are
done.  Each round's outputs are checked against perfbench/reference.py
after the round is timed, and then set-up is timed in fresh interpreters
(perfbench/setup_probe.py) before the next round.  --trace 0
reports the end-to-end metrics; --trace 1 then runs the first
TRACE_ROUNDS rounds twice more under the tracer and reports the per-layer
metrics instead.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics; the exit status is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import checkout, reference, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

# Set-up probes started after each round, so that the set-up median samples
# the machine over the same window as the timed ops.
SETUP_PROBES_PER_ROUND = 3
TRACE_ROUNDS = 2
# peak_rss_growth_mib is read after this many rounds, a fixed amount of work,
# so that a faster commit is not charged for the extra rounds it completes.
MEMORY_ROUNDS = 12
SPAN_DIR = checkout.ROOT / ".perfbench_out"

END_TO_END = {
    "specs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_growth_mib": "MiB",
}

_ROUTE_METRICS = [
    (f"invariants.{kind}.{route}.{stat}", "count" if stat == "calls" else "s")
    for kind, routes in (("mu", ("closed_sum", "series", "equal_degree")),
                         ("pg", ("compositions", "inclusion_exclusion", "series_coeff", "reduced_sum")))
    for route in routes
    for stat in ("calls", "s")
]

PER_LAYER = dict(
    [
        ("cli.main.self_s", "s"),
        ("cli.emit.s", "s"),
        ("cli.emit.bytes", "bytes"),
        ("conjecture.search.calls", "count"),
        ("conjecture.search.self_s", "s"),
        ("conjecture.verify.calls", "count"),
        ("conjecture.verify.self_s", "s"),
        ("conjecture.trace_ratio.self_s", "s"),
    ]
    + _ROUTE_METRICS
    + [
        ("invariants.invariant_report.self_s", "s"),
        ("invariants.milnor_fiber_euler.s", "s"),
        ("invariants.result_bits.max", "bits"),
        ("bounds.bound_coefficient.calls", "count"),
        ("bounds.bound_coefficient.s", "s"),
        ("exactmath.compositions.yielded", "count"),
        ("exactmath.binomial.calls", "count"),
        ("exactmath.stirling2.calls", "count"),
        ("exactmath.stirling2.s", "s"),
        ("series.mul.calls", "count"),
        ("series.mul.self_s", "s"),
        ("series.mul.max_order", "order"),
        ("series.inverse.calls", "count"),
        ("series.inverse.s", "s"),
        ("series.pow.self_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)

# Work counts that must repeat exactly between two traced passes of the same ops.
EXACT_COUNTS = (
    "exactmath.compositions.yielded",
    "exactmath.binomial.calls",
    "series.mul.calls",
    "conjecture.verify.calls",
)


@dataclass
class OpRun:
    op: workloads.Op
    seconds: float
    status: object
    stdout: str
    stderr: str

    def digest(self) -> str:
        return hashlib.sha256(f"{self.status}\0{self.stdout}".encode()).hexdigest()


@dataclass
class TimedPhase:
    """What the timed phase keeps.  Outputs are checked and dropped round by
    round; only the latencies, as packed floats, grow with the op count."""

    latencies: array = field(default_factory=lambda: array("d"))
    peak_kib: int = 0  # VmHWM after MEMORY_ROUNDS rounds
    setups: list[float] = field(default_factory=list)
    probe_s: float = 0.0  # wall time spent in the set-up probes
    rates: list[float] = field(default_factory=list)
    specs: int = 0
    failures: dict[int, str] = field(default_factory=dict)
    # stdout digests of the first TRACE_ROUNDS rounds, for the traced run
    digests: list[str] = field(default_factory=list)


def run_op(main, op: workloads.Op, tracer: Tracer | None = None) -> OpRun:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                status = main(list(op.argv))
            else:
                status = tracer.call("cli.main", main, list(op.argv))
    except SystemExit as exc:
        status = exc.code
    except Exception:  # an op that raises is a failed op, not a failed benchmark
        status = "raised"
        err.write(traceback.format_exc())
    return OpRun(op, perf_counter() - start, status, out.getvalue(), err.getvalue())


def timed_phase(main, rounds, seconds: float, setup_probe) -> TimedPhase:
    """Whole rounds, one op at a time, until `seconds` have passed and at
    least MEMORY_ROUNDS rounds are done.

    A round is checked against the reference right after it is timed; its
    rate in specs per second is timed without the checks.  Then
    `setup_probe()` is called SETUP_PROBES_PER_ROUND times; the time the
    probes take does not count towards `seconds`."""
    phase = TimedPhase()
    start = perf_counter()
    while len(phase.rates) < MEMORY_ROUNDS or perf_counter() - start - phase.probe_s < seconds:
        ops = rounds[len(phase.rates) % len(rounds)]
        round_start = perf_counter()
        runs = [run_op(main, op) for op in ops]
        specs = sum(op.specs for op in ops)
        phase.rates.append(specs / (perf_counter() - round_start))
        phase.specs += specs
        for run in runs:
            failure = reference.check(run.op.argv, run.status, run.stdout, run.stderr)
            if failure:
                phase.failures[len(phase.latencies)] = f"{' '.join(run.op.argv)}: {failure}"
            phase.latencies.append(run.seconds)
            if len(phase.rates) <= TRACE_ROUNDS:
                phase.digests.append(run.digest())
        if len(phase.rates) == MEMORY_ROUNDS:
            phase.peak_kib = memory_kib("VmHWM")
        pause = perf_counter()
        phase.setups += [setup_probe() for _ in range(SETUP_PROBES_PER_ROUND)]
        phase.probe_s += perf_counter() - pause
    return phase


def tail_latency(latencies, percentile: int) -> tuple[float, int]:
    """(value, samples beyond) of a whole percentile, by nearest rank."""
    ordered = sorted(latencies)
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def memory_kib(field_name: str) -> int:
    """A memory figure of this process from /proc/self/status (VmRSS, VmHWM)."""
    status = Path("/proc/self/status").read_text()
    return int(status.split(f"{field_name}:")[1].split()[0])


def setup_seconds(workload: str, seed: int) -> float:
    """One set-up, timed by setup_probe.py in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", str(Path(__file__).with_name("setup_probe.py")), workload, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=checkout.ROOT,
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench: setup probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def traced_passes(main, prefix: list[workloads.Op]) -> list[tuple[Tracer, list[OpRun]]]:
    passes = []
    for _ in range(2):
        tracer = Tracer()
        try:
            tracer.install()
            traced = []
            for i, op in enumerate(prefix):
                tracer.op = i
                traced.append(run_op(main, op, tracer))
        finally:
            tracer.restore()
        passes.append((tracer, traced))
    return passes


def write_spans(path: Path, prefix: list[workloads.Op], tracer: Tracer) -> None:
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt") as f:
        for i, op in enumerate(prefix):
            f.write(json.dumps({"op": i, "argv": op.argv}) + "\n")
        for span_id, parent, op_index, name, start, end in tracer.spans:
            f.write(json.dumps({"id": span_id, "parent": parent, "op": op_index,
                                "name": name, "start": start, "end": end}) + "\n")


def _line(name: str, value, unit: str, extra: str = "") -> str:
    return f"{name} {value} {unit}{extra}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = checkout.import_cli()
    rounds = workloads.build(args.workload, args.seed)
    for op in workloads.warmup_ops(args.workload):
        run_op(cli.main, op)
    gc.collect()

    rss_before = memory_kib("VmRSS")
    start = perf_counter()
    phase = timed_phase(cli.main, rounds, args.seconds,
                        lambda: setup_seconds(args.workload, args.seed))
    wall = perf_counter() - start
    setups = phase.setups

    failures = phase.failures
    problems = []
    attempted = len(phase.latencies)
    pct = workloads.TAIL_PERCENTILE[args.workload]
    tail, beyond = tail_latency(phase.latencies, pct)
    info = {
        "workload": args.workload, "seed": args.seed, "python": platform.python_version(),
        "nproc": os.cpu_count(), "loop": "closed, 1 client, in-process", "rounds": len(phase.rates),
        "ops": attempted, "specs": phase.specs, "timed_s": round(wall - phase.probe_s, 3),
        "tail_percentile": pct, "tail_beyond": beyond, "setup_probes": len(setups),
        "rss_before_mib": rss_before / 1024,
    }
    end_to_end = {
        "specs_per_s": statistics.median(phase.rates),
        "latency_p50_s": statistics.median(phase.latencies),
        "latency_tail_s": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_growth_mib": (phase.peak_kib - rss_before) / 1024,
    }
    lines = [_line(name, value, END_TO_END[name]) for name, value in end_to_end.items()]
    lines[2] += f" (p{pct} of {attempted} ops, {beyond} beyond)"
    lines[3] += f" (median of {len(setups)} fresh interpreters)"
    lines[4] += (f" (peak RSS after {MEMORY_ROUNDS} rounds over the"
                 f" {rss_before / 1024:.1f} MiB before the timed phase)")
    lines.append(_line("failed_frac", len(failures) / attempted, "fraction",
                       f" ({len(failures)} of {attempted} ops)"))
    metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in end_to_end.items()}

    if args.trace:
        prefix = [op for ops in rounds[:TRACE_ROUNDS] for op in ops]
        passes = traced_passes(cli.main, prefix)
        (first, traced), (second, _) = passes
        for i, (digest, *rest) in enumerate(zip(phase.digests, *(p[1] for p in passes))):
            if any(run.digest() != digest for run in rest):
                failures[i] = f"{' '.join(prefix[i].argv)}: traced stdout differs from untraced"
        stats1, stats2 = first.stats(), second.stats()
        unequal = [k for k in EXACT_COUNTS if stats1.get(k) != stats2.get(k)]
        if unequal:
            problems.append(f"work counts differ between traced passes: {unequal}")
        layer = {name: stats1.get(name, 0) for name in PER_LAYER}
        layer["trace.overhead_ratio"] = (
            sum(run.seconds for run in traced) / sum(phase.latencies[:len(prefix)]))
        write_spans(SPAN_DIR / f"spans-{args.workload}.jsonl.gz", prefix, first)
        lines.append(f"# traced {len(prefix)} ops ({TRACE_ROUNDS} rounds) twice; "
                     f"{len(first.spans)} spans in {SPAN_DIR.name}/")
        lines += [_line(name, value, PER_LAYER[name]) for name, value in layer.items()]
        metrics = {name: {"value": value, "unit": PER_LAYER[name]} for name, value in layer.items()}

    print(f"# info {json.dumps(info)}")
    print("\n".join(lines))
    for i in sorted(failures)[:10]:
        print(f"# failed op {i}: {failures[i]}")
    for problem in problems:
        print(f"# check failed: {problem}")
    correct = not failures and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
