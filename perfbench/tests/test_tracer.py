import shutil
import subprocess
import sys

from perfbench import run, workloads
from perfbench.checkout import ROOT, import_cli
from perfbench.tracer import Tracer

OPS = [
    workloads.search_op(2, 2, 2, 8),
    workloads.search_op(1, 3, 2, 5),
    workloads.spec_op("invariants", 3, (2, 3, 4)),
    workloads.spec_op("verify", 2, (3, 3, 4)),
    workloads.trace_op(2, 3, 2, 12),
]


def _bindings():
    probe = Tracer()
    probe.install()
    patched = {(owner, attr): original for owner, attr, original in probe._patched}
    probe.restore()
    return patched


def test_wrappers_are_removed_after_the_traced_run():
    main = import_cli().main
    before = _bindings()
    run.traced_passes(main, OPS)
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
        assert not hasattr(original, "__wrapped__")


def test_tracing_changes_no_output_and_work_counts_repeat():
    main = import_cli().main
    plain = [run.run_op(main, op) for op in OPS]
    (first, traced1), (second, traced2) = run.traced_passes(main, OPS)
    digests = [r.digest() for r in plain]
    assert [r.digest() for r in traced1] == digests == [r.digest() for r in traced2]
    s1, s2 = first.stats(), second.stats()
    for key in run.EXACT_COUNTS:
        assert s1[key] == s2[key] > 0, key
    assert s1["conjecture.search.calls"] == 2
    assert s1["invariants.pg.series_coeff.calls"] == 1
    assert s1["cli.main.calls"] == len(OPS)
    assert all(end >= start for *_, start, end in first.spans)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
