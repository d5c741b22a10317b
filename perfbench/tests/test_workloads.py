import json
from itertools import combinations_with_replacement

import pytest

from perfbench import run, workloads
from perfbench.checkout import ROOT


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_op_list_is_deterministic_per_seed(workload):
    assert workloads.build(workload, 5) == workloads.build(workload, 5)
    assert workloads.build(workload, 5) != workloads.build(workload, 6)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_round_has_the_same_op_mix(workload):
    def shape(op):
        return tuple(arg for arg in op.argv if not arg[0].isdigit())

    rounds = workloads.build(workload, 1, rounds=8)
    mixes = {tuple(sorted(map(shape, ops))) for ops in rounds}
    assert len(mixes) == 1


def test_spec_counts():
    op = workloads.search_op(2, 3, 4, 9)
    assert op.specs == len(list(combinations_with_replacement(range(4, 10), 3)))
    assert workloads.trace_op(1, 2, 5, 24).specs == 20
    assert workloads.spec_op("verify", 2, (3, 4)).specs == 1


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_tail_latency_reads_a_fixed_percentile_by_nearest_rank():
    assert run.tail_latency([float(i) for i in range(100)], 95) == (94.0, 5)
    assert run.tail_latency([float(i) for i in range(207)], 95) == (196.0, 10)
    assert run.tail_latency([3.0, 1.0, 2.0], 94) == (3.0, 0)
    assert set(workloads.TAIL_PERCENTILE) == set(workloads.WORKLOADS)
