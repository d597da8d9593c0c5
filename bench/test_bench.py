"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from grade3 import liealg, semigroup  # noqa: E402


def _inputs(workload, seed, workdir):
    ops = workloads.build_ops(workload, seed, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return [(op.label, op.inputs) for op in ops], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_the_same_operation_list(workload, tmp_path):
    first = _inputs(workload, 3, tmp_path)
    again = _inputs(workload, 3, tmp_path)
    assert first == again
    other = _inputs(workload, 4, tmp_path)
    assert [i for _, i in first[0]] != [i for _, i in other[0]]


def _round(ops):
    return [op.judge(*_call(op)) for op in ops]


def _call(op):
    try:
        return op.call(), None
    except Exception as exc:  # the judge decides
        return None, exc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_second_seed_runs_clean(workload, tmp_path):
    counts = []
    for seed in (3, 11):
        outcomes = _round(workloads.build_ops(workload, seed, tmp_path))
        assert [o.detail for o in outcomes if o.status == "wrong"] == []
        counts.append((len(outcomes), sum(o.status == "failed" for o in outcomes)))
    # The known faults sit on seed-independent inputs only.
    assert counts[0] == counts[1]


def test_tracer_restores_originals_and_counts_self_time():
    original = (semigroup.member_ShC, liealg.ad_image, liealg.GroupElement.__dict__["exp"])
    tracer = Tracer()
    tracer.install()
    assert semigroup.member_ShC is not original[0]
    tracer.active = True
    from grade3 import catalog
    entry = catalog.get_entry("sl2")
    g = liealg.GroupElement.exp(entry.algebra, [0.1, 0.2, -0.3])
    semigroup.member_ShC(g, entry.grading, entry.cone)
    tracer.active = False
    tracer.uninstall()
    assert (semigroup.member_ShC, liealg.ad_image,
            liealg.GroupElement.__dict__["exp"]) == original
    stats = tracer.stats
    assert stats["semigroup.member_ShC"][0] == 1
    assert stats["liealg.ad_image"][0] == 1
    assert stats["cones.violation.sl2_lorentz"][0] == 1
    assert stats["liealg.GroupElement.exp"][0] == 1
    assert stats["numkit.expm"][0] == 1
    spans = tracer.spans
    rows = [spans[i:i + 4].tolist() for i in range(0, len(spans), 4)]
    by_name = {tracer.names[r[0]]: r for r in rows}
    member = rows.index(by_name["semigroup.member_ShC"])
    assert by_name["liealg.ad_image"][3] == member
    children = sum(r[2] - r[1] for r in rows if r[3] == member)
    assert stats["semigroup.member_ShC"][1] == rows[member][2] - rows[member][1] - children


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".work"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "semigroup_queries", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_every_printed_metric():
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    layer = {m["name"] for m in spec["per_layer"]}
    assert layer == set(Tracer().metrics()) | {"trace.overhead_pct"}
