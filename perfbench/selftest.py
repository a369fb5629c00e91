"""Tests of the benchmark itself.  The file name keeps them out of the
repository's default test run; run them explicitly:

    python3 -m pytest perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

assert run._import_library(), "run from the root of an ossprim checkout"

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced_and_untraced_agree(name):
    # one op untraced, then the same op from a fresh set-up under the tracer;
    # at the default seed the op is also checked against its golden digest
    res = run.run(name, workloads.DEFAULT_SEED, 0.01, trace=True)
    assert res["attempted"] >= 1
    assert res["failed"] == 0, res["notes"]
    assert not [n for n in res["notes"] if "digests differ" in n]


def test_other_seed_passes_structural_checks():
    res = run.run("prp-exact-small", 7, 0.01, trace=False)
    assert res["failed"] == 0, res["notes"]


def test_golden_mismatch_fails_the_op():
    wl = workloads.WORKLOADS["prp-exact-small"]
    log = run.run_ops(wl, wl.setup(workloads.DEFAULT_SEED), ["0" * 16], ops=1)
    assert log.failed == 1 and log.evals == 0


def test_tracer_restores_every_patched_name():
    points = tracer.patch_points()
    originals = [getattr(owner, attr) for owner, attr in points]
    tr = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed():
            assert {(id(o), a) for o, a, _ in tr._undo} == {(id(o), a) for o, a in points}
            assert all(getattr(o, a) is not orig for (o, a), orig in zip(points, originals))
            raise RuntimeError("op failed while traced")
    assert all(getattr(o, a) is orig for (o, a), orig in zip(points, originals))


def test_benchmark_json_matches_the_runner():
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"].startswith(f"loads {workloads.WORKLOADS[w['name']].layer}:")
    e2e = run.run("scale-batch", 3, 0.01, trace=False)["metrics"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}
    layer, _ = tracer.layer_metrics(tracer.Tracer(), 1, 1)
    layer["trace.overhead_ratio"] = (0.0, "ratio")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in layer.items()}


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scale-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
