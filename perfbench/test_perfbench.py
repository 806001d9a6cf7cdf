"""Tests of the benchmark itself, on its quick mode (a handful of small
cases per workload).  Run with

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def quick_run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def quick_cases(name, seed, workdir, rounds=2):
    wl = workloads.WORKLOAD_CLASSES[name](seed, True, str(workdir))
    wl.setup()
    return [case for index in range(rounds) for case in wl.round(index)]


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOAD_CLASSES)
    assert BENCHMARK["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _ in layers.LAYER_METRICS]
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    baseline = json.loads((HERE / "baseline.json").read_text())
    assert sorted(baseline["end_to_end"]) == sorted(run.WORKLOADS)
    assert (sorted(baseline["per_layer_should_move"])
            == sorted(m[0] for m in layers.LAYER_METRICS))


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = quick_run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0
    details = json.loads(proc.stdout.splitlines()[-2])["details"]
    assert details["settings"]["seed"] == 3
    assert details["settings"]["nproc"] >= 1
    if trace:
        assert details["digests_match"] and details["counts_repeat"]
    if workload == "catalog_build":
        assert details["inputs"]["catalog.instantiate.distinct_frac"] == 1.0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_changes_inputs_but_not_case_count(workload, tmp_path):
    def outputs(seed):
        records = [worker.run_case(c, None, workloads)
                   for c in quick_cases(workload, seed, tmp_path)]
        assert all(r["error"] is None for r in records), records
        return [(r["kind"], r["nodes"]) for r in records], [r["digest"] for r in records]

    shape_a, digests_a = outputs(1)
    shape_b, digests_b = outputs(2)
    assert sorted(shape_a) == sorted(shape_b)
    assert digests_a != digests_b
    assert outputs(1)[1] == digests_a  # same seed, same inputs and results


def test_wrong_reference_counts_as_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "ef_h_norm2",
                        lambda r, m: 4.0 * (1 - 2 * m / r) / r**2 + 1.0)
    records = [worker.run_case(c, None, workloads)
               for c in quick_cases("classify_horizon", 1, tmp_path, rounds=1)]
    failed = [r for r in records if r["error"]]
    assert {r["kind"] for r in failed} == {"ef_sphere/16x32"}
    assert all(r["error"].startswith("CheckFailed: h_norm2") for r in failed)
    assert len(failed) == len(records) - 1  # the RW slice case still passes


def test_failed_case_makes_the_run_fail(monkeypatch, capsys):
    record = {"name": "r0/x", "kind": "x", "nodes": 1, "wall_s": 0.01, "props": {},
              "error": "CheckFailed: wrong", "digest": None}
    fake = {"rounds": 1, "records": [record, dict(record, name="r0/y", error=None)],
            "setup_refs": [], "peak_rss_mb": 80.0,
            "environment": {"python": "3", "numpy": "2", "sympy": "1", "blas": {}}}
    monkeypatch.setattr(run, "spawn", lambda args, deadline: (0.25, fake))
    code = run.main(["--workload", "pointwise_identity", "--seed", "0", "--seconds", "1"])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    assert json.loads(lines[-2])["details"]["failures"] == [
        {"name": "r0/x", "error": "CheckFailed: wrong"}]


def test_tracer_replaces_every_binding():
    import trapsurf
    from trapsurf import cli, embedding, extrinsic, geometry, variation

    originals = (variation.extrinsic_data, cli.classify_submanifold, embedding.as_point,
                 geometry.MetricField.at)
    tracer = Tracer()
    tracer.install()
    try:
        assert variation.extrinsic_data is extrinsic.extrinsic_data
        assert variation.extrinsic_data.__wrapped__ is originals[0]
        assert cli.classify_submanifold.__wrapped__ is originals[1]
        assert trapsurf.classify_submanifold is cli.classify_submanifold
        assert embedding.as_point.__wrapped__ is originals[2]
        emb = trapsurf.catalog.instantiate("ef_sphere", radius=1.5)
        trapsurf.classify_submanifold(emb, trapsurf.GridSpec((2, 4)))
        assert tracer.stats["geometry.MetricField.at"][0] == 10 * 8
        assert tracer.stats["extrinsic.classify_submanifold"][0] == 1
        assert tracer.instantiated == {("ef_sphere", (("radius", "1.5"),))}
    finally:
        tracer.uninstall()
    assert (variation.extrinsic_data, cli.classify_submanifold, embedding.as_point,
            geometry.MetricField.at) == originals


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = quick_run("classify_horizon", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
