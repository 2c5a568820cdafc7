"""Tests of the benchmark itself: ``python -m pytest perfbench/test_perfbench.py``.

Each workload runs once untraced and once traced at a tiny size; every
metric ``BENCHMARK.json`` names must come out finite, and no request may
fail.  The seeded inputs must repeat exactly for one seed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import inputs, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CATALOG = json.loads((ROOT / "perfbench" / "catalog.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]), m["name"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert metrics["latency_p99_ms"] > 0
        # The layer predictions that hold by construction.
        if workload == "fig21-cold":
            assert metrics["core.bisection_steps"] > 0
            assert all(v == 0 for k, v in metrics.items() if k.startswith(("serve.", "planner.")))
        else:
            assert metrics["serve.service.server_mean_ms"] > 0
            assert metrics["core.bisection_steps"] == 0
        if workload == "hit-c1":
            assert metrics["planner.cache_hit_ratio"] == 1.0
            assert metrics["planner.warm_ms"] == 0
        if workload != "routed-c32":
            assert all(v == 0 for k, v in metrics.items() if k.startswith("cluster."))
        else:
            assert metrics["cluster.router.server_mean_ms"] > 0
    else:
        assert metrics["success_rate"] == 1.0
        assert metrics["setup_s"] > 0 and metrics["latency_p50_ms"] > 0


def test_a_seed_reproduces_the_request_stream():
    models = inputs.table2_models()
    spec = workloads.SERVED["routed-c32"]

    def stream(seed):
        sfs = inputs.tiled_fleet(models, inputs.SERVED_P, seed)
        return sfs, workloads.stream_for(spec, seed, sfs).take(3000)

    fleet_a, ops_a = stream(5)
    fleet_b, ops_b = stream(5)
    assert fleet_a == fleet_b and ops_a == ops_b
    fleet_c, ops_c = stream(6)
    assert ops_c != ops_a and fleet_c != fleet_a

    kinds = [op for op, _ in ops_a]
    assert 0.02 < kinds.count("observe") / len(kinds) < 0.08
    hot = set(inputs.hot_set(5, spec.hot))
    plans = [n for op, n in ops_a if op == "plan"]
    fresh = [n for n in plans if n not in hot]
    assert len(fresh) == len(set(fresh)), "fresh sizes must never repeat"
    assert all(inputs.N_LO <= n <= inputs.N_HI for n in plans)


def test_catalog_documents_every_metric_and_workload():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert sorted(CATALOG["metrics"]) == sorted(names)
    for name, doc in CATALOG["metrics"].items():
        assert doc["layer"] and doc["moves"] and doc["source"], name
    assert sorted(CATALOG["workloads"]) == sorted(w["name"] for w in SPEC["workloads"])
    for doc in CATALOG["workloads"].values():
        assert {"why", "loop", "in_flight", "connections", "seed_arg"} <= set(doc)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("fig21-cold", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
