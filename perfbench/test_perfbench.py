"""Tests of the benchmark itself, on shrunken workloads.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import hodlrqr
import numpy as np
import pytest

import harness
import workloads
from tracer import Tracer, module

ROOT = Path(__file__).resolve().parent.parent
SCALE = 0.06
SECONDS = 0.2


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _run(name, seed, trace, tmp_path):
    return harness.run(workloads.make(name, SCALE), seed, SECONDS, trace, tmp_path)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_reports_every_end_to_end_metric(name, tmp_path):
    declared = _declared("end_to_end")
    for seed in (1, 2):
        result = _run(name, seed, False, tmp_path)
        assert result["correct"], result["lines"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        metrics = result["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == declared
        assert all(v["value"] > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    result = _run(name, 1, True, tmp_path)
    assert result["correct"], result["lines"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("per_layer")
    assert all(v["value"] is not None for v in metrics.values())
    assert metrics["hqr.hqr.calls"]["value"] >= 1
    assert metrics["wy.block_qr.calls"]["value"] >= 1
    assert 0.0 < metrics["hqr.hqr.child_share"]["value"] <= 1.0
    spans = result["spans"]
    assert spans and {"name", "start", "end", "parent", "op"} <= set(spans[0])


def test_perturbed_r_factor_counts_as_failed(tmp_path, monkeypatch):
    real_hqr = hodlrqr.hqr

    def perturbed(a, eps, *args, **kwargs):
        f = real_hqr(a, eps, *args, **kwargs)
        leaf = f.r
        while leaf.dense is None:
            leaf = leaf.a11
        leaf.dense[0, 0] *= 1.0 + 1e-6
        return f

    monkeypatch.setattr(hodlrqr, "hqr", perturbed)
    result = _run("factor-k1", 1, False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_tracer_guards_recursion_and_restores_names():
    bench, arith = module("bench"), module("arith")
    a = bench.gen_random_hodlr(1000, 250, 1, seed=0)
    original = arith.apply_dense
    tracer = Tracer(["arith.apply_dense", "wy.no_such_function"])
    with tracer:
        assert module("hqr").apply_dense is not original
        arith.apply_dense(a, np.ones((1000, 3)))
    assert arith.apply_dense is original and module("hqr").apply_dense is original
    assert tracer.absent == ["wy.no_such_function"]
    totals = tracer.op_totals(0)
    assert totals["arith.apply_dense"]["calls"] == 1
    assert totals["arith.apply_dense"]["cols"] == 3


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "factor-k1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
