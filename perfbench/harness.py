"""Runs one workload and reports it.

A run sets the workload up several times (input generation, file write and
one warm-up operation each), then runs operations in a closed loop with a
single caller for the requested seconds, checking the outputs of every
operation.  Standard output gets the environment, one line per metric and,
last, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics, or with ``--trace 1`` the per-layer
ones.  A traced run alternates untraced and traced operations; the
difference of their medians is the tracing overhead.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import workloads
from tracer import TARGETS, Tracer

SETUP_REPEATS = 3

# the gated end-to-end metrics; the parts of an op (factor_s, solve_s,
# baseline_s) are printed beside them but vary too much between runs of a
# shared machine to gate
E2E_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "factor_mem_rel": "ratio",
    "factor_peak_mb": "MB",
}

_COUNT_UNITS = {"flop": "flop", "bytes": "bytes"}


def per_layer_units() -> dict:
    units = {}
    for target, (_, counts) in TARGETS.items():
        units[f"{target}.calls"] = "count"
        units[f"{target}.s"] = "s"
        units[f"{target}.self_s"] = "s"
        for count in counts:
            units[f"{target}.{count}"] = _COUNT_UNITS.get(count, "count")
    units["core.truncate_lowrank.kept"] = "ratio"
    units["hqr.hqr.child_share"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_rel"] = "ratio"
    return units


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return (f"env cpus={os.cpu_count()} {threads} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__} "
            f"blas={blas.get('name')} {blas.get('version')}")


def _timed_op(workload, tracer: Tracer) -> tuple[dict, object]:
    times, outcome = workload.op(tracer)
    totals = tracer.op_totals(tracer.op)
    for key, target in workload.traced_times.items():
        if target not in totals:
            raise RuntimeError(f"no {target} span in the operation")
        times[key] = totals[target]["s"]
    return times, outcome


def _layer_values(totals: dict, units: dict) -> dict:
    values = dict.fromkeys(units, 0.0)
    for target, t in totals.items():
        for key, value in t.items():
            values[f"{target}.{key}"] = value
    trunc = totals.get("core.truncate_lowrank", {})
    if trunc.get("rank_in"):
        values["core.truncate_lowrank.kept"] = trunc["rank_out"] / trunc["rank_in"]
    hqr = totals.get("hqr.hqr")
    if hqr:
        values["hqr.hqr.child_share"] = 1.0 - hqr["self_s"] / hqr["s"]
    return values


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One run; returns the result object plus ``lines`` for people and the
    traced ``spans``."""
    light = Tracer(workload.traced_times.values())
    full = Tracer()
    errors = []

    setup_times = []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(seed, workdir)
        light.op = -1 - rep
        _, outcome = _timed_op(workload, light)
        setup_times.append(time.perf_counter() - start)
        errors += [f"warm-up: {e}" for e in workload.check(outcome)[1]]

    samples, traced_samples, layer_samples, checks = {}, [], [], {}
    attempted = failed = 0
    loop_start = time.perf_counter()
    while True:
        traced = trace and attempted % 2 == 1
        tracer = full if traced else light
        tracer.op = attempted
        attempted += 1
        try:
            times, outcome = _timed_op(workload, tracer)
            values, op_errors = workload.check(outcome)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
        else:
            for key, value in values.items():
                checks.setdefault(key, []).append(value)
            if op_errors:
                print(f"op {tracer.op} failed its check: {'; '.join(op_errors)}",
                      file=sys.stderr)
                failed += 1
            elif traced:
                traced_samples.append(times["op_s"])
                layer_samples.append(full.op_totals(tracer.op))
            else:
                for key, value in times.items():
                    samples.setdefault(key, []).append(value)
        done = time.perf_counter() - loop_start >= seconds
        if done and (not trace or attempted >= 2):
            break

    finish_metrics, finish_errors = workload.finish()
    errors += finish_errors

    lines = [f"workload ops attempted={attempted} failed={failed}"]
    lines += [f"check {key} max={max(v):.3e}" for key, v in checks.items()]
    lines += [f"error {e}" for e in errors]
    timings = {"setup_s": setup_times, **samples}
    for key, values in timings.items():
        alias = f" ({workload.op_alias})" if key == "op_s" and workload.op_alias else ""
        t = tail(values)
        tail_text = (f"p{t[0]:.1f}={t[1]:.6g}" if t else "no percentile with ten samples beyond")
        lines.append(f"metric {key}{alias} = {statistics.median(values):.6g} s "
                     f"(median of {len(values)}; {tail_text})")
    for key, value in finish_metrics.items():
        lines.append(f"metric {key} = {value:.6g} {E2E_UNITS[key]}")

    correct = failed == 0 and not errors
    if trace:
        units = per_layer_units()
        per_op = [_layer_values(totals, units) for totals in layer_samples]
        metrics = {name: statistics.median(v[name] for v in per_op) if per_op else None
                   for name in units}
        untraced = statistics.median(samples.get("op_s", [np.nan]))
        overhead = statistics.median(traced_samples) - untraced if traced_samples else None
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_rel"] = overhead / untraced if overhead is not None else None
        lines += [f"absent {name}" for name in full.absent]
        for name in sorted(units, key=lambda k: (k.rsplit(".", 1)[0], k)):
            lines.append(f"layer {name} = {metrics[name]:.6g} {units[name]}"
                         if metrics[name] is not None else f"layer {name} = none")
        correct = correct and bool(per_op) and bool(samples)
    else:
        units = E2E_UNITS
        metrics = {key: statistics.median(v) for key, v in timings.items() if key in units}
        metrics.update(finish_metrics)
        correct = correct and all(metrics.get(key) is not None for key in units)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
        "lines": lines,
        "spans": full.dump(),
    }


def main(argv, root: Path) -> int:
    p = argparse.ArgumentParser(description="hodlrqr benchmark")
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=out_dir))
    print(environment())
    try:
        result = run(workloads.make(args.workload), args.seed, args.seconds,
                     bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in result.pop("lines"):
        print(line)
    spans = result.pop("spans")
    if args.trace:
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(spans))
        print(f"spans {len(spans)} written to {path.relative_to(root)}")
    print(json.dumps(result))
    return 0
