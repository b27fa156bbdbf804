"""The benchmark's workloads: inputs made from a seed, one timed operation
and the checks on its outputs.

``op`` returns the seconds of the whole operation (``op_s``) and of its
parts.  The library is reached only through ``gen_random_hodlr``, ``hqr``,
``apply_q_transpose``, ``arith.solve_upper_dense``, ``cholqr2``, ``stats``
and in-process ``cli.main``; names are looked up at call time so that the
tracer's wrappers are seen.  NOTES.md says why each workload exists.
"""

import contextlib
import importlib
import io
import time
import tracemalloc

import numpy as np

import oracle
from tracer import module

EPS = 1e-10
N_MIN = 250
N_RHS = 16

# acceptance-criterion-2 envelopes
ORTH_MAX = 1e-11
ACC_MAX = 1e-9
SOLVE_MAX = 1e-9


def _pkg():
    return importlib.import_module("hodlrqr")


def _vectors(n: int, seed: int, stream: int) -> np.ndarray:
    return np.random.default_rng([seed, stream]).standard_normal((n, N_RHS))


def _envelope(values: dict) -> list[str]:
    limits = {"e_orth": ORTH_MAX, "e_acc": ACC_MAX, "e_solve": SOLVE_MAX}
    return [f"{key}={values[key]:.3e} exceeds {limits[key]:.0e}"
            for key in limits if key in values and not values[key] <= limits[key]]


def _solve(f, b):
    return module("arith").solve_upper_dense(f.r, _pkg().apply_q_transpose(f, b))


def _peak_mb(a) -> float:
    """tracemalloc peak of one extra, untimed hqr call, in MB."""
    tracemalloc.start()
    try:
        _pkg().hqr(a, EPS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def _run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = module("cli").main(argv)
    if code != 0:
        raise RuntimeError(f"hodlrqr {argv[0]} exited with {code}")
    return out.getvalue()


class FactorWorkload:
    """Library calls per op: hqr, a 16-column solve and optionally cholqr2."""

    traced_times = {}  # the op times hqr and cholqr2 itself
    op_alias = None

    def __init__(self, n: int, rank: int, baseline: bool):
        self.n, self.rank, self.baseline = n, rank, baseline

    def setup(self, seed: int, workdir) -> None:
        self.a = module("bench").gen_random_hodlr(self.n, N_MIN, self.rank, seed)
        self.norm_a = oracle.norm_estimate(self.a, seed)
        self.b = _vectors(self.n, seed, 1)
        self.x = _vectors(self.n, seed, 2)

    def op(self, tracer):
        pkg = _pkg()
        with tracer:
            t0 = time.perf_counter()
            f = pkg.hqr(self.a, EPS)
            t1 = time.perf_counter()
            x = _solve(f, self.b)
            t2 = time.perf_counter()
            if self.baseline:
                pkg.cholqr2(self.a, pkg.TruncationControl(EPS * self.norm_a))
            t3 = time.perf_counter()
        times = {"op_s": t3 - t0, "factor_s": t1 - t0, "solve_s": t2 - t1}
        if self.baseline:
            times["baseline_s"] = t3 - t2
        return times, (f, x)

    def check(self, outcome) -> tuple[dict, list[str]]:
        f, x = outcome
        e_orth, e_acc = oracle.factor_errors(self.a, f.y, f.t, f.r, self.x, self.norm_a)
        values = {"e_orth": e_orth, "e_acc": e_acc,
                  "e_solve": oracle.solve_error(self.a, x, self.b, self.norm_a)}
        self.factors = f
        return values, _envelope(values)

    def finish(self) -> tuple[dict, list[str]]:
        stats = _pkg().stats
        f = self.factors
        mem = sum(stats(x)["memory_scalars"] for x in (f.y, f.t, f.r))
        return {"factor_peak_mb": _peak_mb(self.a),
                "factor_mem_rel": mem / stats(self.a)["memory_scalars"]}, []


class _CliWorkload:
    """An in-process ``hodlrqr`` command per op; the ``hqr`` call inside it
    is timed by a span as ``factor_s``."""

    traced_times = {"factor_s": "hqr.hqr"}

    def _command(self, argv, tracer):
        with tracer:
            start = time.perf_counter()
            out = _run_cli(argv)
            op_s = time.perf_counter() - start
        return {"op_s": op_s}, out

    def finish(self) -> tuple[dict, list[str]]:
        a = module("bench").gen_random_hodlr(self.n, N_MIN, 1, self.seed)
        return {"factor_peak_mb": _peak_mb(a), "factor_mem_rel": self.mem_rel}, []


class QrCliWorkload(_CliWorkload):
    """``hodlrqr qr FILE --estimate``: read, hqr, write the three factor
    files, estimate-mode metrics with ranks."""

    op_alias = "qr_cli_s"

    def __init__(self, n: int):
        self.n = n

    def setup(self, seed: int, workdir) -> None:
        self.path = str(workdir / "a.hdlr1")
        self.prefix = str(workdir / "f")
        _run_cli(["gen", "--matrix", "random", "--n", str(self.n), "--nmin", str(N_MIN),
                  "--rank", "1", "--seed", str(seed), "--out", self.path])
        self.a = oracle.read_hdlr1(self.path)
        self.norm_a = oracle.norm_estimate(self.a, seed)
        self.x = _vectors(self.n, seed, 2)
        self.seed = seed

    def op(self, tracer):
        return self._command(["qr", self.path, "--eps", str(EPS), "--estimate",
                              "--out-prefix", self.prefix], tracer)

    def check(self, outcome) -> tuple[dict, list[str]]:
        printed = dict(line.split("=", 1) for line in outcome.split())
        self.mem_rel = float(printed["mem_yt_rel"]) + float(printed["mem_r_rel"])
        values = {"e_orth": float(printed["e_orth"]),
                  "e_acc": float(printed["e_acc"]) / self.norm_a}
        errors = _envelope(values)
        y, t, r = (oracle.read_hdlr1(f"{self.prefix}.{k}.hdlr1") for k in "ytr")
        e_orth, e_acc = oracle.factor_errors(self.a, y, t, r, self.x, self.norm_a)
        errors += [f"factor files: {e}" for e in _envelope({"e_orth": e_orth, "e_acc": e_acc})]
        values.update(file_e_orth=e_orth, file_e_acc=e_acc)
        file_mem_rel = sum(map(oracle.scalar_count, (y, t, r))) / oracle.scalar_count(self.a)
        if not np.isclose(file_mem_rel, self.mem_rel, rtol=1e-12, atol=0):
            errors.append(f"printed memory {self.mem_rel} != factor files {file_mem_rel}")
        return values, errors


class BenchCliWorkload(_CliWorkload):
    """``hodlrqr bench --methods hqr,cholqr2`` at one size, in the default
    dense-metrics mode."""

    traced_times = {"factor_s": "hqr.hqr", "baseline_s": "baselines.cholqr2"}
    op_alias = "bench_cell_s"

    def __init__(self, n: int):
        self.n = n

    def setup(self, seed: int, workdir) -> None:
        a = module("bench").gen_random_hodlr(self.n, N_MIN, 1, seed)
        self.norm_a = oracle.norm_estimate(a, seed)
        self.seed = seed
        self.reference = None

    def op(self, tracer):
        return self._command(["bench", "--methods", "hqr,cholqr2", "--sizes", str(self.n),
                              "--seeds", str(self.seed), "--eps", str(EPS),
                              "--nmin", str(N_MIN)], tracer)

    def check(self, outcome) -> tuple[dict, list[str]]:
        header, *lines = outcome.strip().splitlines()
        cols = header.split(",")
        rows = {line.split(",")[0]: dict(zip(cols, line.split(","))) for line in lines}
        hqr_row = rows["hqr"]
        self.mem_rel = float(hqr_row["mem_YT_rel"]) + float(hqr_row["mem_R_rel"])
        values = {"e_orth": float(hqr_row["e_orth"]),
                  "e_acc": float(hqr_row["e_acc"]) / self.norm_a}
        errors = _envelope(values)
        if sorted(rows) != ["cholqr2", "hqr"]:
            errors.append(f"bench printed rows for {sorted(rows)}")
        errors += [f"{m} row failed" for m, row in rows.items() if row["failed"] != "0"]
        # identical configs and seeds reproduce every numeric column but time_s
        numeric = [[v for c, v in row.items() if c != "time_s"] for row in rows.values()]
        if self.reference is None:
            self.reference = numeric
        elif numeric != self.reference:
            errors.append("numeric CSV columns differ from the first op")
        return values, errors


NAMES = ("factor-k1", "factor-k16", "qr-estimate", "bench-dense")


def make(name: str, scale: float = 1.0):
    """The named workload; ``scale`` below 1 shrinks its sizes for tests."""
    def size(n):
        return max(N_MIN, int(n * scale))
    if name == "factor-k1":
        return FactorWorkload(size(16000), 1, baseline=True)
    if name == "factor-k16":
        return FactorWorkload(size(8000), 16, baseline=False)
    if name == "qr-estimate":
        return QrCliWorkload(size(2000))
    if name == "bench-dense":
        return BenchCliWorkload(size(1000))
    raise ValueError(f"unknown workload {name!r}")
