"""bench.metrics: estimate mode against the exact dense path, the dense
path against an independent dense computation, and per-matrix work in
run_bench."""

import numpy as np
import pytest

from hodlrqr import (
    CholeskyBreakdownError,
    TruncationControl,
    cholqr2,
    hodlr_spectral_norm,
    hqr,
    to_dense,
)
from hodlrqr import bench
from hodlrqr.bench import BenchConfig, gen_cauchy_config, gen_random_hodlr, metrics

# Estimated e_orth and e_acc lie within this factor of the dense values.
# For a fixed operator the block estimate is a lower bound on its norm; at
# roundoff level the operator also carries the rounding of its own
# applications, which lifts hqr's e_acc estimate up to about 1.3x above the
# dense value at n = 2000.
ESTIMATE_FACTOR = 2.0

CASES = [("random", 1000), ("random", 2000),
         ("cauchy:a1", 2000), ("cauchy:a2", 2000), ("cauchy:a3", 2000)]


def _matrix(kind, n):
    if kind == "random":
        return gen_random_hodlr(n, 250, 1, seed=0)
    return gen_cauchy_config(kind.partition(":")[2], n=n, seed=0, eps=1e-10)


@pytest.mark.parametrize("kind,n", CASES)
def test_estimates_within_factor_of_dense(kind, n):
    a = _matrix(kind, n)
    factors = {"hqr": hqr(a, 1e-10)}
    try:
        factors["cholqr2"] = cholqr2(a, TruncationControl(1e-10 * hodlr_spectral_norm(a)))
    except CholeskyBreakdownError:
        # on the most ill-conditioned Cauchy matrix CholQR may break down,
        # depending on the rounding of multithreaded BLAS
        assert kind == "cauchy:a3"
    for method, f in factors.items():
        exact = metrics(a, f, compute_kappa=False, compute_ranks=False)
        est = metrics(a, f, estimate=True, compute_kappa=False, compute_ranks=False)
        for key in ("e_orth", "e_acc"):
            ratio = est[key] / exact[key]
            assert 1 / ESTIMATE_FACTOR <= ratio <= ESTIMATE_FACTOR, (method, key, ratio)
            assert est[f"{key}_bound"] >= exact[key], (method, key)
            assert np.isnan(exact[f"{key}_bound"])


def test_dense_path_matches_independent_norms():
    # a loose tolerance keeps both errors far above roundoff, where the
    # route by which Q is formed does not matter
    a = gen_random_hodlr(300, 64, 2, seed=4)
    f = hqr(a, 1e-4)
    m = metrics(a, f, compute_ranks=False)
    y, t, r, a_d = (to_dense(h) for h in (f.y, f.t, f.r, a))
    q = np.eye(300) - y @ t @ y.T
    assert m["e_orth"] == pytest.approx(np.linalg.norm(q.T @ q - np.eye(300), 2), rel=1e-8)
    assert m["e_acc"] == pytest.approx(np.linalg.norm(q @ r - a_d, 2), rel=1e-8)
    assert m["kappa2"] == pytest.approx(np.linalg.cond(a_d), rel=1e-12)


def test_explicit_factors_report_q_and_r_statistics():
    a = gen_random_hodlr(256, 64, 1, seed=5)
    q, r = cholqr2(a, TruncationControl(1e-12 * hodlr_spectral_norm(a)))
    m = metrics(a, (q, r), compute_kappa=False)
    assert {"rank_q", "rank_r", "mem_q_rel", "mem_r_rel"} <= m.keys()
    assert "rank_y" not in m and "mem_yt_rel" not in m
    assert m == {**bench.metrics_explicit(a, q, r), **m}


def test_run_bench_computes_matrix_properties_once(monkeypatch):
    calls = {"kappa2": 0, "norm": 0}
    real_kappa2, real_norm = bench._kappa2, bench.hodlr_spectral_norm

    def kappa2(a):
        calls["kappa2"] += 1
        return real_kappa2(a)

    def norm(a, *args, **kwargs):
        calls["norm"] += 1
        return real_norm(a, *args, **kwargs)

    monkeypatch.setattr(bench, "_kappa2", kappa2)
    monkeypatch.setattr(bench, "hodlr_spectral_norm", norm)
    config = BenchConfig(methods=("hqr", "cholqr", "cholqr2", "dense"), sizes=(128,),
                         n_min=32)
    records = bench.run_bench(config)
    assert calls == {"kappa2": 1, "norm": 1}
    assert len({rec.kappa2 for rec in records}) == 1 and records[0].kappa2 > 1

    calls.update(kappa2=0, norm=0)
    bench.run_bench(BenchConfig(methods=("hqr",), sizes=(128,), n_min=32, estimate=True))
    assert calls == {"kappa2": 0, "norm": 0}
