"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The criteria are
order-of-magnitude and property checks sized for a desktop run.
"""

import math
import time

import numpy as np
import pytest

from hodlrqr import (
    CholeskyBreakdownError,
    LowRankBlock,
    TruncationControl,
    apply_dense,
    build_partition,
    cholqr,
    cholqr2,
    from_dense,
    hqr,
    to_dense,
    triangle_rows,
)
from hodlrqr.bench import (
    gen_matrix,
    gen_random_hodlr,
    metrics,
    tolerance_sweep,
)
from hodlrqr.core import truncate_lowrank
from hodlrqr.dense import spectral_norm_estimate, truncation_rank
from hodlrqr.wy import block_qr

from conftest import gen_random_rect_dense


def converged_norm(a) -> float:
    """||A||_2 of a HODLR matrix by power iteration run further than hqr's
    own estimate."""
    return spectral_norm_estimate(lambda x: apply_dense(a, x),
                                  lambda x: apply_dense(a, x, trans=True), a.n_cols,
                                  max_iter=200, tol=1e-6)


def report(ok: bool, name: str, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_dense_oracle_equivalence():
    start = time.perf_counter()
    sizes = [128, 128, 128, 128, 256, 256, 256, 512, 512, 512]
    worst = 0.0
    for seed, n in enumerate(sizes):
        a = gen_random_hodlr(n, 32, 1, seed=seed)
        dense = to_dense(a)
        norm = np.linalg.norm(dense, 2)
        f = hqr(a, 1e-15)  # realizes thresholds at 1e-15 * ||A||_2
        *_, r_ref = block_qr(dense)
        gap = np.max(np.abs(np.abs(to_dense(f.r)) - np.abs(r_ref))) / norm
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    report(worst <= 1e-10 and elapsed < 10.0,
           "criterion 1 (dense-oracle equivalence)",
           f"worst |R| gap {worst:.2e} <= 1e-10, runtime {elapsed:.1f}s < 10s")


def test_criterion_2_orthogonality_envelope():
    start = time.perf_counter()
    results = []
    for n in (1000, 2000, 4000):
        a = gen_random_hodlr(n, 250, 1, seed=0)
        f = hqr(a, 1e-10)
        m = metrics(a, f, estimate=True)
        norm = converged_norm(a)
        results.append((n, m["e_orth"], m["e_acc"] / norm))
    elapsed = time.perf_counter() - start
    ok = all(eo <= 1e-11 and ea <= 1e-9 for _, eo, ea in results) and elapsed < 120
    detail = "; ".join(f"n={n}: e_orth={eo:.1e}, e_acc/|A|={ea:.1e}"
                       for n, eo, ea in results)
    report(ok, "criterion 2 (orthogonality envelope)",
           f"{detail}; runtime {elapsed:.0f}s < 120s")


def test_criterion_3_cauchy_robustness():
    rows = []
    cholqr_a3 = None
    for name in ("a1", "a2", "a3"):
        a = gen_matrix(f"cauchy:{name}", 2000, seed=0, eps=1e-10)
        norm = converged_norm(a)
        f = hqr(a, 1e-10)
        m = metrics(a, f, estimate=True)
        rows.append((name, m))
        if name == "a3":
            try:
                q, r = cholqr(a, TruncationControl(1e-10 * norm))
                cholqr_a3 = metrics(a, (q, r), estimate=True)["e_orth"]
            except CholeskyBreakdownError:
                cholqr_a3 = math.inf  # breakdown counts as failure
        rows[-1] = (name, m, norm)
    hqr_ok = all(m["e_orth"] <= 1e-8 and m["e_acc"] / norm <= 1e-8
                 for _, m, norm in rows)
    rank_ok = all(max(m["rank_y"], m["rank_t"]) <= 24 and m["rank_r"] <= 40
                  for _, m, _ in rows)
    cholqr_ok = cholqr_a3 is not None and (math.isinf(cholqr_a3) or cholqr_a3 >= 1e-3)
    detail = "; ".join(
        f"{nm}: e_orth={m['e_orth']:.1e}, ranks Y/T/R={m['rank_y']}/{m['rank_t']}/{m['rank_r']}"
        for nm, m, _ in rows)
    cq = "breakdown" if math.isinf(cholqr_a3) else f"e_orth={cholqr_a3:.1e}"
    report(hqr_ok and rank_ok and cholqr_ok, "criterion 3 (Cauchy robustness)",
           f"{detail}; cholqr on a3: {cq}")


def _prescribed_kappa_matrix(n, kappa, seed):
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (u * np.logspace(0, -math.log10(kappa), n)) @ v.T


def test_criterion_4_cholqr_degradation_law():
    n, eps = 256, 1e-14
    tree = build_partition(n, 64)
    rows = []
    for kappa in (1e2, 1e4, 1e6):
        a = from_dense(_prescribed_kappa_matrix(n, kappa, seed=11), tree,
                       TruncationControl(eps))
        tc = TruncationControl(eps)
        f = hqr(a, eps)
        e_hqr = metrics(a, f)["e_orth"]
        q1, r1 = cholqr(a, tc)
        e_c1 = metrics(a, (q1, r1))["e_orth"]
        q2, r2 = cholqr2(a, tc)
        e_c2 = metrics(a, (q2, r2))["e_orth"]
        rows.append((kappa, e_hqr, e_c1, e_c2))
    monotone = all(rows[i][2] <= rows[i + 1][2] for i in range(len(rows) - 1))
    separated = rows[-1][2] >= 1e2 * rows[-1][1]
    improves = all(c2 < c1 for _, _, c1, c2 in rows)
    detail = "; ".join(f"k={k:.0e}: hqr={eh:.1e}, cholqr={c1:.1e}, cholqr2={c2:.1e}"
                       for k, eh, c1, c2 in rows)
    report(monotone and separated and improves,
           "criterion 4 (CholQR degradation law)", detail)


def test_criterion_5_tolerance_sweep():
    eps_list = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16]
    recs = tolerance_sweep("cauchy:a3", eps_list, n=2000, seed=0, estimate=True)
    fit_pts = [(math.log10(r.eps), math.log10(r.e_acc)) for r in recs
               if r.eps >= 1e-12]
    slope = np.polyfit([p[0] for p in fit_pts], [p[1] for p in fit_pts], 1)[0]
    below = [r.e_acc for r in recs if r.eps <= 1e-14]
    ratios = [below[i] / below[i + 1] for i in range(len(below) - 1)]
    stagnates = all(0.1 <= q <= 10.0 for q in ratios)
    report(0.5 <= slope <= 1.5 and stagnates, "criterion 5 (tolerance sweep)",
           f"log-log slope {slope:.2f} in [0.5, 1.5]; "
           f"stagnation ratios below 1e-14: {[f'{q:.2f}' for q in ratios]}")


def test_criterion_6_hodlr_approximation_bound():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(60, 320))
        n_min = int(rng.integers(10, max(11, n // 3)))
        tree = build_partition(n, n_min)
        m = rng.standard_normal((n, n))
        eps = 10.0 ** rng.uniform(-12, -1)
        h = from_dense(m, tree, TruncationControl(eps))
        err = np.linalg.norm(m - to_dense(h), 2)
        bound = tree.level * eps
        if tree.level > 0:
            worst = max(worst, err / bound)
        else:
            worst = max(worst, 1.0 if err > 0 else 0.0)
    report(worst <= 1.0, "criterion 6 (HODLR approximation bound)",
           f"worst error/bound ratio {worst:.3f} <= 1 over 20 matrices")


def test_criterion_7_recompression_optimality():
    rng = np.random.default_rng(7)
    failures = 0
    for _ in range(100):
        nl, nr = int(rng.integers(8, 60)), int(rng.integers(8, 60))
        k = int(rng.integers(1, 10))
        lft = rng.standard_normal((nl, k))
        rgt = rng.standard_normal((k, nr))
        sigma = np.linalg.svd(lft @ rgt, compute_uv=False)
        j = int(rng.integers(0, k))
        eps = float(sigma[j]) * (1 + 1e-9)
        out = truncate_lowrank(LowRankBlock(lft, rgt), TruncationControl(eps))
        err = np.linalg.norm(out.to_dense() - lft @ rgt, 2)
        if out.rank != truncation_rank(sigma, eps) or err > eps * (1 + 1e-6):
            failures += 1
    report(failures == 0, "criterion 7 (recompression optimality)",
           f"{100 - failures}/100 blocks match the dense SVD oracle")


def test_criterion_8_rank_observation():
    a = gen_random_hodlr(1000, 250, 1, seed=0)
    f = hqr(a, 1e-10)
    m = metrics(a, f)
    ok = m["rank_y"] <= m["rank_q"] and 1.5 <= m["mem_yt_rel"] <= 2.5
    report(ok, "criterion 8 (rank observation)",
           f"rank_Y={m['rank_y']} <= rank_Q={m['rank_q']}, "
           f"mem_YT_rel={m['mem_yt_rel']:.2f} in [1.5, 2.5]")


def test_criterion_9_rectangular_prototype():
    m, n = 2000, 1000
    a, tr, tc = gen_random_rect_dense(m, n, 250, 1, seed=0)
    norm = spectral_norm_estimate(lambda x: a @ x, lambda x: a.T @ x, n,
                                  max_iter=200, tol=1e-6)
    f = hqr(from_dense(a, tr, TruncationControl(1e-10), tc), 1e-10, absolute=True)
    y = to_dense(f.y)
    q = np.eye(m) - y @ to_dense(f.t) @ y.T
    resid_orth = q.T @ q - np.eye(m)
    e_orth = spectral_norm_estimate(lambda x: resid_orth @ x,
                                    lambda x: resid_orth @ x, m,
                                    max_iter=300, tol=1e-6)
    r = np.zeros((m, n))
    tri = triangle_rows(f.y)
    r[tri] = to_dense(f.r)
    resid_acc = q @ r - a
    e_acc = spectral_norm_estimate(lambda x: resid_acc @ x,
                                   lambda x: resid_acc.T @ x, n,
                                   max_iter=300, tol=1e-6)
    rp = r[tri]
    upper = np.array_equal(np.tril(rp, -1), np.zeros_like(rp))
    ok = e_orth <= 1e-11 and e_acc / norm <= 1e-9 and upper
    report(ok, "criterion 9 (rectangular hqr)",
           f"e_orth={e_orth:.1e} <= 1e-11, e_acc/|A|={e_acc / norm:.1e} <= 1e-9, "
           f"permuted R upper triangular: {upper}")


def test_criterion_10_scaling_sanity():
    times = {}
    for n in (4000, 8000, 16000):
        a = gen_random_hodlr(n, 250, 1, seed=0)
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            hqr(a, 1e-10)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
    ratios = [times[8000] / times[4000], times[16000] / times[8000]]
    avg = sum(ratios) / len(ratios)
    report(avg <= 3.0, "criterion 10 (scaling sanity)",
           f"doubling ratios {ratios[0]:.2f}, {ratios[1]:.2f}; average {avg:.2f} <= 3.0 "
           f"(times {times[4000]:.2f}/{times[8000]:.2f}/{times[16000]:.2f}s)")
