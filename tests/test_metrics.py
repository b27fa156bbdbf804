"""bench.metrics: estimate mode against the exact dense path, the dense
path against an independent dense computation, its Lanczos norms against
full eigenvalue decompositions, its HODLR product count, kappa2 against
the SVD, and per-matrix work in run_bench."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from hodlrqr import (
    CholeskyBreakdownError,
    TruncationControl,
    cholqr2,
    from_dense,
    hqr,
    to_dense,
)
from hodlrqr import arith, bench
from hodlrqr.arith import hodlr_spectral_norm
from hodlrqr.bench import (
    BenchConfig,
    gen_matrix,
    gen_random_hodlr,
    metrics,
)

from conftest import count_calls_everywhere, gen_random_rect_dense

# Estimated e_orth and e_acc lie within this factor of the dense values.
# For a fixed operator the block estimate is a lower bound on its norm; at
# roundoff level the operator also carries the rounding of its own
# applications, which lifts hqr's e_acc estimate to 1.54x the dense value
# on random input at n = 2000.
ESTIMATE_FACTOR = 2.0

CASES = [("random", 1000), ("random", 2000),
         ("cauchy:a1", 2000), ("cauchy:a2", 2000), ("cauchy:a3", 2000)]


def _matrix(kind, n):
    if kind == "random":
        return gen_random_hodlr(n, 250, 1, seed=0)
    return gen_matrix(kind, n, seed=0, eps=1e-10)


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
        exact = metrics(a, f)
        est = metrics(a, f, estimate=True)
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
    m = metrics(a, f)
    y, t, r, a_d = (to_dense(h) for h in (f.y, f.t, f.r, a))
    q = np.eye(300) - y @ t @ y.T
    assert m["e_orth"] == pytest.approx(np.linalg.norm(q.T @ q - np.eye(300), 2), rel=1e-8)
    assert m["e_acc"] == pytest.approx(np.linalg.norm(q @ r - a_d, 2), rel=1e-8)


def test_explicit_factors_report_q_and_r_statistics():
    a = gen_random_hodlr(256, 64, 1, seed=5)
    q, r = cholqr2(a, TruncationControl(1e-12 * hodlr_spectral_norm(a)))
    m = metrics(a, (q, r))
    assert {"rank_q", "rank_r", "mem_q_rel", "mem_r_rel"} <= m.keys()
    assert "rank_y" not in m and "mem_yt_rel" not in m
    # the same pair as dense arrays has no ranks to report
    dense = metrics(to_dense(a), (to_dense(q), to_dense(r)))
    assert dense.keys() == {"e_orth", "e_acc", "e_orth_bound", "e_acc_bound"}
    for key in ("e_orth", "e_acc"):
        assert dense[key] == pytest.approx(m[key], rel=0.1, abs=1e-14)


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


@pytest.mark.parametrize("estimate", [False, True])
@pytest.mark.parametrize("hodlr", [True, False])
def test_metrics_refuses_a_rectangular_a(estimate, hodlr):
    d, tree_rows, tree_cols = gen_random_rect_dense(400, 200, 50, seed=3)
    a = from_dense(d, tree_rows, TruncationControl(1e-10), tree_cols)
    f = hqr(a, 1e-10, absolute=True)
    msg = r"metrics requires a square matrix A, got shape \(400, 200\)"
    with pytest.raises(ValueError, match=msg):
        metrics(a if hodlr else d, f if hodlr else np.linalg.qr(d), estimate=estimate)


def _eigvalsh_norm(g):
    """Reference ||G||_2 of a symmetric G from all of its eigenvalues."""
    lam = scipy.linalg.eigvalsh(g)
    return float(max(-lam[0], lam[-1]))


def _error_matrices(kind, n):
    """The Q^T Q - I and scaled E^T E matrices that dense-mode qr_errors
    hands to _symmetric_norm for hqr and cholqr2 on one matrix."""
    a = (gen_random_hodlr(n, 64, 1, seed=2) if kind == "random"
         else gen_matrix(kind, n, n_min=64, seed=2, eps=1e-10))
    factors = [hqr(a, 1e-10)]
    try:
        factors.append(cholqr2(a, TruncationControl(1e-10 * hodlr_spectral_norm(a))))
    except CholeskyBreakdownError:
        assert kind == "cauchy:a3"
    seen = []
    real = bench._symmetric_norm
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "_symmetric_norm", lambda g: seen.append(g) or real(g))
        for f in factors:
            metrics(a, f)
    assert len(seen) == 2 * len(factors)
    return seen


def _synthetic_matrices():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    u = rng.standard_normal(200)
    sym = rng.standard_normal((3, 3))
    return {
        # |lambda_min| > lambda_max: the norm is the negative end
        "negative-end": (q * np.r_[-5.0, np.linspace(0.0, 1.0, 199)]) @ q.T,
        "rank-1": np.outer(u, u),
        "n=1": np.array([[-3.0]]),
        "n=2": np.array([[1.0, -4.0], [-4.0, 2.0]]),
        "n=3": sym + sym.T,
    }


def _assert_norm_matches_eigvalsh(g):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = bench._symmetric_norm(g)
        assert bench._symmetric_norm(g) == norm  # bit-identical on a second call
    assert norm == pytest.approx(_eigvalsh_norm(g), rel=1e-12, abs=0)


@pytest.mark.parametrize("kind", ["random", "cauchy:a1", "cauchy:a2", "cauchy:a3"])
def test_symmetric_norm_of_error_matrices_matches_eigvalsh(kind):
    for g in _error_matrices(kind, 300):
        _assert_norm_matches_eigvalsh(g)


@pytest.mark.parametrize("name", list(_synthetic_matrices()))
def test_symmetric_norm_of_synthetic_matrices_matches_eigvalsh(name):
    _assert_norm_matches_eigvalsh(_synthetic_matrices()[name])


def test_symmetric_norm_of_zero_matrix_is_exactly_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2, 3, 50):
            norm = bench._symmetric_norm(np.zeros((n, n)))
            assert type(norm) is float and norm == 0.0


@pytest.mark.parametrize("matrix", ["random", "cauchy:a2"])
def test_run_bench_csv_changes_only_in_the_dense_norms(matrix, monkeypatch):
    config = BenchConfig(methods=("hqr", "cholqr", "cholqr2", "dense"), sizes=(200,),
                         seeds=(0, 1), n_min=50, matrix=matrix)
    lanczos = bench.records_to_csv(bench.run_bench(config)).splitlines()
    monkeypatch.setattr(bench, "_symmetric_norm", _eigvalsh_norm)
    full = bench.records_to_csv(bench.run_bench(config)).splitlines()
    assert lanczos[0] == full[0] and len(lanczos) == len(full) == 9
    cols = lanczos[0].split(",")
    for new_row, old_row in zip(lanczos[1:], full[1:]):
        for col, new, old in zip(cols, new_row.split(","), old_row.split(",")):
            if col in ("e_orth", "e_acc") and old != "nan":
                assert float(new) == pytest.approx(float(old), rel=1e-12, abs=0), col
            elif col != "time_s":
                assert new == old, col


U = np.finfo(float).eps / 2  # unit roundoff


def _full_products(calls, n) -> int:
    """How many of the recorded apply_dense calls act on n columns."""
    return sum(np.ndim(x) == 2 and np.shape(x)[1] == n
               for binding in calls for _, x, *_ in binding)


@pytest.mark.parametrize("method", ["hqr", "cholqr2"])
def test_dense_metrics_hodlr_product_count(method, monkeypatch):
    # WY factors: two products form Q = I - Y (T Y_d^T), three apply Q to
    # the dense R; an explicit HODLR pair: one applies Q to the dense R
    n = 256
    a = gen_random_hodlr(n, 64, 1, seed=6)
    f = (hqr(a, 1e-10) if method == "hqr"
         else cholqr2(a, TruncationControl(1e-10 * hodlr_spectral_norm(a))))
    calls = count_calls_everywhere(monkeypatch, arith, "apply_dense")
    metrics(a, f)
    assert _full_products(calls, n) <= (5 if method == "hqr" else 1)


def _identity_densify(x) -> np.ndarray:
    """The densification that dense-mode metrics replaced: the factor's
    operator applied to the identity, through n-column HODLR products."""
    op = bench._operator(x)
    return op.matmat(np.eye(op.shape[0]))


def _svd_kappa2(a) -> float:
    return float(np.linalg.cond(to_dense(a) if isinstance(a, bench.HodlrMatrix) else a, 2))


# Each of the two kappa2 methods is backward stable: its singular values
# are those of A + dA with ||dA||_2 <= sqrt(n) u ||A||_2 (the usual
# growth of rounding errors in Householder reductions), which moves each
# sigma by at most that much (Weyl).  So each kappa2 is off by a relative
# sqrt(n) u (1 + kappa2) <= 2 sqrt(n) kappa2 u, and the two differ by at
# most 4 sqrt(n) kappa2 u.
def kappa2_bound(kappa, n) -> float:
    return 4 * math.sqrt(n) * kappa * U


# Dense-mode e_orth and e_acc (relative to ||A||_2) move by at most this
# many u from the identity-product densification.  Both routes sum the
# same terms, to_dense instead of products on the identity, so a dense
# entry moves at most by the rounding of its few-term low-rank sum, about
# u |entry|.  With entries of Q of size 1/sqrt(n), such an n x n change
# has 2-norm about 2u (the semicircle edge 2 sqrt(n) rms), and both
# Q^T dQ and dQ^T Q enter Q^T Q - I: 4u.  E = Q R - A gathers the same
# moves in Q, R and A relative to ||A||_2.
NORM_MOVE = 4


@pytest.mark.parametrize("matrix", ["random", "cauchy:a2"])
def test_run_bench_csv_moves_only_by_the_new_kappa2_and_densification(matrix, monkeypatch):
    config = BenchConfig(methods=("hqr", "cholqr", "cholqr2", "dense"), sizes=(200,),
                         seeds=(0, 1), n_min=50, matrix=matrix)
    new = bench.records_to_csv(bench.run_bench(config)).splitlines()
    with monkeypatch.context() as mp:
        mp.setattr(bench, "_kappa2", _svd_kappa2)
        mp.setattr(bench, "_dense", _identity_densify)
        old = bench.records_to_csv(bench.run_bench(config)).splitlines()
    assert new[0] == old[0] and len(new) == len(old) == 9
    cols = new[0].split(",")
    norm_a = {seed: np.linalg.norm(to_dense(gen_matrix(matrix, 200, 50, seed)), 2)
              for seed in (0, 1)}
    for new_row, old_row in zip(new[1:], old[1:]):
        new_v, old_v = dict(zip(cols, new_row.split(","))), dict(zip(cols, old_row.split(",")))
        for col in cols:
            if col == "kappa2":
                kappa = float(old_v[col])
                assert abs(float(new_v[col]) - kappa) <= kappa * kappa2_bound(kappa, 200)
            elif col in ("e_orth", "e_acc") and old_v[col] != "nan":
                scale = norm_a[int(old_v["seed"])] if col == "e_acc" else 1.0
                move = abs(float(new_v[col]) - float(old_v[col])) / scale
                assert move <= NORM_MOVE * U, (col, old_v["method"], move / U)
            elif col != "time_s":
                assert new_v[col] == old_v[col], col


@pytest.mark.parametrize("kind", ["random", "cauchy:a1", "cauchy:a2", "cauchy:a3"])
@pytest.mark.parametrize("n", [300, 1000])
def test_kappa2_matches_svd_condition_number(kind, n):
    a = gen_matrix(kind, n, 250, seed=0)
    expected = _svd_kappa2(a)
    got = bench._kappa2(a)
    assert abs(got - expected) <= expected * kappa2_bound(expected, n), (got, expected)


def _checked_kappa2(a) -> float:
    """_kappa2 of a, with every warning an error and a second call
    required to give the bit-identical value."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kappa = bench._kappa2(a)
        assert type(kappa) is float and bench._kappa2(a) == kappa
    return kappa


def test_kappa2_of_exact_zero_on_the_diagonal_of_r_is_inf():
    rng = np.random.default_rng(8)
    zero_col = rng.standard_normal((40, 40))
    zero_col[:, 17] = 0.0
    assert np.linalg.cond(np.zeros((40, 40))) == math.inf
    for a in (np.zeros((40, 40)), zero_col, np.diag([3.0, 2.0, 0.0, 1.0])):
        assert _checked_kappa2(a) == math.inf


@pytest.mark.parametrize("factor", [1e200, 1e-200])
def test_kappa2_does_not_depend_on_scale(factor):
    rng = np.random.default_rng(9)
    for a in (rng.standard_normal((60, 60)), np.diag([1.0] * 5 + [1e-3] * 5)):
        assert _checked_kappa2(factor * a) == pytest.approx(_checked_kappa2(a), rel=1e-12)


@pytest.mark.parametrize("a", [np.array([[2.0]]), np.array([[0.0]]),
                               np.array([[1.0, 2.0], [3.0, 4.0]]),
                               np.array([[1.0, 2.0], [2.0, 4.0]])])
def test_kappa2_of_n_at_most_2_is_the_svd_value(a):
    assert _checked_kappa2(a) == float(np.linalg.cond(a, 2))


def test_kappa2_of_exact_cases():
    q, _ = np.linalg.qr(np.random.default_rng(10).standard_normal((80, 80)))
    assert _checked_kappa2(np.eye(50)) == pytest.approx(1.0, rel=1e-14, abs=0)
    assert _checked_kappa2(q) == pytest.approx(1.0, rel=1e-14, abs=0)
    assert _checked_kappa2(np.diag([1.0] * 5 + [1e-3] * 5)) == pytest.approx(
        1e3, rel=1e-14, abs=0)
    # far past 1/u, where 1/sigma_min^2 alone would overflow
    assert _checked_kappa2(np.diag([1.0, 1.0, 1e-200])) == pytest.approx(
        1e200, rel=1e-14, abs=0)
