import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodlrqr import (
    householder_reflector,
    qr_economy,
    spectral_norm_estimate,
    svd,
    truncation_rank,
)

EYE_TOL = 16 * np.finfo(float).eps


def test_reflector_34_example():
    r = householder_reflector([3.0, 4.0])
    assert np.allclose(r.y, [1.0, 0.5])
    assert r.gamma == pytest.approx(1.6)
    assert r.rho == pytest.approx(-5.0)
    # apply the reflector explicitly and verify the mapped vector
    mapped = r.apply(np.array([3.0, 4.0]))
    assert np.allclose(mapped, [-5.0, 0.0], atol=1e-14)


def test_reflector_single_entry():
    r = householder_reflector([7.0])
    assert r.rho == pytest.approx(-7.0)
    assert r.apply(np.array([7.0]))[0] == pytest.approx(-7.0)


def test_reflector_zero_vector_is_identity():
    r = householder_reflector(np.zeros(4))
    assert r.gamma == 0.0 and r.rho == 0.0
    v = np.arange(4.0)
    assert np.array_equal(r.apply(v), v)


def test_reflector_negative_leading_entry():
    r = householder_reflector([-3.0, 4.0])
    assert r.rho == pytest.approx(5.0)  # -sign(-3) * 5
    assert np.allclose(r.apply(np.array([-3.0, 4.0])), [5.0, 0.0], atol=1e-14)


def test_reflector_rejects_empty():
    with pytest.raises(ValueError):
        householder_reflector([])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False),
                min_size=1, max_size=64))
def test_reflector_orthogonality_property(entries):
    # relative error bounds only make sense in the normal range; products
    # of subnormal entries round at one absolute ulp instead
    v = np.array(entries)
    r = householder_reflector(v)
    p = np.eye(v.size) - r.gamma * np.outer(r.y, r.y)
    assert np.linalg.norm(p.T @ p - np.eye(v.size), 2) <= EYE_TOL
    mapped = r.apply(v)
    amax = np.max(np.abs(v))
    norm = amax * np.linalg.norm(v / amax) if amax > 0 else 0.0
    assert np.all(np.abs(mapped[1:]) <= 8 * np.finfo(float).eps * norm)
    assert abs(abs(mapped[0]) - norm) <= 8 * np.finfo(float).eps * norm


def test_reflector_subnormal_entries_stay_orthogonal():
    # entries at the bottom of the subnormal range: annihilation can be off
    # by an absolute ulp, but the reflector itself remains orthogonal
    v = np.array([5e-324, 5e-324])
    r = householder_reflector(v)
    p = np.eye(2) - r.gamma * np.outer(r.y, r.y)
    assert np.linalg.norm(p.T @ p - np.eye(2), 2) <= EYE_TOL
    assert abs(r.apply(v)[1]) <= 5e-324


def test_qr_economy_identity():
    q, r = qr_economy(np.eye(3))
    assert np.allclose(np.abs(q), np.eye(3))
    assert np.allclose(np.abs(r), np.eye(3))


def test_qr_economy_single_column():
    q, r = qr_economy(np.array([[3.0], [4.0]]))
    assert abs(r[0, 0]) == pytest.approx(5.0)
    assert np.allclose(np.abs(q[:, 0]), [0.6, 0.8])


def test_qr_economy_random(rng):
    m = rng.standard_normal((50, 20))
    q, r = qr_economy(m)
    assert q.shape == (50, 20) and r.shape == (20, 20)
    assert np.linalg.norm(q.T @ q - np.eye(20), 2) <= 1e-14
    assert np.linalg.norm(q @ r - m, 2) / np.linalg.norm(m, 2) <= 1e-14
    assert np.allclose(r, np.triu(r))


def test_qr_economy_rejects_wide():
    with pytest.raises(ValueError):
        qr_economy(np.ones((2, 3)))


def test_svd_diagonal():
    res = svd(np.diag([3.0, 1.0]))
    assert np.allclose(res.sigma, [3.0, 1.0])


def test_svd_rank_one(rng):
    u = rng.standard_normal(8)
    v = rng.standard_normal(5)
    res = svd(np.outer(u, v))
    assert res.sigma[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))
    assert np.all(res.sigma[1:] <= 1e-13 * res.sigma[0])


def test_svd_reconstruction(rng):
    m = rng.standard_normal((30, 30))
    res = svd(m)
    rebuilt = res.U @ np.diag(res.sigma) @ res.V.T
    assert np.max(np.abs(rebuilt - m)) <= 1e-13 * res.sigma[0]
    assert np.all(np.diff(res.sigma) <= 0)


def test_svd_eckart_young(rng):
    # rank-k truncation error equals sigma_{k+1}
    m = rng.standard_normal((24, 18))
    res = svd(m)
    for k in range(0, 18, 3):
        head = res.U[:, :k] @ np.diag(res.sigma[:k]) @ res.V[:, :k].T
        err = np.linalg.norm(m - head, 2)
        expected = res.sigma[k] if k < len(res.sigma) else 0.0
        assert err == pytest.approx(expected, abs=1e-12 * res.sigma[0])


def test_truncation_rank_examples():
    assert truncation_rank([5, 1, 1e-12], 1e-10) == 2
    assert truncation_rank([5], 10) == 0
    # tie truncates
    assert truncation_rank([5, 1e-10], 1e-10) == 1
    assert truncation_rank([], 0.5) == 0
    assert truncation_rank([3, 2, 1], 0.0) == 3


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e3), min_size=0, max_size=20),
       st.floats(min_value=0, max_value=1e3),
       st.floats(min_value=0, max_value=1e3))
def test_truncation_rank_monotone(values, eps1, eps2):
    sigma = sorted(values, reverse=True)
    lo, hi = min(eps1, eps2), max(eps1, eps2)
    assert truncation_rank(sigma, lo) >= truncation_rank(sigma, hi)


def test_spectral_norm_identity():
    est = spectral_norm_estimate(lambda x: x, lambda x: x, 10)
    assert est == pytest.approx(1.0, rel=1e-2)


def test_spectral_norm_diag():
    d = np.arange(1.0, 6.0)
    est = spectral_norm_estimate(lambda x: d * x, lambda x: d * x, 5)
    assert est == pytest.approx(5.0, abs=0.05)


def test_spectral_norm_zero_operator():
    assert spectral_norm_estimate(lambda x: 0 * x, lambda x: 0 * x, 6) == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 93])
def test_spectral_norm_random_vs_svd(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((100, 100))
    est = spectral_norm_estimate(lambda x: m @ x, lambda x: m.T @ x, 100)
    exact = np.linalg.norm(m, 2)
    assert abs(est - exact) / exact <= 1e-2


def test_spectral_norm_tiny_dimension():
    m = np.array([[2.0]])
    est = spectral_norm_estimate(lambda x: m @ x, lambda x: m.T @ x, 1)
    assert est == pytest.approx(2.0, rel=1e-6)


def _diag_estimate(d, **kwargs):
    """Blocked estimate of ||diag(d)|| from an 8-column Gaussian block."""
    d = np.asarray(d, dtype=float)
    start = np.random.default_rng(5).standard_normal((d.size, 8))
    return spectral_norm_estimate(lambda x: d[:, None] * x, lambda x: d[:, None] * x,
                                  d.size, start=start, blocks=True, **kwargs)


def test_block_estimate_diag_with_gap():
    d = np.concatenate([[10.0], np.linspace(1.0, 5.0, 199)])
    est = _diag_estimate(d, max_iter=30, tol=1e-6)
    assert est == pytest.approx(10.0, rel=1e-6)
    assert est <= 10.0 * (1 + 1e-14)


def test_block_estimate_diag_repeated_top_value():
    d = np.concatenate([[3.0] * 4, np.linspace(0.0, 1.0, 196)])
    assert _diag_estimate(d, max_iter=30, tol=1e-6) == pytest.approx(3.0, rel=1e-6)


def test_block_estimate_diag_clustered_spectrum():
    # 50 values within 1e-3 of the top: the cap stops the rounds, and the
    # estimate still lands inside the cluster, below the norm
    d = np.concatenate([1.0 - 1e-3 * np.linspace(0, 1, 50), np.linspace(0.0, 0.5, 150)])
    est = _diag_estimate(d, max_iter=30, tol=1e-6)
    assert 1.0 - 1e-3 <= est <= 1.0 + 1e-14


@pytest.mark.parametrize("n", [1, 3])
def test_block_estimate_smaller_than_block(n):
    d = np.arange(1.0, n + 1.0)
    est, bound = _diag_estimate(d, max_iter=30, tol=1e-6, with_bound=True)
    assert est == pytest.approx(float(n), rel=1e-12)
    assert bound >= est


def test_block_estimate_zero_operator():
    est, bound = _diag_estimate(np.zeros(20), with_bound=True)
    assert est == 0.0 and bound == 0.0


def test_block_estimate_rank_one_converges_early():
    rng = np.random.default_rng(6)
    u, v = rng.standard_normal(150), rng.standard_normal(150)
    m = np.outer(u, v)
    calls = []

    def apply(x):
        calls.append(x.shape[1])
        return m @ x

    est = spectral_norm_estimate(apply, lambda x: m.T @ x, 150, max_iter=30, tol=1e-6,
                                 start=rng.standard_normal((150, 8)), blocks=True)
    assert est == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-10)
    assert len(calls) <= 3 and set(calls) == {8}  # one call per round, whole blocks


def test_block_estimate_roundoff_operator_stops_at_cap():
    # a symmetric operator at roundoff level with a flat spectrum: the Ritz
    # residual never certifies convergence, so the round cap ends the run
    rng = np.random.default_rng(7)
    g = rng.standard_normal((300, 300))
    e = 1e-16 * (g + g.T)
    rounds = []

    def apply(x):
        rounds.append(1)
        return e @ x

    est, bound = spectral_norm_estimate(apply, lambda x: e @ x, 300, max_iter=30, tol=1e-6,
                                        start=rng.standard_normal((300, 8)),
                                        blocks=True, with_bound=True)
    exact = np.linalg.norm(e, 2)
    assert len(rounds) == 30
    assert exact / 2 <= est <= exact * (1 + 1e-12)
    assert bound >= exact


def test_block_estimate_bound_covers_exact_norm():
    # ||E|| <= 10 sqrt(2/pi) max_i ||E w_i|| fails with probability 1e-8
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        e = rng.standard_normal((80, 60)) * rng.uniform(0.1, 10.0)
        est, bound = spectral_norm_estimate(
            lambda x: e @ x, lambda x: e.T @ x, 60, max_iter=30, tol=1e-6,
            start=rng.standard_normal((60, 8)), blocks=True, with_bound=True)
        exact = np.linalg.norm(e, 2)
        assert est <= exact * (1 + 1e-12)
        assert bound >= exact
