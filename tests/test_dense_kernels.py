import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodlrqr.dense import spectral_norm_estimate, svd, truncation_rank
from hodlrqr.wy import block_qr

EYE_TOL = 16 * np.finfo(float).eps


def reflector(v):
    """Householder reflector of the one-column leaf QR as (y, gamma, rho):
    (I - gamma y y^T) v = rho e_1 with y[0] = 1."""
    y, t, r = block_qr(np.asarray(v, dtype=float)[:, None])
    return y[:, 0], t[0, 0], r[0, 0]


def reflect(y, gamma, v):
    return v - gamma * y * (y @ v)


def test_reflector_34_example():
    y, gamma, rho = reflector([3.0, 4.0])
    assert np.allclose(y, [1.0, 0.5])
    assert gamma == pytest.approx(1.6)
    assert rho == pytest.approx(-5.0)
    # apply the reflector explicitly and verify the mapped vector
    mapped = reflect(y, gamma, np.array([3.0, 4.0]))
    assert np.allclose(mapped, [-5.0, 0.0], atol=1e-14)


def test_reflector_single_entry():
    # nothing to annihilate: LAPACK keeps the identity and the entry's sign
    for entry in (7.0, -7.0):
        y, gamma, rho = reflector([entry])
        assert gamma == 0.0
        assert rho == entry
        assert reflect(y, gamma, np.array([entry]))[0] == entry


def test_reflector_zero_vector_is_identity():
    y, gamma, rho = reflector(np.zeros(4))
    assert gamma == 0.0 and rho == 0.0
    v = np.arange(4.0)
    assert np.array_equal(reflect(y, gamma, v), v)


def test_reflector_negative_leading_entry():
    y, gamma, rho = reflector([-3.0, 4.0])
    assert rho == pytest.approx(5.0)  # -sign(-3) * 5
    assert gamma == pytest.approx(1.6)
    assert np.allclose(reflect(y, gamma, np.array([-3.0, 4.0])), [5.0, 0.0], atol=1e-14)


def test_reflector_rejects_empty():
    with pytest.raises(ValueError):
        reflector([])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False),
                min_size=1, max_size=64))
def test_reflector_orthogonality_property(entries):
    # relative error bounds only make sense in the normal range; products
    # of subnormal entries round at one absolute ulp instead
    v = np.array(entries)
    y, gamma, rho = reflector(v)
    p = np.eye(v.size) - gamma * np.outer(y, y)
    assert np.linalg.norm(p.T @ p - np.eye(v.size), 2) <= EYE_TOL
    mapped = reflect(y, gamma, v)
    amax = np.max(np.abs(v))
    norm = amax * np.linalg.norm(v / amax) if amax > 0 else 0.0
    assert np.all(np.abs(mapped[1:]) <= 8 * np.finfo(float).eps * norm)
    assert abs(abs(mapped[0]) - norm) <= 8 * np.finfo(float).eps * norm
    assert abs(abs(rho) - norm) <= 8 * np.finfo(float).eps * norm


def test_reflector_subnormal_entries_stay_orthogonal():
    # entries at the bottom of the subnormal range: annihilation can be off
    # by an absolute ulp, but the reflector itself remains orthogonal
    v = np.array([5e-324, 5e-324])
    y, gamma, _ = reflector(v)
    p = np.eye(2) - gamma * np.outer(y, y)
    assert np.linalg.norm(p.T @ p - np.eye(2), 2) <= EYE_TOL
    assert abs(reflect(y, gamma, v)[1]) <= 5e-324


def test_svd_diagonal():
    _, sigma, _ = svd(np.diag([3.0, 1.0]))
    assert np.allclose(sigma, [3.0, 1.0])


def test_svd_rank_one(rng):
    u = rng.standard_normal(8)
    v = rng.standard_normal(5)
    _, sigma, _ = svd(np.outer(u, v))
    assert sigma[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))
    assert np.all(sigma[1:] <= 1e-13 * sigma[0])


def test_svd_reconstruction(rng):
    m = rng.standard_normal((30, 30))
    u, sigma, v = svd(m)
    rebuilt = u @ np.diag(sigma) @ v.T
    assert np.max(np.abs(rebuilt - m)) <= 1e-13 * sigma[0]
    assert np.all(np.diff(sigma) <= 0)


def test_svd_eckart_young(rng):
    # rank-k truncation error equals sigma_{k+1}
    m = rng.standard_normal((24, 18))
    u, sigma, v = svd(m)
    for k in range(0, 18, 3):
        head = u[:, :k] @ np.diag(sigma[:k]) @ v[:, :k].T
        err = np.linalg.norm(m - head, 2)
        expected = sigma[k] if k < len(sigma) else 0.0
        assert err == pytest.approx(expected, abs=1e-12 * sigma[0])


def test_truncation_rank_examples():
    assert truncation_rank([5, 1, 1e-12], 1e-10) == 2
    assert truncation_rank([5], 10) == 0
    # tie truncates
    assert truncation_rank([5, 1e-10], 1e-10) == 1
    assert truncation_rank([], 0.5) == 0
    assert truncation_rank([3, 2, 1], 0.0) == 3


@pytest.mark.parametrize("eps", [-1e-10, float("nan"), float("inf"), -float("inf")])
def test_truncation_rank_rejects_bad_eps(eps):
    # a nan threshold compares false with every singular value and kept none
    with pytest.raises(ValueError, match="eps must be finite and >= 0"):
        truncation_rank([3.0, 2.0], eps)


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
    est = spectral_norm_estimate(lambda x: d[:, None] * x, lambda x: d[:, None] * x, 5)
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
                                  d.size, start=start, **kwargs)


def test_block_estimate_diag_with_gap():
    d = np.concatenate([[10.0], np.linspace(1.0, 5.0, 199)])
    est = _diag_estimate(d, max_iter=30, tol=1e-6)
    assert est == pytest.approx(10.0, rel=1e-6)
    assert est <= 10.0 * (1 + 1e-14)


def test_block_estimate_diag_repeated_top_value():
    d = np.concatenate([[3.0] * 4, np.linspace(0.0, 1.0, 196)])
    assert _diag_estimate(d, max_iter=30, tol=1e-6) == pytest.approx(3.0, rel=1e-6)


def test_block_estimate_diag_clustered_spectrum():
    # 50 values within 1e-3 of the top: the rounds stop once one raises the
    # estimate by less than tol, and it still lands inside the cluster,
    # below the norm
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
                                 start=rng.standard_normal((150, 8)))
    assert est == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-10)
    assert len(calls) <= 3 and set(calls) == {8}  # one call per round, whole blocks


def test_block_estimate_roundoff_operator_stops_at_cap():
    # a fixed symmetric operator at roundoff level with a flat spectrum:
    # every round still raises the estimate by more than tol, so the round
    # cap ends the run
    rng = np.random.default_rng(7)
    g = rng.standard_normal((300, 300))
    e = 1e-16 * (g + g.T)
    rounds = []

    def apply(x):
        rounds.append(1)
        return e @ x

    est, bound = spectral_norm_estimate(apply, lambda x: e @ x, 300, max_iter=30, tol=1e-6,
                                        start=rng.standard_normal((300, 8)),
                                        with_bound=True)
    exact = np.linalg.norm(e, 2)
    assert len(rounds) == 30
    assert exact / 2 <= est <= exact * (1 + 1e-12)
    assert bound >= exact


def test_block_estimate_noisy_roundoff_operator_stops_early():
    # every application adds fresh rounding-sized noise, so the Ritz value
    # only resamples the noise; the first round that does not raise it ends
    # the run
    rng = np.random.default_rng(7)
    g = rng.standard_normal((300, 300))
    e = 1e-16 * (g + g.T)
    noise = np.random.default_rng(8)
    rounds = []

    def noisy(x):
        return e @ x + 1e-16 * noise.standard_normal(x.shape)

    def apply(x):
        rounds.append(1)
        return noisy(x)

    est = spectral_norm_estimate(apply, noisy, 300, max_iter=30, tol=1e-6,
                                 start=rng.standard_normal((300, 8)))
    exact = np.linalg.norm(e, 2)
    assert len(rounds) <= 10
    assert exact / 2 <= est <= 2 * exact


def test_block_estimate_returns_best_round():
    # the operator halves after its first application: round 2 lowers the
    # Ritz value, so the run ends there with round 1's value
    scales = []

    def apply(x):
        scales.append(2.0 if not scales else 1.0)
        return scales[-1] * x

    est = spectral_norm_estimate(apply, lambda x: x, 50, max_iter=30, tol=1e-6,
                                 start=np.random.default_rng(9).standard_normal((50, 4)))
    assert est == pytest.approx(2.0, rel=1e-12)
    assert len(scales) == 2


@pytest.mark.parametrize("kwargs", [{"max_iter": 0}, {"max_iter": -1}, {"tol": -1e-3}])
def test_spectral_norm_rejects_bad_arguments(kwargs):
    # without a round there is no estimate, and (0.0, 0.0) would be a
    # "bound" below ||I|| = 1
    for with_bound in (False, True):
        with pytest.raises(ValueError):
            spectral_norm_estimate(lambda x: x, lambda x: x, 10, with_bound=with_bound,
                                   **kwargs)


def test_block_estimate_bound_covers_exact_norm():
    # ||E|| <= 10 sqrt(2/pi) max_i ||E w_i|| fails with probability 1e-8
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        e = rng.standard_normal((80, 60)) * rng.uniform(0.1, 10.0)
        est, bound = spectral_norm_estimate(
            lambda x: e @ x, lambda x: e.T @ x, 60, max_iter=30, tol=1e-6,
            start=rng.standard_normal((60, 8)), with_bound=True)
        exact = np.linalg.norm(e, 2)
        assert est <= exact * (1 + 1e-12)
        assert bound >= exact
