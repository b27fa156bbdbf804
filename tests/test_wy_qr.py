import numpy as np
import pytest

from hodlrqr import HodlrMatrix, HodlrQRFactors, apply_q_transpose
from hodlrqr.wy import block_qr

U = np.finfo(float).eps


def explicit_q(y, t):
    return np.eye(y.shape[0]) - y @ t @ y.T


def test_single_column():
    y, t, r = block_qr(np.array([[3.0], [4.0]]))
    assert r[0, 0] == pytest.approx(-5.0)
    assert np.allclose(y[:, 0], [1.0, 0.5])
    assert t[0, 0] == pytest.approx(1.6)


def test_identity_input():
    n = 16
    y, t, r = block_qr(np.eye(n))
    assert np.allclose(np.abs(r), np.eye(n))
    q = explicit_q(y, t)
    assert np.linalg.norm(q.T @ q - np.eye(n), 2) <= n * U


def test_random_tall(rng):
    a = rng.standard_normal((64, 48))
    y, t, r = block_qr(a)
    q = explicit_q(y, t)
    resid = np.linalg.norm(q[:, :48] @ r - a, 2) / np.linalg.norm(a, 2)
    assert resid <= 1e-14
    assert np.linalg.norm(q.T @ q - np.eye(64), 2) <= 64 * 8 * U
    # R agrees with LAPACK Householder QR up to diagonal sign scaling
    r_ref = np.linalg.qr(a, mode="reduced")[1]
    assert np.max(np.abs(np.abs(r) - np.abs(r_ref))) <= 1e-12 * np.linalg.norm(a, 2)


def test_y_unit_lower_triangular(rng):
    a = rng.standard_normal((40, 24))
    y, t, _ = block_qr(a)
    top = y[:24, :24]
    assert np.array_equal(np.triu(top, 1), np.zeros((24, 24)))
    assert np.allclose(np.diag(top), 1.0)


def test_t_upper_triangular_with_nonzero_diagonal(rng):
    # a tall panel, as at every hqr leaf with coupling rows below it
    a = rng.standard_normal((40, 30))
    y, t, _ = block_qr(a)
    assert np.array_equal(t, np.triu(t))
    assert np.all(np.abs(np.diag(t)) > 0)


def test_square_panel_last_reflector_is_identity(rng):
    # the last column of a square panel has no entries below the diagonal
    a = rng.standard_normal((30, 30))
    y, t, r = block_qr(a)
    tau = np.diag(t)
    assert np.array_equal(t, np.triu(t))
    assert tau[-1] == 0.0 and np.all(np.abs(tau[:-1]) > 0)
    assert np.linalg.norm(explicit_q(y, t) @ r - a, 2) <= 1e-13 * np.linalg.norm(a, 2)


@pytest.mark.parametrize("split", [(16, 7), (33, 20), (128, 128)])
def test_combine_matches_reflector_product(rng, split):
    # the assembled (Y, T) reproduces the product of the single reflectors
    m, n = split
    a = rng.standard_normal((m, n))
    y, t, r = block_qr(a)
    q = explicit_q(y, t)
    product = np.eye(m)
    for j in range(n):
        y_j = y[:, j]
        product = product - t[j, j] * np.outer(product @ y_j, y_j)
    assert np.linalg.norm(q - product, 2) <= 1e-13
    assert np.linalg.norm(q @ np.vstack([r, np.zeros((m - n, n))]) - a, 2) <= \
        1e-13 * max(1.0, np.linalg.norm(a, 2))
    assert np.linalg.norm(q.T @ q - np.eye(m), 2) <= 1e-13


def _reference_block_qr(a):
    # the textbook assembly: Y and R by tril/triu copies of geqrf's output,
    # T by the larft recurrence into a zero-initialised array
    h, tau = np.linalg.qr(a, mode="raw")
    h = h.T
    n = h.shape[1]
    y = np.tril(h, -1)
    np.fill_diagonal(y, 1.0)
    gram = y.T @ y
    t = np.zeros((n, n))
    for j in range(n):
        t[:j, j] = -tau[j] * (t[:j, :j] @ gram[:j, j])
        t[j, j] = tau[j]
    return y, t, np.triu(h[:n])


@pytest.mark.parametrize("shape, zero_col", [((250, 250), None), ((252, 250), None),
                                             ((378, 250), None), ((40, 1), None),
                                             ((60, 24), 7)])
def test_in_place_assembly_matches_reference_bitwise(rng, shape, zero_col):
    # Y in geqrf's buffer and T over the Gram matrix's: every operation and
    # operand layout of the reference stays, so the bits do too
    a = rng.standard_normal(shape)
    if zero_col is not None:
        a[:, zero_col] = 0.0
    y, t, r = block_qr(a)
    if shape == (250, 250):
        assert t[-1, -1] == 0.0  # the last reflector of a square panel
    if zero_col is not None:
        assert t[zero_col, zero_col] == 0.0 and r[zero_col, zero_col] == 0.0
    for got, want in zip((y, t, r), _reference_block_qr(a)):
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    assert not any(np.shares_memory(u, v) for u, v in ((y, t), (y, r), (t, r)))


def test_apply_qt_reduces_input(rng):
    a = rng.standard_normal((20, 12))
    y, t, r = block_qr(a)
    reduced = explicit_q(y, t).T @ a
    assert np.allclose(reduced[:12], r, atol=1e-13 * np.linalg.norm(a, 2))
    assert np.max(np.abs(reduced[12:])) <= 1e-13 * np.linalg.norm(a, 2)


def test_apply_qt_zero_y():
    # Y = 0 makes Q the identity
    zero = HodlrMatrix(dense=np.zeros((6, 6)))
    f = HodlrQRFactors(y=zero, t=zero, r=HodlrMatrix(dense=np.eye(6)))
    m = np.arange(12.0).reshape(6, 2)
    assert np.array_equal(apply_q_transpose(f, m), m)


def test_apply_qt_matches_explicit_q(rng):
    # the WY pair of a leaf, applied as hqr applies it
    a = rng.standard_normal((96, 96))
    y, t, r = block_qr(a)
    f = HodlrQRFactors(y=HodlrMatrix(dense=y), t=HodlrMatrix(dense=t),
                       r=HodlrMatrix(dense=r))
    q = explicit_q(y, t)
    m = rng.standard_normal((96, 5))
    assert np.allclose(apply_q_transpose(f, m), q.T @ m, atol=1e-13 * np.linalg.norm(m))
    assert np.allclose(apply_q_transpose(f, m[:, 0]), q.T @ m[:, 0],
                       atol=1e-13 * np.linalg.norm(m))


def test_q_qt_round_trip(rng):
    a = rng.standard_normal((50, 30))
    y, t, _ = block_qr(a)
    q = explicit_q(y, t)
    m = rng.standard_normal((50, 4))
    back = q @ (q.T @ m)
    assert np.linalg.norm(back - m) <= 1e-13 * np.linalg.norm(m)


def test_zero_column_does_not_crash(rng):
    for col in (0, 2, 4):
        a = rng.standard_normal((12, 5))
        a[:, col] = 0.0
        y, t, r = block_qr(a)
        q = explicit_q(y, t)
        assert np.linalg.norm(q @ np.vstack([r, np.zeros((7, 5))]) - a, 2) <= 1e-13
        assert r[col, col] == 0.0
        assert t[col, col] == 0.0  # identity reflector
        assert np.linalg.norm(q.T @ q - np.eye(12), 2) <= 12 * 8 * U


def test_zero_matrix():
    y, t, r = block_qr(np.zeros((6, 4)))
    assert np.array_equal(r, np.zeros((4, 4)))
    assert np.array_equal(t, np.zeros((4, 4)))
    assert np.array_equal(explicit_q(y, t), np.eye(6))


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_extreme_scaling(rng, scale):
    a = rng.standard_normal((40, 30))
    y, t, r = block_qr(scale * a)
    q = explicit_q(y, t)
    assert np.linalg.norm(q.T @ q - np.eye(40), 2) <= 40 * 8 * U
    assert np.all(np.isfinite(r))
    resid = np.linalg.norm(q[:, :30] @ (r / scale) - a, 2)
    assert resid <= 1e-14 * np.linalg.norm(a, 2)


def test_dimension_errors():
    with pytest.raises(ValueError):
        block_qr(np.ones((3, 5)))
    with pytest.raises(ValueError):
        block_qr(np.ones((4, 0)))
    with pytest.raises(ValueError):
        block_qr(np.ones(4))
