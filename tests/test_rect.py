import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodlrqr import (
    TruncationControl,
    apply_dense,
    from_dense,
    hqr,
    stats,
    to_dense,
    triangle_rows,
)
from hodlrqr.bench import gen_random_hodlr
from hodlrqr.core import PartitionTree

from conftest import gen_random_rect_dense, random_hodlr, scale


def rect_qr(a, tree_rows, tree_cols, eps):
    # a dense matrix compressed at the absolute eps and factored at it
    h = from_dense(a, tree_rows, TruncationControl(eps), tree_cols)
    return hqr(h, eps, absolute=True)


def reconstruct(f):
    # Q and the m x n matrix P^T [R; 0], R on the rows triangle_rows(Y)
    y = to_dense(f.y)
    m, n = y.shape
    q = np.eye(m) - y @ to_dense(f.t) @ y.T
    r = np.zeros((m, n))
    r[triangle_rows(f.y)] = to_dense(f.r)
    return q, r


def row_perm(f):
    # the rows holding R first, then the others in order
    tri = triangle_rows(f.y)
    return np.concatenate([tri, np.setdiff1d(np.arange(f.y.n), tri)])


def test_square_input_identity_permutation(rng):
    a, tr, tc = gen_random_rect_dense(128, 128, 32, seed=41)
    f = rect_qr(a, tr, tc, 1e-13)
    assert np.array_equal(triangle_rows(f.y), np.arange(128))
    r = to_dense(f.r)
    assert np.array_equal(np.tril(r, -1), np.zeros_like(r))
    q, r = reconstruct(f)
    assert np.linalg.norm(q @ r - a, 2) <= 1e-12 * np.linalg.norm(a, 2)


def test_rectangular_factorization(rng):
    m, n = 300, 160
    a, tr, tc = gen_random_rect_dense(m, n, 40, seed=42)
    f = rect_qr(a, tr, tc, 1e-12)
    q, r = reconstruct(f)
    norm = np.linalg.norm(a, 2)
    assert np.linalg.norm(q.T @ q - np.eye(m), 2) <= 1e-12
    assert np.linalg.norm(q @ r - a, 2) <= 1e-11 * norm
    # permuted R is exactly upper triangular; f.r is n x n, so the rows
    # past the triangles are zero
    rp = r[row_perm(f)]
    assert np.array_equal(np.tril(rp[:n], -1), np.zeros((n, n)))
    assert np.max(np.abs(rp[n:])) <= 1e-13 * norm


def test_structured_factors_have_small_ranks(rng):
    a, tr, tc = gen_random_rect_dense(400, 200, 50, seed=43)
    f = rect_qr(a, tr, tc, 1e-11)
    assert stats(f.y)["max_offdiag_rank"] <= 12
    assert stats(f.r)["max_offdiag_rank"] <= 12
    assert stats(f.t)["max_offdiag_rank"] <= 16


@pytest.mark.parametrize("alpha", [1.0, 1e100, 1e-100])
def test_orthogonality_does_not_depend_on_the_scale_of_a(alpha):
    # T is truncated at hqr.TAU_T in both modes, not at the eps that
    # truncates the sums, so Q's orthogonality does not depend on the scale
    # of A: at eps = 1e-12 ||A|| and ||A|| ~ 1e102 an eps-derived threshold
    # for T once left e_orth at 2.6 on the rectangular input and 37 on the
    # square one
    a, tr, tc = gen_random_rect_dense(400, 200, 50, 1, seed=43)
    a = alpha * a
    f = rect_qr(a, tr, tc, 1e-12 * np.linalg.norm(a, 2))
    q, _ = reconstruct(f)
    assert np.linalg.norm(q.T @ q - np.eye(400), 2) <= 1e-11
    h = scale(gen_random_hodlr(400, 50, 2, seed=3), alpha)
    f = hqr(h, 1e-12 * np.linalg.norm(to_dense(h), 2), absolute=True)
    q, _ = reconstruct(f)
    assert np.linalg.norm(q.T @ q - np.eye(400), 2) <= 1e-11


def test_rejects_wide_and_mismatched():
    a, tr, tc = gen_random_rect_dense(64, 32, 8, seed=44)
    with pytest.raises(ValueError, match="wider than tall"):
        rect_qr(a.T, tc, tr, 1e-12)
    with pytest.raises(ValueError, match="does not match"):
        rect_qr(a, tc, tc, 1e-12)  # wrong row tree


def test_rejects_block_wider_than_tall():
    rows = PartitionTree(1, (6, 6))
    cols = PartitionTree(1, (8, 4))
    a = np.random.default_rng(0).standard_normal((12, 12))
    with pytest.raises(ValueError, match="leaf 6 x 8 is wider than tall"):
        rect_qr(a, rows, cols, 1e-12)


def test_rectangular_hodlr_products_and_dense_round_trip(rng):
    rows, cols = PartitionTree(2, (9, 5, 7, 6)), PartitionTree(2, (4, 5, 3, 6))
    h = random_hodlr(rng, rows, zero_blocks=False, tree_cols=cols)
    d = to_dense(h)
    assert d.shape == (27, 18) and (h.n, h.n_cols) == (27, 18)
    x, z = rng.standard_normal((18, 3)), rng.standard_normal(27)
    assert np.allclose(apply_dense(h, x), d @ x, rtol=0, atol=1e-13)
    assert np.allclose(apply_dense(h, z, trans=True), d.T @ z, rtol=0, atol=1e-13)
    with pytest.raises(ValueError, match="dimension mismatch: 18 vs 27"):
        apply_dense(h, z)
    with pytest.raises(ValueError, match="dimension mismatch: 27 vs 18"):
        apply_dense(h, x, trans=True)
    back = from_dense(d, rows, TruncationControl(0.0), cols)
    assert back.same_structure(h) and not back.is_square()
    assert np.max(np.abs(to_dense(back) - d)) <= 1e-13 * np.linalg.norm(d, 2)
    with pytest.raises(ValueError, match="equal level"):
        from_dense(d, rows, TruncationControl(0.0), PartitionTree(1, (9, 9)))
    with pytest.raises(ValueError, match="does not match"):
        from_dense(d.T, rows, TruncationControl(0.0), cols)
    with pytest.raises(ValueError, match="square"):
        from_dense(d, rows, TruncationControl(0.0))


# c = 10 in the roundoff bound c n u, as for the square hqr property test:
# Householder QR keeps ||Q^T Q - I|| and ||QR - A|| / ||A|| at O(n u)
_C = 10.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), level=st.integers(0, 3),
       tall=st.sampled_from(["none", "some", "all"]), zero_blocks=st.booleans(),
       alpha=st.sampled_from([1.0, 1e100, 1e-100]), eps=st.sampled_from([0.0, 1e-15]))
@example(seed=0, level=0, tall="all", zero_blocks=False, alpha=1.0, eps=0.0)  # one leaf
@example(seed=1, level=3, tall="some", zero_blocks=False, alpha=1e100, eps=0.0)
@example(seed=2, level=3, tall="some", zero_blocks=False, alpha=1e-100, eps=0.0)
@example(seed=3, level=2, tall="all", zero_blocks=True, alpha=1.0, eps=0.0)
@example(seed=4, level=2, tall="none", zero_blocks=False, alpha=1.0, eps=0.0)
@example(seed=5, level=3, tall="some", zero_blocks=False, alpha=1e100, eps=1e-15)
@example(seed=6, level=3, tall="all", zero_blocks=False, alpha=1e-100, eps=1e-15)
def test_rect_qr_matches_dense_householder_qr(seed, level, tall, zero_blocks, alpha, eps):
    # uneven leaves n_j in 1..12 with m_j = n_j (square), m_j > n_j (tall)
    # or a mix; rank-0 blocks throughout with ``zero_blocks``; eps is
    # relative to ||A|| for every scaling
    rng = np.random.default_rng(seed)
    col_sizes = rng.integers(1, 13, 2 ** level)
    extra = {"none": 0, "some": rng.integers(0, 2, 2 ** level), "all": 1}[tall]
    row_sizes = col_sizes + extra * rng.integers(1, 13, 2 ** level)
    rows = PartitionTree(level, tuple(int(s) for s in row_sizes))
    cols = PartitionTree(level, tuple(int(s) for s in col_sizes))
    h = random_hodlr(rng, rows, ranks=(0,) if zero_blocks else (0, 1, 2, 3),
                     tree_cols=cols)
    d = to_dense(scale(h, alpha))
    m, n = d.shape
    norm = np.linalg.norm(d, 2)
    f = rect_qr(d, rows, cols, eps * norm)
    q, r_full = reconstruct(f)
    r = to_dense(f.r)
    bound = _C * n * np.finfo(float).eps
    assert np.array_equal(np.unique(triangle_rows(f.y)), triangle_rows(f.y))
    assert np.linalg.norm(q.T @ q - np.eye(m), 2) <= bound
    assert np.linalg.norm(q @ r_full - d, 2) <= bound * norm
    # both are LAPACK geqrf reflectors; the last row's sign depends on
    # whether its panel had rows below it
    r_ref = np.linalg.qr(d[row_perm(f)], mode="r")
    r[-1], r_ref[-1] = np.abs(r[-1]), np.abs(r_ref[-1])
    assert np.max(np.abs(r - r_ref)) <= bound * norm
