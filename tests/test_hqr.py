import numpy as np
import pytest

from hodlrqr import (
    HodlrMatrix,
    LowRankBlock,
    StructuredColumn,
    TruncationControl,
    apply_q,
    apply_q_transpose,
    block_qr,
    build_partition,
    from_dense,
    hodlr_identity,
    hqr,
    hqr_rec,
    left_orthogonalize,
    q_to_hodlr,
    stats,
    to_dense,
    transpose,
)
from hodlrqr.arith import apply_transpose_dense
from hodlrqr.core import UNIT_LOWER_TRIANGULAR, UPPER_TRIANGULAR, validate_structure

from conftest import random_hodlr_pair


def dense_q(f):
    y, t = to_dense(f.y), to_dense(f.t)
    return np.eye(y.shape[0]) - y @ t @ y.T


def test_hqr_identity():
    n = 128
    tree = build_partition(n, 32)
    f = hqr(hodlr_identity(tree), 1e-15)
    q = dense_q(f)
    u = np.finfo(float).eps
    assert np.linalg.norm(q.T @ q - np.eye(n), 2) <= n * u
    assert np.max(np.abs(np.abs(to_dense(f.r)) - np.eye(n))) <= n * u


def test_hqr_matches_dense_block_qr(rng):
    n = 256
    h, dense, _ = random_hodlr_pair(n, 32, rank=1, seed=31)
    f = hqr(h, 1e-15)
    norm = np.linalg.norm(dense, 2)
    _, r_ref = block_qr(dense)
    assert np.max(np.abs(np.abs(to_dense(f.r)) - np.abs(r_ref))) <= 1e-11 * norm


def test_hqr_structure_tags(rng):
    h, _, _ = random_hodlr_pair(256, 32, rank=2, seed=32)
    f = hqr(h, 1e-12)
    assert f.y.shape_tag == UNIT_LOWER_TRIANGULAR
    assert f.t.shape_tag == UPPER_TRIANGULAR
    assert f.r.shape_tag == UPPER_TRIANGULAR
    validate_structure(f.y)
    validate_structure(f.t)
    validate_structure(f.r)


def test_hqr_accuracy_envelope(rng):
    # random rank-1 instance: orthogonality near roundoff at eps=1e-10
    from hodlrqr.bench import gen_random_hodlr
    h = gen_random_hodlr(1000, 250, 1, seed=0)
    dense = to_dense(h)
    norm = np.linalg.norm(dense, 2)
    f = hqr(h, 1e-10)
    q = dense_q(f)
    e_orth = np.linalg.norm(q.T @ q - np.eye(1000), 2)
    e_acc = np.linalg.norm(q @ to_dense(f.r) - dense, 2)
    assert e_orth <= 1e-12
    assert e_acc <= 1e-10 * norm


def test_hqr_single_leaf_matrix(rng):
    m = rng.standard_normal((48, 48))
    f = hqr(HodlrMatrix(dense=m), 1e-14)
    wy, r_ref = block_qr(m)
    assert np.allclose(to_dense(f.r), r_ref)
    assert np.allclose(to_dense(f.y), wy.Y)


def test_hqr_rec_overcomplete_b_factor(rng):
    # B given with more factor columns than rows; orthogonalization trims it
    m, p = 64, 3
    h, dense, _ = random_hodlr_pair(m, 16, rank=1, seed=50)
    b = LowRankBlock(rng.standard_normal((p, 5)), rng.standard_normal((5, m)))
    col = StructuredColumn(h, b, np.zeros((0, m)))
    y, t, r = hqr_rec(col, 1e-14, 1e-14)
    stacked = np.vstack([dense, b.to_dense()])
    y_dense = y.to_dense()
    q = np.eye(m + p) - y_dense @ to_dense(t) @ y_dense.T
    rebuilt = q @ np.vstack([to_dense(r), np.zeros((p, m))])
    assert np.linalg.norm(rebuilt - stacked, 2) <= 1e-11 * np.linalg.norm(stacked, 2)


def test_hqr_rec_void_parts_reduces_to_block_qr(rng):
    m = 40
    leaf = rng.standard_normal((m, m))
    col = StructuredColumn(HodlrMatrix(dense=leaf), LowRankBlock.zero(0, m),
                           np.zeros((0, m)))
    y, t, r = hqr_rec(col, 1e-14, 1e-14)
    wy, r_ref = block_qr(leaf)
    assert np.allclose(to_dense(r), r_ref)
    assert np.allclose(to_dense(y.y_a), wy.Y)
    assert np.allclose(to_dense(t), wy.T)


def _structured_column(m, p, r2, rank, seed):
    rng = np.random.default_rng(seed)
    h, dense, _ = random_hodlr_pair(m, m // 2, rank=rank, seed=seed)
    b = LowRankBlock(rng.standard_normal((p, rank)), rng.standard_normal((rank, m)))
    c = rng.standard_normal((r2, m))
    col = StructuredColumn(h, b, c)
    stacked = np.vstack([dense, b.to_dense(), c])
    return col, stacked


def test_hqr_rec_level_one_vs_stacked_dense_oracle():
    m, p, r2 = 200, 35, 9
    col, stacked = _structured_column(m, p, r2, rank=2, seed=33)
    y, t, r = hqr_rec(col, 1e-15, 1e-15)
    norm = np.linalg.norm(stacked, 2)
    # R agrees with the dense QR of the stacked column up to diagonal signs
    _, r_ref = block_qr(stacked)
    assert np.max(np.abs(np.abs(to_dense(r)) - np.abs(r_ref))) <= 1e-11 * norm
    # full reconstruction
    y_dense = y.to_dense()
    t_dense = to_dense(t)
    rows = stacked.shape[0]
    q = np.eye(rows) - y_dense @ t_dense @ y_dense.T
    assert np.linalg.norm(q.T @ q - np.eye(rows), 2) <= 1e-12
    rebuilt = q @ np.vstack([to_dense(r), np.zeros((rows - m, m))])
    assert np.linalg.norm(rebuilt - stacked, 2) <= 1e-12 * norm


def test_hqr_rec_sum_terms_match_dense_oracle():
    # the low-rank evaluation of S = T1^T Y1^T [A12; A22; B_R2; C2] agrees
    # with its dense counterpart
    m, p, r2 = 128, 20, 6
    col, stacked = _structured_column(m, p, r2, rank=1, seed=34)
    a = col.a_tilde
    b = left_orthogonalize(col.b)
    c = col.c
    m1 = a.a11.n
    col1 = StructuredColumn(a.a11, a.a21, np.vstack([b.R[:, :m1], c[:, :m1]]))
    y1, t1, _ = hqr_rec(col1, 1e-15, 1e-15)
    r1 = b.rank

    # low-rank route, mirroring the recursion
    terms = [
        LowRankBlock(apply_transpose_dense(y1.y_a, a.a12.L), a.a12.R),
        LowRankBlock(y1.y_b.R.T, apply_transpose_dense(a.a22, y1.y_b.L).T),
        LowRankBlock(y1.y_c[:r1].T, b.R[:, m1:]),
        LowRankBlock(y1.y_c[r1:].T, c[:, m1:]),
    ]
    s_lowrank = sum((t_.to_dense() for t_ in terms[1:]), terms[0].to_dense())
    s_lowrank = to_dense(transpose(t1)) @ s_lowrank

    # dense route
    y1_dense = np.vstack([to_dense(y1.y_a), y1.y_b.to_dense(), y1.y_c])
    second = np.vstack([a.a12.to_dense(), to_dense(a.a22), b.R[:, m1:], c[:, m1:]])
    s_dense = to_dense(t1).T @ (y1_dense.T @ second)
    norm = np.linalg.norm(stacked, 2)
    assert np.linalg.norm(s_lowrank - s_dense, 2) <= 1e-12 * norm


def test_hqr_rec_empty_b_with_coupling_rows(rng):
    m, r2 = 64, 11
    h, dense, _ = random_hodlr_pair(m, 16, rank=1, seed=35)
    c = rng.standard_normal((r2, m))
    col = StructuredColumn(h, LowRankBlock.zero(0, m), c)
    y, t, r = hqr_rec(col, 1e-14, 1e-14)
    stacked = np.vstack([dense, c])
    y_dense = y.to_dense()
    q = np.eye(m + r2) - y_dense @ to_dense(t) @ y_dense.T
    rebuilt = q @ np.vstack([to_dense(r), np.zeros((r2, m))])
    assert np.linalg.norm(rebuilt - stacked, 2) <= 1e-11 * np.linalg.norm(stacked, 2)
    assert y.y_b.n_rows == 0 and y.y_c.shape == (r2, m)


def test_apply_q_transpose_reduces_a(rng):
    h, dense, _ = random_hodlr_pair(192, 48, rank=1, seed=36)
    f = hqr(h, 1e-13)
    reduced = apply_q_transpose(f, dense)
    assert np.linalg.norm(reduced - to_dense(f.r), 2) <= 1e-10 * np.linalg.norm(dense, 2)


def test_apply_q_transpose_zero():
    h, _, _ = random_hodlr_pair(64, 16, seed=37)
    f = hqr(h, 1e-13)
    assert np.array_equal(apply_q_transpose(f, np.zeros((64, 2))), np.zeros((64, 2)))


def test_apply_q_matches_dense_q(rng):
    n = 512
    h, dense, _ = random_hodlr_pair(n, 64, rank=1, seed=38)
    f = hqr(h, 1e-13)
    q = dense_q(f)
    v = rng.standard_normal(n)
    assert np.allclose(apply_q(f, v), q @ v, atol=1e-11 * np.linalg.norm(v))
    assert np.allclose(apply_q_transpose(f, v), q.T @ v, atol=1e-11 * np.linalg.norm(v))


def test_q_to_hodlr_zero_y():
    tree = build_partition(64, 16)
    ident = hodlr_identity(tree)
    from hodlrqr import HodlrQRFactors, scale
    zero = scale(ident, 0.0)
    f = HodlrQRFactors(y=zero, t=zero, r=ident)
    q = q_to_hodlr(f, 1e-12)
    assert stats(q)["max_offdiag_rank"] == 0
    assert np.array_equal(to_dense(q), np.eye(64))


def test_q_to_hodlr_dense_check(rng):
    n = 512
    h, dense, tree = random_hodlr_pair(n, 64, rank=1, seed=39)
    eps = 1e-12
    f = hqr(h, eps)
    q_h = q_to_hodlr(f, eps)
    assert np.linalg.norm(to_dense(q_h) - dense_q(f), 2) <= 10 * tree.level * eps


def test_hqr_robust_to_ill_conditioning():
    # orthogonality does not track the condition number growth
    rng = np.random.default_rng(40)
    n = 256
    tree = build_partition(n, 64)
    e_orths = []
    for kappa in (1e2, 1e6, 1e10):
        u = np.linalg.qr(rng.standard_normal((n, n)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        m = (u * np.logspace(0, -np.log10(kappa), n)) @ v.T
        h = from_dense(m, tree, TruncationControl(1e-13))
        f = hqr(h, 1e-13)
        q = dense_q(f)
        e_orths.append(np.linalg.norm(q.T @ q - np.eye(n), 2))
    assert max(e_orths) <= 1e-10
    assert max(e_orths) / min(e_orths) <= 1e3  # no kappa-proportional growth


@pytest.mark.parametrize("absolute", [False, True])
def test_hqr_rejects_inf_in_single_leaf(absolute):
    # n < n_min: the whole matrix is one dense leaf
    m = np.random.default_rng(41).standard_normal((48, 48))
    m[5, 7] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        hqr(HodlrMatrix(dense=m), 1e-12, absolute=absolute)


def test_hqr_rejects_nan_in_multi_leaf():
    h, _, _ = random_hodlr_pair(128, 32, seed=42)
    h.a22.a11.dense[3, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        hqr(h, 1e-12)


def test_hqr_rejects_nan_in_low_rank_factor():
    h, _, _ = random_hodlr_pair(128, 32, seed=43)
    h.a11.a21.R[0, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        hqr(h, 1e-12)
