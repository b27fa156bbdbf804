import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hodlrqr import (
    HodlrMatrix,
    LowRankBlock,
    PartitionTree,
    TruncationControl,
    apply_q,
    apply_q_transpose,
    build_partition,
    from_dense,
    hqr,
    q_to_hodlr,
    stats,
    to_dense,
    triangle_rows,
)
from hodlrqr import arith, core
from hodlrqr.arith import apply_dense, transpose
from hodlrqr.bench import gen_matrix, gen_random_hodlr, metrics, tolerance_sweep
from hodlrqr.core import _sum_lowrank, sum_lowrank
from hodlrqr.dense import truncation_rank
from hodlrqr.wy import block_qr

from conftest import (
    TREES,
    NoScipy,
    UNIT_LOWER_TRIANGULAR,
    UPPER_TRIANGULAR,
    count_calls,
    count_calls_everywhere,
    gen_random_rect_dense,
    hodlr_arrays,
    hodlr_eye,
    hqr_mod,
    nested_hodlr,
    random_hodlr,
    random_hodlr_pair,
    scale,
    structured_qr,
    structured_y_dense,
    validate_structure,
)


def dense_q(f):
    y, t = to_dense(f.y), to_dense(f.t)
    return np.eye(y.shape[0]) - y @ t @ y.T


def test_hqr_identity():
    n = 128
    tree = build_partition(n, 32)
    f = hqr(hodlr_eye(tree), 1e-15)
    q = dense_q(f)
    u = np.finfo(float).eps
    assert np.linalg.norm(q.T @ q - np.eye(n), 2) <= n * u
    assert np.max(np.abs(np.abs(to_dense(f.r)) - np.eye(n))) <= n * u


def test_hqr_matches_dense_block_qr(rng):
    n = 256
    h, dense, _ = random_hodlr_pair(n, 32, rank=1, seed=31)
    f = hqr(h, 1e-15)
    norm = np.linalg.norm(dense, 2)
    *_, r_ref = block_qr(dense)
    assert np.max(np.abs(np.abs(to_dense(f.r)) - np.abs(r_ref))) <= 1e-11 * norm


def test_hqr_structure_tags(rng):
    h, _, _ = random_hodlr_pair(256, 32, rank=2, seed=32)
    f = hqr(h, 1e-12)
    validate_structure(f.y, UNIT_LOWER_TRIANGULAR)
    validate_structure(f.t, UPPER_TRIANGULAR)
    validate_structure(f.r, UPPER_TRIANGULAR)


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
    y_ref, _, r_ref = block_qr(m)
    assert np.allclose(to_dense(f.r), r_ref)
    assert np.allclose(to_dense(f.y), y_ref)


def test_hqr_rec_overcomplete_b_factor(rng):
    # B given with more factor columns than rows; orthogonalization trims it
    m, p = 64, 3
    h, dense, _ = random_hodlr_pair(m, 16, rank=1, seed=50)
    b = LowRankBlock(rng.standard_normal((p, 5)), rng.standard_normal((5, m)))
    *y, t, r = structured_qr(h, b, np.zeros((0, m)), 1e-14)
    stacked = np.vstack([dense, b.to_dense()])
    y_dense = structured_y_dense(*y)
    q = np.eye(m + p) - y_dense @ to_dense(t) @ y_dense.T
    rebuilt = q @ np.vstack([to_dense(r), np.zeros((p, m))])
    assert np.linalg.norm(rebuilt - stacked, 2) <= 1e-11 * np.linalg.norm(stacked, 2)


def test_hqr_rec_void_parts_reduces_to_block_qr(rng):
    m = 40
    leaf = rng.standard_normal((m, m))
    y_a, _, _, t, r = structured_qr(HodlrMatrix(dense=leaf), LowRankBlock.zero(0, m),
                                    np.zeros((0, m)), 1e-14)
    y_ref, t_ref, r_ref = block_qr(leaf)
    assert np.allclose(to_dense(r), r_ref)
    assert np.allclose(to_dense(y_a), y_ref)
    assert np.allclose(to_dense(t), t_ref)


def _structured_column(m, p, r2, rank, seed):
    rng = np.random.default_rng(seed)
    h, dense, _ = random_hodlr_pair(m, m // 2, rank=rank, seed=seed)
    b = LowRankBlock(rng.standard_normal((p, rank)), rng.standard_normal((rank, m)))
    c = rng.standard_normal((r2, m))
    stacked = np.vstack([dense, b.to_dense(), c])
    return h, b, c, stacked


def test_hqr_rec_level_one_vs_stacked_dense_oracle():
    m, p, r2 = 200, 35, 9
    *col, stacked = _structured_column(m, p, r2, rank=2, seed=33)
    *y, t, r = structured_qr(*col, 1e-15)
    norm = np.linalg.norm(stacked, 2)
    # R agrees with the dense QR of the stacked column up to diagonal signs
    *_, r_ref = block_qr(stacked)
    assert np.max(np.abs(np.abs(to_dense(r)) - np.abs(r_ref))) <= 1e-11 * norm
    # full reconstruction
    y_dense = structured_y_dense(*y)
    t_dense = to_dense(t)
    rows = stacked.shape[0]
    q = np.eye(rows) - y_dense @ t_dense @ y_dense.T
    assert np.linalg.norm(q.T @ q - np.eye(rows), 2) <= 1e-12
    rebuilt = q @ np.vstack([to_dense(r), np.zeros((rows - m, m))])
    assert np.linalg.norm(rebuilt - stacked, 2) <= 1e-12 * norm


def test_hqr_rec_sum_terms_match_dense_oracle():
    # the low-rank evaluation of S = T1^T Y1^T [A12; A22; rows2] agrees with
    # its dense counterpart, rows2 = [B.R; C] on the second block column
    m, p, r2 = 128, 20, 6
    a, b, c, stacked = _structured_column(m, p, r2, rank=1, seed=34)
    b = _sum_lowrank([b], TruncationControl(1e-15))
    m1 = a.a11.n
    *y1, t1, _ = structured_qr(a.a11, a.a21, np.vstack([b.R[:, :m1], c[:, :m1]]), 1e-15)
    y11, y21, y1_c = y1
    r1 = b.rank

    # low-rank route, mirroring the recursion
    terms = [
        LowRankBlock(apply_dense(y11, a.a12.L, trans=True), a.a12.R),
        LowRankBlock(y21.R.T, apply_dense(a.a22, y21.L, trans=True).T),
        LowRankBlock(y1_c[:r1].T, b.R[:, m1:]),
        LowRankBlock(y1_c[r1:].T, c[:, m1:]),
    ]
    s_lowrank = sum((t_.to_dense() for t_ in terms[1:]), terms[0].to_dense())
    s_lowrank = to_dense(transpose(t1)) @ s_lowrank

    # dense route
    y1_dense = structured_y_dense(*y1)
    second = np.vstack([a.a12.to_dense(), to_dense(a.a22), b.R[:, m1:], c[:, m1:]])
    s_dense = to_dense(t1).T @ (y1_dense.T @ second)
    norm = np.linalg.norm(stacked, 2)
    assert np.linalg.norm(s_lowrank - s_dense, 2) <= 1e-12 * norm


def test_hqr_rec_empty_b_with_coupling_rows(rng):
    m, r2 = 64, 11
    h, dense, _ = random_hodlr_pair(m, 16, rank=1, seed=35)
    c = rng.standard_normal((r2, m))
    *y, t, r = structured_qr(h, LowRankBlock.zero(0, m), c, 1e-14)
    stacked = np.vstack([dense, c])
    y_dense = structured_y_dense(*y)
    q = np.eye(m + r2) - y_dense @ to_dense(t) @ y_dense.T
    rebuilt = q @ np.vstack([to_dense(r), np.zeros((r2, m))])
    assert np.linalg.norm(rebuilt - stacked, 2) <= 1e-11 * np.linalg.norm(stacked, 2)
    _, y_b, y_c = y
    assert y_b.n_rows == 0 and y_c.shape == (r2, m)


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


@pytest.mark.parametrize("apply", [apply_q, apply_q_transpose])
@pytest.mark.parametrize("shape", [(65,), (63, 3)])
def test_apply_q_rejects_a_wrong_row_count(apply, shape):
    h, _, _ = random_hodlr_pair(64, 16, seed=37)
    f = hqr(h, 1e-13)
    with pytest.raises(ValueError, match=f"dimension mismatch: 64 vs {shape[0]}"):
        apply(f, np.ones(shape))


def test_q_to_hodlr_zero_y():
    tree = build_partition(64, 16)
    ident = hodlr_eye(tree)
    from hodlrqr import HodlrQRFactors
    zero = scale(ident, 0.0)
    f = HodlrQRFactors(y=zero, t=zero, r=ident)
    q = q_to_hodlr(f)
    assert stats(q)["max_offdiag_rank"] == 0
    assert np.array_equal(to_dense(q), np.eye(64))


def test_q_to_hodlr_dense_check(rng, monkeypatch):
    n = 512
    h, dense, tree = random_hodlr_pair(n, 64, rank=1, seed=39)
    eps = 1e-12
    f = hqr(h, eps)
    calls = count_calls(monkeypatch, core, "_truncate_shared")
    products = count_calls_everywhere(monkeypatch, arith, "multiply")
    q_h = q_to_hodlr(f)
    assert np.linalg.norm(to_dense(q_h) - dense_q(f), 2) <= 10 * tree.level * eps
    # one truncation per off-diagonal block of Q, and no formatted product:
    # the pending block -Y21 W reaches the leaves exact and is added densely
    assert len(calls) == 2 * (2 ** tree.level - 1)
    assert sum(map(len, products)) == 0


def test_q_to_hodlr_and_metrics_on_an_unbalanced_tree(rng):
    h = nested_hodlr(rng, [(4, 4), [(3, 3), (2, 2)]])
    f = hqr(h, 1e-12)
    assert np.linalg.norm(to_dense(q_to_hodlr(f)) - dense_q(f), 2) <= 1e-14
    m = metrics(h, f)
    for key in ("e_orth", "e_acc", "rank_y", "rank_t", "rank_q", "rank_r"):
        assert np.isfinite(m[key]), key
    assert m["e_orth"] <= 1e-14 and m["e_acc"] <= 1e-13


def test_q_to_hodlr_materializes_q_at_the_threshold_hqr_truncated_t_at():
    # T's coupling blocks, and so Q, are truncated at TAU_T in both modes,
    # whatever eps and ||A||_2 (about 16.7 here)
    eps = 1e-4
    for n in (1000, 2000):
        a = gen_matrix("cauchy:a3", n, eps=eps, absolute_eps=True)
        for absolute in (False, True):
            f = hqr(a, eps, absolute=absolute)
            err = np.linalg.norm(to_dense(q_to_hodlr(f)) - dense_q(f), 2)
            assert err <= 2 * a.level * hqr_mod.TAU_T


@settings(max_examples=40, deadline=None)
@given(**TREES, eps=st.sampled_from([0.0, 1e-10]))
@example(seed=0, n=40, n_min=64, eps=0.0)  # one leaf
@example(seed=0, n=203, n_min=12, eps=1e-10)  # level 4, leaves of 12 and 13
def test_q_to_hodlr_matches_dense_q_on_degenerate_trees(seed, n, n_min, eps):
    # rank-0 and zero-valued blocks from random_hodlr; 2 level TAU_T for the
    # one truncation per block, and the c n u of _C (c = 10, as for hqr's
    # orthogonality) for the rounding of I - Y T Y^T, formed by n-term sums
    # both here and blockwise
    rng = np.random.default_rng(seed)
    tree = build_partition(n, n_min)
    f = hqr(random_hodlr(rng, tree), eps)
    err = np.linalg.norm(to_dense(q_to_hodlr(f)) - dense_q(f), 2)
    assert err <= 2 * tree.level * hqr_mod.TAU_T + _C * n * np.finfo(float).eps


@pytest.mark.parametrize("absolute, calls", [(False, 1), (True, 0)])
def test_hqr_estimates_the_norm_only_for_a_relative_eps(monkeypatch, absolute, calls):
    # T's threshold needs no ||A||_2, so absolute mode estimates none
    h, _, _ = random_hodlr_pair(128, 32, seed=44)
    counted = count_calls_everywhere(monkeypatch, arith, "hodlr_spectral_norm")
    hqr(h, 1e-10, absolute=absolute)
    assert sum(map(len, counted)) == calls


def test_q_is_orthogonal_to_roundoff_at_every_eps():
    # eps sets only Y's sums and R; T's threshold is the same in both modes,
    # so at eps 1e-16 (6e-18 relative to ||A||_2 in absolute mode) T keeps
    # about the rank it keeps in relative mode
    eps_list = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16]
    rel, ab = (tolerance_sweep("cauchy:a3", eps_list, n=1000, absolute_eps=absolute)
               for absolute in (False, True))
    assert all(r.e_orth <= 1.5e-13 for r in rel + ab), [(r.eps, r.e_orth) for r in rel + ab]
    assert abs(ab[-1].rank_t - rel[-1].rank_t) <= 2


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


# a matrix with tall leaves, which hqr factors, and one with as many rows
# as columns but a leaf wider than tall, which it rejects before any work
@pytest.mark.parametrize("rows, cols", [((9, 5), (4, 5)), ((6, 4), (4, 6))])
@pytest.mark.parametrize("absolute", [False, True])
def test_hqr_rejects_non_square_leaves(monkeypatch, rows, cols, absolute):
    h = random_hodlr(np.random.default_rng(45), PartitionTree(1, rows),
                     tree_cols=PartitionTree(1, cols))
    if any(m < n for m, n in zip(rows, cols)):
        def no_norm(*args, **kwargs):
            raise AssertionError("hqr estimated ||A|| before checking the leaves")

        monkeypatch.setattr(hqr_mod, "hodlr_spectral_norm", no_norm)
        with pytest.raises(ValueError, match="leaf 4 x 6 is wider than tall"):
            hqr(h, 1e-12, absolute=absolute)
        return
    # checked against dense Householder QR as the rectangular property
    # test does, with R on the rows triangle_rows(Y)
    d = to_dense(h)
    m, n = d.shape
    f = hqr(h, 0.0, absolute=absolute)
    q = dense_q(f)
    tri = triangle_rows(f.y)
    r_full = np.zeros((m, n))
    r_full[tri] = to_dense(f.r)
    bound = 10 * n * np.finfo(float).eps
    norm = np.linalg.norm(d, 2)
    assert np.linalg.norm(q.T @ q - np.eye(m), 2) <= bound
    assert np.linalg.norm(q @ r_full - d, 2) <= bound * norm
    r, r_ref = to_dense(f.r), np.linalg.qr(
        d[np.concatenate([tri, np.setdiff1d(np.arange(m), tri)])], mode="r")
    r[-1], r_ref[-1] = np.abs(r[-1]), np.abs(r_ref[-1])
    assert np.max(np.abs(r - r_ref)) <= bound * norm


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-12])
@pytest.mark.parametrize("absolute", [False, True])
def test_hqr_rejects_bad_eps_before_work(monkeypatch, eps, absolute):
    # a nan eps gave factors with e_orth about 3 at n = 600, and inf
    # truncated every coupling block to rank 0
    def no_norm(*args, **kwargs):
        raise AssertionError("hqr estimated ||A|| before checking eps")

    monkeypatch.setattr(importlib.import_module("hodlrqr.hqr"), "hodlr_spectral_norm", no_norm)
    h, _, _ = random_hodlr_pair(128, 32, seed=44)
    with pytest.raises(ValueError, match="eps must be finite and >= 0"):
        hqr(h, eps, absolute=absolute)


def test_q_to_hodlr_rejects_rectangular_factors(monkeypatch):
    a, tree_rows, tree_cols = gen_random_rect_dense(300, 160, 40, seed=42)
    f = hqr(from_dense(a, tree_rows, TruncationControl(1e-12), tree_cols), 1e-12, absolute=True)
    monkeypatch.setattr(hqr_mod, "_q_rec", None)  # refused before any product
    with pytest.raises(ValueError, match="q_to_hodlr requires the factors of a square"):
        q_to_hodlr(f)


def test_hqr_stays_off_scipy(monkeypatch):
    # scipy bundles a BLAS of its own; a call into it from hqr would run a
    # second thread pool beside numpy's
    for name in ("arith", "core", "dense", "hqr", "wy"):
        module = importlib.import_module(f"hodlrqr.{name}")
        monkeypatch.setattr(module, "scipy", NoScipy("hqr"), raising=False)
    h, dense, tree = random_hodlr_pair(128, 32, rank=2, seed=12)
    assert tree.level == 2
    f = hqr(h, 1e-12)
    q = dense_q(f)
    assert np.linalg.norm(q @ to_dense(f.r) - dense, 2) <= 1e-10 * np.linalg.norm(dense, 2)


def _zero_column(h, j):
    # h with column j zeroed in its leaf and in the right factor of every
    # off-diagonal block that holds part of that column
    if h.is_leaf:
        d = h.dense.copy()
        d[:, j] = 0.0
        return HodlrMatrix(dense=d)
    m1 = h.a11.n
    side = h.a21 if j < m1 else h.a12
    r = side.R.copy()
    r[:, j if j < m1 else j - m1] = 0.0
    side = LowRankBlock(side.L, r)
    if j < m1:
        return HodlrMatrix(a11=_zero_column(h.a11, j), a22=h.a22, a12=h.a12, a21=side)
    return HodlrMatrix(a11=h.a11, a22=_zero_column(h.a22, j - m1), a12=side, a21=h.a21)


# c = 10 in the roundoff bound c n u: Householder QR keeps ||Q^T Q - I||
# and ||QR - A|| / ||A|| at O(n u) (Higham, Thm. 19.4), and at eps <= 1e-15
# the truncations drop nothing above roundoff
_C = 10.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 203), n_min=st.integers(12, 64),
       kind=st.sampled_from(["random", "zero_blocks", "zero_matrix", "zero_column"]),
       alpha=st.sampled_from([1.0, 1e150, 1e-150]), eps=st.sampled_from([0.0, 1e-15]))
@example(seed=0, n=40, n_min=64, kind="random", alpha=1.0, eps=0.0)  # one leaf
@example(seed=0, n=203, n_min=12, kind="random", alpha=1.0, eps=0.0)  # leaves of 12 and 13
@example(seed=1, n=203, n_min=12, kind="random", alpha=1e150, eps=1e-15)
@example(seed=2, n=203, n_min=12, kind="random", alpha=1e-150, eps=1e-15)
@example(seed=3, n=150, n_min=16, kind="zero_blocks", alpha=1.0, eps=0.0)
@example(seed=4, n=150, n_min=16, kind="zero_matrix", alpha=1.0, eps=0.0)
@example(seed=5, n=150, n_min=16, kind="zero_column", alpha=1.0, eps=0.0)
@example(seed=0, n=185, n_min=12, kind="random", alpha=1.0, eps=0.0)  # kappa_2(A) 6.3e6
def test_hqr_matches_dense_householder_qr(seed, n, n_min, kind, alpha, eps):
    rng = np.random.default_rng(seed)
    h = random_hodlr(rng, build_partition(n, n_min),
                     ranks=(0,) if kind == "zero_blocks" else (0, 1, 2, 3))
    j = int(rng.integers(n))
    if kind == "zero_column":
        h = _zero_column(h, j)
    h = scale(h, 0.0 if kind == "zero_matrix" else alpha)
    d = to_dense(h)
    f = hqr(h, eps)
    q, r = dense_q(f), to_dense(f.r)
    bound = _C * n * np.finfo(float).eps
    norm = np.linalg.norm(d, 2)
    assert np.linalg.norm(q.T @ q - np.eye(n), 2) <= bound
    assert np.linalg.norm(q @ r - d, 2) <= bound * norm
    assert np.max(np.abs(r - np.triu(q.T @ d))) <= bound * norm
    # both are LAPACK geqrf reflectors; the last row's sign depends on
    # whether its panel had rows below it
    r_ref = np.linalg.qr(d, mode="r")
    if kind == "zero_column":  # like geqrf, hqr keeps the zero column exactly zero
        assert not r[:, j].any()
    r[-1], r_ref[-1] = np.abs(r[-1]), np.abs(r_ref[-1])
    if kind == "zero_column":
        # R of a singular matrix is unique only in the rows above the zero
        # column; below it, only the column norms are
        assert np.max(np.abs(r[:j] - r_ref[:j]), initial=0.0) <= bound * norm
        col_norms = np.linalg.norm(r[j:], axis=0), np.linalg.norm(r_ref[j:], axis=0)
        assert np.max(np.abs(col_norms[0] - col_norms[1])) <= bound * norm
    else:
        # both R are backward stable, so they agree entrywise only up to
        # kappa_2(A) u ||A||
        kappa = np.linalg.cond(d) if norm > 0 else 1.0
        assert np.max(np.abs(r - r_ref)) <= kappa * bound * norm


def test_hqr_builds_only_the_leaves_of_y_t_and_r(monkeypatch):
    # the A22 updates travel down as pending pairs, so no leaf is copied
    # before it is factored: one leaf each of Y, T and R per leaf of A
    a = gen_random_hodlr(2000, 250, 4, seed=0)
    leaves = []
    init = HodlrMatrix.__init__

    def counted(self, dense=None, **blocks):
        if dense is not None:
            leaves.append(1)
        init(self, dense=dense, **blocks)

    monkeypatch.setattr(HodlrMatrix, "__init__", counted)
    hqr(a, 1e-10)
    assert len(leaves) == 3 * 2 ** a.level


def _buffer_bytes(*hs):
    # bytes of the distinct buffers behind the leaves and factors of hs
    buffers = {}
    for x in hodlr_arrays(*hs):
        while isinstance(x.base, np.ndarray):
            x = x.base
        buffers[id(x)] = x.nbytes
    return sum(buffers.values())


def test_hqr_factors_hold_only_their_own_entries():
    # no leaf or factor of Y, T and R is a view that keeps the coupling
    # rows of a recursion frame alive
    f = hqr(gen_random_hodlr(2000, 250, 4, seed=0), 1e-10)
    scalars = sum(stats(h)["memory_scalars"] for h in (f.y, f.t, f.r))
    assert _buffer_bytes(f.y, f.t, f.r) == 8 * scalars


def test_hqr_factors_share_no_array_with_a():
    # from_dense gives every A21 an orthonormal L, which Y21 took as its own
    # while hqr trusted a stored flag for it: on this input 2 of Y's arrays
    # were A's, so writing into A changed Y
    a = gen_matrix("cauchy:a3", 1000)
    f = hqr(a, 1e-10)
    assert not any(np.shares_memory(x, z) for x in hodlr_arrays(f.y, f.t, f.r)
                   for z in hodlr_arrays(a))


def test_hqr_one_svd_per_truncation(monkeypatch):
    # per internal node: the A21 join, A12 and the A22 update truncated
    # against one shared right factor (A12 alone above a leaf, which adds
    # the pending pair densely), and the T coupling block
    a = gen_random_hodlr(2000, 250, 4, seed=0)
    calls = []
    svd = core.svd

    def counted(m):
        calls.append(1)
        return svd(m)

    monkeypatch.setattr(core, "svd", counted)
    hqr(a, 1e-10)
    assert len(calls) == 4 * (2 ** a.level - 1) - 2 ** (a.level - 1)


def test_hqr_forms_no_q_of_a_right_factor(monkeypatch):
    # every truncation of hqr takes only the R of its right factor's QR, one
    # per call: the A21 join, the shared A12/pending truncation and the T
    # coupling block on each of the 2^L - 1 internal nodes
    a = gen_random_hodlr(2000, 250, 4, seed=0)
    modes = []
    qr = np.linalg.qr

    def counted(x, mode="reduced"):
        modes.append(mode)
        return qr(x, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", counted)
    hqr(a, 1e-10)
    assert modes.count("r") == 3 * (2 ** a.level - 1)


def test_hqr_truncates_only_through_the_private_kernel(monkeypatch):
    # the public truncate_lowrank and sum_lowrank form the Q of the right
    # factor, whose roundoff the formatted arithmetic (and so CholQR) keeps;
    # hqr calls neither and makes all its truncations through _truncate_shared
    a = gen_random_hodlr(2000, 250, 4, seed=0)
    public = [count_calls(monkeypatch, module, name) for module in (core, arith)
              for name in ("truncate_lowrank", "sum_lowrank")]
    private = [count_calls(monkeypatch, module, "_truncate_shared") for module in (core, hqr_mod)]
    hqr(a, 1e-10)
    assert not any(public)
    # one per A21 join, shared A12/pending truncation and T coupling block
    assert sum(map(len, private)) == 3 * (2 ** a.level - 1)


def _hqr_peak_and_factor_bytes(a):
    tracemalloc.start()
    try:
        f = hqr(a, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, 8 * sum(stats(h)["memory_scalars"] for h in (f.y, f.t, f.r))


def test_hqr_peak_memory_is_its_factors_plus_one_frame():
    # A frame drops its rows, A21 join and pending pair once they are dead,
    # it copies the Y rows it keeps from its children, and no Q of a right
    # factor is formed, so beyond the factors only the step under way holds
    # memory.  The peak comes late, with Y, T and R nearly complete: here in
    # the sum that forms the T coupling block of the root's second child,
    # 1.16 leaf blocks (250 x 250) above them.  It was 1.56 blocks in the QR
    # of the last leaf while its input, raw buffer, Y and R coexisted, and
    # 5.1 blocks with dead frame state and the Q of right factors.
    peak, factors = _hqr_peak_and_factor_bytes(gen_random_hodlr(2000, 250, 16, seed=0))
    assert peak <= factors + 2.5 * 8 * 250 ** 2


def test_hqr_leaf_qr_holds_no_leaf_sized_temporary():
    # the leaf panel is built in one array that block_qr frees after geqrf,
    # Y keeps geqrf's buffer and T the Gram matrix's, so at rank 1 the last
    # leaf's QR ends 0.07 leaf blocks above the factors it completes; with a
    # tril copy of Y and T beside its Gram matrix it was 1.17
    peak, factors = _hqr_peak_and_factor_bytes(gen_random_hodlr(1000, 250, 1, seed=1))
    assert peak <= factors + 0.25 * 8 * 250 ** 2


def test_pending_pair_is_truncated_in_its_own_basis(monkeypatch):
    # the pending left factor -Y21.L (Y21.R G) + P22.L has as many columns as
    # the shared right factor (K) but is J E with J = [Y21.L, P22.L]: it is
    # truncated in the basis of J's QR, k_y21 + k_u columns, and not at all
    # above a leaf, which adds J E densely
    frames, bases = [], []
    update, truncate = hqr_mod._update_second_column, hqr_mod._truncate_shared

    def spy_update(a, p, rows, y11, y21, y1_c, t1, tc):
        frames.append((y21.rank, p.rank, a.a22.is_leaf))
        return update(a, p, rows, y11, y21, y1_c, t1, tc)

    def spy_truncate(lefts, right, tc):
        bases.append([q.shape[1] for q, _ in lefts[1:]] + [right.shape[0]])
        return truncate(lefts, right, tc)

    monkeypatch.setattr(hqr_mod, "_update_second_column", spy_update)
    monkeypatch.setattr(hqr_mod, "_truncate_shared", spy_truncate)
    a = gen_random_hodlr(4000, 250, 16, seed=3)
    hqr(a, 1e-10)
    assert len(frames) == len(bases) == 2 ** a.level - 1
    assert sum(leaf for *_, leaf in frames) == 2 ** (a.level - 1)
    assert any(k_u for _, k_u, leaf in frames if not leaf)
    for (k_y, k_u, leaf), widths in zip(frames, bases):
        if leaf:
            assert len(widths) == 1  # A12 alone
        else:
            width, k = widths
            assert width == k_y + k_u < k


@pytest.mark.parametrize("p", [3, 0], ids=["pending3", "pending0"])
@pytest.mark.parametrize("m", [64, 128], ids=["a22_leaf", "a22_node"])
def test_update_second_column_matches_dense_oracle(m, p):
    # a level-1 (A22 a leaf, the pending block formed as J E) or level-2 (A22
    # a node, J E truncated in J's basis) column [A + u v^T; C] with the
    # pending block u v^T of rank p, J = Y21.L at p = 0; at eps = 0 the
    # updated A12, A22 + pending block and rows equal their dense values
    r2 = 5
    rng = np.random.default_rng(37)
    a, dense, _ = random_hodlr_pair(m, 32, rank=2, seed=37)
    u, v = rng.standard_normal((m, p)), rng.standard_normal((m, p))
    rows = rng.standard_normal((r2, m))
    m1 = a.a11.n
    tc = TruncationControl(0.0)
    a21 = sum_lowrank([a.a21, LowRankBlock(u[m1:], v[:m1].T)], tc)
    *y1, t1, _ = structured_qr(a.a11, a21, rows[:, :m1], 0.0, LowRankBlock(u[:m1], v[:m1].T))
    a12_upd, pending, rows2 = hqr_mod._update_second_column(a, LowRankBlock(u, v.T), rows,
                                                            *y1, t1, tc)

    second = np.vstack([dense[:, m1:] + u @ v[m1:].T, rows[:, m1:]])
    y1_dense = structured_y_dense(*y1)
    s = to_dense(t1).T @ (y1_dense.T @ second)
    updated = second - y1_dense @ s
    norm = np.linalg.norm(np.vstack([dense + u @ v.T, rows]), 2)
    assert pending.rank > 0 and a.a22.is_leaf == (m == 64)
    assert np.linalg.norm(a12_upd.to_dense() - updated[:m1], 2) <= 1e-12 * norm
    a22 = dense[m1:, m1:] + pending.to_dense()
    assert np.linalg.norm(a22 - updated[m1:m], 2) <= 1e-12 * norm
    assert np.linalg.norm(rows2 - updated[m:], 2) <= 1e-12 * norm


def test_hqr_orthogonality_rank_16_seed_41():
    # an earlier pending-pair prototype lost orthogonality on this input
    # (e_orth 4.3e-10); 1e-11 is the benchmark's envelope for it
    a = gen_random_hodlr(8000, 250, 16, seed=41)
    f = hqr(a, 1e-10)
    x = np.random.default_rng([41, 2]).standard_normal((8000, 16))
    e_orth = np.linalg.norm(apply_q_transpose(f, apply_q(f, x)) - x) / np.linalg.norm(x)
    assert e_orth <= 1e-11


def _rank_pairs(h, d, threshold, out):
    # (stored rank, threshold-rank of the same block of d) per block of h
    if h.is_leaf:
        return out
    m1, n1 = h.a11.n, h.a11.n_cols
    for blk, sub in ((h.a12, d[:m1, n1:]), (h.a21, d[m1:, :n1])):
        out.append((blk.rank, truncation_rank(np.linalg.svd(sub, compute_uv=False), threshold)))
    _rank_pairs(h.a11, d[:m1, :n1], threshold, out)
    return _rank_pairs(h.a22, d[m1:, n1:], threshold, out)


@pytest.mark.parametrize("kind, rank, slack", [("random", 1, 0), ("random", 16, 0),
                                               ("cauchy:a3", 1, 1)])
def test_hqr_ranks_are_those_of_the_dense_householder_factors(kind, rank, slack):
    # every off-diagonal block of Y and R has the rank of the same block of
    # the exact Householder factors at hqr's thresholds (eps ||A|| for R,
    # eps for Y): the rank growth is the factorization's, not slack from the
    # truncations.  T is truncated at TAU_T, below the rounding floor of the
    # dense T's blocks (1.5e-14 to 2.4e-12 here), so it is held to the dense
    # T's rank at eps: T may keep what the dense T holds between eps and
    # TAU_T, none of it on random input and, on cauchy:a3, whose dense T
    # gains about one rank per decade below eps, at most one per decade of
    # the four between eps = 1e-10 and TAU_T
    eps, rise = 1e-10, {"random": 0, "cauchy:a3": 4}[kind]
    a = gen_matrix(kind, 2000, 250, 0, offdiag_rank=rank)
    d = to_dense(a)
    f = hqr(a, eps)
    y, t, r = block_qr(d)
    for h, exact, threshold in ((f.y, y, eps), (f.r, r, eps * np.linalg.norm(d, 2))):
        for stored, optimal in _rank_pairs(h, exact, threshold, []):
            assert abs(stored - optimal) <= slack
    for stored, at_eps in _rank_pairs(f.t, t, eps, []):
        assert at_eps - slack <= stored <= at_eps + rise
