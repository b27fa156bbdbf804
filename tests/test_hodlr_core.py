import re
import struct
import types
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from hodlrqr import (
    CorruptionError,
    FormatError,
    HodlrMatrix,
    LowRankBlock,
    PartitionTree,
    TruncationControl,
    apply_dense,
    apply_q,
    build_partition,
    from_dense,
    hqr,
    read_hodlr,
    stats,
    to_dense,
    triangle_rows,
    write_hodlr,
)
import hodlrqr
from hodlrqr.bench import gen_random_hodlr
from hodlrqr.core import (
    _join,
    _quadrants,
    _truncate_shared,
    check_finite,
    left_orthogonalize,
    sum_lowrank,
    truncate_lowrank,
)
from hodlrqr.dense import truncation_rank

from conftest import (
    UPPER_TRIANGULAR,
    hodlr_arrays,
    hodlr_eye,
    nested_hodlr,
    random_hodlr,
    random_hodlr_pair,
    validate_structure,
)


def assert_orthonormal(l):
    """||L^T L - I||_2 <= 10 k u for the n x k left factor L."""
    k = l.shape[1]
    assert np.linalg.norm(l.T @ l - np.eye(k), 2) <= 10 * k * np.finfo(float).eps


# what the CLI, perfbench and a caller of hqr or CholQR use; every other
# name is imported from its module
PUBLIC_API = [
    "CholeskyBreakdownError", "CorruptionError", "FormatError", "HodlrMatrix",
    "HodlrQRFactors", "LowRankBlock", "PartitionTree", "TruncationControl",
    "apply_dense", "apply_q", "apply_q_transpose", "build_partition", "cholqr",
    "cholqr2", "from_dense", "hqr", "q_to_hodlr", "read_hodlr",
    "solve_upper_dense", "stats", "to_dense", "triangle_rows", "write_hodlr",
]


def test_public_names_resolve_once():
    assert len(set(hodlrqr.__all__)) == len(hodlrqr.__all__)
    assert sorted(hodlrqr.__all__) == PUBLIC_API
    for name in hodlrqr.__all__:
        assert getattr(hodlrqr, name) is not None, name
    # no public attribute of the package, submodules aside, is missing from __all__
    public = {name for name, value in vars(hodlrqr).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(PUBLIC_API)
    # README's API line lists the same names
    readme = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    line, = (x for x in readme if x.startswith("Public API"))
    assert sorted(re.findall(r"`(\w+)`", line)) == PUBLIC_API


def test_build_partition_default_block_size():
    t = build_partition(1000, 250)
    assert t.level == 2
    assert t.leaf_sizes == (250, 250, 250, 250)


def test_build_partition_below_threshold():
    t = build_partition(100, 250)
    assert t.level == 0
    assert t.leaf_sizes == (100,)


def test_build_partition_remainder_goes_left():
    t = build_partition(1001, 250)
    assert t.level == 2
    assert t.leaf_sizes == (251, 250, 250, 250)


def test_build_partition_balanced_range():
    for n in (256, 300, 511, 512, 513, 1023):
        t = build_partition(n, 32)
        assert sum(t.leaf_sizes) == n
        assert max(t.leaf_sizes) - min(t.leaf_sizes) <= 1
        # remainder distribution can push single leaves up to 2*n_min
        assert all(32 <= s <= 64 for s in t.leaf_sizes)


def test_build_partition_validates():
    with pytest.raises(ValueError):
        build_partition(0, 5)
    with pytest.raises(ValueError):
        build_partition(5, 0)


def test_from_dense_exact_low_rank(rng):
    h, dense, tree = random_hodlr_pair(96, 12, rank=1, seed=5)
    rebuilt = from_dense(dense, tree, TruncationControl(1e-10))
    assert stats(rebuilt)["max_offdiag_rank"] == 1
    assert np.max(np.abs(to_dense(rebuilt) - dense)) <= 1e-13 * np.linalg.norm(dense, 2)


def test_from_dense_identity_has_rank_zero():
    tree = build_partition(64, 8)
    h = from_dense(np.eye(64), tree, TruncationControl(1e-14))
    assert stats(h)["max_offdiag_rank"] == 0


def test_from_dense_error_bound(rng):
    n = 1000
    m = rng.standard_normal((n, n))
    tree = build_partition(n, 250)
    eps = 1e-10 * np.linalg.norm(m, 2)
    h = from_dense(m, tree, TruncationControl(eps))
    assert np.linalg.norm(m - to_dense(h), 2) <= tree.level * eps


def test_from_dense_dimension_mismatch(rng):
    tree = build_partition(32, 8)
    with pytest.raises(ValueError):
        from_dense(rng.standard_normal((16, 16)), tree, TruncationControl(0.0))
    with pytest.raises(ValueError):
        from_dense(rng.standard_normal((32, 16)), tree, TruncationControl(0.0))


def test_to_dense_round_trip_lossless(rng):
    m = rng.standard_normal((60, 60))
    tree = build_partition(60, 15)
    h = from_dense(m, tree, TruncationControl(0.0))
    assert np.max(np.abs(to_dense(h) - m)) <= 1e-13 * np.linalg.norm(m, 2)


def test_to_dense_single_leaf(rng):
    m = rng.standard_normal((10, 10))
    h = HodlrMatrix(dense=m)
    assert np.array_equal(to_dense(h), m)


def test_to_dense_rank_zero_offdiagonals():
    tree = build_partition(8, 4)
    ident = hodlr_eye(tree)
    assert np.array_equal(to_dense(ident), np.eye(8))


@pytest.mark.parametrize("make", [
    lambda rng: random_hodlr_pair(150, 20, rank=3, seed=5)[0],
    lambda rng: random_hodlr(rng, PartitionTree(2, (9, 5, 7, 6)),
                             tree_cols=PartitionTree(2, (4, 5, 3, 6))),
    lambda rng: nested_hodlr(rng, [[(3, 2), [(4, 2), (2, 1)]], (5, 3)], rank=2),
    lambda rng: nested_hodlr(rng, [(4, 4), [[(3, 3), (2, 2)], (5, 5)]]),
], ids=["square", "rectangular", "unbalanced-rectangular", "unbalanced-square"])
def test_to_dense_agrees_with_products_on_the_identity(rng, make):
    h = make(rng)
    d = to_dense(h)
    assert d.shape == (h.n, h.n_cols)
    ref = apply_dense(h, np.eye(h.n_cols))
    assert np.max(np.abs(d - ref)) <= 1e-13 * np.linalg.norm(ref, 2)


def test_structural_queries_on_an_unbalanced_rectangular_tree(rng):
    # root [[3x2, [4x2, 2x1]], 5x3]; the deep node [4x2, 2x1] gets a rank-2
    # a21 (2 x 2) whose R holds an inf
    h = nested_hodlr(rng, [[(3, 2), [(4, 2), (2, 1)]], (5, 3)])
    assert h.leaf_sizes() == (3, 4, 2, 5) and (h.n, h.n_cols) == (14, 8)
    assert not h.is_square()
    assert triangle_rows(h).tolist() == [0, 1, 3, 4, 7, 9, 10, 11]
    check_finite("hqr", h)
    r = np.ones((2, 2))
    r[1, 0] = np.inf
    h.a11.a22.a21 = LowRankBlock(np.ones((2, 2)), r)
    # leaves 6 + 8 + 2 + 15; rank-1 blocks (4+1) + (3+3) + (6+2) + (9+3) + (5+5),
    # the rank-2 block 2 (2+2)
    assert stats(h) == {"max_offdiag_rank": 2, "memory_scalars": 31 + 41 + 8}
    with pytest.raises(ValueError, match="hqr input has non-finite entries"):
        hqr(h, 1e-10)
    with pytest.raises(ValueError, match="cholqr input has non-finite entries"):
        check_finite("cholqr", np.zeros(3), h)
    assert HodlrMatrix(dense=np.ones((3, 3))).is_square()
    assert nested_hodlr(rng, [[(2, 2), (3, 3)], (1, 1)]).is_square()
    # hqr names the first wide leaf in leaf order
    wide = nested_hodlr(rng, [[(3, 2), [(1, 2), (2, 1)]], (2, 3)])
    with pytest.raises(ValueError, match="leaf 1 x 2 is wider than tall"):
        hqr(wide, 1e-10)


@pytest.mark.parametrize("eps", [-1e-10, float("nan"), float("inf")])
def test_truncation_control_rejects_bad_eps(eps):
    with pytest.raises(ValueError, match="eps must be finite and >= 0"):
        TruncationControl(eps)


def test_truncate_lowrank_collapses_redundant(rng):
    u = rng.standard_normal((20, 1))
    v = rng.standard_normal((1, 15))
    # rank-2 representation of a rank-1 matrix
    b = LowRankBlock(np.hstack([u, u]), np.vstack([v, 0.5 * v]))
    sigma1 = np.linalg.norm(b.to_dense(), 2)
    out = truncate_lowrank(b, TruncationControl(1e-14 * sigma1))
    assert out.rank == 1
    assert_orthonormal(out.L)
    assert np.linalg.norm(out.to_dense() - b.to_dense(), 2) <= 1e-13 * sigma1


def test_truncate_lowrank_no_op_within_tolerance(rng):
    b = left_orthogonalize(
        LowRankBlock(rng.standard_normal((30, 4)), rng.standard_normal((4, 25))))
    sigma = np.linalg.svd(b.to_dense(), compute_uv=False)
    out = truncate_lowrank(b, TruncationControl(sigma[-1] * 0.5))
    assert out.rank == b.rank
    assert np.linalg.norm(out.to_dense() - b.to_dense(), 2) <= 1e-13 * sigma[0]


def test_truncate_lowrank_against_dense_svd_oracle(rng):
    L = rng.standard_normal((40, 10))
    R = rng.standard_normal((10, 30))
    sigma = np.linalg.svd(L @ R, compute_uv=False)
    eps = sigma[4] * (1 + 1e-9)  # tie at sigma_5 truncates
    out = truncate_lowrank(LowRankBlock(L, R), TruncationControl(eps))
    assert out.rank == 4
    assert np.linalg.norm(out.to_dense() - L @ R, 2) <= eps * (1 + 1e-9)


def test_truncate_retained_rank_matches_exact_singular_values(rng):
    for _ in range(25):
        nl, nr = int(rng.integers(8, 50)), int(rng.integers(8, 50))
        k = int(rng.integers(1, 9))
        L = rng.standard_normal((nl, k))
        R = rng.standard_normal((k, nr))
        sigma = np.linalg.svd(L @ R, compute_uv=False)
        j = int(rng.integers(0, k))
        eps = float(sigma[j]) * (1 + 1e-9)
        out = truncate_lowrank(LowRankBlock(L, R), TruncationControl(eps))
        assert out.rank == truncation_rank(sigma, eps)
        assert np.linalg.norm(out.to_dense() - L @ R, 2) <= eps * (1 + 1e-6)


@pytest.mark.parametrize("count", [3, 4])
def test_sum_lowrank_truncates_joined_terms_once(rng, count):
    # the third term lies in the span of the first, so truncation drops rank
    blocks = [LowRankBlock(rng.standard_normal((30, k)), rng.standard_normal((k, 25)))
              for k in (2, 3)]
    blocks.append(LowRankBlock(blocks[0].L @ rng.standard_normal((2, 1)),
                               rng.standard_normal((1, 25))))
    blocks.append(LowRankBlock(rng.standard_normal((30, 1)), rng.standard_normal((1, 25))))
    blocks = blocks[:count]
    tc = TruncationControl(1e-10)
    joined = LowRankBlock(np.hstack([b.L for b in blocks]), np.vstack([b.R for b in blocks]))
    expect = truncate_lowrank(joined, tc)
    out = sum_lowrank(blocks, tc)
    assert np.array_equal(out.L, expect.L) and np.array_equal(out.R, expect.R)
    assert_orthonormal(out.L)
    assert out.rank == sum(b.rank for b in blocks) - 1
    exact = sum(b.to_dense() for b in blocks)
    assert np.linalg.norm(out.to_dense() - exact, 2) <= tc.eps * (1 + 1e-9)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=5),
       st.integers(1, 12), st.integers(1, 12),
       st.one_of(st.just(0.0), st.floats(1e-14, 10.0)),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_sum_lowrank_error_within_eps(ranks, n_rows, n_cols, eps, zero_term, seed):
    rng = np.random.default_rng(seed)
    blocks = [LowRankBlock(rng.standard_normal((n_rows, k)), rng.standard_normal((k, n_cols)))
              for k in ranks]
    if zero_term:  # a term with columns but no content
        blocks[0] = LowRankBlock(np.zeros((n_rows, ranks[0])), blocks[0].R)
    out = sum_lowrank(blocks, TruncationControl(eps))
    assert (out.n_rows, out.n_cols) == (n_rows, n_cols)
    assert out.rank <= sum(ranks)
    exact = sum(b.to_dense() for b in blocks)
    # the roundoff of joining and recompressing, which eps = 0 leaves alone
    roundoff = 100 * np.finfo(float).eps * sum(
        np.linalg.norm(b.L) * np.linalg.norm(b.R) for b in blocks)
    assert np.linalg.norm(out.to_dense() - exact, 2) <= eps * (1 + 1e-9) + roundoff


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(0, 15), st.integers(1, 12),
       st.one_of(st.just(0.0), st.floats(1e-14, 10.0)),
       st.sampled_from(["none", "left", "right"]), st.integers(0, 2**32 - 1))
@example(12, 15, 5, 0.0, "none", 0)  # K above n_rows and n_cols
@example(4, 6, 7, 0.0, "left", 1)
@example(5, 3, 4, 0.0, "right", 2)
@example(5, 0, 4, 0.0, "none", 3)
def test_truncate_lowrank_is_left_orthogonal_within_eps(n_rows, k, n_cols, eps, zero, seed):
    # ranks k up to above n_rows and n_cols, and zero factors of nonzero rank
    rng = np.random.default_rng(seed)
    L = rng.standard_normal((n_rows, k))
    right = rng.standard_normal((k, n_cols))
    if zero == "left":
        L = np.zeros_like(L)
    elif zero == "right":
        right = np.zeros_like(right)
    out = truncate_lowrank(LowRankBlock(L, right), TruncationControl(eps))
    assert (out.n_rows, out.n_cols) == (n_rows, n_cols)
    assert out.rank <= min(n_rows, k, n_cols)
    assert_orthonormal(out.L)
    roundoff = 100 * np.finfo(float).eps * np.linalg.norm(L) * np.linalg.norm(right)
    assert np.linalg.norm(out.to_dense() - L @ right, 2) <= eps * (1 + 1e-9) + roundoff
    if zero != "none":
        assert out.rank == 0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=1, max_size=3), st.integers(0, 15),
       st.integers(1, 12), st.sampled_from([1e-12, 1e-6, 1e-2, 0.3]), st.booleans(),
       st.integers(0, 2**32 - 1))
@example([3, 8], 15, 5, 1e-6, False, 0)  # wide right^T: K above n_cols
@example([4, 2], 6, 7, 1e-2, True, 1)  # zero right factor
@example([5], 0, 4, 1e-6, False, 2)  # K = 0
def test_private_truncate_shared_takes_lefts_in_a_basis(ks, k, n_cols, rel_eps, zero, seed):
    # the kernel of hqr takes each left factor as (Q, C), L = Q C, and forms
    # only the R of right^T: its ranks are truncate_lowrank's on Q C, its left
    # factors orthonormal and its error within eps
    rng = np.random.default_rng(seed)
    decay = np.logspace(0, -14, k)  # singular values on both sides of eps
    lefts = [(np.linalg.qr(rng.standard_normal((k1 + 3, k1)))[0],
              rng.standard_normal((k1, k)) * decay) for k1 in ks]
    right = np.zeros((k, n_cols)) if zero else rng.standard_normal((k, n_cols))
    exact = [q @ c @ right for q, c in lefts]
    scale = max(np.linalg.norm(x, 2) for x in exact)
    tc = TruncationControl(rel_eps * scale)
    roundoff = 100 * np.finfo(float).eps * scale
    for x in exact:  # a singular value within roundoff of eps may fall either way
        sigma = np.linalg.svd(x, compute_uv=False)
        assume(scale == 0 or np.all(np.abs(sigma - tc.eps) > 1e-3 * tc.eps + roundoff))
    outs = _truncate_shared(lefts, right, tc)
    assert len(outs) == len(lefts)
    for (q, c), x, out in zip(lefts, exact, outs):
        assert (out.n_rows, out.n_cols) == x.shape
        assert out.rank == truncate_lowrank(LowRankBlock(q @ c, right), tc).rank
        assert_orthonormal(out.L)
        assert np.linalg.norm(out.to_dense() - x, 2) <= tc.eps * (1 + 1e-9) + roundoff
        if zero or k == 0:
            assert out.rank == 0


def test_sum_lowrank_rank_zero_operands_keep_first_block(rng):
    first = LowRankBlock(np.zeros((5, 0)), np.zeros((0, 4)))
    tc = TruncationControl(1e-10)
    assert sum_lowrank([first, LowRankBlock.zero(5, 4)], tc) is first
    assert sum_lowrank([first, LowRankBlock.zero(5, 4), LowRankBlock.zero(5, 4)], tc) is first
    nonzero = LowRankBlock(rng.standard_normal((5, 1)), rng.standard_normal((1, 4)))
    out = sum_lowrank([first, nonzero], tc)
    assert out.rank == 1
    assert_orthonormal(out.L)
    assert np.allclose(out.to_dense(), nonzero.to_dense())


def test_pending_block_helpers_keep_views_and_layout(rng):
    # _quadrants hands out views of P's factors; _join stores R as the
    # transpose of the column-joined R^T, the layout on which the leaves'
    # L @ R products, and so CholQR's bits, depend.  P's R is a transposed
    # C-contiguous array, as after a join; there a vstack of the Rs would
    # give R^T another layout.  Integer entries make every product exact,
    # whatever order BLAS sums in
    def ints(*shape):
        return rng.integers(-4, 5, shape).astype(float)

    p, q = LowRankBlock(ints(7, 3), ints(5, 3).T), LowRankBlock(ints(7, 2), ints(2, 5))
    dense = p.to_dense()
    rows, cols = (slice(None, 4), slice(4, None)), (slice(None, 2), slice(2, None))
    quads = _quadrants(p, 4, 2)
    for quad, (i, j) in zip(quads, [(0, 0), (0, 1), (1, 0), (1, 1)]):
        assert np.shares_memory(quad.L, p.L) and np.shares_memory(quad.R, p.R)
        assert np.array_equal(quad.to_dense(), dense[rows[i], cols[j]])
    joined = _join(p, q)
    assert np.array_equal(joined.L, np.hstack([p.L, q.L]))
    assert np.array_equal(joined.R, np.vstack([p.R, q.R]))
    assert joined.R.T.flags.c_contiguous


def test_left_orthogonalize_one_column():
    b = LowRankBlock(np.array([[2.0], [0.0]]), np.array([[3.0]]))
    out = left_orthogonalize(b)
    assert np.allclose(np.abs(out.L), [[1.0], [0.0]])
    assert abs(out.R[0, 0]) == pytest.approx(6.0)
    assert_orthonormal(out.L)


def test_left_orthogonalize_preserves_product(rng):
    b = LowRankBlock(rng.standard_normal((50, 5)), rng.standard_normal((5, 60)))
    out = left_orthogonalize(b)
    assert np.linalg.norm(out.L.T @ out.L - np.eye(5), 2) <= 1e-14
    prod = b.to_dense()
    assert np.linalg.norm(out.to_dense() - prod, 2) <= 1e-13 * np.linalg.norm(prod, 2)


def test_recompress_restores_doubled_factors(rng):
    h, dense, tree = random_hodlr_pair(64, 8, rank=2, seed=9)

    def doubled(node):
        if node.is_leaf:
            return node
        def dbl(b):
            return LowRankBlock(np.hstack([b.L, b.L]),
                                np.vstack([b.R, np.zeros_like(b.R)]))
        return HodlrMatrix(a11=doubled(node.a11), a22=doubled(node.a22),
                           a12=dbl(node.a12), a21=dbl(node.a21))

    def recompressed(node, tc):
        # the recompression operator on every off-diagonal block
        if node.is_leaf:
            return node
        return HodlrMatrix(a11=recompressed(node.a11, tc), a22=recompressed(node.a22, tc),
                           a12=truncate_lowrank(node.a12, tc),
                           a21=truncate_lowrank(node.a21, tc))

    fat = doubled(h)
    assert stats(fat)["max_offdiag_rank"] == 4
    slim = recompressed(fat, TruncationControl(1e-12))
    assert stats(slim)["max_offdiag_rank"] == 2
    assert np.max(np.abs(to_dense(slim) - dense)) <= 1e-11


def test_recompress_error_bound(rng):
    # H1 + H2 with each pair of off-diagonal blocks recompressed once at eps
    h1, d1, tree = random_hodlr_pair(128, 16, rank=3, seed=1)
    h2, d2, _ = random_hodlr_pair(128, 16, rank=3, seed=2)
    eps = 1e-10 * np.linalg.norm(d1 + d2, 2)

    def add(x1, x2):
        if x1.is_leaf:
            return HodlrMatrix(dense=x1.dense + x2.dense)
        return HodlrMatrix(a11=add(x1.a11, x2.a11), a22=add(x1.a22, x2.a22),
                           a12=sum_lowrank([x1.a12, x2.a12], TruncationControl(eps)),
                           a21=sum_lowrank([x1.a21, x2.a21], TruncationControl(eps)))

    summed = add(h1, h2)
    assert stats(summed)["max_offdiag_rank"] <= 6
    assert np.linalg.norm(to_dense(summed) - (d1 + d2), 2) <= tree.level * eps


def test_stats_identity():
    tree = build_partition(40, 10)
    s = stats(hodlr_eye(tree))
    assert s["max_offdiag_rank"] == 0
    assert s["memory_scalars"] == sum(sz ** 2 for sz in tree.leaf_sizes)


def test_stats_rank_one_level_one(rng):
    m = 8
    h, _, _ = random_hodlr_pair(2 * m, m, rank=1, seed=3)
    s = stats(h)
    assert s["max_offdiag_rank"] == 1
    assert s["memory_scalars"] == 2 * m * m + 2 * (2 * m)


def test_idempotent_recompression(rng):
    h, dense, tree = random_hodlr_pair(120, 15, rank=2, seed=4)
    eps = 1e-8
    h1 = from_dense(dense, tree, TruncationControl(eps))
    d1 = to_dense(h1)
    h2 = from_dense(d1, tree, TruncationControl(eps))
    r1 = [b for b in _iter_ranks(h1)]
    r2 = [b for b in _iter_ranks(h2)]
    assert r1 == r2
    assert np.max(np.abs(to_dense(h2) - d1)) <= 1e-12 * np.linalg.norm(dense, 2)


def _iter_ranks(h):
    if h.is_leaf:
        return
    yield h.a12.rank
    yield h.a21.rank
    yield from _iter_ranks(h.a11)
    yield from _iter_ranks(h.a22)


def test_validate_structure_tags():
    tree = build_partition(32, 8)
    validate_structure(hodlr_eye(tree), UPPER_TRIANGULAR)
    bad = HodlrMatrix(
        a11=HodlrMatrix(dense=np.eye(4)),
        a22=HodlrMatrix(dense=np.eye(4)),
        a12=LowRankBlock.zero(4, 4),
        a21=LowRankBlock(np.ones((4, 1)), np.ones((1, 4))),
    )
    with pytest.raises(AssertionError):
        validate_structure(bad, UPPER_TRIANGULAR)
    with pytest.raises(ValueError):
        validate_structure(bad, "general")


def test_write_read_round_trip(tmp_path, rng):
    h, dense, _ = random_hodlr_pair(100, 13, rank=2, seed=8)
    path = tmp_path / "m.hdlr1"
    write_hodlr(h, path)
    back = read_hodlr(path)
    assert back.leaf_sizes() == h.leaf_sizes()
    assert np.array_equal(to_dense(back), dense)

    def compare(x, y):
        if x.is_leaf:
            assert np.array_equal(x.dense, y.dense)
            return
        assert np.array_equal(x.a12.L, y.a12.L) and np.array_equal(x.a12.R, y.a12.R)
        assert np.array_equal(x.a21.L, y.a21.L) and np.array_equal(x.a21.R, y.a21.R)
        compare(x.a11, y.a11)
        compare(x.a22, y.a22)

    compare(h, back)


def test_reserved_block_byte_does_not_steer_hqr(tmp_path):
    # bit 0 of a block's reserved byte once marked L as orthonormal, and hqr
    # then skipped its QR: set on the root A21, whose L is Gaussian, it gave
    # e_orth 2.5e5 on this matrix
    h = gen_random_hodlr(1000, 250, 2, seed=3)
    clean, crafted = tmp_path / "clean.hdlr1", tmp_path / "crafted.hdlr1"
    write_hodlr(h.a11, crafted)  # to measure the a11 subtree's serialization
    a11_bytes = crafted.stat().st_size - (22 + 8 * len(h.a11.leaf_sizes()) + 4)
    write_hodlr(h, clean)
    data = bytearray(clean.read_bytes()[:-4])
    # header and leaf sizes, the root's tag and a11, then A21's n_rows, n_cols, k
    pos = 22 + 8 * len(h.leaf_sizes()) + 1 + a11_bytes + 24
    assert data[pos - 24:pos + 1] == struct.pack("<QQQ", h.a21.n_rows, h.a21.n_cols, 2) + b"\x00"
    data[pos] |= 1
    crafted.write_bytes(bytes(data) + struct.pack("<I", zlib.crc32(data)))
    f, g = (hqr(read_hodlr(path), 1e-10) for path in (clean, crafted))
    assert all(x.same_structure(y) for x, y in zip((f.y, f.t, f.r), (g.y, g.t, g.r)))
    assert all(np.array_equal(x, y) for x, y in zip(hodlr_arrays(f.y, f.t, f.r),
                                                    hodlr_arrays(g.y, g.t, g.r)))
    q = apply_q(g, np.eye(h.n))
    assert np.linalg.norm(q.T @ q - np.eye(h.n), 2) <= 10 * h.n * np.finfo(float).eps


@pytest.mark.parametrize("rows, cols", [((9, 5), (4, 5)), ((6, 4), (4, 6))])
def test_write_rejects_non_square_leaves(tmp_path, rows, cols):
    # read_hodlr refuses non-square leaves, so they are not written
    h = random_hodlr(np.random.default_rng(46), PartitionTree(1, rows),
                     tree_cols=PartitionTree(1, cols))
    path = tmp_path / "m.hdlr1"
    with pytest.raises(ValueError, match="square"):
        write_hodlr(h, path)
    assert not path.exists()


def test_read_truncated_file_raises_corruption(tmp_path, rng):
    h, _, _ = random_hodlr_pair(40, 10, seed=2)
    path = tmp_path / "m.hdlr1"
    write_hodlr(h, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CorruptionError):
        read_hodlr(path)


def test_read_wrong_magic_raises_format_error(tmp_path, rng):
    h, _, _ = random_hodlr_pair(40, 10, seed=2)
    path = tmp_path / "m.hdlr1"
    write_hodlr(h, path)
    data = bytearray(path.read_bytes())
    data[:6] = b"NOPE\x00\x00"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        read_hodlr(path)


def test_read_bit_flip_raises_corruption(tmp_path, rng):
    h, _, _ = random_hodlr_pair(40, 10, seed=2)
    path = tmp_path / "m.hdlr1"
    write_hodlr(h, path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptionError):
        read_hodlr(path)


def _write_crafted(path, level, sizes, tree):
    """HDLR1 file with the given header fields and tree bytes and a valid CRC."""
    payload = (b"HDLR1\x00" + struct.pack("<IQI", 1, sum(sizes), level)
               + b"".join(struct.pack("<Q", s) for s in sizes) + tree)
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))


def _leaf(rows, cols):
    return b"\x01" + struct.pack("<QQ", rows, cols) + bytes(8 * rows * cols)


def _block(n_rows, n_cols):
    return struct.pack("<QQQ", n_rows, n_cols, 0) + b"\x00"


# the checksums are valid, so each fault must be caught by a structure check
@pytest.mark.parametrize("level, sizes, tree, match", [
    (2 ** 27, [], _leaf(1, 1), "level"),
    (2 ** 32 - 1, [], _leaf(1, 1), "level"),
    (0, [1], b"\x02" * 5000, "deeper"),
    (1, [1, 1], b"\x02" * 5000, "deeper"),
    (0, [2], _leaf(2, 3), "not square"),
    (0, [0], _leaf(0, 0), "positive"),
    (1, [1, 1], b"\x02" + _leaf(1, 1) + _block(2, 1) + _block(1, 1) + _leaf(1, 1),
     "block shapes"),
    # an empty factor too big for any array: numpy raised ValueError
    (1, [1, 1], b"\x02" + _leaf(1, 1) + _block(2 ** 60, 1) + _block(1, 1) + _leaf(1, 1),
     "too big"),
])
def test_read_crafted_file_raises_corruption(tmp_path, level, sizes, tree, match):
    path = tmp_path / "m.hdlr1"
    _write_crafted(path, level, sizes, tree)
    with pytest.raises(CorruptionError, match=match):
        read_hodlr(path)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["overwrite", "truncate", "insert"]),
                          st.one_of(st.integers(0, 120), st.integers(0, 10 ** 6)),
                          st.binary(min_size=1, max_size=9)), min_size=1, max_size=3))
def test_read_fuzzed_file_raises_library_errors_or_reads(tmp_path_factory, edits):
    # overwrites, truncations and insertions under a recomputed checksum, so
    # only the reader's structure checks stand between the bytes and a matrix
    h = random_hodlr(np.random.default_rng(47), PartitionTree(2, (2, 3, 3, 2)), ranks=(0, 1, 2))
    path = tmp_path_factory.getbasetemp() / "fuzzed.hdlr1"
    write_hodlr(h, path)
    data = bytearray(path.read_bytes()[:-4])
    for kind, pos, chunk in edits:
        pos %= len(data) + 1
        if kind == "overwrite":
            data[pos:pos + len(chunk)] = chunk
        elif kind == "truncate":
            del data[pos:]
        else:
            data[pos:pos] = chunk
    path.write_bytes(bytes(data) + struct.pack("<I", zlib.crc32(data)))
    try:
        back = read_hodlr(path)
    except (FormatError, CorruptionError) as err:
        event(type(err).__name__)
        return
    event("read")
    # what reads is a square HODLR matrix on a balanced tree, so it writes
    # and reads back unchanged
    write_hodlr(back, path)
    again = read_hodlr(path)
    assert again.same_structure(back) and again.leaf_sizes() == back.leaf_sizes()
    with np.errstate(over="ignore", invalid="ignore"):  # fuzzed factors may overflow L @ R
        assert np.array_equal(to_dense(again), to_dense(back), equal_nan=True)
