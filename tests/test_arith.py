import numpy as np
import pytest
from hypothesis import example, given, settings

from hodlrqr import (
    CholeskyBreakdownError,
    HodlrMatrix,
    LowRankBlock,
    TruncationControl,
    apply_dense,
    build_partition,
    from_dense,
    stats,
    to_dense,
)
from hodlrqr import arith, core
from hodlrqr.arith import (
    cholesky,
    hodlr_spectral_norm,
    multiply,
    solve_upper_dense,
    solve_upper_triangular_right,
    transpose,
)
from hodlrqr.bench import gen_matrix, gen_random_hodlr

from conftest import (
    TREES,
    NoScipy,
    UPPER_TRIANGULAR,
    count_calls,
    gen_random_rect_dense,
    hodlr_eye,
    nested_hodlr,
    random_hodlr,
    random_hodlr_pair,
    spd_hodlr_pair,
    validate_structure,
)


def matvec(h, v):
    return apply_dense(h, v[:, None])[:, 0]


def test_matvec_identity(rng):
    tree = build_partition(48, 12)
    v = rng.standard_normal(48)
    assert np.array_equal(matvec(hodlr_eye(tree), v), v)


def test_matvec_matches_dense(rng):
    h, dense, _ = random_hodlr_pair(160, 20, rank=2, seed=6)
    v = rng.standard_normal(160)
    err = np.linalg.norm(matvec(h, v) - dense @ v)
    assert err <= 1e-13 * np.linalg.norm(dense, 2) * np.linalg.norm(v)


def test_matvec_block_diagonal_action(rng):
    tree = build_partition(32, 16)
    d1, d2 = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
    h = HodlrMatrix(a11=HodlrMatrix(dense=d1), a22=HodlrMatrix(dense=d2),
                    a12=LowRankBlock.zero(16, 16), a21=LowRankBlock.zero(16, 16))
    v = rng.standard_normal(32)
    expect = np.concatenate([d1 @ v[:16], d2 @ v[16:]])
    assert np.allclose(matvec(h, v), expect)


def test_matvec_linearity(rng):
    h, dense, _ = random_hodlr_pair(96, 24, seed=7)
    u, v = rng.standard_normal(96), rng.standard_normal(96)
    lhs = matvec(h, 2.5 * u - 1.5 * v)
    rhs = 2.5 * matvec(h, u) - 1.5 * matvec(h, v)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(dense, 2)


def test_matvec_dimension_mismatch(rng):
    h, _, _ = random_hodlr_pair(32, 8)
    with pytest.raises(ValueError):
        matvec(h, np.ones(16))


def test_apply_transpose_matches_dense(rng):
    h, dense, _ = random_hodlr_pair(120, 30, rank=2, seed=10)
    x = rng.standard_normal((120, 4))
    assert np.allclose(apply_dense(h, x, trans=True), dense.T @ x, atol=1e-11)


@pytest.mark.parametrize("op", [multiply, solve_upper_triangular_right])
def test_same_leaves_nested_differently_are_different_trees(rng, op):
    # leaves 2, 2, 2 in both, nested as ((2, 2), 2) and as (2, (2, 2))
    left = nested_hodlr(rng, [[(2, 2), (2, 2)], (2, 2)])
    right = nested_hodlr(rng, [(2, 2), [(2, 2), (2, 2)]])
    assert left.leaf_sizes() == right.leaf_sizes() == (2, 2, 2)
    assert left.same_structure(nested_hodlr(rng, [[(2, 2), (2, 2)], (2, 2)]))
    assert not left.same_structure(right) and not right.same_structure(left)
    with pytest.raises(ValueError, match="requires operands with the same partition tree"):
        op(left, right, TruncationControl(1e-12))


def test_multiply_identity(rng):
    h, dense, tree = random_hodlr_pair(96, 24, rank=2, seed=18)
    out = multiply(h, hodlr_eye(tree), TruncationControl(1e-13))
    assert np.allclose(to_dense(out), dense, atol=1e-10)
    assert stats(out)["max_offdiag_rank"] <= stats(h)["max_offdiag_rank"]


def test_multiply_gram_matrix_oracle(rng):
    n = 512
    h, dense, tree = random_hodlr_pair(n, 64, rank=1, seed=19)
    eps = 1e-10 * np.linalg.norm(dense, 2) ** 2
    out = multiply(transpose(h), h, TruncationControl(eps))
    err = np.linalg.norm(to_dense(out) - dense.T @ dense, 2)
    assert err <= 10 * tree.level * eps


def test_multiply_block_diagonal_stays_block_diagonal(rng):
    tree = build_partition(32, 16)

    def blockdiag():
        return HodlrMatrix(
            a11=HodlrMatrix(dense=rng.standard_normal((16, 16))),
            a22=HodlrMatrix(dense=rng.standard_normal((16, 16))),
            a12=LowRankBlock.zero(16, 16), a21=LowRankBlock.zero(16, 16))

    out = multiply(blockdiag(), blockdiag(), TruncationControl(1e-13))
    assert stats(out)["max_offdiag_rank"] == 0


def test_transpose_involution(rng):
    h, dense, _ = random_hodlr_pair(80, 10, rank=2, seed=20)
    back = transpose(transpose(h))
    assert np.array_equal(to_dense(back), to_dense(h))


def test_transpose_matches_dense(rng):
    h, dense, _ = random_hodlr_pair(72, 18, rank=2, seed=21)
    assert np.array_equal(to_dense(transpose(h)), to_dense(h).T)


def test_cholesky_identity():
    tree = build_partition(48, 12)
    r = cholesky(hodlr_eye(tree), TruncationControl(1e-14))
    assert np.allclose(to_dense(r), np.eye(48))
    validate_structure(r, UPPER_TRIANGULAR)


def test_cholesky_diagonal_leaf():
    r = cholesky(HodlrMatrix(dense=4.0 * np.eye(5)), TruncationControl(0.0))
    assert np.allclose(to_dense(r), 2.0 * np.eye(5))


def test_cholesky_spd_oracle():
    h, dense, tree = spd_hodlr_pair(512, 64, seed=22)
    eps = 1e-10 * np.linalg.norm(dense, 2)
    r = cholesky(h, TruncationControl(eps))
    validate_structure(r, UPPER_TRIANGULAR)
    r_d = to_dense(r)
    r_ref = np.linalg.cholesky(dense).T
    assert np.linalg.norm(r_d - r_ref, 2) / np.linalg.norm(r_ref, 2) <= 1e-6
    resid = np.linalg.norm(r_d.T @ r_d - dense, 2)
    assert resid <= 10 * tree.level * eps


def test_cholesky_round_trip_residual():
    for seed in (1, 2, 3):
        h, dense, tree = spd_hodlr_pair(256, 32, seed=seed)
        eps = 1e-11 * np.linalg.norm(dense, 2)
        r = cholesky(h, TruncationControl(eps))
        r_d = to_dense(r)
        resid = np.linalg.norm(r_d.T @ r_d - dense, 2) / np.linalg.norm(dense, 2)
        assert resid <= 100 * tree.level * 1e-11


def test_cholesky_breakdown_reports_leaf_and_pivot():
    tree = build_partition(32, 8)
    m = np.eye(32)
    m[20, 20] = -1.0  # leaf 2 holds indices 16..23
    h = from_dense(m, tree, TruncationControl(0.0))
    with pytest.raises(CholeskyBreakdownError) as exc:
        cholesky(h, TruncationControl(1e-14))
    assert exc.value.leaf_index == 2
    assert exc.value.pivot == pytest.approx(-1.0)


def test_solve_upper_right_identity(rng):
    h, dense, tree = random_hodlr_pair(64, 16, seed=23)
    out = solve_upper_triangular_right(h, hodlr_eye(tree), TruncationControl(1e-13))
    assert np.allclose(to_dense(out), dense, atol=1e-10)


def test_solve_upper_right_diagonal_scaling(rng):
    tree = build_partition(32, 8)
    diag = from_dense(np.diag(rng.uniform(1, 2, 32)), tree, TruncationControl(0.0))
    h, dense, _ = random_hodlr_pair(32, 8, seed=24)
    out = solve_upper_triangular_right(h, diag, TruncationControl(1e-14))
    expect = dense / np.diag(to_dense(diag))[None, :]
    assert np.allclose(to_dense(out), expect, atol=1e-10)


def test_solve_upper_right_oracle(rng):
    n = 512
    b, b_dense, tree = random_hodlr_pair(n, 64, rank=1, seed=25)
    spd, spd_dense, _ = spd_hodlr_pair(n, 64, seed=26)
    eps = 1e-11 * np.linalg.norm(spd_dense, 2)
    r = cholesky(spd, TruncationControl(eps))
    r_dense = to_dense(r)
    out = solve_upper_triangular_right(b, r, TruncationControl(eps))
    expect = np.linalg.solve(r_dense.T, b_dense.T).T
    kappa = np.linalg.cond(r_dense)
    err = np.linalg.norm(to_dense(out) - expect, 2) / np.linalg.norm(expect, 2)
    assert err <= 10 * tree.level * 1e-11 * kappa


def test_solve_dense_helpers(rng):
    h, dense, tree = spd_hodlr_pair(128, 16, seed=27)
    r = cholesky(h, TruncationControl(1e-12 * np.linalg.norm(dense, 2)))
    r_dense = to_dense(r)
    b = rng.standard_normal((128, 3))
    x = solve_upper_dense(r, b)
    assert np.linalg.norm(r_dense @ x - b) <= 1e-8 * np.linalg.norm(b)
    xt = solve_upper_dense(r, b, trans=True)
    assert np.linalg.norm(r_dense.T @ xt - b) <= 1e-8 * np.linalg.norm(b)


def test_solve_singular_leaf_raises():
    tree = build_partition(16, 8)
    sing = from_dense(np.diag([1.0] * 8 + [0.0] * 8), tree, TruncationControl(0.0))
    h, _, _ = random_hodlr_pair(16, 8, seed=28)
    with pytest.raises(np.linalg.LinAlgError):
        solve_upper_triangular_right(h, sing, TruncationControl(1e-13))


def test_hodlr_spectral_norm(rng):
    h, dense, _ = random_hodlr_pair(256, 32, rank=2, seed=29)
    est = hodlr_spectral_norm(h)
    exact = np.linalg.norm(dense, 2)
    assert abs(est - exact) / exact <= 1e-2


def test_hodlr_spectral_norm_of_rectangular_matrix():
    # the power iteration starts on the n_cols columns; on rows it raised
    # "dimension mismatch: 160 vs 300"
    a, tr, tc = gen_random_rect_dense(300, 160, 40, seed=42)
    h = from_dense(a, tr, TruncationControl(0.0), tc)
    exact = np.linalg.norm(a, 2)
    assert abs(hodlr_spectral_norm(h) - exact) / exact <= 1e-2


@pytest.mark.parametrize("matrix,rank", [("cauchy:a3", 1), ("random", 16)])
def test_hodlr_spectral_norm_stops_before_cap(monkeypatch, matrix, rank):
    # clustered top singular values converge slowly, but the estimate ends
    # at the first round that does not raise it, well before the cap
    applies = []
    estimate = arith.spectral_norm_estimate

    def counting(apply, apply_transpose, n, **kwargs):
        def counted(x):
            applies.append(x.shape[1])
            return apply(x)
        return estimate(counted, apply_transpose, n, **kwargs)

    monkeypatch.setattr(arith, "spectral_norm_estimate", counting)
    a = gen_matrix(matrix, 2000, 250, seed=0, offdiag_rank=rank)
    est = hodlr_spectral_norm(a)
    exact = np.linalg.norm(to_dense(a), 2)
    assert len(applies) < 50
    assert 0.95 * exact <= est <= exact * (1 + 1e-12)


def test_outputs_carry_shape_tags():
    h, dense, _ = spd_hodlr_pair(128, 32, seed=30)
    r = cholesky(h, TruncationControl(1e-12 * np.linalg.norm(dense, 2)))
    validate_structure(r, UPPER_TRIANGULAR)

    def assert_a21_rank0(node):
        if node.is_leaf:
            return
        assert node.a21.rank == 0
        assert_a21_rank0(node.a11)
        assert_a21_rank0(node.a22)

    assert_a21_rank0(r)


# uneven trees up to level 4 (n = 203, n_min = 12 gives 16 leaves of 12 and
# 13), rank-0 and zero-valued off-diagonal blocks, no truncation (eps = 0)
@settings(max_examples=40, deadline=None)
@given(**TREES)
@example(seed=0, n=203, n_min=12)
def test_multiply_matches_dense_product_at_eps_zero(seed, n, n_min):
    rng = np.random.default_rng(seed)
    tree = build_partition(n, n_min)
    h1, h2 = random_hodlr(rng, tree), random_hodlr(rng, tree)
    d1, d2 = to_dense(h1), to_dense(h2)
    out = multiply(h1, h2, TruncationControl(0.0))
    err = np.linalg.norm(to_dense(out) - d1 @ d2, 2)
    assert err <= 1e-12 * np.linalg.norm(d1, 2) * np.linalg.norm(d2, 2)


@settings(max_examples=40, deadline=None)
@given(**TREES)
@example(seed=0, n=203, n_min=12)
def test_solve_upper_right_residual_at_eps_zero(seed, n, n_min):
    rng = np.random.default_rng(seed)
    tree = build_partition(n, n_min)
    b, r = random_hodlr(rng, tree), random_hodlr(rng, tree, upper=True)
    b_d, r_d = to_dense(b), to_dense(r)
    x = solve_upper_triangular_right(b, r, TruncationControl(0.0))
    validate_structure(r, UPPER_TRIANGULAR)
    resid = np.linalg.norm(to_dense(x) @ r_d - b_d, 2)
    assert resid <= 1e-12 * np.linalg.cond(r_d) * np.linalg.norm(b_d, 2)


@pytest.mark.parametrize("n_min", [50, 25, 12])
def test_multiply_truncates_once_per_offdiagonal_block(monkeypatch, n_min):
    # the low-rank products meant for the diagonal blocks travel down as one
    # pending term; at level 3 a truncation after every update made 34
    h1, _, tree = random_hodlr_pair(200, n_min, rank=2, seed=31)
    h2, _, _ = random_hodlr_pair(200, n_min, rank=2, seed=32)
    calls = count_calls(monkeypatch, core, "truncate_lowrank")
    multiply(transpose(h1), h2, TruncationControl(1e-10))
    assert len(calls) == 2 * (2 ** tree.level - 1)


@pytest.mark.parametrize("n_min", [50, 25, 12])
def test_solve_upper_right_one_leaf_solve_per_leaf(monkeypatch, n_min):
    # at level 3 solving the right factors subtree by subtree made 32 leaf
    # solves and 17 truncations
    b, _, tree = random_hodlr_pair(200, n_min, rank=2, seed=33)
    r = random_hodlr(np.random.default_rng(34), tree, ranks=(2,), zero_blocks=False,
                     upper=True)
    solves = count_calls(monkeypatch, arith, "_leaf_solve_upper")
    truncations = count_calls(monkeypatch, core, "truncate_lowrank")
    solve_upper_triangular_right(b, r, TruncationControl(1e-10))
    assert len(solves) == 2 ** tree.level
    # one for each B12, one for each B21 off the left edge of the tree
    assert len(truncations) == 2 * (2 ** tree.level - 1) - tree.level


@pytest.mark.parametrize("trans", [False, True])
def test_apply_dense_without_columns_visits_no_node(monkeypatch, trans):
    # cholqr2's closing multiply of two triangular factors applies subtrees
    # to the 0-column factors of their rank-0 a21 blocks
    h, _, _ = random_hodlr_pair(200, 25, rank=2, seed=35)
    visits = count_calls(monkeypatch, arith, "_apply_into")
    out = apply_dense(h, np.zeros((200, 0)), trans=trans)
    assert out.shape == (200, 0)
    assert not visits


def test_cholesky_breakdown_without_failing_pivot_on_retry(monkeypatch):
    # when the retry through dpotrf succeeds, the error still names the
    # leaf and prints no pivot (the Python replay used to report "pivot nan")
    def fails(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    h = hodlr_eye(build_partition(32, 8))
    monkeypatch.setattr(np.linalg, "cholesky", fails)
    with pytest.raises(CholeskyBreakdownError) as exc:
        cholesky(h, TruncationControl(1e-14))
    assert exc.value.leaf_index == 0
    assert exc.value.pivot is None
    assert "leaf 0" in str(exc.value) and "nan" not in str(exc.value)


def test_cholesky_breakdown_reports_the_failing_schur_pivot():
    # the second pivot of [[1, 2], [2, 1]] is 1 - 2 * 2 = -3
    m = np.eye(32)
    m[8:10, 8:10] = [[1.0, 2.0], [2.0, 1.0]]  # leaf 1 holds indices 8..15
    h = from_dense(m, build_partition(32, 8), TruncationControl(0.0))
    with pytest.raises(CholeskyBreakdownError) as exc:
        cholesky(h, TruncationControl(1e-14))
    assert exc.value.leaf_index == 1
    assert exc.value.pivot == pytest.approx(-3.0)


@pytest.mark.parametrize("trans", [False, True])
@pytest.mark.parametrize("rows", [599, 601])
def test_solve_upper_dense_rejects_wrong_row_count(trans, rows):
    # a 601-row b failed inside scipy: "shapes of a (150, 150) and b (151,)"
    r = hodlr_eye(build_partition(600, 150))
    with pytest.raises(ValueError, match="dimension mismatch: 600 vs"):
        solve_upper_dense(r, np.ones(rows), trans=trans)


def _nan_lower_blocks(h):
    # h with every a21 replaced by a rank-2 block of NaNs
    if h.is_leaf:
        return h
    nan = LowRankBlock(np.full((h.a21.n_rows, 2), np.nan), np.full((2, h.a21.n_cols), np.nan))
    return HodlrMatrix(a11=_nan_lower_blocks(h.a11), a22=_nan_lower_blocks(h.a22),
                       a12=h.a12, a21=nan)


def _assert_same_bits(h1, h2, lower=True):
    # leaves, a12 and, with ``lower``, a21 blocks bitwise equal
    if h1.is_leaf:
        assert np.array_equal(h1.dense, h2.dense)
        return
    for b1, b2 in ((h1.a12, h2.a12), (h1.a21, h2.a21))[:2 if lower else 1]:
        assert np.array_equal(b1.L, b2.L) and np.array_equal(b1.R, b2.R)
    _assert_same_bits(h1.a11, h2.a11, lower)
    _assert_same_bits(h1.a22, h2.a22, lower)


def test_cholesky_reads_nothing_below_the_diagonal():
    h, dense, _ = spd_hodlr_pair(128, 16, seed=48)
    tc = TruncationControl(1e-12 * np.linalg.norm(dense, 2))
    _assert_same_bits(cholesky(_nan_lower_blocks(h), tc), cholesky(h, tc))


@pytest.mark.parametrize("n_min", [50, 25, 12])
def test_gram_mirrors_the_upper_blocks_of_multiply(monkeypatch, n_min):
    # one truncation per a12; each a21 is a view of its a12, not a product
    a, _, tree = random_hodlr_pair(200, n_min, rank=2, seed=49)
    tc = TruncationControl(1e-10)
    full = multiply(transpose(a), a, tc)
    calls = count_calls(monkeypatch, core, "truncate_lowrank")
    g = arith.gram(a, tc)
    assert len(calls) == 2 ** tree.level - 1
    _assert_same_bits(g, full, lower=False)

    def assert_mirrored(node):
        if node.is_leaf:
            return
        assert np.shares_memory(node.a21.L, node.a12.R)
        assert np.array_equal(node.a21.to_dense(), node.a12.to_dense().T)
        assert_mirrored(node.a11)
        assert_mirrored(node.a22)

    assert_mirrored(g)


@pytest.mark.parametrize("where", ["leaf", "factor", "b"])
@pytest.mark.parametrize("trans", [False, True])
def test_solvers_reject_non_finite_input_before_any_solve(monkeypatch, where, trans):
    # the leaf solves skip scipy's own finiteness scan; the public solvers
    # check once, up front, with the library's ValueError
    tree = build_partition(96, 12)
    r = random_hodlr(np.random.default_rng(50), tree, ranks=(2,), zero_blocks=False, upper=True)
    b = np.ones((96, 3))
    if where == "leaf":
        r.a22.a22.a11.dense[1, 2] = np.nan
    elif where == "factor":
        r.a11.a12.R[1, 0] = np.inf
    else:
        b[40, 1] = np.nan
    monkeypatch.setattr(arith, "scipy", NoScipy("a solve"))
    with pytest.raises(ValueError, match="solve_upper_dense input has non-finite"):
        solve_upper_dense(r, b, trans=trans)
    if where != "b":
        with pytest.raises(ValueError, match="triangular_right input has non-finite"):
            solve_upper_triangular_right(hodlr_eye(tree), r, TruncationControl(0.0))
