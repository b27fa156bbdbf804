"""HODLR arithmetic: matrix-vector products, addition, low-rank updates,
matrix-matrix multiplication, Cholesky factorization and triangular solves,
each combined with recompression to limit rank growth."""

import numpy as np
import scipy.linalg

from .core import (
    GENERAL,
    UPPER_TRIANGULAR,
    HodlrMatrix,
    LowRankBlock,
    TruncationControl,
    truncate_lowrank,
)
from .dense import spectral_norm_estimate


class CholeskyBreakdownError(np.linalg.LinAlgError):
    """Raised when a dense leaf factorization meets a nonpositive pivot,
    i.e. the matrix is not numerically positive definite."""

    def __init__(self, leaf_index: int, pivot: float):
        self.leaf_index = leaf_index
        self.pivot = pivot
        super().__init__(
            f"Cholesky breakdown in leaf {leaf_index}: pivot {pivot:.6e} is not positive")


def _check_same_tree(h1: HodlrMatrix, h2: HodlrMatrix, op: str) -> None:
    if not h1.same_structure(h2):
        raise ValueError(f"{op} requires operands with the same partition tree")


def apply_dense(h: HodlrMatrix, x: np.ndarray) -> np.ndarray:
    """H @ x for a dense matrix x, evaluated by recursive descent.

    Off-diagonal contributions go through the low-rank factors, so the
    cost is O(k n log n) per column and nothing is truncated.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] != h.n:
        raise ValueError(f"dimension mismatch: {h.n} vs {x.shape[0]}")
    if h.is_leaf:
        return h.dense @ x
    m1 = h.a11.n
    x1, x2 = x[:m1], x[m1:]
    top = apply_dense(h.a11, x1) + h.a12.L @ (h.a12.R @ x2)
    bot = h.a21.L @ (h.a21.R @ x1) + apply_dense(h.a22, x2)
    return np.concatenate([top, bot], axis=0)


def apply_transpose_dense(h: HodlrMatrix, x: np.ndarray) -> np.ndarray:
    """H.T @ x without forming the transpose."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != h.n:
        raise ValueError(f"dimension mismatch: {h.n} vs {x.shape[0]}")
    if h.is_leaf:
        return h.dense.T @ x
    m1 = h.a11.n
    x1, x2 = x[:m1], x[m1:]
    top = apply_transpose_dense(h.a11, x1) + h.a21.R.T @ (h.a21.L.T @ x2)
    bot = h.a12.R.T @ (h.a12.L.T @ x1) + apply_transpose_dense(h.a22, x2)
    return np.concatenate([top, bot], axis=0)


def matvec(h: HodlrMatrix, v: np.ndarray) -> np.ndarray:
    """Exact matrix-vector product H @ v."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("matvec expects a vector; use apply_dense for matrices")
    return apply_dense(h, v[:, None])[:, 0]


def transpose(h: HodlrMatrix) -> HodlrMatrix:
    """Structural transpose; factors are swapped without copying data."""
    if h.is_leaf:
        return HodlrMatrix(dense=h.dense.T)
    return HodlrMatrix(
        a11=transpose(h.a11),
        a22=transpose(h.a22),
        a12=h.a21.transpose(),
        a21=h.a12.transpose(),
    )


def scale(h: HodlrMatrix, alpha: float) -> HodlrMatrix:
    tag = h.shape_tag if h.shape_tag == UPPER_TRIANGULAR else GENERAL
    if h.is_leaf:
        return HodlrMatrix(dense=alpha * h.dense, shape_tag=tag)
    return HodlrMatrix(
        a11=scale(h.a11, alpha),
        a22=scale(h.a22, alpha),
        a12=h.a12.scaled(alpha),
        a21=h.a21.scaled(alpha),
        shape_tag=tag,
    )


def _merge_tags(t1: str, t2: str) -> str:
    return UPPER_TRIANGULAR if t1 == t2 == UPPER_TRIANGULAR else GENERAL


def _add_blocks(b1: LowRankBlock, b2: LowRankBlock, tc: TruncationControl) -> LowRankBlock:
    if b1.rank == 0 and b2.rank == 0:
        return b1
    joined = LowRankBlock(np.hstack([b1.L, b2.L]), np.vstack([b1.R, b2.R]))
    return truncate_lowrank(joined, tc)


def add(h1: HodlrMatrix, h2: HodlrMatrix, tc: TruncationControl) -> HodlrMatrix:
    """H1 + H2 with recompression of the concatenated off-diagonal factors."""
    _check_same_tree(h1, h2, "add")
    if h1.is_leaf:
        return HodlrMatrix(dense=h1.dense + h2.dense,
                           shape_tag=_merge_tags(h1.shape_tag, h2.shape_tag))
    return HodlrMatrix(
        a11=add(h1.a11, h2.a11, tc),
        a22=add(h1.a22, h2.a22, tc),
        a12=_add_blocks(h1.a12, h2.a12, tc),
        a21=_add_blocks(h1.a21, h2.a21, tc),
        shape_tag=_merge_tags(h1.shape_tag, h2.shape_tag),
    )


def low_rank_update(h: HodlrMatrix, u: np.ndarray, v: np.ndarray,
                    tc: TruncationControl) -> HodlrMatrix:
    """H + u @ v.T with the update split across the tree and recompressed."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if u.shape[0] != h.n or v.shape[0] != h.n or u.shape[1] != v.shape[1]:
        raise ValueError("update factors must be n x p")
    if u.shape[1] == 0:
        return h
    if h.is_leaf:
        return HodlrMatrix(dense=h.dense + u @ v.T)
    m1 = h.a11.n
    u1, u2 = u[:m1], u[m1:]
    v1, v2 = v[:m1], v[m1:]
    return HodlrMatrix(
        a11=low_rank_update(h.a11, u1, v1, tc),
        a22=low_rank_update(h.a22, u2, v2, tc),
        a12=_add_blocks(h.a12, LowRankBlock(u1, v2.T), tc),
        a21=_add_blocks(h.a21, LowRankBlock(u2, v1.T), tc),
    )


def _lowrank_times_hodlr(b: LowRankBlock, h: HodlrMatrix) -> LowRankBlock:
    # (L R) @ H = L (R H), with R H done as k transposed matvecs
    return LowRankBlock(b.L, apply_transpose_dense(h, b.R.T).T)


def _hodlr_times_lowrank(h: HodlrMatrix, b: LowRankBlock) -> LowRankBlock:
    # H @ (L R) = (H L) R, k matvecs
    return LowRankBlock(apply_dense(h, b.L), b.R)


def _lowrank_product(b1: LowRankBlock, b2: LowRankBlock) -> LowRankBlock:
    # (L1 R1)(L2 R2) keeps the smaller of the two ranks
    if b1.rank <= b2.rank:
        return LowRankBlock(b1.L, (b1.R @ b2.L) @ b2.R)
    return LowRankBlock(b1.L @ (b1.R @ b2.L), b2.R)


def multiply(h1: HodlrMatrix, h2: HodlrMatrix, tc: TruncationControl) -> HodlrMatrix:
    """H1 @ H2 by recursive 2x2 block multiplication.

    Products with a low-rank operand are realized through matrix-vector
    multiplications on the factor columns; every pairwise addition inside
    the recursion is followed by recompression at tc.  Each of the
    O(level) truncations contributes up to tc.eps, so for a relative
    error contract choose tc.eps proportional to ||H1||_2 ||H2||_2.
    """
    _check_same_tree(h1, h2, "multiply")
    if h1.is_leaf:
        return HodlrMatrix(dense=h1.dense @ h2.dense,
                           shape_tag=_merge_tags(h1.shape_tag, h2.shape_tag))
    # diagonal blocks: HODLR product plus a low-rank product folded in
    lr11 = _lowrank_product(h1.a12, h2.a21)
    c11 = low_rank_update(multiply(h1.a11, h2.a11, tc), lr11.L, lr11.R.T, tc)
    lr22 = _lowrank_product(h1.a21, h2.a12)
    c22 = low_rank_update(multiply(h1.a22, h2.a22, tc), lr22.L, lr22.R.T, tc)
    # off-diagonal blocks: sum of two low-rank matrices
    c12 = _add_blocks(_hodlr_times_lowrank(h1.a11, h2.a12),
                      _lowrank_times_hodlr(h1.a12, h2.a22), tc)
    c21 = _add_blocks(_lowrank_times_hodlr(h1.a21, h2.a11),
                      _hodlr_times_lowrank(h1.a22, h2.a21), tc)
    return HodlrMatrix(a11=c11, a22=c22, a12=c12, a21=c21,
                       shape_tag=_merge_tags(h1.shape_tag, h2.shape_tag))


def _leaf_cholesky(a: np.ndarray, leaf_index: int) -> np.ndarray:
    try:
        return np.linalg.cholesky(a).T
    except np.linalg.LinAlgError:
        # locate the offending pivot for the diagnostic
        c = np.array(a, dtype=float)
        n = c.shape[0]
        for j in range(n):
            pivot = c[j, j]
            if not pivot > 0:
                raise CholeskyBreakdownError(leaf_index, float(pivot)) from None
            r = np.sqrt(pivot)
            c[j, j + 1:] /= r
            c[j + 1:, j + 1:] -= np.outer(c[j, j + 1:], c[j, j + 1:])
        raise CholeskyBreakdownError(leaf_index, float("nan")) from None


def cholesky(h: HodlrMatrix, tc: TruncationControl) -> HodlrMatrix:
    """Upper triangular HODLR factor R with H ~= R.T @ R.

    Recursive block Cholesky: factor the leading block, obtain the
    coupling block by a triangular solve on the low-rank factor columns,
    update the Schur complement and recurse.  Raises
    CholeskyBreakdownError when a leaf pivot fails, reporting the leaf
    index and pivot value.
    """
    return _cholesky_rec(h, tc, 0)


def _cholesky_rec(h: HodlrMatrix, tc: TruncationControl, leaf_offset: int) -> HodlrMatrix:
    if h.is_leaf:
        return HodlrMatrix(dense=_leaf_cholesky(h.dense, leaf_offset),
                           shape_tag=UPPER_TRIANGULAR)
    r11 = _cholesky_rec(h.a11, tc, leaf_offset)
    # W = R11^{-T} @ A12, acting on the k columns of the left factor
    lw = solve_upper_transpose_dense(r11, h.a12.L)
    w = truncate_lowrank(LowRankBlock(lw, h.a12.R), tc)
    # Schur complement A22 - W^T W
    u = w.R.T @ (w.L.T @ w.L)
    schur = low_rank_update(h.a22, -u, w.R.T, tc)
    r22 = _cholesky_rec(schur, tc, leaf_offset + len(h.a11.leaf_sizes()))
    return HodlrMatrix(
        a11=r11, a22=r22, a12=w,
        a21=LowRankBlock.zero(h.a22.n, h.a11.n),
        shape_tag=UPPER_TRIANGULAR,
    )


def _leaf_solve_upper(r: np.ndarray, b: np.ndarray, trans: bool) -> np.ndarray:
    if np.any(np.diag(r) == 0.0):
        raise np.linalg.LinAlgError("singular leaf in triangular solve")
    return scipy.linalg.solve_triangular(r, b, lower=False, trans="T" if trans else "N")


def solve_upper_dense(r: HodlrMatrix, b: np.ndarray) -> np.ndarray:
    """Solve R x = b for upper triangular HODLR R and dense b."""
    b = np.asarray(b, dtype=float)
    if r.is_leaf:
        return _leaf_solve_upper(r.dense, b, trans=False)
    m1 = r.a11.n
    x2 = solve_upper_dense(r.a22, b[m1:])
    rhs1 = b[:m1] - r.a12.L @ (r.a12.R @ x2)
    x1 = solve_upper_dense(r.a11, rhs1)
    return np.concatenate([x1, x2], axis=0)


def solve_upper_transpose_dense(r: HodlrMatrix, b: np.ndarray) -> np.ndarray:
    """Solve R.T x = b (forward substitution on the block structure)."""
    b = np.asarray(b, dtype=float)
    if r.is_leaf:
        return _leaf_solve_upper(r.dense, b, trans=True)
    m1 = r.a11.n
    x1 = solve_upper_transpose_dense(r.a11, b[:m1])
    rhs2 = b[m1:] - r.a12.R.T @ (r.a12.L.T @ x1)
    x2 = solve_upper_transpose_dense(r.a22, rhs2)
    return np.concatenate([x1, x2], axis=0)


def solve_upper_triangular_right(b: HodlrMatrix, r: HodlrMatrix,
                                 tc: TruncationControl) -> HodlrMatrix:
    """X = B @ R^{-1} for upper triangular HODLR R, by recursive forward
    substitution on the block structure with recompression."""
    _check_same_tree(b, r, "solve_upper_triangular_right")
    if b.is_leaf:
        # X R = B  <=>  R^T X^T = B^T
        return HodlrMatrix(dense=_leaf_solve_upper(r.dense, b.dense.T, trans=True).T)
    x11 = solve_upper_triangular_right(b.a11, r.a11, tc)
    x21 = LowRankBlock(b.a21.L,
                       solve_upper_transpose_dense(r.a11, b.a21.R.T).T)
    # X12 R22 = B12 - X11 R12
    x11_r12 = _hodlr_times_lowrank(x11, r.a12)
    num12 = _add_blocks(b.a12, x11_r12.scaled(-1.0), tc)
    x12 = LowRankBlock(num12.L,
                       solve_upper_transpose_dense(r.a22, num12.R.T).T)
    # X22 R22 = B22 - X21 R12
    cross = _lowrank_product(x21, r.a12)
    b22 = low_rank_update(b.a22, -cross.L, cross.R.T, tc)
    x22 = solve_upper_triangular_right(b22, r.a22, tc)
    return HodlrMatrix(a11=x11, a22=x22, a12=x12, a21=x21)


def hodlr_spectral_norm(h: HodlrMatrix, max_iter: int = 50, tol: float = 1e-3) -> float:
    """Block power-iteration estimate of ||H||_2 through HODLR block products."""
    return spectral_norm_estimate(
        lambda x: apply_dense(h, x), lambda x: apply_transpose_dense(h, x),
        h.n, max_iter=max_iter, tol=tol, blocks=True)
