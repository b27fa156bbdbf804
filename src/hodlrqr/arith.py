"""HODLR arithmetic: matrix-vector products, matrix-matrix multiplication,
Cholesky factorization and triangular solves, each combined with
recompression to limit rank growth."""

import numpy as np
import scipy.linalg

from .core import (
    HodlrMatrix,
    LowRankBlock,
    TruncationControl,
    check_finite,
    sum_lowrank,
    truncate_lowrank,
    _join,
    _leaf_panel,
    _quadrants,
)
from .dense import spectral_norm_estimate


class CholeskyBreakdownError(np.linalg.LinAlgError):
    """Raised when a dense leaf factorization meets a nonpositive pivot,
    i.e. the matrix is not numerically positive definite.  ``pivot`` is the
    one LAPACK's dpotrf stopped at, or None when that retry succeeded."""

    def __init__(self, leaf_index: int, pivot: float | None):
        self.leaf_index = leaf_index
        self.pivot = pivot
        what = "no pivot failed on retry" if pivot is None else f"pivot {pivot:.6e} is not positive"
        super().__init__(f"Cholesky breakdown in leaf {leaf_index}: {what}")


def _check_same_tree(h1: HodlrMatrix, h2: HodlrMatrix, op: str) -> None:
    if not h1.same_structure(h2):
        raise ValueError(f"{op} requires operands with the same partition tree")


def apply_dense(h: HodlrMatrix, x: np.ndarray, trans: bool = False) -> np.ndarray:
    """H @ x, or H.T @ x with ``trans``, for a dense matrix x, evaluated by
    recursive descent without forming the transpose.

    H may be rectangular: rows split by ``n`` and columns by ``n_cols``.
    Off-diagonal contributions go through the low-rank factors, so the
    cost is O(k n log n) per column and nothing is truncated.  Every node
    writes into its row slice of one output array: the leaves through
    ``np.matmul(..., out=)`` and the off-diagonal products by ``+=``.  An
    x without columns returns its empty output at once.
    """
    x = np.asarray(x, dtype=float)
    n_in, n_out = (h.n, h.n_cols) if trans else (h.n_cols, h.n)
    if x.shape[0] != n_in:
        raise ValueError(f"dimension mismatch: {n_in} vs {x.shape[0]}")
    out = np.empty((n_out,) + x.shape[1:])
    if out.size:
        _apply_into(h, x, trans, out)
    return out


def _apply_into(h: HodlrMatrix, x: np.ndarray, trans: bool, out: np.ndarray) -> None:
    if h.is_leaf:
        np.matmul(h.dense.T if trans else h.dense, x, out=out)
        return
    if trans:  # H.T has A21.T above the diagonal and A12.T below it
        m1, n1 = h.a11.n_cols, h.a11.n
        up_l, up_r, low_l, low_r = h.a21.R.T, h.a21.L.T, h.a12.R.T, h.a12.L.T
    else:
        m1, n1 = h.a11.n, h.a11.n_cols
        up_l, up_r, low_l, low_r = h.a12.L, h.a12.R, h.a21.L, h.a21.R
    x1, x2 = x[:n1], x[n1:]
    _apply_into(h.a11, x1, trans, out[:m1])
    out[:m1] += up_l @ (up_r @ x2)
    _apply_into(h.a22, x2, trans, out[m1:])
    out[m1:] += low_l @ (low_r @ x1)


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


def _lowrank_times_hodlr(b: LowRankBlock, h: HodlrMatrix) -> LowRankBlock:
    # (L R) @ H = L (R H), with R H done as k transposed matvecs
    return LowRankBlock(b.L, apply_dense(h, b.R.T, trans=True).T)


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

    Products with a low-rank operand go through matvecs on the factor
    columns.  The products A12 B21 and A21 B12 that join the diagonal
    blocks travel down as one pending block P, which each off-diagonal
    block adds to its one truncated sum and each leaf densely: one
    truncation at tc per off-diagonal block, 2 (2^level - 1) in all.  For
    a relative error contract choose tc.eps ~ ||H1||_2 ||H2||_2.
    """
    _check_same_tree(h1, h2, "multiply")
    return _multiply_rec(h1, h2, LowRankBlock.zero(h1.n, h1.n), tc)


def gram(a: HodlrMatrix, tc: TruncationControl) -> HodlrMatrix:
    """A^T A with the leaves and a12 blocks of ``multiply(transpose(a), a, tc)``;
    each a21 is a transpose view of its a12, so the blocks below the diagonal
    cost no products and no truncation: 2^level - 1 truncations in all."""
    return _multiply_rec(transpose(a), a, LowRankBlock.zero(a.n, a.n), tc, True)


def _multiply_rec(h1, h2, p, tc, symmetric=False) -> HodlrMatrix:
    # H1 @ H2 + P; with ``symmetric`` each a21 mirrors its a12
    if h1.is_leaf:
        leaf = h1.dense @ h2.dense
        leaf += p.L @ p.R
        return HodlrMatrix(dense=leaf)
    p11, p12, p21, p22 = _quadrants(p, h1.a11.n, h1.a11.n)
    lr11 = _lowrank_product(h1.a12, h2.a21)
    lr22 = _lowrank_product(h1.a21, h2.a12)
    a12 = sum_lowrank([_hodlr_times_lowrank(h1.a11, h2.a12),
                       _lowrank_times_hodlr(h1.a12, h2.a22), p12], tc)
    return HodlrMatrix(
        a11=_multiply_rec(h1.a11, h2.a11, _join(p11, lr11), tc, symmetric),
        a22=_multiply_rec(h1.a22, h2.a22, _join(p22, lr22), tc, symmetric),
        a12=a12,
        a21=a12.transpose() if symmetric else sum_lowrank(
            [_lowrank_times_hodlr(h1.a21, h2.a11), _hodlr_times_lowrank(h1.a22, h2.a21),
             p21], tc),
    )


def _leaf_cholesky(a: np.ndarray, leaf_index: int) -> np.ndarray:
    try:
        return np.linalg.cholesky(a).T
    except np.linalg.LinAlgError:
        # dpotrf leaves the failing pivot on the diagonal at index info - 1
        c, info = scipy.linalg.lapack.dpotrf(a, lower=1, clean=0)
        pivot = float(c[info - 1, info - 1]) if info > 0 else None
        raise CholeskyBreakdownError(leaf_index, pivot) from None


def cholesky(h: HodlrMatrix, tc: TruncationControl) -> HodlrMatrix:
    """Upper triangular HODLR factor R with H ~= R.T @ R for symmetric H.

    Recursive block Cholesky: factor the leading block, obtain the
    coupling block by a triangular solve on the low-rank factor columns,
    update the Schur complement and recurse.  Only the diagonal leaves and
    the blocks above the diagonal are read; the a21 blocks of H are
    ignored.  Raises CholeskyBreakdownError when a leaf pivot fails,
    reporting the leaf index and pivot value.
    """
    return _cholesky_rec(h, tc, 0)


def _cholesky_rec(h: HodlrMatrix, tc: TruncationControl, leaf_offset: int) -> HodlrMatrix:
    if h.is_leaf:
        return HodlrMatrix(dense=_leaf_cholesky(h.dense, leaf_offset))
    r11 = _cholesky_rec(h.a11, tc, leaf_offset)
    # W = R11^{-T} @ A12, acting on the k columns of the left factor
    lw = _solve_upper_rec(r11, h.a12.L, True)
    w = truncate_lowrank(LowRankBlock(lw, h.a12.R), tc)
    # Schur complement A22 - W^T W
    schur = _symmetric_update(h.a22, LowRankBlock(-(w.R.T @ (w.L.T @ w.L)), w.R), tc)
    r22 = _cholesky_rec(schur, tc, leaf_offset + len(h.a11.leaf_sizes()))
    return HodlrMatrix(
        a11=r11, a22=r22, a12=w,
        a21=LowRankBlock.zero(h.a22.n, h.a11.n),
    )


def _symmetric_update(h, p, tc) -> HodlrMatrix:
    # H + P: dense on the leaves, one truncated sum per a12; each a21 mirrors its a12
    if p.rank == 0:
        return h
    if h.is_leaf:
        return HodlrMatrix(dense=_leaf_panel(h.dense, p, np.empty((0, h.n))))
    p11, p12, _, p22 = _quadrants(p, h.a11.n, h.a11.n)
    a12 = sum_lowrank([h.a12, p12], tc)
    return HodlrMatrix(a11=_symmetric_update(h.a11, p11, tc),
                       a22=_symmetric_update(h.a22, p22, tc),
                       a12=a12, a21=a12.transpose())


def _leaf_solve_upper(r: np.ndarray, b: np.ndarray, trans: bool) -> np.ndarray:
    if np.any(np.diag(r) == 0.0):
        raise np.linalg.LinAlgError("singular leaf in triangular solve")
    return scipy.linalg.solve_triangular(r, b, trans="T" if trans else "N", check_finite=False)


def solve_upper_dense(r: HodlrMatrix, b: np.ndarray, trans: bool = False) -> np.ndarray:
    """Solve R x = b, or R.T x = b with ``trans``, for upper triangular
    HODLR R and dense b, by back (forward) substitution on the blocks.
    An inf or nan entry in R or b raises ValueError before any solve."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != r.n:
        raise ValueError(f"dimension mismatch: {r.n} vs {b.shape[0]}")
    check_finite("solve_upper_dense", r, b)
    return _solve_upper_rec(r, b, trans)


def _solve_upper_rec(r: HodlrMatrix, b: np.ndarray, trans: bool) -> np.ndarray:
    if r.is_leaf:
        return _leaf_solve_upper(r.dense, b, trans)
    m1 = r.a11.n
    if trans:
        x1 = _solve_upper_rec(r.a11, b[:m1], True)
        x2 = _solve_upper_rec(r.a22, b[m1:] - r.a12.R.T @ (r.a12.L.T @ x1), True)
    else:
        x2 = _solve_upper_rec(r.a22, b[m1:], False)
        x1 = _solve_upper_rec(r.a11, b[:m1] - r.a12.L @ (r.a12.R @ x2), False)
    return np.concatenate([x1, x2], axis=0)


def solve_upper_triangular_right(b: HodlrMatrix, r: HodlrMatrix,
                                 tc: TruncationControl) -> HodlrMatrix:
    """X = B @ R^{-1} for upper triangular HODLR R, by recursive forward
    substitution on the block structure with recompression.

    The update -X21 R12 of B22 travels down as a pending block P, added
    to B12 in its one truncated sum, to B21 by a truncation (none down the
    left edge, where it is empty) and to the leaves densely: at most
    2 (2^level - 1) - level truncations.  The right factors of X21 and X12
    ride down as dense rows, so each leaf of R takes one triangular solve.
    An inf or nan entry in B or R raises ValueError before any solve.
    """
    _check_same_tree(b, r, "solve_upper_triangular_right")
    check_finite("solve_upper_triangular_right", b, r)
    return _solve_right_rec(b, r, LowRankBlock.zero(b.n, b.n), np.zeros((0, b.n)), tc)[0]


def _solve_right_rec(b, r, p, rows, tc) -> tuple[HodlrMatrix, np.ndarray]:
    # (B + P) @ R^{-1} and rows @ R^{-1}
    if b.is_leaf:
        # all rows in one solve: X R = Z  <=>  R^T X^T = Z^T
        x = _leaf_solve_upper(r.dense, _leaf_panel(b.dense, p, rows).T, trans=True).T
        return HodlrMatrix(dense=x[:b.n]), x[b.n:]
    m1, s, r12 = b.a11.n, rows.shape[0], r.a12
    p11, p12, p21, p22 = _quadrants(p, m1, m1)
    # the left edge keeps B21 as it is: CholQR's bits, so its breakdowns, depend on it
    b21 = sum_lowrank([b.a21, p21], tc) if p.rank else b.a21
    # X11 R11 = B11 + P11, and X21 R11 = B21 through the rows
    x11, y1 = _solve_right_rec(b.a11, r.a11, p11, np.vstack([rows[:, :m1], b21.R]), tc)
    x21 = LowRankBlock(b21.L, y1[s:])
    # X12 R22 = B12 + P12 - X11 R12, and X22 R22 = B22 + P22 - X21 R12
    num12 = sum_lowrank([b.a12, _hodlr_times_lowrank(x11, r12).scaled(-1.0), p12], tc)
    cross = _lowrank_product(x21, r12).scaled(-1.0)
    rows2 = np.vstack([rows[:, m1:] - (y1[:s] @ r12.L) @ r12.R, num12.R])
    x22, y2 = _solve_right_rec(b.a22, r.a22, _join(p22, cross), rows2, tc)
    x = HodlrMatrix(a11=x11, a22=x22, a12=LowRankBlock(num12.L, y2[s:]), a21=x21)
    return x, np.hstack([y1[:s], y2[:s]])


def hodlr_spectral_norm(h: HodlrMatrix) -> float:
    """Block power-iteration estimate of ||H||_2 through HODLR block products."""
    return spectral_norm_estimate(
        lambda x: apply_dense(h, x), lambda x: apply_dense(h, x, trans=True), h.n_cols)
