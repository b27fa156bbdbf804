"""Recursive Householder-based QR decomposition of HODLR matrices.

The recursion unit is a structured block column [A; B; C]: a HODLR matrix
on top, a factorized low-rank block below it and dense coupling rows at
the bottom.  The orthogonal factor is returned in compact WY form
Q = I - Y T Y^T with Y unit lower triangular and T, R upper triangular
HODLR matrices.  The update of each trailing block A22 is not applied to
its subtree: it travels down the recursion as one truncated pending
low-rank block, so no A22 subtree is copied.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    HodlrMatrix,
    LowRankBlock,
    TruncationControl,
    check_finite,
    left_orthogonalize,
    _leaf_panel,
    _nodes,
    _quadrants,
    _sum_lowrank,
    _truncate_shared,
)
from .arith import (
    apply_dense,
    hodlr_spectral_norm,
    multiply,
    scale,
    transpose,
)
from .dense import check_tolerance
from .wy import block_qr


# T's coupling sums are truncated at TAU_T = 100 u in both modes: T's scale is 1
# whatever eps, a threshold near u keeps their rounding as rank, and Q takes up
# to 2 level TAU_T of T's truncation.  Checked for n = 1000-16000 only (README).
TAU_T = 100 * 2.0 ** -53


@dataclass
class HodlrQRFactors:
    """A ~= (I - Y T Y^T) P^T [R; 0] for an m x n HODLR matrix A.

    Y is m x n over A's row and column trees, T and R are n x n upper
    triangular over its column tree, and P moves the rows
    ``triangle_rows(y)`` (the first n_j rows of every leaf j) to the top.
    With square leaves P = I and A ~= (I - Y T Y^T) R.  Y, T and R are the
    whole factorization: q_to_hodlr materializes Q at T's threshold TAU_T.
    """

    y: HodlrMatrix
    t: HodlrMatrix
    r: HodlrMatrix


def hqr(a: HodlrMatrix, eps: float, absolute: bool = False) -> HodlrQRFactors:
    """QR decomposition of a HODLR matrix whose leaves are no wider than
    tall (m_j >= n_j), square or rectangular.

    ``eps`` sets the truncation of the sums that feed Y and R, by default
    at eps * ||A||_2, ||A||_2 estimated once by power iteration stopped at
    the first round that does not raise it (a lower bound, so its error
    only makes the truncation more conservative); with ``absolute`` at eps,
    and no norm is estimated.  T's coupling blocks, whose scale is 1, are
    truncated at ``TAU_T`` in both modes, so Q is orthogonal to roundoff
    at any eps.  A leaf wider than tall, an inf or nan entry, or an eps
    that is not finite and >= 0 raises ValueError before any work.
    """
    check_tolerance(eps)
    _check_leaves(a)
    check_finite("hqr", a)
    tc = TruncationControl(eps if absolute else eps * hodlr_spectral_norm(a))
    y, _, _, t, r = _hqr_rec(a, LowRankBlock.zero(0, a.n_cols), np.zeros((0, a.n_cols)),
                             LowRankBlock.zero(a.n, a.n_cols), tc)
    return HodlrQRFactors(y=y, t=t, r=r)


def _check_leaves(h: HodlrMatrix) -> None:
    for _, _, x in _nodes(h):
        if x.is_leaf and x.n < x.n_cols:
            raise ValueError(f"leaf {x.n} x {x.n_cols} is wider than tall")


def triangle_rows(h: HodlrMatrix) -> np.ndarray:
    """Row indices of h that hold R after hqr: the first n_j rows of
    every leaf j, in leaf order."""
    return np.concatenate([i + np.arange(x.n_cols) for i, _, x in _nodes(h) if x.is_leaf])


def _hqr_rec(a: HodlrMatrix, b: LowRankBlock, c: np.ndarray, p: LowRankBlock,
             tc: TruncationControl
             ) -> tuple[HodlrMatrix, LowRankBlock, np.ndarray, HodlrMatrix, HodlrMatrix]:
    """One recursion step on the structured block column [A + P; B; C]:
    an m x n HODLR block A with leaves m_j x n_j, m_j >= n_j, an m x n
    pending low-rank block P, an s x n low-rank block B with orthonormal L
    and r2 x n dense coupling rows C; B, C and P may be empty.  The frame
    that makes B orthogonalizes it: a QR of A21's L where P is zero, and of
    the rows off A11's triangles; the truncated sum A21 + P21 is orthonormal.

    Returns (Y_A, Y_B, Y_C, T, R): the three parts of Y mirror the column,
    and T, R are n x n upper triangular HODLR matrices over A's column
    tree.  With rectangular leaves the triangle of leaf j sits on its first
    n_j rows (see ``triangle_rows``): R holds those rows of the reduced
    column and every other row of A is reduced to zero.

    The update -Y21 S of A22 travels down as one pending block P, truncated
    at tc except above a leaf: the leaves add it densely before their
    QR, each A21 joins its quadrant in the truncated sum that becomes the
    child's B, and each A12 takes its quadrant's factors as extra columns.
    No A22 subtree is copied.  A frame keeps alive only what later steps
    read: no block of Y, T or R, nor its Y_C, views a larger array or A;
    its C, rows [B_R; C] and A21 join go before the second child, that
    child's P after.  A leaf's panel [A + P; B_R; C] is one array that
    block_qr frees, and Y_A is geqrf's buffer when no rows lie below A.
    """
    m = a.n
    k_b = b.rank
    # compressed rows below A: [B_R; C]
    rows = np.vstack([b.R, c])

    if a.is_leaf:
        # compressed column [A + P; B_R; C] reduced by dense Householder QR; unnamed, block_qr frees it
        y, t, r = block_qr(_leaf_panel(a.dense, p, rows))
        return (HodlrMatrix(dense=y[:m].copy() if len(rows) else y),
                LowRankBlock(b.L, y[m:m + k_b].copy()),
                y[m + k_b:].copy(), HodlrMatrix(dense=t), HodlrMatrix(dense=r))

    a11, a22 = a.a11, a.a22
    m1, n1 = a11.n, a11.n_cols
    p11, _, p21, _ = _quadrants(p, m1, n1)
    # first block column [A11 + P11; A21 + P21; rows1]: the same structure one level down
    a21 = _sum_lowrank([a.a21, p21], tc) if p.rank else left_orthogonalize(a.a21)
    y11, y21, y1_c, t1, r11 = _hqr_rec(a11, a21, rows[:, :n1], p11, tc)
    a12_upd, pending, rows2 = _update_second_column(a, p, rows, y11, y21, y1_c, t1, tc)
    # rows of A11 off its leaves' triangles were reduced to zero in the first
    # block column but not in the second: they join it as its b
    b2 = LowRankBlock.zero(0, a22.n_cols)
    if m1 > n1:
        tri = triangle_rows(a11)
        rest = np.setdiff1d(np.arange(m1), tri)
        b2 = left_orthogonalize(LowRankBlock(a12_upd.L[rest], a12_upd.R))
        a12_upd = LowRankBlock(a12_upd.L[tri], a12_upd.R)
    del c, rows, a21  # not read below: they would stay alive through the second child
    y22, y2_b, y2_c, t2, r22 = _hqr_rec(a22, b2, rows2, pending, tc)
    del pending

    # coupling block of T, truncated at TAU_T; its R in C order, the layout
    # read_hodlr returns, so factors read back form Q bit for bit
    y12 = LowRankBlock.zero(m1, a22.n_cols)
    terms = [LowRankBlock(y21.R.T, apply_dense(y22, y21.L, trans=True).T),
             LowRankBlock(y1_c.T, y2_c)]
    if m1 > n1:  # Y12 is the second column's Y_B, placed on the rows of b2
        y12_l = np.zeros((m1, y2_b.rank))
        y12_l[rest] = y2_b.L
        y12 = LowRankBlock(y12_l, y2_b.R)
        terms.append(LowRankBlock(apply_dense(y11, y12_l, trans=True), y12.R))
    t_tilde12 = _sum_lowrank(terms, TruncationControl(TAU_T))
    t12 = LowRankBlock(-apply_dense(t1, t_tilde12.L),
                       apply_dense(t2, t_tilde12.R.T, trans=True).T.copy())

    t = HodlrMatrix(a11=t1, a22=t2, a12=t12, a21=LowRankBlock.zero(t2.n, t1.n))
    r = HodlrMatrix(a11=r11, a22=r22, a12=a12_upd, a21=LowRankBlock.zero(r22.n, r11.n))
    y_a = HodlrMatrix(a11=y11, a22=y22, a21=y21, a12=y12)
    y_b = LowRankBlock(b.L, np.hstack([y1_c[:k_b], y2_c[:k_b]]))
    return y_a, y_b, np.hstack([y1_c[k_b:], y2_c[k_b:]]), t, r


def _update_second_column(a, p, rows, y11, y21, y1_c, t1, tc):
    # Subtract Y1 S, S = T1^T Y1^T [A12 + P12; A22 + P22; rows2],
    # Y1 = [Y11; Y21; Y1_C] the first child's Y, from the second block
    # column: returns the updated A12, the A22 update joined to P22 as one
    # pending block, and the updated rows.  S is kept exact as G M,
    # M = [A12.R; P22.R; (A22^T Y21.L + P22^T Y21.L)^T; rows2] the joined
    # right factor of its three terms (P12.R = P22.R), so A12 and the
    # pending block are truncated against the R of one QR of M^T (its Q is
    # not formed); above a leaf the pending block stays exact.
    m1, n1 = a.a11.n, a.a11.n_cols
    _, p12, _, p22 = _quadrants(p, m1, n1)
    a12_l = np.hstack([a.a12.L, p12.L])
    k_a, k_a12 = a.a12.rank, a12_l.shape[1]
    m = np.vstack([a.a12.R, p22.R, (apply_dense(a.a22, y21.L, trans=True)
                                    + p22.R.T @ (p22.L.T @ y21.L)).T, rows[:, n1:]])
    g = apply_dense(t1, np.hstack([apply_dense(y11, a12_l, trans=True), y21.R.T,
                                   y1_c.T]), trans=True)
    a12_l_upd = -apply_dense(y11, g)
    a12_l_upd[:, :k_a12] += a12_l
    rows2 = rows[:, n1:] - (y1_c @ g) @ m
    # the pending left factor -Y21.L (Y21.R G), plus P22.L on columns k_a:k_a12,
    # is [Y21.L, Q_w] C for P22.L = Y21.L X + Q_w R_w (block Gram-Schmidt twice
    # against the orthonormal Y21.L), so only the columns of P22.L take a QR
    x = y21.L.T @ p22.L
    w = p22.L - y21.L @ x
    x2 = y21.L.T @ w
    q_w, r_w = np.linalg.qr(w - y21.L @ x2, mode="reduced")
    c = np.vstack([-(y21.R @ g), np.zeros((q_w.shape[1], m.shape[0]))])
    c[:, k_a:k_a12] += np.vstack([x + x2, r_w])
    a12_qr, basis = np.linalg.qr(a12_l_upd, mode="reduced"), np.hstack([y21.L, q_w])
    if a.a22.is_leaf:  # the leaf adds the pending block densely, untruncated
        return _truncate_shared([a12_qr], m, tc)[0], LowRankBlock(basis @ c, m), rows2
    return (*_truncate_shared([a12_qr, (basis, c)], m, tc), rows2)


def _apply_wy(f: HodlrQRFactors, m: np.ndarray, trans: bool) -> np.ndarray:
    # M - Y (T (Y^T M)), with T^T in place of T for ``trans``
    m = np.asarray(m, dtype=float)
    return m - apply_dense(f.y, apply_dense(f.t, apply_dense(f.y, m, trans=True), trans))


def apply_q_transpose(f: HodlrQRFactors, m: np.ndarray) -> np.ndarray:
    """Q^T M = M - Y (T^T (Y^T M)) through HODLR matvecs."""
    return _apply_wy(f, m, trans=True)


def apply_q(f: HodlrQRFactors, m: np.ndarray) -> np.ndarray:
    """Q M = M - Y (T (Y^T M))."""
    return _apply_wy(f, m, trans=False)


def q_to_hodlr(f: HodlrQRFactors) -> HodlrMatrix:
    """Materialize Q = I - Y T Y^T as a HODLR matrix at ``TAU_T``, the
    threshold hqr truncated T's coupling blocks at.

    The products Y T and (Y T) Y^T truncate each off-diagonal block once
    at that threshold; their negation gets I added to its leaves, so any
    tree hqr accepts works.  Only needed for rank and memory comparisons;
    the WY pair (Y, T) is the primary representation of Q.  The factors
    of a rectangular A, whose Y and T have different trees, raise
    ValueError before any product.
    """
    if not f.y.is_square():
        raise ValueError("q_to_hodlr requires the factors of a square matrix")
    tc = TruncationControl(TAU_T)
    q = scale(multiply(multiply(f.y, f.t, tc), transpose(f.y), tc), -1.0)
    for _, _, x in _nodes(q):
        if x.is_leaf:  # scale made each leaf a new array, so Y and T are untouched
            x.dense += np.eye(x.n)
    return q
