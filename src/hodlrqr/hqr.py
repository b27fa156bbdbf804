"""Recursive Householder-based QR decomposition of HODLR matrices.

The recursion unit is a structured block column [A; B; C]: a HODLR matrix
on top, a factorized low-rank block below it and dense coupling rows at
the bottom.  The orthogonal factor is returned in compact WY form
Q = I - Y T Y^T with Y unit lower triangular and T, R upper triangular
HODLR matrices.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    HodlrMatrix,
    LowRankBlock,
    TruncationControl,
    all_finite,
    hodlr_identity,
    left_orthogonalize,
    sum_lowrank,
)
from .arith import (
    add,
    apply_dense,
    hodlr_spectral_norm,
    low_rank_update,
    multiply,
    scale,
    transpose,
)
from .dense import check_tolerance
from .wy import block_qr


@dataclass
class StructuredColumn:
    """Recursion input [a_tilde; b; c]: an m x m HODLR block, a factorized
    p x m low-rank block and r2 x m dense coupling rows.  b and c may both
    be empty."""

    a_tilde: HodlrMatrix
    b: LowRankBlock
    c: np.ndarray

    def __post_init__(self):
        m = self.a_tilde.n
        self.c = np.asarray(self.c, dtype=float)
        if self.b.n_cols != m:
            raise ValueError("column counts of a_tilde and b must agree")
        if self.c.ndim != 2 or self.c.shape[1] != m:
            raise ValueError("c must be a 2-D array with as many columns as a_tilde")

    @staticmethod
    def whole_matrix(a: HodlrMatrix) -> "StructuredColumn":
        return StructuredColumn(a, LowRankBlock.zero(0, a.n), np.zeros((0, a.n)))


@dataclass
class StructuredY:
    """Mirror of StructuredColumn for the reflector factor Y."""

    y_a: HodlrMatrix
    y_b: LowRankBlock
    y_c: np.ndarray

    def to_dense(self) -> np.ndarray:
        from .core import to_dense as hodlr_to_dense
        return np.vstack([hodlr_to_dense(self.y_a), self.y_b.to_dense(), self.y_c])


@dataclass
class HodlrQRFactors:
    """A ~= (I - Y T Y^T) R with all three factors sharing A's partition."""

    y: HodlrMatrix
    t: HodlrMatrix
    r: HodlrMatrix


def hqr(a: HodlrMatrix, eps: float, absolute: bool = False) -> HodlrQRFactors:
    """QR decomposition of a square HODLR matrix.

    By default ``eps`` is the relative truncation tolerance: intermediate
    sums are truncated at eps * ||A||_2, the coupling blocks of T at the
    plain eps.  ||A||_2 is one power-iteration estimate, stopped at the
    first round that does not raise it; as a lower bound its error only
    makes the truncation more conservative.  With
    ``absolute`` the threshold eps is used as-is everywhere.  Input with an
    inf or nan entry, or an eps that is not finite and >= 0, raises
    ValueError.
    """
    check_tolerance(eps)
    if not all_finite(a):
        raise ValueError("hqr input has non-finite entries (inf or nan)")
    eps_abs = eps if absolute else eps * hodlr_spectral_norm(a)
    y, t, r = hqr_rec(StructuredColumn.whole_matrix(a), eps_abs, eps)
    return HodlrQRFactors(y=y.y_a, t=t, r=r)


def hqr_rec(col: StructuredColumn, eps_abs: float,
            eps_plain: float) -> tuple[StructuredY, HodlrMatrix, HodlrMatrix]:
    """One recursion step on a structured block column.

    Returns (Y, T, R) with Y mirroring the column structure, and T, R
    upper triangular HODLR matrices of the column's level.
    """
    b = left_orthogonalize(col.b)
    a_tilde, c = col.a_tilde, col.c
    m = a_tilde.n
    r1 = b.rank
    r2 = c.shape[0]
    tc_abs = TruncationControl(eps_abs)
    tc_plain = TruncationControl(eps_plain)

    if a_tilde.is_leaf:
        # compressed column [A; B_R; C] reduced by dense Householder QR
        h_tilde = np.vstack([a_tilde.dense, b.R, c])
        wy, r_dense = block_qr(h_tilde)
        y_a = HodlrMatrix(dense=wy.Y[:m])
        y_b_rows = wy.Y[m:m + r1]
        y_c = wy.Y[m + r1:]
        t = HodlrMatrix(dense=wy.T)
        r = HodlrMatrix(dense=r_dense)
        return StructuredY(y_a, LowRankBlock(b.L, y_b_rows, b.left_orthogonal), y_c), t, r

    m1 = a_tilde.a11.n
    b_r1, b_r2 = b.R[:, :m1], b.R[:, m1:]
    c1, c2 = c[:, :m1], c[:, m1:]

    # first block column [A11; A21; B_R1; C1] has the same structure one
    # level down
    col1 = StructuredColumn(a_tilde.a11, a_tilde.a21, np.vstack([b_r1, c1]))
    y1, t1, r1_fac = hqr_rec(col1, eps_abs, eps_plain)
    y_a11 = y1.y_a
    y_a21 = y1.y_b
    y_br1 = y1.y_c[:r1]
    y_c1 = y1.y_c[r1:]

    # s_tilde = Y1^T [A12; A22; B_R2; C2], a sum of four low-rank terms
    # joined and truncated once
    a12, a22 = a_tilde.a12, a_tilde.a22
    s_tilde = sum_lowrank([
        LowRankBlock(apply_dense(y_a11, a12.L, trans=True), a12.R),
        LowRankBlock(y_a21.R.T, apply_dense(a22, y_a21.L, trans=True).T),
        LowRankBlock(y_br1.T, b_r2),
        LowRankBlock(y_c1.T, c2),
    ], tc_abs)

    # s = T1^T s_tilde
    s = LowRankBlock(apply_dense(t1, s_tilde.L, trans=True), s_tilde.R)

    # update the second block column: subtract Y(:,1) S blockwise
    a12_upd = sum_lowrank([a12, LowRankBlock(-apply_dense(y_a11, s.L), s.R)], tc_abs)
    cross = y_a21.L @ (y_a21.R @ s.L)
    a22_upd = low_rank_update(a22, -cross, s.R.T, tc_abs)
    b_r2_upd = b_r2 - (y_br1 @ s.L) @ s.R
    c2_upd = c2 - (y_c1 @ s.L) @ s.R

    # unreduced part of the second block column, with empty low-rank part
    col2 = StructuredColumn(a22_upd, LowRankBlock.zero(0, a22_upd.n),
                            np.vstack([b_r2_upd, c2_upd]))
    y2, t2, r2_fac = hqr_rec(col2, eps_abs, eps_plain)
    y_a22 = y2.y_a
    y_br2 = y2.y_c[:r1]
    y_c2 = y2.y_c[r1:]

    # coupling block of T, truncated at the plain tolerance
    t_tilde12 = sum_lowrank([
        LowRankBlock(y_a21.R.T, apply_dense(y_a22, y_a21.L, trans=True).T),
        LowRankBlock(y_br1.T, y_br2),
        LowRankBlock(y_c1.T, y_c2),
    ], tc_plain)
    t12 = LowRankBlock(-apply_dense(t1, t_tilde12.L),
                       apply_dense(t2, t_tilde12.R.T, trans=True).T)

    t = HodlrMatrix(a11=t1, a22=t2, a12=t12, a21=LowRankBlock.zero(t2.n, t1.n))
    r = HodlrMatrix(a11=r1_fac, a22=r2_fac, a12=a12_upd,
                    a21=LowRankBlock.zero(r2_fac.n, r1_fac.n))
    y_a = HodlrMatrix(a11=y_a11, a22=y_a22, a21=y_a21, a12=LowRankBlock.zero(m1, y_a22.n))
    y_b_rows = np.hstack([y_br1, y_br2])
    y_c = np.hstack([y_c1, y_c2])
    return StructuredY(y_a, LowRankBlock(b.L, y_b_rows, b.left_orthogonal), y_c), t, r


def _apply_wy(f: HodlrQRFactors, m: np.ndarray, trans: bool) -> np.ndarray:
    # M - Y (T (Y^T M)), with T^T in place of T for ``trans``
    m = np.asarray(m, dtype=float)
    vec = m.ndim == 1
    x = m[:, None] if vec else m
    if x.shape[0] != f.y.n:
        raise ValueError("row counts do not match")
    yt_x = apply_dense(f.y, x, trans=True)
    out = x - apply_dense(f.y, apply_dense(f.t, yt_x, trans))
    return out[:, 0] if vec else out


def apply_q_transpose(f: HodlrQRFactors, m: np.ndarray) -> np.ndarray:
    """Q^T M = M - Y (T^T (Y^T M)) through HODLR matvecs."""
    return _apply_wy(f, m, trans=True)


def apply_q(f: HodlrQRFactors, m: np.ndarray) -> np.ndarray:
    """Q M = M - Y (T (Y^T M))."""
    return _apply_wy(f, m, trans=False)


def q_to_hodlr(f: HodlrQRFactors, eps: float) -> HodlrMatrix:
    """Materialize Q = I - Y T Y^T as a HODLR matrix, recompressed at eps.

    Only needed for rank and memory comparisons; the WY pair (Y, T) is the
    primary representation of Q.
    """
    tc = TruncationControl(eps)
    yt = multiply(f.y, f.t, tc)
    yty = multiply(yt, transpose(f.y), tc)
    identity = hodlr_identity(f.y.tree())
    return add(identity, scale(yty, -1.0), tc)
