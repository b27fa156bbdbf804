"""QR decomposition of rectangular HODLR matrices via the dense-prototype
path: each lowest-level block column is reduced to permuted triangular
form (the triangle lands on top of its diagonal block), the compact WY
factors are accumulated densely, and Y, T, R are compressed into the
rectangular block layout afterwards."""

from dataclasses import dataclass

import numpy as np

from .core import (
    HodlrMatrix,
    PartitionTree,
    TruncationControl,
    compress_block,
    from_dense,
)
from .wy import block_qr


class RectHodlr:
    """Rectangular block matrix mirroring the HODLR recursion: dense
    diagonal leaves, low-rank off-diagonal blocks."""

    __slots__ = ("dense", "b11", "b22", "b12", "b21", "shape")

    def __init__(self, dense=None, b11=None, b22=None, b12=None, b21=None):
        if dense is not None:
            self.dense = np.asarray(dense, dtype=float)
            self.b11 = self.b22 = self.b12 = self.b21 = None
            self.shape = self.dense.shape
        else:
            self.dense = None
            self.b11, self.b22, self.b12, self.b21 = b11, b22, b12, b21
            self.shape = (b11.shape[0] + b22.shape[0], b11.shape[1] + b22.shape[1])

    @property
    def is_leaf(self):
        return self.dense is not None

    def to_dense(self) -> np.ndarray:
        if self.is_leaf:
            return self.dense.copy()
        m1, n1 = self.b11.shape
        out = np.empty(self.shape)
        out[:m1, :n1] = self.b11.to_dense()
        out[m1:, n1:] = self.b22.to_dense()
        out[:m1, n1:] = self.b12.to_dense()
        out[m1:, :n1] = self.b21.to_dense()
        return out

    def max_offdiag_rank(self) -> int:
        if self.is_leaf:
            return 0
        return max(self.b12.rank, self.b21.rank,
                   self.b11.max_offdiag_rank(), self.b22.max_offdiag_rank())

    def memory_scalars(self) -> int:
        if self.is_leaf:
            return self.dense.size
        return self.b11.memory_scalars() + self.b22.memory_scalars() + \
            self.b12.rank * (self.b12.n_rows + self.b12.n_cols) + \
            self.b21.rank * (self.b21.n_rows + self.b21.n_cols)


def compress_rect(m: np.ndarray, tree_rows: PartitionTree, tree_cols: PartitionTree,
                  tc: TruncationControl) -> RectHodlr:
    """Compress a dense matrix into the rectangular block layout."""
    m = np.asarray(m, dtype=float)
    if m.shape != (tree_rows.n, tree_cols.n):
        raise ValueError("matrix does not match the row/column trees")
    if tree_rows.level != tree_cols.level:
        raise ValueError("row and column trees must have equal level")
    if tree_rows.level == 0:
        return RectHodlr(dense=m.copy())
    tr1, tr2 = tree_rows.split()
    tc1, tc2 = tree_cols.split()
    m1, n1 = tr1.n, tc1.n
    return RectHodlr(
        b11=compress_rect(m[:m1, :n1], tr1, tc1, tc),
        b22=compress_rect(m[m1:, n1:], tr2, tc2, tc),
        b12=compress_block(m[:m1, n1:], tc),
        b21=compress_block(m[m1:, :n1], tc),
    )


@dataclass
class RectQRFactors:
    """Permuted-structure factors of a rectangular QR decomposition.

    A = (I - Y T Y^T) R holds with Y (m x n) and R (m x n) in permuted
    trapezoidal/triangular layouts; R[perm][:n] is exactly upper
    triangular.
    """

    y: RectHodlr
    t: HodlrMatrix
    r: RectHodlr
    perm: np.ndarray


def rect_qr_prototype(a: np.ndarray, tree_rows: PartitionTree,
                      tree_cols: PartitionTree, eps: float) -> RectQRFactors:
    """Permuted QR decomposition of a rectangular block matrix.

    Block column j is reduced so that its triangle sits on top of the j-th
    diagonal block: the unreduced rows are permuted to bring those rows to
    the front, a dense WY QR runs on the permuted panel, and the
    permutation is inverted on the rows of Y.  The accumulated dense
    factors are compressed at the absolute tolerance eps afterwards.
    """
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    if m < n:
        raise ValueError("rect_qr_prototype requires rows >= cols")
    if (m, n) != (tree_rows.n, tree_cols.n):
        raise ValueError("matrix does not match the row/column trees")
    if tree_rows.level != tree_cols.level:
        raise ValueError("row and column trees must have equal level")
    row_sizes = tree_rows.leaf_sizes
    col_sizes = tree_cols.leaf_sizes
    for mj, nj in zip(row_sizes, col_sizes):
        if mj < nj:
            raise ValueError(f"diagonal block {mj}x{nj} is wider than tall")

    row_off = np.concatenate([[0], np.cumsum(row_sizes)])
    col_off = np.concatenate([[0], np.cumsum(col_sizes)])

    w = a.copy()
    y_global = np.zeros((m, n))
    t_global = np.zeros((n, n))
    r_global = np.zeros((m, n))
    reduced = np.zeros(m, dtype=bool)

    for j, nj in enumerate(col_sizes):
        c0, c1 = col_off[j], col_off[j + 1]
        tri = np.arange(row_off[j], row_off[j] + nj)
        others = np.flatnonzero(~reduced)
        others = others[~np.isin(others, tri)]
        perm_rows = np.concatenate([tri, others])

        wy, r_j = block_qr(w[perm_rows, c0:c1])
        y_j = np.zeros((m, nj))
        y_j[perm_rows] = wy.Y

        # frozen coupling rows from earlier reductions, then the new triangle
        r_global[reduced, c0:c1] = w[reduced, c0:c1]
        r_global[tri, c0:c1] = r_j

        if c1 < n:
            trail = w[:, c1:]
            trail -= y_j @ (wy.T.T @ (y_j.T @ trail))

        # fold the new reflectors into the global compact WY pair
        if c0 > 0:
            t_cross = -t_global[:c0, :c0] @ (y_global[:, :c0].T @ y_j) @ wy.T
            t_global[:c0, c0:c1] = t_cross
        t_global[c0:c1, c0:c1] = wy.T
        y_global[:, c0:c1] = y_j
        reduced[tri] = True

    tri_rows = np.concatenate([np.arange(row_off[j], row_off[j] + col_sizes[j])
                               for j in range(len(col_sizes))])
    rest = np.flatnonzero(~np.isin(np.arange(m), tri_rows))
    perm = np.concatenate([tri_rows, rest])

    tc = TruncationControl(eps)
    return RectQRFactors(
        y=compress_rect(y_global, tree_rows, tree_cols, tc),
        t=from_dense(t_global, tree_cols, tc),
        r=compress_rect(r_global, tree_rows, tree_cols, tc),
        perm=perm,
    )
