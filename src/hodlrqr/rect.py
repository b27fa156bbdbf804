"""QR decomposition of rectangular HODLR matrices through the one structured
recursion ``hqr_rec``: each leaf m_j x n_j (m_j >= n_j) is reduced so that
its triangle lands on its first n_j rows, and the rows below it are carried
into the reduction of the block columns to its right."""

from dataclasses import dataclass

import numpy as np

from .core import HodlrMatrix, PartitionTree, TruncationControl, from_dense
from .dense import spectral_norm_estimate
from .hqr import StructuredColumn, hqr_rec, triangle_rows


@dataclass
class RectQRFactors:
    """Permuted-structure factors of a rectangular QR decomposition.

    A = (I - Y T Y^T) P^T [R; 0] with Y the m x n HODLR matrix of A's
    row and column trees, T and R n x n upper triangular over the column
    tree, and (P x) = x[perm]: the rows perm[:n] of Q^T A hold R, the
    others are zero.
    """

    y: HodlrMatrix
    t: HodlrMatrix
    r: HodlrMatrix
    perm: np.ndarray


def rect_qr_prototype(a: np.ndarray, tree_rows: PartitionTree,
                      tree_cols: PartitionTree, eps: float) -> RectQRFactors:
    """Permuted QR decomposition of a dense rectangular matrix compressed at
    the absolute tolerance eps over the given row and column trees, which
    must have equal level and leaves no wider than tall; ``hqr_rec`` truncates
    its sums at eps and the coupling blocks of T at eps / ||A||_2 (estimated)."""
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    if m < n:
        raise ValueError("rect_qr_prototype requires rows >= cols")
    for mj, nj in zip(tree_rows.leaf_sizes, tree_cols.leaf_sizes):
        if mj < nj:
            raise ValueError(f"diagonal block {mj}x{nj} is wider than tall")
    h = from_dense(a, tree_rows, TruncationControl(eps), tree_cols)
    norm = spectral_norm_estimate(lambda x: a @ x, lambda x: a.T @ x, n)
    y, t, r = hqr_rec(StructuredColumn.whole_matrix(h), eps, eps / norm if norm > 0 else 0.0)
    tri = triangle_rows(h)
    return RectQRFactors(y=y.y_a, t=t, r=r,
                         perm=np.concatenate([tri, np.setdiff1d(np.arange(m), tri)]))
