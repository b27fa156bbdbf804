"""HODLR matrices: partition trees, construction from dense matrices with
adaptive per-block rank truncation, the recompression operator, and
rank/memory statistics."""

from dataclasses import dataclass

import numpy as np

from .dense import check_tolerance, svd, truncation_rank


@dataclass(frozen=True)
class PartitionTree:
    """Recursive block structure: 2**level leaves covering n indices.

    Internal nodes always split their leaves into the two consecutive
    halves, so the whole tree is determined by the leaf sizes.
    """

    level: int
    leaf_sizes: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if len(self.leaf_sizes) != 2 ** self.level:
            raise ValueError("leaf count must equal 2**level")
        if any(s <= 0 for s in self.leaf_sizes):
            raise ValueError("leaf sizes must be positive")

    @property
    def n(self) -> int:
        return sum(self.leaf_sizes)

    def split(self) -> tuple["PartitionTree", "PartitionTree"]:
        if self.level == 0:
            raise ValueError("cannot split a leaf tree")
        half = len(self.leaf_sizes) // 2
        return (
            PartitionTree(self.level - 1, self.leaf_sizes[:half]),
            PartitionTree(self.level - 1, self.leaf_sizes[half:]),
        )


def build_partition(n: int, n_min: int) -> PartitionTree:
    """Balanced partition: deepest level keeping every leaf >= n_min,
    with n divided as evenly as possible (remainder to the leftmost leaves)."""
    if n < 1 or n_min < 1:
        raise ValueError("n and n_min must be >= 1")
    level = (n // n_min).bit_length() - 1 if n >= n_min else 0
    leaves = 2 ** level
    base, rem = divmod(n, leaves)
    sizes = tuple(base + 1 if j < rem else base for j in range(leaves))
    return PartitionTree(level, sizes)


@dataclass(frozen=True)
class TruncationControl:
    """Absolute singular-value threshold.

    Callers wanting a relative tolerance pass eps * ||A||_2 explicitly.
    """

    eps: float

    def __post_init__(self):
        check_tolerance(self.eps)


class LowRankBlock:
    """Off-diagonal block stored as L @ R with L (n_rows x k), R (k x n_cols)."""

    __slots__ = ("L", "R")

    def __init__(self, L: np.ndarray, R: np.ndarray):
        L = np.asarray(L, dtype=float)
        R = np.asarray(R, dtype=float)
        if L.ndim != 2 or R.ndim != 2 or L.shape[1] != R.shape[0]:
            raise ValueError(f"inconsistent low-rank factors {L.shape} x {R.shape}")
        self.L = L
        self.R = R

    @property
    def n_rows(self) -> int:
        return self.L.shape[0]

    @property
    def n_cols(self) -> int:
        return self.R.shape[1]

    @property
    def rank(self) -> int:
        return self.L.shape[1]

    def to_dense(self) -> np.ndarray:
        return self.L @ self.R

    def transpose(self) -> "LowRankBlock":
        return LowRankBlock(self.R.T, self.L.T)

    def scaled(self, alpha: float) -> "LowRankBlock":
        return LowRankBlock(alpha * self.L, self.R)

    @staticmethod
    def zero(n_rows: int, n_cols: int) -> "LowRankBlock":
        return LowRankBlock(np.zeros((n_rows, 0)), np.zeros((0, n_cols)))


class HodlrMatrix:
    """HODLR matrix: a dense leaf, or two HODLR diagonal children plus two
    low-rank off-diagonal blocks.

    ``n`` counts the rows and ``n_cols`` the columns.  Square matrices have
    square leaves; a rectangular one has leaves m_j x n_j, and its a12 is
    a11.n x a22.n_cols, its a21 a22.n x a11.n_cols.  ``hqr`` factors any
    HODLR matrix with m_j >= n_j, and its Y has A's shape and trees.
    """

    __slots__ = ("dense", "a11", "a22", "a12", "a21", "n", "n_cols")

    def __init__(self, dense=None, a11=None, a22=None, a12=None, a21=None):
        if dense is not None:
            dense = np.asarray(dense, dtype=float)
            if dense.ndim != 2:
                raise ValueError("leaf must be a matrix")
            self.dense = dense
            self.a11 = self.a22 = self.a12 = self.a21 = None
            self.n, self.n_cols = dense.shape
        else:
            if a11 is None or a22 is None or a12 is None or a21 is None:
                raise ValueError("node requires a11, a22, a12 and a21")
            if ((a12.n_rows, a12.n_cols) != (a11.n, a22.n_cols)
                    or (a21.n_rows, a21.n_cols) != (a22.n, a11.n_cols)):
                raise ValueError("off-diagonal block shapes do not match children")
            self.dense = None
            self.a11, self.a22, self.a12, self.a21 = a11, a22, a12, a21
            self.n = a11.n + a22.n
            self.n_cols = a11.n_cols + a22.n_cols

    @property
    def is_leaf(self) -> bool:
        return self.dense is not None

    @property
    def level(self) -> int:
        return 0 if self.is_leaf else 1 + max(self.a11.level, self.a22.level)

    def leaf_sizes(self) -> tuple[int, ...]:
        """Row counts of the leaves."""
        return tuple(x.n for _, _, x in _nodes(self) if x.is_leaf)

    def is_square(self) -> bool:
        """True when every leaf is square, so rows and columns share one tree."""
        return all(x.n == x.n_cols for _, _, x in _nodes(self) if x.is_leaf)

    def same_structure(self, other: "HodlrMatrix") -> bool:
        # the post-order list of (is_leaf, n, n_cols) determines the tree,
        # since is_leaf fixes the number of children
        mine, theirs = ([(x.is_leaf, x.n, x.n_cols) for _, _, x in _nodes(h)]
                        for h in (self, other))
        return mine == theirs


def _nodes(h: HodlrMatrix, i: int = 0, j: int = 0):
    # (row offset, column offset, node) of every node of h in post-order:
    # children before their parent, leaves left to right
    if not h.is_leaf:
        yield from _nodes(h.a11, i, j)
        yield from _nodes(h.a22, i + h.a11.n, j + h.a11.n_cols)
    yield i, j, h


def _build(tree_rows: PartitionTree, tree_cols: PartitionTree, leaf, block,
           i: int = 0, j: int = 0) -> HodlrMatrix:
    # HODLR matrix over the two trees whose leaves are leaf(i, j, r, c) and
    # off-diagonal blocks block(i, j, r, c), for the r x c part at offset
    # (i, j); called in HDLR1 order: a11 subtree, a21, a12, a22 subtree
    if tree_rows.level == 0:
        return HodlrMatrix(dense=leaf(i, j, tree_rows.n, tree_cols.n))
    (r1, r2), (c1, c2) = tree_rows.split(), tree_cols.split()
    a11 = _build(r1, c1, leaf, block, i, j)
    a21 = block(i + r1.n, j, r2.n, c1.n)
    a12 = block(i, j + c1.n, r1.n, c2.n)
    return HodlrMatrix(a11=a11, a21=a21, a12=a12,
                       a22=_build(r2, c2, leaf, block, i + r1.n, j + c1.n))


def from_dense(m: np.ndarray, tree: PartitionTree, tc: TruncationControl,
               tree_cols: PartitionTree | None = None) -> HodlrMatrix:
    """Compress a dense matrix into HODLR form, its rows split by ``tree``
    and its columns by ``tree_cols`` (default: ``tree``, a square matrix).

    Every off-diagonal block is truncated independently via SVD, keeping
    the smallest rank whose tail singular value is <= tc.eps. The factors
    are A_L = U_k (left-orthogonal) and A_R = Sigma_k V_k^T, so the global
    error satisfies ||M - H||_2 <= level * tc.eps.
    """
    m = np.asarray(m, dtype=float)
    if tree_cols is None:
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("from_dense requires a square matrix")
        tree_cols = tree
    if m.ndim != 2 or m.shape != (tree.n, tree_cols.n):
        raise ValueError(f"matrix shape {m.shape} does not match tree sizes "
                         f"({tree.n}, {tree_cols.n})")
    if tree.level != tree_cols.level:
        raise ValueError("row and column trees must have equal level")
    return _build(tree, tree_cols, lambda i, j, r, c: m[i:i + r, j:j + c].copy(),
                  lambda i, j, r, c: compress_block(m[i:i + r, j:j + c], tc))


def compress_block(block: np.ndarray, tc: TruncationControl) -> LowRankBlock:
    """SVD-truncate a dense block to a left-orthogonal low-rank factorization."""
    block = np.asarray(block, dtype=float)
    n_rows, n_cols = block.shape
    if min(n_rows, n_cols) == 0:
        return LowRankBlock.zero(n_rows, n_cols)
    u, sigma, v = svd(block)
    k = truncation_rank(sigma, tc.eps)
    return LowRankBlock(u[:, :k].copy(), sigma[:k, None] * v[:, :k].T)


def to_dense(h: HodlrMatrix) -> np.ndarray:
    """Materialize a HODLR matrix densely (test oracle; caller keeps n small)."""
    out = np.empty((h.n, h.n_cols))
    for i, j, x in _nodes(h):
        if x.is_leaf:
            out[i:i + x.n, j:j + x.n_cols] = x.dense
        else:
            m1, n1 = x.a11.n, x.a11.n_cols
            out[i:i + m1, j + n1:j + x.n_cols] = x.a12.to_dense()
            out[i + m1:i + x.n, j:j + n1] = x.a21.to_dense()
    return out


def left_orthogonalize(b: LowRankBlock) -> LowRankBlock:
    """The same block with an orthonormal L: economy QR of L, the triangular
    factor absorbed into R."""
    if b.rank == 0:
        return b
    q, r = np.linalg.qr(b.L, mode="reduced")
    return LowRankBlock(q, r @ b.R)


def truncate_lowrank(b: LowRankBlock, tc: TruncationControl) -> LowRankBlock:
    """Recompression operator: QR factorizations L = Q1 C and R^T = Q2 R2,
    then an SVD of the core C R2^T = U S V^T, keeping the smallest rank k
    with tail singular value <= tc.eps, in O((n_rows + n_cols) k^2).  The
    block becomes the left-orthogonal (Q1 U_k, S_k V_k^T Q2^T), within tc.eps of
    L @ R in the 2-norm.  Q2 is formed here for the formatted arithmetic,
    whose roundoff decides CholQR breakdowns; hqr's truncations form R2 only.
    """
    q1, c = np.linalg.qr(b.L, mode="reduced")
    if b.R.shape[0] == 0:
        return LowRankBlock(q1 @ c, b.R)
    q2, r2 = np.linalg.qr(b.R.T, mode="reduced")
    (u, s, v), = _cores([(q1, c)], r2, tc)
    return LowRankBlock(q1 @ u, (s[:, None] * v.T) @ q2.T)


def _truncate_shared(lefts, right: np.ndarray, tc: TruncationControl) -> list[LowRankBlock]:
    # truncate_lowrank of each L right, L = Q1 C given as (Q1, C) in lefts, with one
    # QR of the shared right factor that forms R2 alone (geqrf, no orgqr): (U_k^T C)
    # right, L right projected on Q1 U_k, is S_k V_k^T Q2^T; same ranks and bound
    r2 = np.linalg.qr(right.T, mode="r")
    return [LowRankBlock(q1 @ u, (u.T @ c) @ right)
            for (q1, c), (u, _, _) in zip(lefts, _cores(lefts, r2, tc))]


def _cores(lefts, r2: np.ndarray, tc: TruncationControl):
    # U_k, S_k, V_k of each core C R2^T, (Q1, C) in lefts, truncated at tc
    for u, sigma, v in (svd(c @ r2.T) for _, c in lefts):
        k = truncation_rank(sigma, tc.eps)
        yield u[:, :k], sigma[:k], v[:, :k]


def sum_lowrank(blocks, tc: TruncationControl) -> LowRankBlock:
    """Formatted sum of low-rank blocks: the factors of all terms are joined
    and recompressed once at tc, so the result is within tc.eps of the
    exact sum in the 2-norm.

    A sum whose terms all have rank 0 returns the first term unchanged.
    """
    return _joined_sum(blocks, lambda b: truncate_lowrank(b, tc))


def _sum_lowrank(blocks, tc: TruncationControl) -> LowRankBlock:
    # sum_lowrank through _truncate_shared: hqr's sums
    return _joined_sum(blocks, lambda b: _truncate_shared([np.linalg.qr(b.L)], b.R, tc)[0])


def _quadrants(p: LowRankBlock, m1: int, n1: int) -> tuple[LowRankBlock, ...]:
    # P11, P12, P21, P22: P split after row m1 and column n1, views of its factors
    l1, l2, r1, r2 = p.L[:m1], p.L[m1:], p.R[:, :n1], p.R[:, n1:]
    return LowRankBlock(l1, r1), LowRankBlock(l1, r2), LowRankBlock(l2, r1), LowRankBlock(l2, r2)


def _join(p: LowRankBlock, q: LowRankBlock) -> LowRankBlock:
    # P + Q, R the transpose of the joined R^T: gemm's bits, so CholQR's, depend on layout
    return LowRankBlock(np.hstack([p.L, q.L]), np.hstack([p.R.T, q.R.T]).T)


def _leaf_panel(d: np.ndarray, p: LowRankBlock, rows: np.ndarray) -> np.ndarray:
    # [D + P; rows] in one new C-contiguous array, P's product formed in place
    out = np.empty((len(d) + len(rows), d.shape[1]))
    np.matmul(p.L, p.R, out=out[:len(d)])
    out[:len(d)] += d
    out[len(d):] = rows
    return out


def _joined_sum(blocks, truncate) -> LowRankBlock:
    blocks = list(blocks)
    if all(b.rank == 0 for b in blocks):
        return blocks[0]
    return truncate(LowRankBlock(np.hstack([b.L for b in blocks]),
                                 np.vstack([b.R for b in blocks])))


def stats(h: HodlrMatrix) -> dict:
    """Maximal off-diagonal rank and memory footprint in stored scalars."""
    max_rank = 0
    memory = 0
    for _, _, x in _nodes(h):
        if x.is_leaf:
            memory += x.dense.size
            continue
        for blk in (x.a12, x.a21):
            max_rank = max(max_rank, blk.rank)
            memory += blk.rank * (blk.n_rows + blk.n_cols)
    return {"max_offdiag_rank": max_rank, "memory_scalars": memory}


def check_finite(what: str, *operands) -> None:
    """Raise ValueError naming ``what`` if an operand, a dense array or a HODLR
    matrix (its leaves and low-rank factors), has an inf or nan entry."""
    for x in operands:
        parts = [x]
        if isinstance(x, HodlrMatrix):
            parts = [p for _, _, node in _nodes(x) for p in ([node.dense] if node.is_leaf else
                     [node.a12.L, node.a12.R, node.a21.L, node.a21.R])]
        if not all(np.isfinite(p).all() for p in parts):
            raise ValueError(f"{what} input has non-finite entries (inf or nan)")
