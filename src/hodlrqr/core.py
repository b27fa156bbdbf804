"""HODLR matrices: partition trees, construction from dense matrices with
adaptive per-block rank truncation, the recompression operator, and
rank/memory statistics."""

from dataclasses import dataclass

import numpy as np

from .dense import svd, truncation_rank

GENERAL = "general"
UPPER_TRIANGULAR = "upper_triangular"
UNIT_LOWER_TRIANGULAR = "unit_lower_triangular"

_SHAPE_TAGS = (GENERAL, UPPER_TRIANGULAR, UNIT_LOWER_TRIANGULAR)


@dataclass(frozen=True)
class PartitionTree:
    """Recursive block structure: 2**level leaves covering n indices.

    Internal nodes always split their leaves into the two consecutive
    halves, so the whole tree is determined by the leaf sizes.
    """

    level: int
    leaf_sizes: tuple[int, ...]
    n_min: int = 0

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
            PartitionTree(self.level - 1, self.leaf_sizes[:half], self.n_min),
            PartitionTree(self.level - 1, self.leaf_sizes[half:], self.n_min),
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
    return PartitionTree(level, sizes, n_min)


@dataclass(frozen=True)
class TruncationControl:
    """Absolute singular-value threshold, optionally capped in rank.

    Callers wanting a relative tolerance pass eps * ||A||_2 explicitly.
    """

    eps: float
    rank_cap: int | None = None

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.rank_cap is not None and self.rank_cap < 1:
            raise ValueError("rank_cap must be >= 1")


class LowRankBlock:
    """Off-diagonal block stored as L @ R with L (n_rows x k), R (k x n_cols)."""

    __slots__ = ("L", "R", "left_orthogonal")

    def __init__(self, L: np.ndarray, R: np.ndarray, left_orthogonal: bool = False):
        L = np.asarray(L, dtype=float)
        R = np.asarray(R, dtype=float)
        if L.ndim != 2 or R.ndim != 2 or L.shape[1] != R.shape[0]:
            raise ValueError(f"inconsistent low-rank factors {L.shape} x {R.shape}")
        self.L = L
        self.R = R
        self.left_orthogonal = bool(left_orthogonal)

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
        return LowRankBlock(alpha * self.L, self.R, False)

    @staticmethod
    def zero(n_rows: int, n_cols: int) -> "LowRankBlock":
        return LowRankBlock(np.zeros((n_rows, 0)), np.zeros((0, n_cols)), True)


class HodlrMatrix:
    """Square HODLR matrix: a dense leaf, or two HODLR diagonal children
    plus two low-rank off-diagonal blocks.

    shape_tag annotates structural triangularity; upper_triangular means
    every a21 block has rank 0 and leaves are upper triangular,
    unit_lower_triangular the mirror image with unit diagonals.
    """

    __slots__ = ("dense", "a11", "a22", "a12", "a21", "shape_tag", "n")

    def __init__(self, dense=None, a11=None, a22=None, a12=None, a21=None,
                 shape_tag: str = GENERAL):
        if shape_tag not in _SHAPE_TAGS:
            raise ValueError(f"unknown shape_tag {shape_tag!r}")
        self.shape_tag = shape_tag
        if dense is not None:
            dense = np.asarray(dense, dtype=float)
            if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
                raise ValueError("leaf must be square")
            self.dense = dense
            self.a11 = self.a22 = self.a12 = self.a21 = None
            self.n = dense.shape[0]
        else:
            if a11 is None or a22 is None or a12 is None or a21 is None:
                raise ValueError("node requires a11, a22, a12 and a21")
            m1, m2 = a11.n, a22.n
            if (a12.n_rows, a12.n_cols) != (m1, m2) or (a21.n_rows, a21.n_cols) != (m2, m1):
                raise ValueError("off-diagonal block shapes do not match children")
            self.dense = None
            self.a11, self.a22, self.a12, self.a21 = a11, a22, a12, a21
            self.n = m1 + m2

    @property
    def is_leaf(self) -> bool:
        return self.dense is not None

    @property
    def level(self) -> int:
        return 0 if self.is_leaf else 1 + max(self.a11.level, self.a22.level)

    def leaf_sizes(self) -> tuple[int, ...]:
        if self.is_leaf:
            return (self.n,)
        return self.a11.leaf_sizes() + self.a22.leaf_sizes()

    def tree(self, n_min: int = 0) -> PartitionTree:
        return PartitionTree(self.level, self.leaf_sizes(), n_min)

    def same_structure(self, other: "HodlrMatrix") -> bool:
        if self.is_leaf != other.is_leaf or self.n != other.n:
            return False
        if self.is_leaf:
            return True
        return self.a11.same_structure(other.a11) and self.a22.same_structure(other.a22)


def from_dense(m: np.ndarray, tree: PartitionTree, tc: TruncationControl) -> HodlrMatrix:
    """Compress a dense square matrix into HODLR form.

    Every off-diagonal block is truncated independently via SVD, keeping
    the smallest rank whose tail singular value is <= tc.eps. The factors
    are A_L = U_k (left-orthogonal) and A_R = Sigma_k V_k^T, so the global
    error satisfies ||M - H||_2 <= level * tc.eps.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("from_dense requires a square matrix")
    if m.shape[0] != tree.n:
        raise ValueError(f"matrix size {m.shape[0]} does not match tree size {tree.n}")
    if tree.level == 0:
        return HodlrMatrix(dense=m.copy())
    t1, t2 = tree.split()
    m1 = t1.n
    return HodlrMatrix(
        a11=from_dense(m[:m1, :m1], t1, tc),
        a22=from_dense(m[m1:, m1:], t2, tc),
        a12=compress_block(m[:m1, m1:], tc),
        a21=compress_block(m[m1:, :m1], tc),
    )


def compress_block(block: np.ndarray, tc: TruncationControl) -> LowRankBlock:
    """SVD-truncate a dense block to a left-orthogonal low-rank factorization."""
    block = np.asarray(block, dtype=float)
    n_rows, n_cols = block.shape
    if min(n_rows, n_cols) == 0:
        return LowRankBlock.zero(n_rows, n_cols)
    res = svd(block)
    k = truncation_rank(res.sigma, tc.eps)
    if tc.rank_cap is not None:
        k = min(k, tc.rank_cap)
    return LowRankBlock(res.U[:, :k].copy(),
                        res.sigma[:k, None] * res.V[:, :k].T,
                        left_orthogonal=True)


def to_dense(h: HodlrMatrix) -> np.ndarray:
    """Materialize a HODLR matrix densely (test oracle; caller keeps n small)."""
    if h.is_leaf:
        return h.dense.copy()
    m1 = h.a11.n
    out = np.empty((h.n, h.n))
    out[:m1, :m1] = to_dense(h.a11)
    out[m1:, m1:] = to_dense(h.a22)
    out[:m1, m1:] = h.a12.to_dense()
    out[m1:, :m1] = h.a21.to_dense()
    return out


def left_orthogonalize(b: LowRankBlock) -> LowRankBlock:
    """Economy QR of L, absorbing the triangular factor into R."""
    if b.left_orthogonal or b.rank == 0:
        return b
    q, r = np.linalg.qr(b.L, mode="reduced")
    return LowRankBlock(q, r @ b.R, left_orthogonal=True)


def truncate_lowrank(b: LowRankBlock, tc: TruncationControl) -> LowRankBlock:
    """Recompression operator: QR both factors, SVD the small core, keep the
    smallest rank with tail singular value <= tc.eps.

    Costs O((n_rows + n_cols) * k^2) and returns a left-orthogonal block
    within tc.eps of the input in the 2-norm.
    """
    if b.rank == 0:
        return b if b.left_orthogonal else LowRankBlock(b.L, b.R, True)
    q1, r1 = np.linalg.qr(b.L, mode="reduced")
    q2, r2 = np.linalg.qr(b.R.T, mode="reduced")
    core = svd(r1 @ r2.T)
    k = truncation_rank(core.sigma, tc.eps)
    if tc.rank_cap is not None:
        k = min(k, tc.rank_cap)
    L = q1 @ core.U[:, :k]
    R = (core.sigma[:k, None] * core.V[:, :k].T) @ q2.T
    return LowRankBlock(L, R, left_orthogonal=True)


def recompress_hodlr(h: HodlrMatrix, tc: TruncationControl) -> HodlrMatrix:
    """Apply the recompression operator to every off-diagonal block."""
    if h.is_leaf:
        return h
    return HodlrMatrix(
        a11=recompress_hodlr(h.a11, tc),
        a22=recompress_hodlr(h.a22, tc),
        a12=truncate_lowrank(h.a12, tc),
        a21=truncate_lowrank(h.a21, tc),
        shape_tag=h.shape_tag,
    )


def stats(h: HodlrMatrix) -> dict:
    """Maximal off-diagonal rank and memory footprint in stored scalars."""
    max_rank = 0
    memory = 0

    def walk(node):
        nonlocal max_rank, memory
        if node.is_leaf:
            memory += node.dense.size
            return
        for blk in (node.a12, node.a21):
            max_rank = max(max_rank, blk.rank)
            memory += blk.rank * (blk.n_rows + blk.n_cols)
        walk(node.a11)
        walk(node.a22)

    walk(h)
    return {"max_offdiag_rank": max_rank, "memory_scalars": memory}


def all_finite(h: HodlrMatrix) -> bool:
    """True when every stored leaf entry and low-rank factor entry is finite."""
    if h.is_leaf:
        return bool(np.isfinite(h.dense).all())
    return (all(np.isfinite(b.L).all() and np.isfinite(b.R).all() for b in (h.a12, h.a21))
            and all_finite(h.a11) and all_finite(h.a22))


def hodlr_identity(tree: PartitionTree) -> HodlrMatrix:
    """Identity matrix in HODLR form (rank-0 off-diagonal blocks)."""
    if tree.level == 0:
        return HodlrMatrix(dense=np.eye(tree.n), shape_tag=UPPER_TRIANGULAR)
    t1, t2 = tree.split()
    return HodlrMatrix(
        a11=hodlr_identity(t1),
        a22=hodlr_identity(t2),
        a12=LowRankBlock.zero(t1.n, t2.n),
        a21=LowRankBlock.zero(t2.n, t1.n),
        shape_tag=UPPER_TRIANGULAR,
    )


def validate_structure(h: HodlrMatrix, tag: str | None = None) -> None:
    """Assert the structural invariants implied by the shape tag.

    Children inherit the triangularity requirement of their parent even if
    their own tag is more permissive.
    """
    tag = h.shape_tag if tag is None or tag == GENERAL else tag
    if h.is_leaf:
        d = h.dense
        if tag == UPPER_TRIANGULAR and np.any(np.tril(d, -1) != 0):
            raise AssertionError("upper_triangular leaf has nonzeros below diagonal")
        if tag == UNIT_LOWER_TRIANGULAR:
            if np.any(np.triu(d, 1) != 0) or np.any(np.diag(d) != 1.0):
                raise AssertionError("unit_lower_triangular leaf malformed")
        return
    if tag == UPPER_TRIANGULAR and h.a21.rank != 0:
        raise AssertionError("upper_triangular node has nonzero a21 rank")
    if tag == UNIT_LOWER_TRIANGULAR and h.a12.rank != 0:
        raise AssertionError("unit_lower_triangular node has nonzero a12 rank")
    validate_structure(h.a11, tag)
    validate_structure(h.a22, tag)
