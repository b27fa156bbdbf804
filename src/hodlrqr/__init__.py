"""QR decompositions of HODLR matrices.

Householder-based recursive QR with compact WY representations, the
supporting HODLR arithmetic, Cholesky-based baselines and a benchmark
harness.
"""

from .arith import (
    CholeskyBreakdownError,
    apply_dense,
    cholesky,
    hodlr_spectral_norm,
    multiply,
    scale,
    solve_upper_triangular_right,
    transpose,
)
from .baselines import cholqr, cholqr2
from .core import (
    HodlrMatrix,
    LowRankBlock,
    PartitionTree,
    TruncationControl,
    build_partition,
    from_dense,
    hodlr_identity,
    left_orthogonalize,
    stats,
    sum_lowrank,
    to_dense,
    truncate_lowrank,
)
from .dense import (
    SvdResult,
    spectral_norm_estimate,
    svd,
    truncation_rank,
)
from .hqr import (
    HodlrQRFactors,
    StructuredColumn,
    StructuredY,
    apply_q,
    apply_q_transpose,
    hqr,
    hqr_rec,
    q_to_hodlr,
    triangle_rows,
)
from .io import CorruptionError, FormatError, read_hodlr, write_hodlr
from .wy import DenseWY, block_qr

__version__ = "0.1.0"

__all__ = [
    "CholeskyBreakdownError", "CorruptionError", "DenseWY", "FormatError",
    "HodlrMatrix", "HodlrQRFactors", "LowRankBlock", "PartitionTree",
    "StructuredColumn", "StructuredY",
    "SvdResult", "TruncationControl", "apply_dense", "apply_q",
    "apply_q_transpose", "block_qr", "build_partition", "cholesky", "cholqr",
    "cholqr2", "from_dense", "hodlr_identity", "hodlr_spectral_norm", "hqr",
    "hqr_rec", "left_orthogonalize", "multiply", "q_to_hodlr", "read_hodlr",
    "scale", "solve_upper_triangular_right", "spectral_norm_estimate", "stats",
    "sum_lowrank", "svd", "to_dense", "transpose", "triangle_rows",
    "truncate_lowrank", "truncation_rank", "write_hodlr",
]
