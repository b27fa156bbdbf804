"""QR decompositions of HODLR matrices.

Householder-based recursive QR with compact WY representations, the
supporting HODLR arithmetic, Cholesky-based baselines and a benchmark
harness.

``__all__`` holds what a caller of ``hqr`` or of the CholQR baselines
needs: the HODLR types and their construction, densification and
statistics, the factorizations and what applies or solves with their
factors, and the HDLR1 file format with its errors.  Every other name
is imported from its own module (``hodlrqr.arith``, ``hodlrqr.bench``,
``hodlrqr.core``, ``hodlrqr.dense``, ``hodlrqr.wy``, ...).
"""

from .arith import CholeskyBreakdownError, apply_dense, solve_upper_dense
from .baselines import cholqr, cholqr2
from .core import (
    HodlrMatrix,
    LowRankBlock,
    PartitionTree,
    TruncationControl,
    build_partition,
    from_dense,
    stats,
    to_dense,
)
from .hqr import (
    HodlrQRFactors,
    apply_q,
    apply_q_transpose,
    hqr,
    q_to_hodlr,
    triangle_rows,
)
from .io import CorruptionError, FormatError, read_hodlr, write_hodlr

__version__ = "0.1.0"

__all__ = [
    "CholeskyBreakdownError", "CorruptionError", "FormatError",
    "HodlrMatrix", "HodlrQRFactors", "LowRankBlock", "PartitionTree",
    "TruncationControl", "apply_dense", "apply_q", "apply_q_transpose",
    "build_partition", "cholqr", "cholqr2", "from_dense", "hqr", "q_to_hodlr",
    "read_hodlr", "solve_upper_dense", "stats", "to_dense", "triangle_rows",
    "write_hodlr",
]
