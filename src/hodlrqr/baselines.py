"""Cholesky-based QR decompositions of HODLR matrices, the accuracy and
speed comparison targets.  Orthogonality of the computed Q degrades with
the squared condition number, and the Cholesky step breaks down when
A^T A is not numerically positive definite."""

from .arith import cholesky, gram, multiply, solve_upper_triangular_right
from .core import HodlrMatrix, TruncationControl, check_finite


def cholqr(a: HodlrMatrix, tc: TruncationControl) -> tuple[HodlrMatrix, HodlrMatrix]:
    """QR via the Cholesky decomposition of A^T A.

    Returns (q, r) with r upper triangular and q = A r^{-1}.  A
    CholeskyBreakdownError from the factorization is surfaced verbatim;
    input with an inf or nan entry raises ValueError before any work.
    """
    check_finite("cholqr", a)
    r = cholesky(gram(a, tc), tc)
    q = solve_upper_triangular_right(a, r, tc)
    return q, r


def cholqr2(a: HodlrMatrix, tc: TruncationControl) -> tuple[HodlrMatrix, HodlrMatrix]:
    """CholQR followed by one reorthogonalization pass."""
    q, r = cholqr(a, tc)
    q, r_i = cholqr(q, tc)
    return q, multiply(r_i, r, tc)
