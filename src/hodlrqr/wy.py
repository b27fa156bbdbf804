"""Householder QR decomposition of a dense tall matrix with the
orthogonal factor held in compact WY form Q = I - Y T Y^T."""

import numpy as np


def block_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QR decomposition A = (I - Y T Y^T) [R; 0] for an m x n matrix, m >= n.

    Returns (Y, T, R): Y is m x n with a unit lower triangular top block,
    T and R are n x n upper triangular, and Q = I - Y T Y^T is orthogonal.

    The reflectors come from LAPACK geqrf through numpy, so the QR runs on
    numpy's BLAS.  Y keeps geqrf's buffer; T is built over the Gram matrix
    Y^T Y by the forward recurrence of LAPACK larft: reflector j appends the
    column -tau_j T (Y^T y_j) and the diagonal entry tau_j.  LAPACK's sign
    convention gives R[j, j] = -sign(x_0) ||x|| for the column x being
    reduced, except where x has nothing left to annihilate below its first
    entry (a zero column or the last column of a square matrix): then
    tau_j = 0, the reflector is the identity and R[j, j] = x_0.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("block_qr expects a matrix")
    m, n = a.shape
    if m < n or n < 1:
        raise ValueError(f"block_qr requires rows >= cols >= 1, got {a.shape}")
    h, tau = np.linalg.qr(a, mode="raw")
    del a  # geqrf worked on a copy: a caller that passes A unnamed frees it here
    Y = h.T  # raw mode returns the LAPACK output transposed
    r = np.triu(Y[:n])
    Y[:n] -= r
    np.fill_diagonal(Y, 1.0)
    T = Y.T @ Y
    for j in range(n):
        T[j, :j] = 0.0  # T is upper triangular; row j is read from step j + 1
        T[:j, j] = -tau[j] * (T[:j, :j] @ T[:j, j])
        T[j, j] = tau[j]
    return Y, T, r
