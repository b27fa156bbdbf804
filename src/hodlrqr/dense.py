"""Dense linear-algebra primitives used by every other module.

Householder reflectors, economy QR, SVD with a reconstruction guarantee,
singular-value truncation ranks and block power-iteration spectral-norm
estimates.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class HouseholderReflector:
    """Reflector I - gamma * y y^T with y[0] = 1.

    ``rho`` is the leading entry produced when the reflector is applied to
    the vector it was computed from.
    """

    y: np.ndarray
    gamma: float
    rho: float

    def apply(self, m: np.ndarray) -> np.ndarray:
        """Return (I - gamma y y^T) @ m for a vector or matrix m."""
        if self.gamma == 0.0:
            return np.array(m, dtype=float)
        m = np.asarray(m, dtype=float)
        return m - self.gamma * np.outer(self.y, self.y @ m).reshape(m.shape)


@dataclass(frozen=True)
class SvdResult:
    """Factors of M = U @ diag(sigma) @ V.T with sigma nonincreasing."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


def householder_reflector(v) -> HouseholderReflector:
    """Compute the Householder reflector annihilating v below its first entry.

    Sign convention: the produced leading entry is rho = -sign(v[0]) * ||v||
    with sign(0) taken as +1, which avoids cancellation when forming y.
    A zero vector yields gamma = 0 (identity reflector).
    """
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("householder_reflector requires a nonempty vector")
    y = np.zeros(v.size)
    y[0] = 1.0
    amax = np.max(np.abs(v))
    if amax == 0.0:
        return HouseholderReflector(y=y, gamma=0.0, rho=0.0)
    w = v / amax  # guard the norm against under/overflow
    norm_w = np.linalg.norm(w)
    sign = -1.0 if v[0] < 0 else 1.0
    rho = -sign * amax * norm_w
    u1 = w[0] + sign * norm_w  # no cancellation
    y[1:] = w[1:] / u1
    gamma = 2.0 / (1.0 + y[1:] @ y[1:])
    return HouseholderReflector(y=y, gamma=gamma, rho=rho)


def qr_economy(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Economy-sized QR decomposition of a tall matrix (rows >= cols)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise ValueError(f"qr_economy expects rows >= cols, got shape {m.shape}")
    return np.linalg.qr(m, mode="reduced")


def svd(m: np.ndarray) -> SvdResult:
    """Economy SVD; falls back to the QR-iteration LAPACK driver if the
    default divide-and-conquer scheme fails to converge."""
    m = np.asarray(m, dtype=float)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        u, s, vt = scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")
    return SvdResult(U=u, sigma=s, V=vt.T)


def truncation_rank(sigma, eps: float) -> int:
    """Smallest k such that sigma[k] <= eps (sigma past the end counts as 0).

    Ties truncate: a singular value exactly equal to eps is dropped.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    sigma = np.asarray(sigma, dtype=float)
    return int(np.sum(sigma > eps))


def _columnwise(apply):
    """Push an n x b block through a callable that takes single vectors."""
    def apply_block(x):
        return np.column_stack(
            [np.asarray(apply(x[:, i]), dtype=float) for i in range(x.shape[1])])
    return apply_block


# Halko, Martinsson and Tropp 2011, eq. (4.3): ||A|| <= 10 sqrt(2/pi) max_i
# ||A w_i|| with probability at least 1 - 10^-b for b standard Gaussian w_i
_GAUSSIAN_BOUND_FACTOR = 10.0 * np.sqrt(2.0 / np.pi)


def spectral_norm_estimate(apply, apply_transpose, n: int,
                           max_iter: int = 50, tol: float = 1e-3, start=None,
                           blocks: bool = False, with_bound: bool = False):
    """Estimate the spectral norm of a linear operator on R^n.

    Block power iteration on A^T A: each round applies A to an orthonormal
    n x b block, A^T to the image, and takes the top Ritz value.  Stops
    once the Ritz residual certifies the dominant eigenvalue of A^T A to a
    relative 2*tol, giving a relative error around tol in the norm itself,
    or after ``max_iter`` rounds.  The estimate is ||A v|| for a unit v in
    the block's span, so it never exceeds the norm.

    ``start`` is the n x b start block.  The default holds two
    deterministic vectors: the normalized all-ones vector and a fixed
    pseudorandom companion (a single start vector can be nearly orthogonal
    to the top singular vector, which no stopping rule detects).  With the
    default tol and max_iter this gives two correct digits, enough for
    scaling a truncation threshold.

    With ``blocks`` the callables map an n x b block to its image in one
    call, so each round makes one call of each; otherwise they take single
    vectors and the block goes through column by column.

    With ``with_bound`` the result is the pair (estimate, bound), where
    bound = 10 sqrt(2/pi) max_i ||A w_i|| over the start columns w_i.  For
    a standard Gaussian start block of b columns ||A|| <= bound holds with
    probability at least 1 - 10^-b (Halko, Martinsson and Tropp 2011,
    section 4.3).
    """
    if n <= 0:
        return (0.0, 0.0) if with_bound else 0.0
    if start is None:
        rng = np.random.default_rng(0x5EED)
        start = np.column_stack([np.full(n, 1.0 / np.sqrt(n)), rng.standard_normal(n)])
    if not blocks:
        apply, apply_transpose = _columnwise(apply), _columnwise(apply_transpose)
    x, coeffs = np.linalg.qr(np.asarray(start, dtype=float))
    est = bound = 0.0
    for it in range(max_iter):
        y = np.asarray(apply(x), dtype=float)
        if it == 0:  # y @ coeffs = A @ start
            bound = _GAUSSIAN_BOUND_FACTOR * float(np.max(np.linalg.norm(y @ coeffs, axis=0)))
        lam, vecs = np.linalg.eigh(y.T @ y)
        theta = float(lam[-1])
        est = float(np.sqrt(max(theta, 0.0)))
        if est == 0.0:
            break
        w = np.asarray(apply_transpose(y), dtype=float)
        g = vecs[:, -1]
        residual = np.linalg.norm(w @ g - theta * (x @ g))
        if residual <= 2.0 * tol * theta:
            break
        x, _ = np.linalg.qr(w)
    return (est, bound) if with_bound else est
