"""Benchmark harness: matrix generators, accuracy metrics and CSV runners
for the accuracy/rank/memory experiments at desk scale."""

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, aslinearoperator, eigsh

from .arith import apply_dense, hodlr_spectral_norm
from .baselines import cholqr, cholqr2
from .core import (
    HodlrMatrix,
    LowRankBlock,
    TruncationControl,
    build_partition,
    from_dense,
    stats,
    to_dense,
    _build,
)
from .dense import spectral_norm_estimate
from .hqr import HodlrQRFactors, apply_q, apply_q_transpose, hqr, q_to_hodlr

CSV_HEADER = ("method,n,seed,eps,kappa2,e_orth,e_acc,rank_Y,rank_T,rank_Q,rank_R,"
              "mem_YT_rel,mem_Q_rel,mem_R_rel,time_s,failed")

METHODS = ("hqr", "cholqr", "cholqr2", "dense")

# interval configurations of the three Cauchy test matrices
CAUCHY_CONFIGS = {
    "a1": (-1.25, 998.25, -0.7, 998.9),
    "a2": (-1.25, 998.25, -0.45, 999.15),
    "a3": (-1.25, 998.25, -0.15, 999.45),
}

# largest n whose dense-mode metrics densify Q and Q R - A
DENSE_LIMIT = 4096


def check_dense_size(n: int) -> None:
    """Raise ValueError if dense-mode metrics would densify past DENSE_LIMIT."""
    if n > DENSE_LIMIT:
        raise ValueError(
            f"n = {n} exceeds the densification limit {DENSE_LIMIT}; "
            "pass --estimate to use power-iteration metrics")


@dataclass
class BenchRecord:
    method: str
    n: int
    seed: int
    eps: float
    kappa2: float = math.nan
    e_orth: float = math.nan
    e_acc: float = math.nan
    rank_y: float = math.nan
    rank_t: float = math.nan
    rank_q: float = math.nan
    rank_r: float = math.nan
    mem_yt_rel: float = math.nan
    mem_q_rel: float = math.nan
    mem_r_rel: float = math.nan
    time_s: float = math.nan
    failed: int = 0
    # estimate-mode bounds on e_orth and e_acc; not CSV columns
    e_orth_bound: float = math.nan
    e_acc_bound: float = math.nan

    def to_csv_row(self) -> str:
        # each field is named by the lower-case form of its CSV column
        def cell(x):
            if isinstance(x, (str, int)):
                return str(x)
            x = float(x)
            return "nan" if math.isnan(x) else f"{x:.17g}"

        return ",".join(cell(getattr(self, col)) for col in CSV_HEADER.lower().split(","))


def gen_random_hodlr(n: int, n_min: int, offdiag_rank: int = 1,
                     seed: int = 0) -> HodlrMatrix:
    """Random HODLR matrix: standard normal dense diagonal leaves, each
    off-diagonal block an outer product of standard normal factors.

    Reproducibility: every leaf and every off-diagonal block draws from
    its own PCG64 stream, spawned from SeedSequence(seed) in the HDLR1
    serialization order (a11 subtree, a21 block, a12 block, a22 subtree).
    """
    tree = build_partition(n, n_min)
    return _random_hodlr(tree, tree, offdiag_rank, seed)


def _random_hodlr(tree_rows, tree_cols, offdiag_rank, seed) -> HodlrMatrix:
    if offdiag_rank < 0:
        raise ValueError(f"offdiag_rank must be >= 0, got {offdiag_rank}")
    root = np.random.SeedSequence(seed)

    def next_rng():
        return np.random.Generator(np.random.PCG64(root.spawn(1)[0]))

    def block(i, j, n_rows, n_cols) -> LowRankBlock:
        g = next_rng()
        return LowRankBlock(g.standard_normal((n_rows, offdiag_rank)),
                            g.standard_normal((offdiag_rank, n_cols)))

    return _build(tree_rows, tree_cols,
                  lambda i, j, n_rows, n_cols: next_rng().standard_normal((n_rows, n_cols)),
                  block)


def gen_cauchy(n: int, ix_lo: float, ix_hi: float, iy_lo: float, iy_hi: float,
               perturb: float = 2e-2, seed: int = 0, eps: float = 1e-10,
               n_min: int = 250, absolute_eps: bool = False) -> HodlrMatrix:
    """Cauchy matrix 1/(x_i - y_j) on perturbed equispaced points,
    compressed into HODLR form.

    The points are n equispaced samples of the two intervals, each moved
    by +-perturb with a random sign.  With absolute_eps=False the
    compression threshold is eps * ||A||_2 (power-iteration estimate).
    """
    root = np.random.SeedSequence(seed)
    sx, sy = root.spawn(2)
    gx = np.random.Generator(np.random.PCG64(sx))
    gy = np.random.Generator(np.random.PCG64(sy))
    x = np.linspace(ix_lo, ix_hi, n) + perturb * gx.choice([-1.0, 1.0], size=n)
    y = np.linspace(iy_lo, iy_hi, n) + perturb * gy.choice([-1.0, 1.0], size=n)
    diff = x[:, None] - y[None, :]
    if np.min(np.abs(diff)) < 1e-12:
        raise ZeroDivisionError("a pair of points nearly coincides; pick other intervals")
    a = 1.0 / diff
    thresh = eps if absolute_eps else eps * spectral_norm_estimate(
        lambda v: a @ v, lambda v: a.T @ v, n)
    return from_dense(a, build_partition(n, n_min), TruncationControl(thresh))


def check_matrix_kind(kind: str) -> str:
    """Return kind if it names a benchmark matrix, random or cauchy:<config>;
    raise ValueError otherwise."""
    family, _, cfg = kind.partition(":")
    if kind == "random" or (family == "cauchy" and cfg in CAUCHY_CONFIGS):
        return kind
    raise ValueError(f"unknown matrix kind {kind!r}; expected random or "
                     f"cauchy:{{{'|'.join(CAUCHY_CONFIGS)}}}")


def check_methods(methods) -> tuple:
    """Return methods as a tuple if every entry names a benchmark method;
    raise ValueError otherwise."""
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
    return tuple(methods)


def gen_matrix(kind: str, n: int, n_min: int = 250, seed: int = 0, offdiag_rank: int = 1,
               eps: float = 1e-10, absolute_eps: bool = False) -> HodlrMatrix:
    """Benchmark matrix of the given kind: gen_random_hodlr with
    offdiag_rank, or gen_cauchy on the intervals of the named
    configuration, compressed at eps."""
    if check_matrix_kind(kind) == "random":
        return gen_random_hodlr(n, n_min, offdiag_rank, seed)
    return gen_cauchy(n, *CAUCHY_CONFIGS[kind.partition(":")[2]], seed=seed, eps=eps,
                      n_min=n_min, absolute_eps=absolute_eps)


# Estimate mode: block power iteration from a seeded Gaussian n x b block.
# The bound 10 sqrt(2/pi) max_i ||E w_i|| holds with probability 1 - 10^-b.
ESTIMATE_BLOCK = 8
ESTIMATE_SEED = 0
_ESTIMATE = dict(max_iter=30, tol=1e-6, with_bound=True)
# Dense mode: seed of the Lanczos start vector in _lanczos.
LANCZOS_SEED = 0x5EED


def _linear_operator(n: int, fwd, bwd) -> LinearOperator:
    return LinearOperator((n, n), matvec=fwd, rmatvec=bwd, matmat=fwd, rmatmat=bwd,
                          dtype=float)


def _operator(x) -> LinearOperator:
    """hqr's WY factors (as Q), a HODLR matrix or a dense array as a
    LinearOperator; the HODLR kinds go through their block products."""
    if isinstance(x, HodlrQRFactors):
        return _linear_operator(x.y.n, lambda v: apply_q(x, v),
                                lambda v: apply_q_transpose(x, v))
    if isinstance(x, HodlrMatrix):
        return _linear_operator(x.n, lambda v: apply_dense(x, v),
                                lambda v: apply_dense(x, v, trans=True))
    return aslinearoperator(np.asarray(x, dtype=float))


def _dense(x) -> np.ndarray:
    """hqr's WY factors (as Q), a HODLR matrix or a dense array as a dense
    array: a HODLR matrix through to_dense, Q = I - Y (T Y_d^T) from
    Y_d = to_dense(Y) through two HODLR products."""
    if isinstance(x, HodlrQRFactors):
        return np.eye(x.y.n) - apply_dense(x.y, apply_dense(x.t, to_dense(x.y).T))
    if isinstance(x, HodlrMatrix):
        return to_dense(x)
    return np.asarray(x, dtype=float)


def _lanczos(op) -> float:
    """The eigenvalue of largest magnitude of a symmetric matrix or
    operator from an implicitly restarted Lanczos run (ARPACK) converged to
    roundoff.  The start vector is seeded, so equal inputs give
    bit-identical values."""
    n = op.shape[0]
    lam = eigsh(op, k=1, which="LM", tol=0, return_eigenvectors=False,
                v0=np.random.default_rng(LANCZOS_SEED).standard_normal(n))
    return float(lam[0])


def _symmetric_norm(g: np.ndarray) -> float:
    """||G||_2 of a symmetric matrix: its largest |eigenvalue|, from
    _lanczos.  A zero G (ARPACK refuses it) and n <= 2 (too small for
    ARPACK) are answered directly.
    """
    if not g.any():
        return 0.0
    if g.shape[0] <= 2:
        lam = scipy.linalg.eigvalsh(g)
        return float(max(-lam[0], lam[-1]))
    return abs(_lanczos(g))


def qr_errors(a, q, r, estimate: bool = False) -> dict:
    """e_orth = ||Q^T Q - I||_2 and e_acc = ||Q R - A||_2 of a QR
    decomposition; each factor is hqr's WY factors (as Q), a HODLR matrix
    or a dense array.

    Dense mode (allowed up to DENSE_LIMIT) forms Q, R and A densely with
    _dense, and E = Q R - A by applying Q to the dense R, so hqr's WY
    factors cost five HODLR products on n columns and an explicit HODLR
    pair one; no factor is applied to the identity.  The norms of
    Q^T Q - I and of E^T E are their largest |eigenvalue| from a seeded
    Lanczos run converged to roundoff (_symmetric_norm), not from a full
    O(n^3) eigendecomposition.  Estimate mode never forms a matrix: each
    error operator gets a block power-iteration estimate, stopped at the
    first round that does not raise it by a relative 1e-6, and its
    Gaussian a-posteriori bound from round 1, reported as e_orth_bound and
    e_acc_bound (nan in dense mode).  The estimate is a lower bound only on
    the norm of the operator as computed, which includes the rounding of
    each application, not on the dense value: on random rank-1 hqr factors
    at eps 1e-10 the e_acc estimate is 1.25 to 1.54 times the dense value
    (n = 1000 and 2000), the e_orth estimate 1.002 times at n = 2000.
    """
    a_op, q_op, r_op = (_operator(x) for x in (a, q, r))
    n = a_op.shape[0]
    if estimate:
        orth = q_op.H @ q_op - _linear_operator(n, lambda v: v, lambda v: v)
        resid = q_op @ r_op - a_op
        rng = np.random.default_rng(ESTIMATE_SEED)
        (e_orth, orth_bound), (e_acc, acc_bound) = [
            spectral_norm_estimate(op.matmat, op.rmatmat, n,
                                   start=rng.standard_normal((n, ESTIMATE_BLOCK)), **_ESTIMATE)
            for op in (orth, resid)]
    else:
        check_dense_size(n)
        q_d = _dense(q)
        e_orth = _symmetric_norm(q_d.T @ q_d - np.eye(n))
        e = q_op.matmat(_dense(r)) - _dense(a)
        scale = float(np.max(np.abs(e)))  # keeps E^T E clear of under/overflow
        if scale > 0.0:
            e = e / scale
        e_acc = scale * math.sqrt(_symmetric_norm(e.T @ e))
        orth_bound = acc_bound = math.nan
    return {"e_orth": e_orth, "e_acc": e_acc, "e_orth_bound": orth_bound,
            "e_acc_bound": acc_bound}


def metrics(a, f, estimate: bool = False) -> dict:
    """Accuracy, rank and memory metrics of a QR decomposition of a.

    ``f`` is either hqr's WY-form factors or an explicit (Q, R) pair (the
    Cholesky-based baselines, or dense arrays).  e_orth and e_acc come
    from qr_errors: norms of the errors formed densely (five n-column
    HODLR products for WY factors, one for an explicit HODLR pair) from a
    seeded Lanczos run converged to roundoff, or with ``estimate`` block
    power-iteration estimates next to their bounds e_orth_bound and
    e_acc_bound; an estimate can exceed the dense value, since the operator
    it applies carries the rounding of each application.  Factors
    in HODLR form also get their maximal off-diagonal ranks and, for a
    HODLR a, their stored scalars relative to a: Y, T, Q and R for WY
    factors, whose Q is materialized by q_to_hodlr at hqr.TAU_T, the
    threshold hqr truncated T at, Q and R for an explicit pair.
    kappa2 belongs to a alone; run_bench and ``hodlrqr qr`` compute it
    once per matrix with _kappa2 (one QR and two Lanczos runs, a relative
    O(kappa2 u) from the SVD value, inf for an exact zero on R's
    diagonal).
    A must be square: any other shape raises ValueError before any product.
    """
    shape = (a.n, a.n_cols) if isinstance(a, HodlrMatrix) else np.shape(a)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"metrics requires a square matrix A, got shape {shape}")
    wy = isinstance(f, HodlrQRFactors)
    q, r = (f, f.r) if wy else f
    out = qr_errors(a, q, r, estimate)
    if wy:
        parts = {"y": f.y, "t": f.t, "q": q_to_hodlr(f), "r": f.r}
    elif isinstance(q, HodlrMatrix):
        parts = {"q": q, "r": r}
    else:  # dense factors have no ranks
        return out
    s = {key: stats(h) for key, h in parts.items()}
    out.update({f"rank_{key}": st["max_offdiag_rank"] for key, st in s.items()})
    if isinstance(a, HodlrMatrix):
        mem_a = stats(a)["memory_scalars"]
        if wy:
            out["mem_yt_rel"] = (s["y"]["memory_scalars"]
                                 + s["t"]["memory_scalars"]) / mem_a
        out["mem_q_rel"] = s["q"]["memory_scalars"] / mem_a
        out["mem_r_rel"] = s["r"]["memory_scalars"] / mem_a
    return out


def _kappa2(a) -> float:
    """The 2-norm condition number sigma_max / sigma_min of a square A.

    A is scaled by max|a_ij| (kappa2 does not depend on scale, and the
    scaling keeps 1e+-200 inputs clear of over- and underflow) and reduced
    to R by one Householder QR.  sigma_max^2 and 1/sigma_min^2 are the
    largest eigenvalues of v -> R^T (R v) and of v -> R^-1 (R^-T v), each
    from one seeded Lanczos run (_lanczos) with triangular solves; the
    second operator is scaled by c^2, c the power of two nearest below
    min|r_ii| >= sigma_min, which is exact and keeps it clear of overflow
    up to kappa2 ~ 1e300.  The one O(n^3) step is the QR, several times
    cheaper than the SVD behind np.linalg.cond.

    Like np.linalg.cond, the method is backward stable: each moves
    sigma_min by O(u ||A||_2), so the relative error of kappa2 is
    O(kappa2 u), u the unit roundoff.  An exact zero on R's diagonal (a
    zero matrix or a zero column, say) gives inf, as an exactly zero
    sigma_min does for np.linalg.cond.  n <= 2 (too small for ARPACK)
    falls back to np.linalg.cond.  Equal inputs give bit-identical values.
    """
    a_d = _dense(a)
    n = a_d.shape[0]
    if n <= 2:
        return float(np.linalg.cond(a_d, 2))
    scale = float(np.max(np.abs(a_d)))
    r = np.linalg.qr(a_d / scale if scale else a_d, mode="r")
    diag = np.abs(np.diagonal(r))
    if not diag.all():
        return math.inf
    c = math.ldexp(1.0, math.frexp(float(diag.min()))[1] - 1)

    def inverse_gram(v):
        w = scipy.linalg.solve_triangular(r, c * v, trans="T", check_finite=False)
        return c * scipy.linalg.solve_triangular(r, w, check_finite=False)

    def gram(v):
        return r.T @ (r @ v)

    big = _lanczos(_linear_operator(n, gram, gram))
    small = _lanczos(_linear_operator(n, inverse_gram, inverse_gram))
    return math.sqrt(big * small) / c


@dataclass
class BenchConfig:
    methods: tuple = ("hqr", "cholqr", "cholqr2")
    sizes: tuple = (1000, 2000, 4000)
    seeds: tuple = (0,)
    eps: float = 1e-10
    n_min: int = 250
    offdiag_rank: int = 1
    matrix: str = "random"  # or cauchy:a1|a2|a3
    absolute_eps: bool = False
    estimate: bool = False

    def __post_init__(self):
        check_methods(self.methods)
        check_matrix_kind(self.matrix)


def _run_cell(config: BenchConfig, a: HodlrMatrix, method: str, seed: int,
              tc: TruncationControl | None) -> BenchRecord:
    rec = BenchRecord(method=method, n=a.n, seed=seed, eps=config.eps)
    estimate = config.estimate or a.n > DENSE_LIMIT
    start = time.perf_counter()
    try:
        if method == "hqr":
            f = hqr(a, config.eps, absolute=config.absolute_eps)
        elif method == "dense":
            a = to_dense(a)
            f = np.linalg.qr(a)
        else:
            f = (cholqr if method == "cholqr" else cholqr2)(a, tc)
        rec.time_s = time.perf_counter() - start
        m = metrics(a, f, estimate=estimate)
        for key, val in m.items():
            setattr(rec, key, val)
    except np.linalg.LinAlgError:  # CholeskyBreakdownError included
        rec.time_s = time.perf_counter() - start
        rec.failed = 1
    return rec


def run_bench(config: BenchConfig) -> list[BenchRecord]:
    """One record per (size, seed, method) cell, in config order.

    kappa2 (dense mode only; _kappa2, a relative O(kappa2 u) from the
    SVD value, inf for an exact zero on R's diagonal) and the CholQR
    truncation threshold depend on the matrix alone and are computed
    once per generated matrix.
    Breakdown failures are recorded as rows with nan metrics and the
    failed flag set rather than skipped.
    """
    records = []
    for n in config.sizes:
        for seed in config.seeds:
            a = gen_matrix(config.matrix, n, config.n_min, seed, config.offdiag_rank,
                           config.eps, config.absolute_eps)
            kappa2 = math.nan if config.estimate or n > DENSE_LIMIT else _kappa2(a)
            tc = None
            if {"cholqr", "cholqr2"} & set(config.methods):
                norm = 1.0 if config.absolute_eps else hodlr_spectral_norm(a)
                tc = TruncationControl(config.eps * norm)
            for method in config.methods:
                rec = _run_cell(config, a, method, seed, tc)
                rec.kappa2 = kappa2
                records.append(rec)
    return records


def tolerance_sweep(matrix: str, eps_list, n: int = 2000, n_min: int = 250,
                    seed: int = 0, absolute_eps: bool = False,
                    estimate: bool = False) -> list[BenchRecord]:
    """Run hqr over a list of truncation tolerances on the same matrix
    configuration, one bench cell per tolerance (kappa2 is not computed)."""
    if not len(eps_list):
        raise ValueError("eps_list must be nonempty")
    records = []
    for eps in eps_list:
        config = BenchConfig(methods=("hqr",), sizes=(n,), seeds=(seed,), eps=eps,
                             n_min=n_min, matrix=matrix, absolute_eps=absolute_eps,
                             estimate=estimate)
        a = gen_matrix(matrix, n, n_min, seed, eps=eps, absolute_eps=absolute_eps)
        records.append(_run_cell(config, a, "hqr", seed, None))
    return records


def records_to_csv(records) -> str:
    return "\n".join([CSV_HEADER] + [r.to_csv_row() for r in records]) + "\n"
