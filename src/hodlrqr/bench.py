"""Benchmark harness: matrix generators, accuracy metrics and CSV runners
for the accuracy/rank/memory experiments at desk scale."""

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, aslinearoperator

from .arith import (
    CholeskyBreakdownError,
    apply_dense,
    apply_transpose_dense,
    hodlr_spectral_norm,
)
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
        def num(x):
            x = float(x)
            return "nan" if math.isnan(x) else f"{x:.17g}"

        cols = [self.method, str(self.n), str(self.seed), f"{self.eps:.17g}",
                num(self.kappa2), num(self.e_orth), num(self.e_acc),
                num(self.rank_y), num(self.rank_t), num(self.rank_q), num(self.rank_r),
                num(self.mem_yt_rel), num(self.mem_q_rel), num(self.mem_r_rel),
                num(self.time_s), str(self.failed)]
        return ",".join(cols)


def gen_random_hodlr(n: int, n_min: int, offdiag_rank: int = 1,
                     seed: int = 0) -> HodlrMatrix:
    """Random HODLR matrix: standard normal dense diagonal leaves, each
    off-diagonal block an outer product of standard normal factors.

    Reproducibility: every leaf and every off-diagonal block draws from
    its own PCG64 stream, spawned from SeedSequence(seed) in the HDLR1
    serialization order (a11 subtree, a21 block, a12 block, a22 subtree).
    """
    tree = build_partition(n, n_min)
    root = np.random.SeedSequence(seed)

    def next_rng():
        return np.random.Generator(np.random.PCG64(root.spawn(1)[0]))

    def build(tr: PartitionTree) -> HodlrMatrix:
        if tr.level == 0:
            return HodlrMatrix(dense=next_rng().standard_normal((tr.n, tr.n)))
        t1, t2 = tr.split()
        a11 = build(t1)
        g21 = next_rng()
        a21 = LowRankBlock(g21.standard_normal((t2.n, offdiag_rank)),
                           g21.standard_normal((offdiag_rank, t1.n)))
        g12 = next_rng()
        a12 = LowRankBlock(g12.standard_normal((t1.n, offdiag_rank)),
                           g12.standard_normal((offdiag_rank, t2.n)))
        a22 = build(t2)
        return HodlrMatrix(a11=a11, a22=a22, a12=a12, a21=a21)

    return build(tree)


def _dense_norm_estimate(a: np.ndarray) -> float:
    return spectral_norm_estimate(lambda x: a @ x, lambda x: a.T @ x, a.shape[1],
                                  blocks=True)


def gen_random_rect_dense(m: int, n: int, n_min: int = 250, offdiag_rank: int = 1,
                          seed: int = 0):
    """Random rectangular block matrix with the same recipe as
    gen_random_hodlr: dense standard normal diagonal blocks, rank-1 (by
    default) off-diagonal blocks.  Returns (dense, tree_rows, tree_cols);
    the row tree divides the m rows evenly at the level of the column
    tree.
    """
    tree_cols = build_partition(n, n_min)
    leaves = 2 ** tree_cols.level
    base, rem = divmod(m, leaves)
    row_sizes = tuple(base + 1 if j < rem else base for j in range(leaves))
    tree_rows = PartitionTree(tree_cols.level, row_sizes)
    root = np.random.SeedSequence(seed)

    def next_rng():
        return np.random.Generator(np.random.PCG64(root.spawn(1)[0]))

    out = np.zeros((m, n))

    def fill(rlo, rhi, clo, chi, tr, tcs):
        if tr.level == 0:
            out[rlo:rhi, clo:chi] = next_rng().standard_normal((rhi - rlo, chi - clo))
            return
        tr1, tr2 = tr.split()
        tc1, tc2 = tcs.split()
        rmid, cmid = rlo + tr1.n, clo + tc1.n
        fill(rlo, rmid, clo, cmid, tr1, tc1)
        g21 = next_rng()
        out[rmid:rhi, clo:cmid] = g21.standard_normal((rhi - rmid, offdiag_rank)) @ \
            g21.standard_normal((offdiag_rank, cmid - clo))
        g12 = next_rng()
        out[rlo:rmid, cmid:chi] = g12.standard_normal((rmid - rlo, offdiag_rank)) @ \
            g12.standard_normal((offdiag_rank, chi - cmid))
        fill(rmid, rhi, cmid, chi, tr2, tc2)
    fill(0, m, 0, n, tree_rows, tree_cols)
    return out, tree_rows, tree_cols


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
    thresh = eps if absolute_eps else eps * _dense_norm_estimate(a)
    return from_dense(a, build_partition(n, n_min), TruncationControl(thresh))


def gen_cauchy_config(name: str, n: int = 2000, **kwargs) -> HodlrMatrix:
    """Cauchy matrix for one of the named interval configurations."""
    ix_lo, ix_hi, iy_lo, iy_hi = CAUCHY_CONFIGS[name]
    return gen_cauchy(n, ix_lo, ix_hi, iy_lo, iy_hi, **kwargs)


# Estimate mode: block power iteration from a seeded Gaussian n x b block.
# The bound 10 sqrt(2/pi) max_i ||E w_i|| holds with probability 1 - 10^-b.
ESTIMATE_BLOCK = 8
ESTIMATE_SEED = 0
_ESTIMATE = dict(max_iter=30, tol=1e-6, blocks=True, with_bound=True)


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
                                lambda v: apply_transpose_dense(x, v))
    return aslinearoperator(np.asarray(x, dtype=float))


def _symmetric_norm(g: np.ndarray) -> float:
    """||G||_2 of a symmetric matrix from its extreme eigenvalues."""
    lam = scipy.linalg.eigvalsh(g)
    return float(max(-lam[0], lam[-1]))


def qr_errors(a: LinearOperator, q: LinearOperator, r: LinearOperator,
              estimate: bool = False, dense_limit: int = 4096) -> dict:
    """e_orth = ||Q^T Q - I||_2 and e_acc = ||Q R - A||_2 of a QR
    decomposition whose three factors are given as operators.

    Dense mode densifies Q and Q R - A by applying them to the identity
    (allowed up to dense_limit) and takes exact norms from symmetric
    eigenvalue problems: the extreme eigenvalues of Q^T Q - I, the largest
    of E^T E for E = Q R - A.  Estimate mode never forms a matrix: each
    error operator gets a block power-iteration estimate (a lower bound)
    and its Gaussian a-posteriori bound, reported as e_orth_bound and
    e_acc_bound (nan in dense mode).
    """
    n = a.shape[0]
    orth = q.H @ q - _linear_operator(n, lambda v: v, lambda v: v)
    resid = q @ r - a
    out = {"e_orth_bound": math.nan, "e_acc_bound": math.nan}
    if estimate:
        rng = np.random.default_rng(ESTIMATE_SEED)
        for key, op in (("e_orth", orth), ("e_acc", resid)):
            out[key], out[f"{key}_bound"] = spectral_norm_estimate(
                op.matmat, op.rmatmat, n,
                start=rng.standard_normal((n, ESTIMATE_BLOCK)), **_ESTIMATE)
        return out
    if n > dense_limit:
        raise ValueError(
            f"n = {n} exceeds the densification limit {dense_limit}; "
            "pass --estimate to use power-iteration metrics")
    eye = np.eye(n)
    q_d = q.matmat(eye)
    out["e_orth"] = _symmetric_norm(q_d.T @ q_d - eye)
    e = resid.matmat(eye)
    scale = float(np.max(np.abs(e)))  # keeps E^T E clear of under/overflow
    if scale > 0.0:
        e = e / scale
    out["e_acc"] = scale * math.sqrt(_symmetric_norm(e.T @ e))
    return out


def metrics(a, f, eps: float = 1e-10, estimate: bool = False,
            dense_limit: int = 4096, compute_kappa: bool = True,
            compute_ranks: bool = True) -> dict:
    """Accuracy, rank and memory metrics of a QR decomposition of a.

    ``f`` is either hqr's WY-form factors or an explicit (Q, R) pair (the
    Cholesky-based baselines, or dense arrays).  e_orth and e_acc come
    from qr_errors: exact norms of the densified errors, or with
    ``estimate`` block power-iteration estimates next to their bounds
    e_orth_bound and e_acc_bound.  kappa2 needs the dense matrix and is nan
    in estimate mode.  Ranks and memory are the maximal off-diagonal ranks
    and the stored scalars relative to a of Y, T, Q and R (Y and T only for
    WY factors, whose Q is materialized at ``eps`` for its statistics).
    """
    wy = isinstance(f, HodlrQRFactors)
    q, r = (f, f.r) if wy else f
    out = qr_errors(_operator(a), _operator(q), _operator(r), estimate, dense_limit)
    out["kappa2"] = math.nan
    if compute_kappa and not estimate:
        out["kappa2"] = _kappa2(a)
    if compute_ranks:
        parts = {"y": f.y, "t": f.t, "q": q_to_hodlr(f, eps), "r": f.r} if wy else \
            {"q": q, "r": r}
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


def metrics_explicit(a, q, r, estimate: bool = False, dense_limit: int = 4096) -> dict:
    """e_orth and e_acc (and their bounds) for a QR decomposition with Q
    given explicitly (the Cholesky-based baselines)."""
    return qr_errors(_operator(a), _operator(q), _operator(r), estimate, dense_limit)


def _kappa2(a) -> float:
    a_d = to_dense(a) if isinstance(a, HodlrMatrix) else np.asarray(a, dtype=float)
    return float(np.linalg.cond(a_d, 2))


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
    dense_limit: int = 4096

    def __post_init__(self):
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
        if self.matrix != "random":
            kind, _, cfg = self.matrix.partition(":")
            if kind != "cauchy" or cfg not in CAUCHY_CONFIGS:
                raise ValueError(f"unknown matrix kind {self.matrix!r}")


def _generate(config: BenchConfig, n: int, seed: int) -> HodlrMatrix:
    if config.matrix == "random":
        return gen_random_hodlr(n, config.n_min, config.offdiag_rank, seed)
    cfg = config.matrix.partition(":")[2]
    return gen_cauchy_config(cfg, n=n, seed=seed, eps=config.eps,
                             n_min=config.n_min, absolute_eps=config.absolute_eps)


def _run_cell(config: BenchConfig, a: HodlrMatrix, method: str, n: int, seed: int,
              estimate: bool, tc: TruncationControl | None) -> BenchRecord:
    rec = BenchRecord(method=method, n=n, seed=seed, eps=config.eps)
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
        m = metrics(a, f, eps=config.eps, estimate=estimate,
                    dense_limit=config.dense_limit, compute_kappa=False,
                    compute_ranks=method != "dense")
        for key, val in m.items():
            setattr(rec, key, val)
    except (CholeskyBreakdownError, np.linalg.LinAlgError):
        rec.time_s = time.perf_counter() - start
        rec.failed = 1
    return rec


def run_bench(config: BenchConfig) -> list[BenchRecord]:
    """One record per (size, seed, method) cell, in config order.

    kappa2 (dense mode only) and the CholQR truncation threshold depend
    on the matrix alone and are computed once per generated matrix.
    Breakdown failures are recorded as rows with nan metrics and the
    failed flag set rather than skipped.
    """
    records = []
    for n in config.sizes:
        estimate = config.estimate or n > config.dense_limit
        for seed in config.seeds:
            a = _generate(config, n, seed)
            kappa2 = math.nan if estimate else _kappa2(a)
            tc = None
            if {"cholqr", "cholqr2"} & set(config.methods):
                norm = 1.0 if config.absolute_eps else hodlr_spectral_norm(a)
                tc = TruncationControl(config.eps * norm)
            for method in config.methods:
                rec = _run_cell(config, a, method, n, seed, estimate, tc)
                rec.kappa2 = kappa2
                records.append(rec)
    return records


def tolerance_sweep(matrix: str, eps_list, n: int = 2000, n_min: int = 250,
                    seed: int = 0, offdiag_rank: int = 1,
                    absolute_eps: bool = False, estimate: bool = False,
                    dense_limit: int = 4096) -> list[BenchRecord]:
    """Run hqr over a list of truncation tolerances on the same matrix
    configuration, recording e_orth and e_acc per tolerance."""
    if not len(eps_list):
        raise ValueError("eps_list must be nonempty")
    records = []
    for eps in eps_list:
        if matrix == "random":
            a = gen_random_hodlr(n, n_min, offdiag_rank, seed)
        else:
            kind, _, cfg = matrix.partition(":")
            if kind != "cauchy" or cfg not in CAUCHY_CONFIGS:
                raise ValueError(f"unknown matrix kind {matrix!r}")
            a = gen_cauchy_config(cfg, n=n, seed=seed, eps=eps, n_min=n_min,
                                  absolute_eps=absolute_eps)
        rec = BenchRecord(method="hqr", n=n, seed=seed, eps=eps)
        start = time.perf_counter()
        f = hqr(a, eps, absolute=absolute_eps)
        rec.time_s = time.perf_counter() - start
        m = metrics(a, f, eps=eps, estimate=estimate or n > dense_limit,
                    dense_limit=dense_limit, compute_kappa=False)
        for key, val in m.items():
            setattr(rec, key, val)
        records.append(rec)
    return records


def records_to_csv(records) -> str:
    return "\n".join([CSV_HEADER] + [r.to_csv_row() for r in records]) + "\n"


def write_csv(records, path) -> None:
    with open(path, "w") as fh:
        fh.write(records_to_csv(records))
