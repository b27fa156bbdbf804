import importlib
import sys

import numpy as np
import pytest

from hodlrqr import (
    HodlrMatrix,
    LowRankBlock,
    PartitionTree,
    TruncationControl,
    build_partition,
    from_dense,
    to_dense,
)
from hodlrqr.bench import _random_hodlr
from hodlrqr.core import _nodes, left_orthogonalize

hqr_mod = importlib.import_module("hodlrqr.hqr")

UPPER_TRIANGULAR = "upper_triangular"
UNIT_LOWER_TRIANGULAR = "unit_lower_triangular"


def random_hodlr_pair(n, n_min, rank=1, seed=0, scale=1.0):
    """Random HODLR matrix with exactly low-rank off-diagonal blocks,
    returned together with its dense counterpart."""
    rng = np.random.default_rng(seed)
    tree = build_partition(n, n_min)

    def build(tr):
        if tr.level == 0:
            return HodlrMatrix(dense=scale * rng.standard_normal((tr.n, tr.n)))
        t1, t2 = tr.split()
        a11 = build(t1)
        a21 = LowRankBlock(scale * rng.standard_normal((t2.n, rank)),
                           rng.standard_normal((rank, t1.n)))
        a12 = LowRankBlock(scale * rng.standard_normal((t1.n, rank)),
                           rng.standard_normal((rank, t2.n)))
        a22 = build(t2)
        return HodlrMatrix(a11=a11, a22=a22, a12=a12, a21=a21)

    h = build(tree)
    return h, to_dense(h), tree


def spd_hodlr_pair(n, n_min, seed=0):
    """Well-conditioned symmetric positive definite test matrix."""
    rng = np.random.default_rng(seed)
    tree = build_partition(n, n_min)
    m = rng.standard_normal((n, n))
    spd = m @ m.T / n + 5.0 * np.eye(n)
    h = from_dense(spd, tree, TruncationControl(1e-13 * np.linalg.norm(spd, 2)))
    return h, to_dense(h), tree


def random_hodlr(rng, tree, ranks=(0, 1, 2, 3), zero_blocks=True, upper=False, tree_cols=None):
    """HODLR matrix on ``tree`` whose off-diagonal blocks take a rank from
    ``ranks``; with ``zero_blocks`` about half of them hold zeros in a
    nonzero rank.  ``upper`` gives an upper triangular matrix (rank-0
    a21 blocks) whose leaves have a dominant diagonal.  ``tree_cols``
    splits the columns (default: ``tree``)."""
    cols = tree if tree_cols is None else tree_cols
    if tree.level == 0:
        d = rng.standard_normal((tree.n, cols.n))
        if upper:
            signs = rng.choice([-1.0, 1.0], tree.n)
            d = np.triu(d) / tree.n + np.diag(signs * rng.uniform(1.0, 2.0, tree.n))
        return HodlrMatrix(dense=d)
    (t1, t2), (c1, c2) = tree.split(), cols.split()

    def block(n_rows, n_cols):
        k = int(rng.choice(ranks))
        scale = float(rng.choice([0.0, 1.0])) if zero_blocks else 1.0
        return LowRankBlock(scale * rng.standard_normal((n_rows, k)),
                            rng.standard_normal((k, n_cols)) / np.sqrt(n_cols))

    a11 = random_hodlr(rng, t1, ranks, zero_blocks, upper, c1)
    a22 = random_hodlr(rng, t2, ranks, zero_blocks, upper, c2)
    a21 = LowRankBlock.zero(t2.n, c1.n) if upper else block(t2.n, c1.n)
    return HodlrMatrix(a11=a11, a22=a22, a12=block(t1.n, c2.n), a21=a21)


def nested_hodlr(rng, shape, rank=1):
    """HODLR matrix built by hand from the nesting ``shape``: a tuple (m, n)
    is a standard normal m x n leaf, a list [a11, a22] a node whose
    off-diagonal blocks have rank ``rank``, so trees may be unbalanced."""
    if isinstance(shape, tuple):
        return HodlrMatrix(dense=rng.standard_normal(shape))
    a11, a22 = (nested_hodlr(rng, s, rank) for s in shape)

    def block(n_rows, n_cols):
        return LowRankBlock(rng.standard_normal((n_rows, rank)),
                            rng.standard_normal((rank, n_cols)))

    return HodlrMatrix(a11=a11, a22=a22, a12=block(a11.n, a22.n_cols),
                       a21=block(a22.n, a11.n_cols))


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that appends the positional
    arguments of every call to the returned list."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_calls_everywhere(monkeypatch, module, name) -> list:
    """count_calls on module.name and on every hodlrqr module that imported
    the same function by name; one list per binding."""
    func = getattr(module, name)
    bound = [mod for key, mod in sorted(sys.modules.items())
             if (key == "hodlrqr" or key.startswith("hodlrqr."))
             and getattr(mod, name, None) is func]
    return [count_calls(monkeypatch, mod, name) for mod in bound]


class NoScipy:
    """Stand-in for a module's ``scipy`` that fails any attribute access,
    naming ``caller``: the code under test must not reach scipy."""

    def __init__(self, caller):
        self.caller = caller

    def __getattr__(self, name):
        raise AssertionError(f"{self.caller} reached scipy.{name}")


def gen_random_rect_dense(m, n, n_min=250, offdiag_rank=1, seed=0):
    """Random rectangular block matrix with the recipe of
    bench.gen_random_hodlr, as a dense array.  Returns (dense, tree_rows,
    tree_cols); the row tree divides the m rows evenly at the level of the
    column tree."""
    tree_cols = build_partition(n, n_min)
    leaves = 2 ** tree_cols.level
    base, rem = divmod(m, leaves)
    row_sizes = tuple(base + 1 if j < rem else base for j in range(leaves))
    tree_rows = PartitionTree(tree_cols.level, row_sizes)
    return to_dense(_random_hodlr(tree_rows, tree_cols, offdiag_rank, seed)), tree_rows, tree_cols


def structured_qr(a, b, c, eps, p=None):
    """hqr's recursion step on the structured block column [A + P; B; C]
    with its sums truncated at eps and, by default, no pending block P.  B is
    orthogonalized first, as hqr's frames do with each B they make.
    Returns (Y_A, Y_B, Y_C, T, R)."""
    p = LowRankBlock.zero(a.n, a.n_cols) if p is None else p
    return hqr_mod._hqr_rec(a, left_orthogonalize(b), c, p, TruncationControl(eps))


def hodlr_arrays(*hs):
    """The leaves and low-rank factors of the HODLR matrices hs, in
    post-order node by node."""
    for h in hs:
        for _, _, x in _nodes(h):
            yield from [x.dense] if x.is_leaf else [x.a12.L, x.a12.R, x.a21.L, x.a21.R]


def structured_y_dense(y_a, y_b, y_c):
    """The dense rows [Y_A; Y_B; Y_C] of a structured Y."""
    return np.vstack([to_dense(y_a), y_b.to_dense(), y_c])


def hodlr_eye(tree):
    """The identity on ``tree`` in HODLR form, with rank-0 off-diagonal blocks."""
    return from_dense(np.eye(tree.n), tree, TruncationControl(0.0))


def validate_structure(h, tag):
    """Assert the structural invariants of ``tag`` on h and all its nodes.

    UPPER_TRIANGULAR requires every a21 block to have rank 0 and every leaf
    to be upper triangular; UNIT_LOWER_TRIANGULAR is the mirror image with
    unit leaf diagonals.
    """
    if tag not in (UPPER_TRIANGULAR, UNIT_LOWER_TRIANGULAR):
        raise ValueError(f"unknown structure tag {tag!r}")
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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
