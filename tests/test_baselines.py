import importlib

import numpy as np
import pytest

from hodlrqr import (
    CholeskyBreakdownError,
    TruncationControl,
    build_partition,
    cholqr,
    cholqr2,
    from_dense,
    to_dense,
)
from hodlrqr.bench import metrics

from conftest import hodlr_eye, random_hodlr_pair


def errors(a, q, r):
    return metrics(a, (q, r))


def test_cholqr_on_identity():
    tree = build_partition(64, 16)
    q, r = cholqr(hodlr_eye(tree), TruncationControl(1e-14))
    assert np.allclose(to_dense(r), np.eye(64), atol=1e-12)
    assert np.allclose(to_dense(q), np.eye(64), atol=1e-12)


def test_cholqr_squared_condition_number_pattern(rng):
    h, dense, _ = random_hodlr_pair(512, 64, rank=1, seed=45)
    norm = np.linalg.norm(dense, 2)
    kappa = np.linalg.cond(dense)
    q, r = cholqr(h, TruncationControl(1e-12 * norm))
    m = errors(h, q, r)
    u = np.finfo(float).eps
    # orthogonality sits around kappa^2 * u, far above hqr but residual small
    assert m["e_orth"] <= 1e4 * kappa ** 2 * u
    assert m["e_orth"] >= 1e-15
    assert m["e_acc"] <= 1e-9 * norm


def test_cholqr_breakdown_on_squared_ill_conditioning():
    # prescribed singular values with kappa ~ 1e9 make A^T A numerically
    # indefinite
    rng = np.random.default_rng(46)
    n = 128
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    m = (u * np.logspace(0, -9, n)) @ v.T
    tree = build_partition(n, 32)
    h = from_dense(m, tree, TruncationControl(1e-15))
    with pytest.raises(CholeskyBreakdownError):
        cholqr(h, TruncationControl(1e-10))


def test_cholqr2_improves_orthogonality(rng):
    h, dense, _ = random_hodlr_pair(256, 64, rank=1, seed=47)
    tc = TruncationControl(1e-12 * np.linalg.norm(dense, 2))
    q1, r1 = cholqr(h, tc)
    q2, r2 = cholqr2(h, tc)
    m1 = errors(h, q1, r1)
    m2 = errors(h, q2, r2)
    assert m2["e_orth"] < m1["e_orth"]
    # the reassembled R still reproduces A
    norm = np.linalg.norm(dense, 2)
    assert m2["e_acc"] <= 1e-9 * norm


def test_cholqr2_near_noop_on_orthogonal_input():
    tree = build_partition(48, 12)
    q, r = cholqr2(hodlr_eye(tree), TruncationControl(1e-14))
    assert np.allclose(to_dense(r), np.eye(48), atol=1e-10)


@pytest.mark.parametrize("method", [cholqr, cholqr2])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cholqr_rejects_non_finite_input_before_any_work(monkeypatch, method, bad):
    def no_gram(*args):
        raise AssertionError("gram formed before the finiteness check")

    monkeypatch.setattr(importlib.import_module("hodlrqr.baselines"), "gram", no_gram)
    a, _, _ = random_hodlr_pair(128, 32, rank=2, seed=51)
    a.a22.a21.L[5, 1] = bad
    with pytest.raises(ValueError, match="cholqr input has non-finite"):
        method(a, TruncationControl(1e-12))
