import math
import subprocess
import sys

import numpy as np
import pytest

from hodlrqr import hqr, read_hodlr, stats, to_dense
from hodlrqr.bench import (
    BenchConfig,
    CSV_HEADER,
    gen_cauchy,
    gen_cauchy_config,
    gen_random_hodlr,
    metrics,
    records_to_csv,
    run_bench,
    tolerance_sweep,
)
from hodlrqr.cli import main


def hodlr_equal(h1, h2):
    if h1.is_leaf != h2.is_leaf:
        return False
    if h1.is_leaf:
        return np.array_equal(h1.dense, h2.dense)
    return (np.array_equal(h1.a12.L, h2.a12.L) and np.array_equal(h1.a12.R, h2.a12.R)
            and np.array_equal(h1.a21.L, h2.a21.L) and np.array_equal(h1.a21.R, h2.a21.R)
            and hodlr_equal(h1.a11, h2.a11) and hodlr_equal(h1.a22, h2.a22))


def test_gen_random_deterministic():
    a = gen_random_hodlr(200, 50, 1, seed=17)
    b = gen_random_hodlr(200, 50, 1, seed=17)
    assert hodlr_equal(a, b)
    c = gen_random_hodlr(200, 50, 1, seed=18)
    assert not hodlr_equal(a, c)


def test_gen_random_rank():
    a = gen_random_hodlr(128, 16, 1, seed=0)
    assert stats(a)["max_offdiag_rank"] == 1
    b = gen_random_hodlr(128, 16, 3, seed=0)
    assert stats(b)["max_offdiag_rank"] == 3


def test_gen_cauchy_toy_entries():
    # n = 2: entries 1/(x_i - y_j) checked directly against the points
    a = gen_cauchy(2, 0.0, 1.0, 3.0, 4.0, perturb=1e-3, seed=5, eps=0.0, n_min=4)
    dense = to_dense(a)
    root = np.random.SeedSequence(5)
    sx, sy = root.spawn(2)
    gx = np.random.Generator(np.random.PCG64(sx))
    gy = np.random.Generator(np.random.PCG64(sy))
    x = np.linspace(0.0, 1.0, 2) + 1e-3 * gx.choice([-1.0, 1.0], size=2)
    y = np.linspace(3.0, 4.0, 2) + 1e-3 * gy.choice([-1.0, 1.0], size=2)
    assert np.allclose(dense, 1.0 / (x[:, None] - y[None, :]))


def test_gen_cauchy_coincident_points_raise():
    with pytest.raises(ZeroDivisionError):
        gen_cauchy(4, 0.0, 1.0, 0.0, 1.0, perturb=0.0, seed=0)


def test_gen_cauchy_config_rank():
    # this point configuration keeps off-diagonal ranks around 20
    a = gen_cauchy_config("a2", n=500, seed=0, eps=1e-10, n_min=125)
    assert 5 <= stats(a)["max_offdiag_rank"] <= 24


def test_metrics_identity_factorization():
    from hodlrqr import build_partition, hodlr_identity
    a = hodlr_identity(build_partition(96, 24))
    f = hqr(a, 1e-14)
    m = metrics(a, f, eps=1e-14, compute_kappa=False, compute_ranks=False)
    u = np.finfo(float).eps
    assert m["e_orth"] <= 96 * u and m["e_acc"] <= 96 * u


def test_metrics_estimate_agrees_with_dense():
    # run at a loose tolerance so the errors sit far above roundoff, where
    # both measurement routes see the same quantity
    a = gen_cauchy_config("a2", n=512, seed=1, eps=1e-5, n_min=128)
    f = hqr(a, 1e-5)
    exact = metrics(a, f, estimate=False, compute_kappa=False, compute_ranks=False)
    est = metrics(a, f, estimate=True, compute_ranks=False)
    assert est["e_orth"] == pytest.approx(exact["e_orth"], rel=5e-3)
    assert est["e_acc"] == pytest.approx(exact["e_acc"], rel=5e-3)


def test_metrics_size_limit_error():
    a = gen_random_hodlr(128, 32, seed=0)
    f = hqr(a, 1e-12)
    with pytest.raises(ValueError, match="--estimate"):
        metrics(a, f, estimate=False, dense_limit=64)


def test_run_bench_cardinality_and_header():
    config = BenchConfig(methods=("hqr", "cholqr", "cholqr2"), sizes=(96, 128),
                         seeds=(0,), eps=1e-10, n_min=32)
    records = run_bench(config)
    assert len(records) == 6
    csv = records_to_csv(records)
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    # fixed row order: sizes outer, methods inner
    assert [ln.split(",")[0] for ln in lines[1:]] == \
        ["hqr", "cholqr", "cholqr2"] * 2


def test_run_bench_deterministic_numeric_columns():
    config = BenchConfig(methods=("hqr",), sizes=(128,), seeds=(3,), n_min=32)
    rows1 = records_to_csv(run_bench(config)).strip().split("\n")[1].split(",")
    rows2 = records_to_csv(run_bench(config)).strip().split("\n")[1].split(",")
    time_col = CSV_HEADER.split(",").index("time_s")
    for i, (a, b) in enumerate(zip(rows1, rows2)):
        if i != time_col:
            assert a == b


def test_run_bench_failure_row():
    # prescribed ill-conditioning breaks cholqr but still emits a row
    config = BenchConfig(methods=("cholqr",), sizes=(2000,), seeds=(0,),
                         eps=1e-10, n_min=250, matrix="cauchy:a3", estimate=True)
    records = run_bench(config)
    assert len(records) == 1
    rec = records[0]
    assert rec.failed == 1 or rec.e_orth >= 1e-3
    if rec.failed:
        assert math.isnan(rec.e_orth)
        line = rec.to_csv_row()
        assert line.endswith(",1")
        assert ",nan," in line


def test_run_bench_dense_method():
    config = BenchConfig(methods=("dense",), sizes=(96,), seeds=(0,), n_min=32)
    rec = run_bench(config)[0]
    assert rec.e_orth <= 1e-13
    assert math.isnan(rec.rank_y)


def test_tolerance_sweep_rows():
    recs = tolerance_sweep("random", [1e-4, 1e-8], n=128, n_min=32, seed=0)
    assert [r.eps for r in recs] == [1e-4, 1e-8]
    assert all(r.method == "hqr" for r in recs)
    assert recs[1].e_acc <= recs[0].e_acc


def test_csv_nan_spelling():
    from hodlrqr.bench import BenchRecord
    rec = BenchRecord(method="hqr", n=10, seed=0, eps=1e-10)
    row = rec.to_csv_row()
    assert "nan" in row
    assert "NaN" not in row


def test_cli_gen_qr_round_trip(tmp_path):
    matrix_path = tmp_path / "a.hdlr1"
    rc = main(["gen", "--matrix", "random", "--n", "200", "--nmin", "50",
               "--seed", "4", "--out", str(matrix_path)])
    assert rc == 0
    a = read_hodlr(matrix_path)
    assert a.n == 200
    assert hodlr_equal(a, gen_random_hodlr(200, 50, 1, seed=4))

    prefix = tmp_path / "fac"
    rc = main(["qr", str(matrix_path), "--eps", "1e-12", "--out-prefix", str(prefix)])
    assert rc == 0
    y = read_hodlr(f"{prefix}.y.hdlr1")
    t = read_hodlr(f"{prefix}.t.hdlr1")
    r = read_hodlr(f"{prefix}.r.hdlr1")
    yd, td = to_dense(y), to_dense(t)
    q = np.eye(200) - yd @ td @ yd.T
    ad = to_dense(a)
    assert np.linalg.norm(q @ to_dense(r) - ad, 2) <= 1e-10 * np.linalg.norm(ad, 2)


def test_cli_qr_estimate_prints_bounds(tmp_path, capsys):
    matrix_path = tmp_path / "a.hdlr1"
    main(["gen", "--n", "300", "--nmin", "64", "--seed", "2", "--out", str(matrix_path)])
    capsys.readouterr()
    rc = main(["qr", str(matrix_path), "--eps", "1e-10", "--estimate",
               "--out-prefix", str(tmp_path / "fac")])
    assert rc == 0
    tokens = capsys.readouterr().out.split()
    printed = dict(tok.split("=", 1) for tok in tokens)
    assert len(printed) == len(tokens)
    for key in ("e_orth", "e_acc"):
        assert 0 < float(printed[key]) <= float(printed[f"{key}_bound"])
    assert printed["kappa2"] == "nan"


def test_cli_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--methods", "hqr", "--sizes", "96", "--seeds", "0",
               "--nmin", "32", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2


def test_cli_sweep_stdout(capsys):
    rc = main(["sweep", "--matrix", "random", "--n", "96", "--nmin", "32",
               "--eps-list", "1e-6,1e-10"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_cli_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "hodlrqr.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "bench" in proc.stdout


def test_cli_rejects_bad_matrix_kind():
    with pytest.raises(SystemExit):
        main(["gen", "--matrix", "cauchy:a9", "--out", "x"])
