import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hodlrqr import (
    HodlrMatrix,
    LowRankBlock,
    arith,
    bench,
    build_partition,
    cli,
    hqr,
    read_hodlr,
    stats,
    to_dense,
    write_hodlr,
)
from hodlrqr.bench import (
    BenchConfig,
    CSV_HEADER,
    check_matrix_kind,
    check_methods,
    gen_cauchy,
    gen_matrix,
    gen_random_hodlr,
    metrics,
    records_to_csv,
    run_bench,
    tolerance_sweep,
)
from hodlrqr.cli import main

from conftest import count_calls_everywhere, hodlr_eye

# the lines ``hodlrqr qr`` prints: kappa2, then metrics' dict in its order
QR_KEYS = ["kappa2", "e_orth", "e_acc", "e_orth_bound", "e_acc_bound", "rank_y", "rank_t",
           "rank_q", "rank_r", "mem_yt_rel", "mem_q_rel", "mem_r_rel"]


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


def test_gen_random_spawns_one_stream_per_part_in_hdlr1_order():
    # every leaf and block draws from the next SeedSequence(seed).spawn(1)
    # stream, in the order a11 subtree, a21, a12, a22 subtree
    n, n_min, k, seed = 203, 30, 2, 7
    root = np.random.SeedSequence(seed)

    def stream():
        return np.random.Generator(np.random.PCG64(root.spawn(1)[0]))

    def block(n_rows, n_cols):
        g = stream()
        return LowRankBlock(g.standard_normal((n_rows, k)), g.standard_normal((k, n_cols)))

    def rebuild(tree):
        if tree.level == 0:
            return HodlrMatrix(dense=stream().standard_normal((tree.n, tree.n)))
        t1, t2 = tree.split()
        a11 = rebuild(t1)
        a21 = block(t2.n, t1.n)
        a12 = block(t1.n, t2.n)
        return HodlrMatrix(a11=a11, a22=rebuild(t2), a12=a12, a21=a21)

    expected = rebuild(build_partition(n, n_min))
    assert expected.leaf_sizes() == (51, 51, 51, 50)
    assert hodlr_equal(gen_random_hodlr(n, n_min, k, seed), expected)


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
    a = gen_matrix("cauchy:a2", 500, n_min=125, seed=0, eps=1e-10)
    assert 5 <= stats(a)["max_offdiag_rank"] <= 24


def test_metrics_identity_factorization():
    a = hodlr_eye(build_partition(96, 24))
    f = hqr(a, 1e-14)
    m = metrics(a, f)
    u = np.finfo(float).eps
    assert m["e_orth"] <= 96 * u and m["e_acc"] <= 96 * u


def test_metrics_estimate_agrees_with_dense():
    # run at a loose tolerance so the errors sit far above roundoff, where
    # both measurement routes see the same quantity
    a = gen_matrix("cauchy:a2", 512, n_min=128, seed=1, eps=1e-5)
    f = hqr(a, 1e-5)
    exact = metrics(a, f, estimate=False)
    est = metrics(a, f, estimate=True)
    assert est["e_orth"] == pytest.approx(exact["e_orth"], rel=5e-3)
    assert est["e_acc"] == pytest.approx(exact["e_acc"], rel=5e-3)


def test_metrics_size_limit_error(monkeypatch):
    a = gen_random_hodlr(128, 32, seed=0)
    f = hqr(a, 1e-12)
    monkeypatch.setattr(bench, "DENSE_LIMIT", 64)
    # refused before anything is densified or multiplied
    calls = (count_calls_everywhere(monkeypatch, arith, "apply_dense")
             + count_calls_everywhere(monkeypatch, bench, "to_dense"))
    with pytest.raises(ValueError, match="--estimate"):
        metrics(a, f, estimate=False)
    assert not any(calls)


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


@pytest.mark.parametrize("matrix", ["random", "cauchy:a2"])
@pytest.mark.parametrize("estimate", [False, True])
def test_tolerance_sweep_row_matches_bench_row(matrix, estimate):
    config = BenchConfig(methods=("hqr",), sizes=(128,), seeds=(2,), eps=1e-8, n_min=32,
                         matrix=matrix, estimate=estimate)
    bench_rec = run_bench(config)[0]
    sweep_rec = tolerance_sweep(matrix, [1e-8], n=128, n_min=32, seed=2,
                                estimate=estimate)[0]
    assert math.isnan(sweep_rec.kappa2)
    header = CSV_HEADER.split(",")
    skip = {header.index("time_s"), header.index("kappa2")}

    def kept(rec):
        return [c for i, c in enumerate(rec.to_csv_row().split(",")) if i not in skip]

    assert kept(sweep_rec) == kept(bench_rec)
    assert sweep_rec.failed == 0


def test_tolerance_sweep_hqr_failure_row(monkeypatch):
    def broken_hqr(*args, **kwargs):
        raise np.linalg.LinAlgError("singular leaf")

    monkeypatch.setattr(bench, "hqr", broken_hqr)
    recs = tolerance_sweep("random", [1e-4, 1e-8], n=64, n_min=32)
    assert [r.failed for r in recs] == [1, 1]
    assert all(math.isnan(r.e_orth) and r.to_csv_row().endswith(",1") for r in recs)


def test_csv_nan_spelling():
    from hodlrqr.bench import BenchRecord
    rec = BenchRecord(method="hqr", n=10, seed=0, eps=1e-10)
    row = rec.to_csv_row()
    assert "nan" in row
    assert "NaN" not in row


def test_cli_gen_qr_round_trip(tmp_path, capsys):
    matrix_path = tmp_path / "a.hdlr1"
    rc = main(["gen", "--matrix", "random", "--n", "200", "--nmin", "50",
               "--seed", "4", "--out", str(matrix_path)])
    assert rc == 0
    a = read_hodlr(matrix_path)
    assert a.n == 200
    assert hodlr_equal(a, gen_random_hodlr(200, 50, 1, seed=4))

    prefix = tmp_path / "fac"
    capsys.readouterr()
    rc = main(["qr", str(matrix_path), "--eps", "1e-12", "--out-prefix", str(prefix)])
    assert rc == 0
    printed = dict(tok.split("=", 1) for tok in capsys.readouterr().out.split())
    assert list(printed) == QR_KEYS
    # kappa2 is a property of A, computed once by the command itself
    assert float(printed["kappa2"]) == pytest.approx(np.linalg.cond(to_dense(a)), rel=1e-12)
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
    assert list(printed) == QR_KEYS and len(printed) == len(tokens)
    for key in ("e_orth", "e_acc"):
        assert 0 < float(printed[key]) <= float(printed[f"{key}_bound"])
    assert printed["kappa2"] == "nan"


def test_cli_qr_refuses_dense_metrics_past_limit_before_work(tmp_path, capsys,
                                                              monkeypatch):
    matrix_path = tmp_path / "a.hdlr1"
    main(["gen", "--n", "128", "--nmin", "32", "--out", str(matrix_path)])
    capsys.readouterr()
    monkeypatch.setattr(bench, "DENSE_LIMIT", 64)
    ran = []
    monkeypatch.setattr(cli, "hqr", lambda *args, **kwargs: ran.append(1))
    rc = main(["qr", str(matrix_path), "--out-prefix", str(tmp_path / "fac")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "n = 128 exceeds the densification limit 64" in err and "--estimate" in err
    assert not ran
    assert not list(tmp_path.glob("fac*.hdlr1"))


def _nan_leaf_file(path):
    h = gen_random_hodlr(128, 32, 1, seed=5)
    h.a11.a11.dense[3, 1] = np.nan
    write_hodlr(h, path)


@pytest.mark.parametrize("make, message", [
    (lambda p: p.write_bytes(b"HDLR"), "file too short"),
    (lambda p: p.write_bytes(b"NOPE" * 8), "bad magic"),
    (lambda p: (main(["gen", "--n", "128", "--nmin", "32", "--out", str(p)]),
                p.write_bytes(p.read_bytes()[:-9])), "checksum mismatch"),
    (_nan_leaf_file, "non-finite"),
    (lambda p: None, "No such file"),
])
def test_cli_qr_refuses_unusable_input_before_work(make, message, tmp_path, capsys,
                                                    monkeypatch):
    matrix_path = tmp_path / "a.hdlr1"
    make(matrix_path)
    capsys.readouterr()
    ran = []
    monkeypatch.setattr(cli, "hqr", lambda *args, **kwargs: ran.append(1))
    rc = main(["qr", str(matrix_path), "--estimate", "--out-prefix", str(tmp_path / "fac")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("hodlrqr qr: ") and message in err
    assert not ran
    assert not list(tmp_path.glob("fac*.hdlr1"))


@pytest.mark.parametrize("argv", [["bench", "--sizes", "64", "--nmin", "32"],
                                  ["sweep", "--matrix", "random", "--n", "64", "--nmin", "32"]])
def test_cli_unwritable_out_fails_before_any_cell(argv, tmp_path, capsys, monkeypatch):
    ran = []
    for name in ("run_bench", "tolerance_sweep"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: ran.append(name))
    rc = main(argv + ["--out", str(tmp_path / "missing" / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"hodlrqr {argv[0]}: ") and "No such file" in err
    assert not ran


def test_cli_unwritable_matrix_or_factor_path_exits_2(tmp_path, capsys, monkeypatch):
    matrix_path = tmp_path / "a.hdlr1"
    assert main(["gen", "--n", "64", "--nmin", "32", "--out", str(matrix_path)]) == 0
    capsys.readouterr()
    # the paths are checked before any matrix is generated or factored
    ran = []
    for name in ("gen_matrix", "hqr"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: ran.append(name))
    missing = tmp_path / "missing"
    rc = main(["gen", "--n", "64", "--nmin", "32", "--out", str(missing / "a.hdlr1")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("hodlrqr gen: ") and "No such file" in captured.err
    rc = main(["qr", str(matrix_path), "--out-prefix", str(missing / "fac")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("hodlrqr qr: ") and "No such file" in captured.err
    assert captured.out == ""
    assert not ran
    assert not list(tmp_path.rglob("fac*.hdlr1"))


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
    # the subprocess finds the package the way pytest's pythonpath does
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "hodlrqr.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "bench" in proc.stdout


def test_cli_rejects_bad_matrix_kind(tmp_path, capsys):
    with pytest.raises(ValueError) as err:
        check_matrix_kind("cauchy:a9")
    message = str(err.value)
    assert "'cauchy:a9'" in message and "cauchy:{a1|a2|a3}" in message
    for make in (lambda: BenchConfig(matrix="cauchy:a9"),
                 lambda: tolerance_sweep("cauchy:a9", [1e-8], n=64, n_min=32),
                 lambda: gen_matrix("cauchy:a9", 64, 32)):
        with pytest.raises(ValueError) as other:
            make()
        assert str(other.value) == message
    for command in ("gen", "bench", "sweep"):
        with pytest.raises(SystemExit):
            main([command, "--matrix", "cauchy:a9", "--out", str(tmp_path / "x")])
        assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()

    # methods have one check as well
    with pytest.raises(ValueError) as err:
        check_methods(("hqr", "foo"))
    message = str(err.value)
    assert "'foo'" in message and "'cholqr2'" in message
    with pytest.raises(ValueError) as other:
        BenchConfig(methods=("foo",))
    assert str(other.value) == message
    with pytest.raises(SystemExit):
        main(["bench", "--methods", "hqr,foo", "--out", str(tmp_path / "x")])
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv,message", [
    (["bench", "--nmin", "0"], "argument --nmin: expected an integer >= 1, got 0"),
    (["bench", "--sizes", "600,0"], "argument --sizes: expected an integer >= 1, got 0"),
    (["bench", "--rank", "-1", "--sizes", "600"],
     "argument --rank: expected an integer >= 0, got -1"),
    (["bench", "--eps", "-1"], "argument --eps: eps must be finite and >= 0"),
    (["bench", "--sizes", "600", "--eps", "nan"], "argument --eps: eps must be finite"),
    (["bench", "--sizes", "600", "--eps", "inf"], "argument --eps: eps must be finite"),
    (["gen", "--n", "0"], "argument --n: expected an integer >= 1, got 0"),
    (["gen", "--nmin", "-3"], "argument --nmin: expected an integer >= 1, got -3"),
    (["gen", "--rank", "-2"], "argument --rank: expected an integer >= 0, got -2"),
    (["gen", "--matrix", "cauchy:a1", "--eps", "nan"], "argument --eps: eps must be finite"),
    (["sweep", "--eps-list", "1e-4,-1"], "argument --eps-list: eps must be finite and >= 0"),
    (["sweep", "--eps-list", "1e-4,inf"], "argument --eps-list: eps must be finite"),
    (["sweep", "--n", "0"], "argument --n: expected an integer >= 1, got 0"),
    (["sweep", "--nmin", "0"], "argument --nmin: expected an integer >= 1, got 0"),
    (["sweep", "--seed", "-1"], "argument --seed: expected an integer >= 0, got -1"),
    (["sweep", "--eps-list", ","], "argument --eps-list: expected a nonempty"),
    (["bench", "--seeds", "0,-1"], "argument --seeds: expected an integer >= 0, got -1"),
    (["bench", "--sizes", ","], "argument --sizes: expected a nonempty"),
    (["bench", "--methods", ","], "argument --methods: expected a nonempty"),
    (["gen", "--seed", "-5"], "argument --seed: expected an integer >= 0, got -5"),
])
def test_cli_rejects_bad_numbers_before_work(argv, message, tmp_path, capsys, monkeypatch):
    ran = []
    for name in ("gen_matrix", "run_bench", "tolerance_sweep"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: ran.append(name))
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hodlrqr") and message in err
    assert not ran
    assert not out.exists()


def test_cli_qr_rejects_bad_eps_before_reading(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "read_hodlr", lambda *args, **kwargs: ran.append(1))
    with pytest.raises(SystemExit) as exc:
        main(["qr", str(tmp_path / "a.hdlr1"), "--eps", "nan", "--out-prefix",
              str(tmp_path / "fac")])
    assert exc.value.code == 2
    assert "argument --eps: eps must be finite" in capsys.readouterr().err
    assert not ran


def test_gen_random_rejects_negative_rank():
    with pytest.raises(ValueError, match="offdiag_rank must be >= 0"):
        gen_random_hodlr(64, 16, offdiag_rank=-1)
