"""Command-line interface: generate test matrices, decompose stored ones,
and run the benchmark/tolerance-sweep experiments with CSV output."""

import argparse
import sys

from .bench import (
    BenchConfig,
    CAUCHY_CONFIGS,
    METHODS,
    gen_cauchy_config,
    gen_random_hodlr,
    metrics,
    records_to_csv,
    run_bench,
    tolerance_sweep,
    write_csv,
)
from .core import stats
from .hqr import hqr
from .io import read_hodlr, write_hodlr


def _matrix_kind(value: str) -> str:
    if value == "random":
        return value
    kind, _, cfg = value.partition(":")
    if kind == "cauchy" and cfg in CAUCHY_CONFIGS:
        return value
    raise argparse.ArgumentTypeError(
        f"expected random or cauchy:{{{'|'.join(CAUCHY_CONFIGS)}}}, got {value!r}")


def _int_list(value: str) -> tuple:
    return tuple(int(tok) for tok in value.split(",") if tok)


def _float_list(value: str) -> tuple:
    return tuple(float(tok) for tok in value.split(",") if tok)


def _methods_list(value: str) -> tuple:
    methods = tuple(tok for tok in value.split(",") if tok)
    for m in methods:
        if m not in METHODS:
            raise argparse.ArgumentTypeError(f"unknown method {m!r}")
    return methods


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hodlrqr",
                                description="QR decompositions of HODLR matrices")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a matrix and write it as HDLR1")
    g.add_argument("--matrix", type=_matrix_kind, default="random")
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--nmin", type=int, default=250)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--rank", type=int, default=1, help="off-diagonal rank (random)")
    g.add_argument("--eps", type=float, default=1e-10, help="compression tol (cauchy)")
    g.add_argument("--absolute-eps", action="store_true")
    g.add_argument("--out", required=True)

    q = sub.add_parser("qr", help="decompose an HDLR1 file, write factor triple")
    q.add_argument("input")
    q.add_argument("--eps", type=float, default=1e-10)
    q.add_argument("--nb", type=int, default=32)
    q.add_argument("--absolute-eps", action="store_true")
    q.add_argument("--estimate", action="store_true",
                   help="block power-iteration metrics with bounds instead of densifying")
    q.add_argument("--out-prefix", required=True)

    b = sub.add_parser("bench", help="accuracy/rank/memory benchmark, CSV output")
    b.add_argument("--methods", type=_methods_list, default=("hqr", "cholqr", "cholqr2"))
    b.add_argument("--sizes", type=_int_list, default=(1000, 2000, 4000))
    b.add_argument("--seeds", type=_int_list, default=(0,))
    b.add_argument("--eps", type=float, default=1e-10)
    b.add_argument("--nmin", type=int, default=250)
    b.add_argument("--rank", type=int, default=1)
    b.add_argument("--matrix", type=_matrix_kind, default="random")
    b.add_argument("--absolute-eps", action="store_true")
    b.add_argument("--estimate", action="store_true")
    b.add_argument("--out", default=None, help="CSV path (stdout when omitted)")

    s = sub.add_parser("sweep", help="tolerance sweep for hqr, CSV output")
    s.add_argument("--eps-list", type=_float_list,
                   default=(1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16))
    s.add_argument("--matrix", type=_matrix_kind, default="cauchy:a3")
    s.add_argument("--n", type=int, default=2000)
    s.add_argument("--nmin", type=int, default=250)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--absolute-eps", action="store_true")
    s.add_argument("--estimate", action="store_true")
    s.add_argument("--out", default=None)
    return p


def _cmd_gen(args) -> int:
    if args.matrix == "random":
        h = gen_random_hodlr(args.n, args.nmin, args.rank, args.seed)
    else:
        cfg = args.matrix.partition(":")[2]
        h = gen_cauchy_config(cfg, n=args.n, seed=args.seed, eps=args.eps,
                              n_min=args.nmin, absolute_eps=args.absolute_eps)
    write_hodlr(h, args.out)
    s = stats(h)
    print(f"wrote {args.out}: n={h.n} level={h.level} "
          f"max_rank={s['max_offdiag_rank']} memory={s['memory_scalars']}")
    return 0


def _cmd_qr(args) -> int:
    a = read_hodlr(args.input)
    f = hqr(a, args.eps, n_b=args.nb, absolute=args.absolute_eps)
    for name, factor in (("y", f.y), ("t", f.t), ("r", f.r)):
        write_hodlr(factor, f"{args.out_prefix}.{name}.hdlr1")
    m = metrics(a, f, eps=args.eps, estimate=args.estimate)
    for key in ("kappa2", "e_orth", "e_acc", "e_orth_bound", "e_acc_bound", "rank_y",
                "rank_t", "rank_q", "rank_r", "mem_yt_rel", "mem_q_rel", "mem_r_rel"):
        print(f"{key}={m.get(key, float('nan'))}")
    return 0


def _emit(records, out) -> None:
    if out is None:
        sys.stdout.write(records_to_csv(records))
    else:
        write_csv(records, out)


def _cmd_bench(args) -> int:
    config = BenchConfig(
        methods=args.methods, sizes=args.sizes, seeds=args.seeds, eps=args.eps,
        n_min=args.nmin, offdiag_rank=args.rank, matrix=args.matrix,
        absolute_eps=args.absolute_eps, estimate=args.estimate,
    )
    _emit(run_bench(config), args.out)
    return 0


def _cmd_sweep(args) -> int:
    records = tolerance_sweep(args.matrix, args.eps_list, n=args.n,
                              n_min=args.nmin, seed=args.seed,
                              absolute_eps=args.absolute_eps,
                              estimate=args.estimate)
    _emit(records, args.out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"gen": _cmd_gen, "qr": _cmd_qr, "bench": _cmd_bench, "sweep": _cmd_sweep}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
