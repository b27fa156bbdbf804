"""Command-line interface: generate test matrices, decompose stored ones,
and run the benchmark/tolerance-sweep experiments with CSV output."""

import argparse
import contextlib
import math
import sys

from .bench import (
    BenchConfig,
    check_dense_size,
    check_matrix_kind,
    check_methods,
    gen_matrix,
    metrics,
    records_to_csv,
    run_bench,
    tolerance_sweep,
    _kappa2,
)
from .core import check_finite, stats
from .dense import check_tolerance
from .hqr import hqr
from .io import CorruptionError, FormatError, read_hodlr, write_hodlr


def _arg_type(check):
    """argparse type from a check that raises ValueError on a bad value."""
    def convert(value: str):
        try:
            return check(value)
        except ValueError as err:  # argparse prints only this type's message
            raise argparse.ArgumentTypeError(str(err)) from None
    return convert


def _int_at_least(lo: int):
    def parse(tok: str) -> int:
        k = int(tok)
        if k < lo:
            raise ValueError(f"expected an integer >= {lo}, got {tok}")
        return k
    return parse


def _tolerance(tok: str) -> float:
    return check_tolerance(float(tok))


def _nonempty_list(parse):
    def parse_list(value: str) -> tuple:
        items = tuple(parse(tok) for tok in value.split(",") if tok)
        if not items:
            raise ValueError("expected a nonempty comma-separated list")
        return items
    return parse_list


_matrix_kind = _arg_type(check_matrix_kind)
_methods_list = _arg_type(lambda value: check_methods(_nonempty_list(str)(value)))
_count = _arg_type(_int_at_least(1))
_natural = _arg_type(_int_at_least(0))
_eps = _arg_type(_tolerance)
_count_list = _arg_type(_nonempty_list(_int_at_least(1)))
_natural_list = _arg_type(_nonempty_list(_int_at_least(0)))
_eps_list = _arg_type(_nonempty_list(_tolerance))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hodlrqr",
                                description="QR decompositions of HODLR matrices")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a matrix and write it as HDLR1")
    g.add_argument("--matrix", type=_matrix_kind, default="random")
    g.add_argument("--n", type=_count, default=1000)
    g.add_argument("--nmin", type=_count, default=250)
    g.add_argument("--seed", type=_natural, default=0)
    g.add_argument("--rank", type=_natural, default=1, help="off-diagonal rank (random)")
    g.add_argument("--eps", type=_eps, default=1e-10, help="compression tol (cauchy)")
    g.add_argument("--absolute-eps", action="store_true")
    g.add_argument("--out", required=True)

    q = sub.add_parser("qr", help="decompose an HDLR1 file, write factor triple")
    q.add_argument("input")
    q.add_argument("--eps", type=_eps, default=1e-10)
    q.add_argument("--absolute-eps", action="store_true")
    q.add_argument("--estimate", action="store_true",
                   help="block power-iteration metrics with bounds instead of densifying")
    q.add_argument("--out-prefix", required=True)

    b = sub.add_parser("bench", help="accuracy/rank/memory benchmark, CSV output")
    b.add_argument("--methods", type=_methods_list, default=("hqr", "cholqr", "cholqr2"))
    b.add_argument("--sizes", type=_count_list, default=(1000, 2000, 4000))
    b.add_argument("--seeds", type=_natural_list, default=(0,))
    b.add_argument("--eps", type=_eps, default=1e-10)
    b.add_argument("--nmin", type=_count, default=250)
    b.add_argument("--rank", type=_natural, default=1)
    b.add_argument("--matrix", type=_matrix_kind, default="random")
    b.add_argument("--absolute-eps", action="store_true")
    b.add_argument("--estimate", action="store_true")
    b.add_argument("--out", default=None, help="CSV path (stdout when omitted)")

    s = sub.add_parser("sweep", help="tolerance sweep for hqr, CSV output")
    s.add_argument("--eps-list", type=_eps_list,
                   default=(1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16))
    s.add_argument("--matrix", type=_matrix_kind, default="cauchy:a3")
    s.add_argument("--n", type=_count, default=2000)
    s.add_argument("--nmin", type=_count, default=250)
    s.add_argument("--seed", type=_natural, default=0)
    s.add_argument("--absolute-eps", action="store_true")
    s.add_argument("--estimate", action="store_true")
    s.add_argument("--out", default=None)
    return p


def _check_writable(*paths) -> None:
    """Raise OSError unless every output path can be opened for writing.
    Called before the work, so a bad path costs nothing; appending leaves
    an existing file as it is until it is overwritten."""
    for path in paths:
        with open(path, "ab"):
            pass


def _cmd_gen(args) -> int:
    _check_writable(args.out)
    h = gen_matrix(args.matrix, args.n, args.nmin, args.seed, args.rank, args.eps,
                   args.absolute_eps)
    write_hodlr(h, args.out)
    s = stats(h)
    print(f"wrote {args.out}: n={h.n} level={h.level} "
          f"max_rank={s['max_offdiag_rank']} memory={s['memory_scalars']}")
    return 0


def _cmd_qr(args) -> int:
    paths = {name: f"{args.out_prefix}.{name}.hdlr1" for name in "ytr"}
    a = read_hodlr(args.input)  # a bad input or output path is refused before hqr runs
    check_finite("hodlrqr qr", a)
    if not args.estimate:
        check_dense_size(a.n)
    _check_writable(*paths.values())
    f = hqr(a, args.eps, absolute=args.absolute_eps)
    for name, factor in (("y", f.y), ("t", f.t), ("r", f.r)):
        write_hodlr(factor, paths[name])
    m = metrics(a, f, estimate=args.estimate)
    print(f"kappa2={math.nan if args.estimate else _kappa2(a)}")
    for key, value in m.items():
        print(f"{key}={value}")
    return 0


def _open_out(path):
    # opened before the first cell, so an unwritable path costs no work
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w")


def _cmd_bench(args) -> int:
    config = BenchConfig(
        methods=args.methods, sizes=args.sizes, seeds=args.seeds, eps=args.eps,
        n_min=args.nmin, offdiag_rank=args.rank, matrix=args.matrix,
        absolute_eps=args.absolute_eps, estimate=args.estimate,
    )
    with _open_out(args.out) as out:
        out.write(records_to_csv(run_bench(config)))
    return 0


def _cmd_sweep(args) -> int:
    with _open_out(args.out) as out:
        out.write(records_to_csv(tolerance_sweep(
            args.matrix, args.eps_list, n=args.n, n_min=args.nmin, seed=args.seed,
            absolute_eps=args.absolute_eps, estimate=args.estimate)))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"gen": _cmd_gen, "qr": _cmd_qr, "bench": _cmd_bench, "sweep": _cmd_sweep}
    try:
        return handlers[args.command](args)
    except (OSError, FormatError, CorruptionError, ValueError) as err:  # a bad path or input
        print(f"hodlrqr {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
