"""Outside-in tracer: spans around the library's layer boundaries.

The tracer replaces functions by timing wrappers for the duration of a
``with`` block and restores them afterwards, so untraced code runs the
library unchanged.  Modules import their helpers by name (``hqr.py`` does
``from .wy import block_qr``), so every binding of a function in every
loaded ``hodlrqr`` module is replaced, not only the one in its home module.
Modules are looked up through ``sys.modules``: the package re-exports
functions such as ``hqr`` under the name of their module, which hides the
module from attribute access.

A function that opens a span does not open another one for calls it makes
to itself, so a recursive ``apply_dense`` counts as one call.  A target that
no longer exists is listed in ``absent`` and reports zeros.
"""

import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

PACKAGE = "hodlrqr"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    op: int
    counts: dict


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _count_cols(pos: int, name: str):
    def probe(call, args, kwargs, counts):
        x = _arg(args, kwargs, pos, name)
        counts["cols"] = int(np.shape(x)[1]) if np.ndim(x) == 2 else 1
        return call(*args, **kwargs)
    return probe


def _probe_block_qr(call, args, kwargs, counts):
    m, n = np.shape(_arg(args, kwargs, 0, "a"))
    # Householder QR of an m x n panel
    counts["flop"] = 2.0 * m * n * n - 2.0 * n ** 3 / 3.0
    return call(*args, **kwargs)


def _probe_truncate(call, args, kwargs, counts):
    counts["rank_in"] = _arg(args, kwargs, 0, "b").rank
    out = call(*args, **kwargs)
    counts["rank_out"] = out.rank
    return out


def _file_size(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _probe_write(call, args, kwargs, counts):
    out = call(*args, **kwargs)
    counts["bytes"] = _file_size(_arg(args, kwargs, 1, "path"))
    return out


def _probe_read(call, args, kwargs, counts):
    counts["bytes"] = _file_size(_arg(args, kwargs, 0, "path"))
    return call(*args, **kwargs)


def _probe_norm_estimate(call, args, kwargs, counts):
    """Counts forward operator applications and power-iteration rounds;
    ``capped`` is 1 when the rounds reached ``max_iter``."""
    bound = inspect.signature(call).bind(*args, **kwargs)
    bound.apply_defaults()
    if not {"apply", "apply_transpose"} <= bound.arguments.keys():
        return call(*args, **kwargs)
    state = {"applies": 0, "rounds": 0, "last": None}

    def counting(kind, fn):
        def apply(x):
            if kind == "forward":
                state["applies"] += 1
                if state["last"] != "forward":
                    state["rounds"] += 1
            state["last"] = kind
            return fn(x)
        return apply

    bound.arguments["apply"] = counting("forward", bound.arguments["apply"])
    bound.arguments["apply_transpose"] = counting(
        "transpose", bound.arguments["apply_transpose"])
    out = call(*bound.args, **bound.kwargs)
    counts["applies"] = state["applies"]
    counts["capped"] = int(state["rounds"] >= bound.arguments.get("max_iter", np.inf))
    return out


# span name -> (probe, the counts it records beside calls, s and self_s)
TARGETS = {
    "dense.spectral_norm_estimate": (_probe_norm_estimate, ("applies", "capped")),
    "core.truncate_lowrank": (_probe_truncate, ("rank_in", "rank_out")),
    "io.read_hodlr": (_probe_read, ("bytes",)),
    "io.write_hodlr": (_probe_write, ("bytes",)),
    "arith.apply_dense": (_count_cols(1, "x"), ("cols",)),
    "arith.apply_transpose_dense": (_count_cols(1, "x"), ("cols",)),
    "arith.low_rank_update": (None, ()),
    "arith.solve_upper_dense": (None, ()),
    "arith.hodlr_spectral_norm": (None, ()),
    "arith.multiply": (None, ()),
    "arith.cholesky": (None, ()),
    "arith.solve_upper_triangular_right": (None, ()),
    "wy.block_qr": (_probe_block_qr, ("flop",)),
    "hqr.hqr": (None, ()),
    "hqr.apply_q": (_count_cols(1, "m"), ("cols",)),
    "hqr.apply_q_transpose": (_count_cols(1, "m"), ("cols",)),
    "hqr.q_to_hodlr": (None, ()),
    "bench.metrics": (None, ()),
    "bench.metrics_explicit": (None, ()),
    "bench.run_bench": (None, ()),
    "baselines.cholqr2": (None, ()),
    "cli.main": (None, ()),
}


def module(name: str):
    """The ``hodlrqr.<name>`` module itself, even where the package
    re-exports a function of the same name."""
    return importlib.import_module(f"{PACKAGE}.{name}")


class Tracer:
    """Collects spans of the named targets while installed.

    ``op`` is set by the caller before each operation; every span records
    it, so spans of one operation can be grouped.
    """

    def __init__(self, targets=tuple(TARGETS)):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._restore: list[tuple] = []

    def __enter__(self):
        originals = {}
        for target in self.targets:
            mod_name, _, fn_name = target.partition(".")
            try:
                fn = getattr(module(mod_name), fn_name)
            except (ImportError, AttributeError):
                if target not in self.absent:
                    self.absent.append(target)
                continue
            originals[id(fn)] = self._wrap(target, fn, TARGETS[target][0])
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()
        return False

    def _wrap(self, name: str, fn, probe):
        def traced(*args, **kwargs):
            if name in self._active:
                return fn(*args, **kwargs)
            self._active.add(name)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            counts = {}
            start = time.perf_counter()
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                return probe(fn, args, kwargs, counts)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._active.discard(name)
                self.spans[index] = Span(name, start, end, parent, self.op, counts)
        traced.__wrapped__ = fn
        return traced

    def op_totals(self, op: int) -> dict:
        """Per target: calls, s, self_s and summed counts over one op."""
        child = {}
        for span in self.spans:
            if span.op == op and span.parent >= 0:
                child[span.parent] = child.get(span.parent, 0.0) + span.end - span.start
        totals = {}
        for index, span in enumerate(self.spans):
            if span.op != op:
                continue
            dur = span.end - span.start
            t = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += dur - child.get(index, 0.0)
            for key, value in span.counts.items():
                t[key] = t.get(key, 0) + value
        return totals

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, **s.counts} for s in self.spans]
