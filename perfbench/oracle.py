"""Reference arithmetic that checks the benchmark's outputs.

Everything here is independent of the library's own arithmetic and file
reader: products walk the HODLR tree directly (leaves ``dense``, children
``a11``/``a22``, off-diagonal factors ``a12``/``a21`` with ``L`` and
``R``), and HDLR1 files are decoded from the documented layout.  A bug in
the library therefore cannot hide itself by also sitting in the check.
"""

import struct
import zlib

import numpy as np

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def matmul(h, x: np.ndarray, trans: bool = False) -> np.ndarray:
    """H @ x, or H.T @ x with ``trans``, for a dense block of columns x."""
    if h.dense is not None:
        return (h.dense.T if trans else h.dense) @ x
    m1 = h.a11.n
    x1, x2 = x[:m1], x[m1:]
    if trans:
        top = matmul(h.a11, x1, True) + h.a21.R.T @ (h.a21.L.T @ x2)
        bot = h.a12.R.T @ (h.a12.L.T @ x1) + matmul(h.a22, x2, True)
    else:
        top = matmul(h.a11, x1) + h.a12.L @ (h.a12.R @ x2)
        bot = h.a21.L @ (h.a21.R @ x1) + matmul(h.a22, x2)
    return np.concatenate([top, bot], axis=0)


def apply_wy(y, t, x: np.ndarray, trans: bool = False) -> np.ndarray:
    """Q @ x for Q = I - Y T Y^T, or Q^T @ x with ``trans``."""
    return x - matmul(y, matmul(t, matmul(y, x, True), trans))


def norm_estimate(a, seed: int, iters: int = 8) -> float:
    """Lower bound on ||A||_2 from a few steps of block power iteration.

    A lower bound makes the relative errors below larger, never smaller,
    so the checks stay conservative.
    """
    v = np.random.default_rng([seed, 7]).standard_normal((a.n, 4))
    for _ in range(iters):
        v, _ = np.linalg.qr(matmul(a, matmul(a, v), True))
    return float(np.max(np.linalg.norm(matmul(a, v), axis=0)))


def factor_errors(a, y, t, r, x: np.ndarray, norm_a: float) -> tuple[float, float]:
    """Sampled orthogonality ||Q^T Q X - X|| / ||X|| and accuracy
    ||Q R X - A X|| / (||A|| ||X||), Frobenius norms over the columns of X."""
    nx = np.linalg.norm(x)
    e_orth = np.linalg.norm(apply_wy(y, t, apply_wy(y, t, x), True) - x) / nx
    e_acc = np.linalg.norm(apply_wy(y, t, matmul(r, x)) - matmul(a, x)) / (norm_a * nx)
    return float(e_orth), float(e_acc)


def solve_error(a, x: np.ndarray, b: np.ndarray, norm_a: float) -> float:
    """Normwise backward error ||A X - B|| / (||A|| ||X|| + ||B||)."""
    resid = np.linalg.norm(matmul(a, x) - b)
    return float(resid / (norm_a * np.linalg.norm(x) + np.linalg.norm(b)))


def scalar_count(h) -> int:
    """Stored scalars: dense leaves plus both factors of every block."""
    if h.dense is not None:
        return h.dense.size
    blocks = h.a12.L.size + h.a12.R.size + h.a21.L.size + h.a21.R.size
    return blocks + scalar_count(h.a11) + scalar_count(h.a22)


class Block:
    __slots__ = ("L", "R")

    def __init__(self, L, R):
        self.L, self.R = L, R


class Node:
    """A HODLR tree node as read from a file: a leaf holds ``dense``."""

    __slots__ = ("dense", "a11", "a22", "a12", "a21", "n")

    def __init__(self, dense=None, a11=None, a22=None, a12=None, a21=None):
        self.dense, self.a11, self.a22, self.a12, self.a21 = dense, a11, a22, a12, a21
        self.n = dense.shape[0] if dense is not None else a11.n + a22.n


class _Cursor:
    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise ValueError("HDLR1 file ends early")
        self.pos += count
        return self.data[self.pos - count:self.pos]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def floats(self, rows: int, cols: int) -> np.ndarray:
        raw = self.take(8 * rows * cols)
        return np.frombuffer(raw, dtype="<f8").reshape(rows, cols)


def _read_block(cur: _Cursor) -> Block:
    rows, cols, k = cur.u64(), cur.u64(), cur.u64()
    cur.take(1)  # flags
    return Block(cur.floats(rows, k), cur.floats(k, cols))


def _read_node(cur: _Cursor) -> Node:
    tag = cur.take(1)[0]
    if tag == 0x01:
        rows, cols = cur.u64(), cur.u64()
        return Node(dense=cur.floats(rows, cols))
    if tag != 0x02:
        raise ValueError(f"unknown HDLR1 tree tag {tag:#04x}")
    a11 = _read_node(cur)
    a21 = _read_block(cur)
    a12 = _read_block(cur)
    return Node(a11=a11, a21=a21, a12=a12, a22=_read_node(cur))


def read_hdlr1(path) -> Node:
    """Decode an HDLR1 file: magic, u32 version, u64 n, u32 level, the
    2**level u64 leaf sizes, a pre-order tree and a CRC32 trailer."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:6] != b"HDLR1\x00":
        raise ValueError(f"{path}: not an HDLR1 file")
    if zlib.crc32(data[:-4]) != _U32.unpack(data[-4:])[0]:
        raise ValueError(f"{path}: checksum mismatch")
    cur = _Cursor(data[:-4])
    cur.take(6 + 4)
    n = cur.u64()
    level = _U32.unpack(cur.take(4))[0]
    cur.take(8 * 2 ** level)
    root = _read_node(cur)
    if root.n != n or cur.pos != len(cur.data):
        raise ValueError(f"{path}: tree does not match its header")
    return root
