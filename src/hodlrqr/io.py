"""HDLR1 binary file format.

Layout (little-endian): magic ``HDLR1\\0``, u32 version, u64 n, u32 level,
2**level u64 leaf sizes, then a pre-order tree serialization.  A leaf is
tag 0x01 + u64 rows + u64 cols + row-major float64 entries; a node is tag
0x02 followed by a11, the a21 block, the a12 block and a22, where a block
is u64 n_rows + u64 n_cols + u64 k + one reserved byte (written 0, ignored
on read; files of earlier versions may set its bit0, which is not trusted)
+ L entries + R entries.  A CRC32 of all preceding bytes closes the file.
"""

import io
import struct
import zlib

import numpy as np

from .core import HodlrMatrix, LowRankBlock

MAGIC = b"HDLR1\x00"
VERSION = 1

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_BLOCK = struct.Struct("<QQQx")  # n_rows, n_cols, k and the reserved pad byte


class FormatError(Exception):
    """Wrong magic bytes or unsupported format version."""


class CorruptionError(Exception):
    """Truncated file or checksum mismatch."""


def _write_block(buf, blk: LowRankBlock):
    buf.write(_BLOCK.pack(blk.n_rows, blk.n_cols, blk.rank))
    buf.write(np.ascontiguousarray(blk.L, dtype="<f8").tobytes())
    buf.write(np.ascontiguousarray(blk.R, dtype="<f8").tobytes())


def _write_tree(buf, h: HodlrMatrix):
    if h.is_leaf:
        buf.write(b"\x01")
        buf.write(_U64.pack(h.dense.shape[0]))
        buf.write(_U64.pack(h.dense.shape[1]))
        buf.write(np.ascontiguousarray(h.dense, dtype="<f8").tobytes())
    else:
        buf.write(b"\x02")
        _write_tree(buf, h.a11)
        _write_block(buf, h.a21)
        _write_block(buf, h.a12)
        _write_tree(buf, h.a22)


def write_hodlr(h: HodlrMatrix, path) -> None:
    """Serialize a square HODLR matrix to an HDLR1 file (bit-exact round
    trip); a non-square leaf raises ValueError, since HDLR1 holds one tree."""
    if not h.is_square():
        raise ValueError("HDLR1 holds square HODLR matrices only")
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(_U32.pack(VERSION))
    buf.write(_U64.pack(h.n))
    sizes = h.leaf_sizes()
    if len(sizes) != 2 ** h.level:
        raise ValueError("only balanced trees (2**level leaves) can be serialized")
    buf.write(_U32.pack(h.level))
    for s in sizes:
        buf.write(_U64.pack(s))
    _write_tree(buf, h)
    payload = buf.getvalue()
    with open(path, "wb") as f:
        f.write(payload)
        f.write(_U32.pack(zlib.crc32(payload)))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise CorruptionError("unexpected end of file")
        out = self.data[self.pos:self.pos + count]
        self.pos += count
        return out

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def floats(self, count: int) -> np.ndarray:
        raw = self.take(8 * count)
        return np.frombuffer(raw, dtype="<f8").astype(float)


def _read_block(r: _Reader) -> LowRankBlock:
    n_rows, n_cols, k = _BLOCK.unpack(r.take(_BLOCK.size))
    L = r.floats(n_rows * k).reshape(n_rows, k)
    R = r.floats(k * n_cols).reshape(k, n_cols)
    return LowRankBlock(L, R)


def _read_tree(r: _Reader, depth: int) -> HodlrMatrix:
    """Read a subtree that may have at most ``depth`` levels of nodes."""
    tag = r.take(1)[0]
    if tag == 0x01:
        rows, cols = r.u64(), r.u64()
        if rows != cols:
            raise CorruptionError(f"leaf of shape {rows} x {cols} is not square")
        return HodlrMatrix(dense=r.floats(rows * cols).reshape(rows, cols))
    if tag == 0x02:
        if depth == 0:
            raise CorruptionError("tree is deeper than the declared level")
        try:  # parts in file order; a block too big for any array or not fitting the children
            return HodlrMatrix(a11=_read_tree(r, depth - 1), a21=_read_block(r),
                               a12=_read_block(r), a22=_read_tree(r, depth - 1))
        except ValueError as err:
            raise CorruptionError(str(err)) from None
    raise CorruptionError(f"unknown tree tag 0x{tag:02x}")


def read_hodlr(path) -> HodlrMatrix:
    """Read an HDLR1 file, verifying the trailing checksum."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(MAGIC) + 4:
        raise CorruptionError("file too short")
    if data[:len(MAGIC)] != MAGIC:
        raise FormatError("bad magic bytes, not an HDLR1 file")
    if zlib.crc32(data[:-4]) != _U32.unpack(data[-4:])[0]:
        raise CorruptionError("checksum mismatch")
    r = _Reader(data[:-4])
    r.take(len(MAGIC))
    version = r.u32()
    if version != VERSION:
        raise FormatError(f"unsupported format version {version}")
    n = r.u64()
    level = r.u32()
    # 2**level leaf sizes of 8 bytes each must fit in what is left
    remaining = len(r.data) - r.pos
    if level >= remaining.bit_length() or 8 * 2 ** level > remaining:
        raise CorruptionError(f"level {level} needs more bytes than the file holds")
    sizes = [r.u64() for _ in range(2 ** level)]
    if 0 in sizes:
        raise CorruptionError("leaf sizes must be positive")
    h = _read_tree(r, level)
    if r.pos != len(r.data):
        raise CorruptionError("trailing bytes after tree")
    if h.n != n or h.leaf_sizes() != tuple(sizes):
        raise CorruptionError("tree does not match declared partition")
    return h
