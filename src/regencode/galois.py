"""Arithmetic over GF(2^m), 2 <= m <= 16, with log/antilog tables.

Addition is XOR.  Multiplication and exponentiation (``pow(x, -1)`` is
the inverse) go through eagerly built log/antilog tables: a field is
named by its degree m alone, reduced by DEFAULT_PRIMITIVE_POLYS[m] and
generated by 2, the element x.  Bulk operations (re-encoding, locator
roots, matrix products) go through ``vmul``, ``vdiv``, ``prod``,
``matmul`` and ``power`` on numpy arrays.  Besides
this module, only ``rscode._interpolate`` reads the tables: it indexes
``exp``, ``log`` and ``order`` directly, because its per-point update
runs on short polynomials of Python ints, one point at a time, where
numpy's per-call cost would outweigh the arithmetic.

``matmul`` picks one of two kernels from the operand shapes.  A product
whose outer sides are both within 2^(m+1) runs on the log/exp cube
unless ``_splits`` sends it to the tables below: the cube XOR-reduces
all p·q·r products over q in even blocks of at most _BLOCK_CELLS cells,
so no temporary outgrows a block or the (p, r) result.  Every other
product goes through product tables built per call, after the "split"
multiplication tables of Plank, Greenan & Miller (FAST 2013), without
the SIMD.  Tall data A (L × q) times a constant B (q × r) packs the rows
of B into words of r lanes (uint8 lanes for m <= 8, uint16 above; a word
of 1, 2, 4 or 8 bytes, or a few uint64).  A symbol of A splits into s
slices of c bits, and for each inner index j and slice i a table maps a
slice value v to the packed row (v·2^(i·c))·B[j, :]: the product is s
gathers of whole rows per inner index, XOR-accumulated already in (L, r)
order, and an index whose coefficients are all zero is skipped.  Data
longer than 2^(m+1) takes one slice, a table of 2^m rows per index;
shorter data takes the s >= 2 that minimises s·(2^c + L), the rows built
plus the rows gathered.  The tables are built by linearity from the rows
2^b·B[j, :] of one log/exp gather, one XOR step per bit over all of them
at once.  A table stays within _ROW_TABLE_BYTES, so B's columns go in
groups of as many lanes as fit, at least one; a one-lane group is a
multiply-by-c table per coefficient.  Wide data (a constant C times data
D of L columns) is the same kernel on the transposes, (Dᵀ·Cᵀ)ᵀ.
"""

from __future__ import annotations

from functools import reduce
from operator import ixor

import numpy as np

from .errors import InvalidParams, ZeroInverse

# int64 cells in one block of the matmul log/exp cube: just under glibc's default
# 128 KiB mmap threshold with malloc's chunk header, so blocks come from the heap.
_BLOCK_CELLS = (1 << 14) - 16

# Bytes of one table of the packed-row kernel (2^c packed rows of one lane group).
# Larger tables leave the first-level cache, and some shapes ran slower on them than
# on one-lane tables (over GF(2^12) with r = 3 and GF(2^13) with r = 2, 32 KiB each).
_ROW_TABLE_BYTES = 1 << 14

# Table cells of a group gathered from log/exp before XOR steps build the rest: one
# step costs about what a gather of this many cells does.
_SEED_CELLS = 2047

_UINT = {n: np.dtype(f"uint{8 * n}") for n in (1, 2, 4, 8)}

# Primitive polynomials by degree, bit i = coefficient of x^i: the one
# polynomial of each field.  Conventional choices; the tests check that 2
# has order 2^m - 1 under each.
DEFAULT_PRIMITIVE_POLYS = {
    2: 0b111,
    3: 0b1011,
    4: 0b1_0011,  # x^4 + x + 1
    5: 0b10_0101,
    6: 0b100_0011,
    7: 0b1000_1001,
    8: 0b1_0001_1101,  # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b10_0001_0001,
    10: 0b100_0000_1001,
    11: 0b1000_0000_0101,  # x^11 + x^2 + 1
    12: 0b1_0000_0101_0011,
    13: 0b10_0000_0001_1011,
    14: 0b100_0100_0100_0011,
    15: 0b1000_0000_0000_0011,
    16: 0b1_0001_0000_0000_1011,  # x^16 + x^12 + x^3 + x + 1
}


def _split_gathers(tables, D, c: int, s: int, rows: int):
    """Each block's XOR of the rows gathered from split tables for data D (p, n).

    ``tables`` holds row v·s·n + i·n + j for slice value v of slice i (bits
    i·c upwards) and inner index j.  The indices are built for as many inner
    indices as fit _BLOCK_CELLS int64 cells, and gathered ``rows`` (j, i)
    pairs at a time.
    """
    p, n = D.shape
    step = max(1, _BLOCK_CELLS // (s * p))
    shifts = np.arange(0, s * c, c)[:, None]
    offsets = np.arange(n)[:, None, None] + n * np.arange(s)[:, None]
    for j0 in range(0, n, step):
        idx = np.right_shift(D[:, j0 : j0 + step].T[:, None, :], shifts, order="C")
        idx &= (1 << c) - 1
        idx *= s * n
        idx += offsets[j0 : j0 + step]
        idx = idx.reshape(-1, p)
        for k in range(0, len(idx), rows):
            yield np.bitwise_xor.reduce(tables.take(idx[k : k + rows], axis=0), axis=0)


class GF:
    """A finite field GF(2^m) together with its arithmetic tables."""

    def __init__(self, m: int):
        if m not in DEFAULT_PRIMITIVE_POLYS:
            raise InvalidParams(f"field degree m={m} outside supported range [2, 16]")
        q = 1 << m
        self.m = m
        self.q = q
        self.order = q - 1

        # Fill exp/log by doubling: the generator is 2 (the element x),
        # reduced by the degree-m primitive polynomial.
        poly = DEFAULT_PRIMITIVE_POLYS[m]
        exp = [0] * (2 * self.order)
        log = [0] * q
        x = 1
        for i in range(self.order):
            exp[i] = exp[i + self.order] = x
            log[x] = i
            x <<= 1
            if x >> m:
                x ^= poly

        self.exp = exp  # doubled: exp[i] == 2 ** (i % order), 0 <= i < 2*order
        self.log = log  # log[0] is a placeholder and must never be used
        # Vector tables: log(0) is the sentinel 2·order and exp is zero from
        # 2·order through 4·order, so a product or quotient with a zero
        # operand lands on an exp entry of 0 and needs no mask.
        self._log = np.array(log, dtype=np.int64)
        self._log[0] = 2 * self.order
        self._exp = np.zeros(4 * self.order + 1, dtype=np.int64)
        self._exp[: 2 * self.order] = exp
        self._lane = _UINT[1 if m <= 8 else 2]  # one symbol in the product tables
        self._group = max(1, _ROW_TABLE_BYTES // (q * self._lane.itemsize))  # lanes a table fits
        self._seed_rows = {}  # (c, h) -> the rows ``_seeds`` gathers

    def __repr__(self):
        return f"GF(2^{self.m})"

    # -- scalar operations -------------------------------------------------

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self.exp[self.log[x] + self.log[y]]

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroInverse("0 cannot be raised to a negative power")
        return self.exp[(self.log[x] * e) % self.order]

    # -- vector operations (numpy int64 arrays) ----------------------------

    def vmul(self, a, b) -> np.ndarray:
        """Elementwise (broadcast) product of arrays of field elements."""
        return self._exp_of_sum(self._log[a], self._log[b])

    def vdiv(self, a, b) -> np.ndarray:
        """Elementwise (broadcast) quotient a / b; raises on a zero divisor."""
        lb = self._log[b]
        if (lb == 2 * self.order).any():
            raise ZeroInverse("division by zero")
        return self._exp_of_sum(self._log[a], self.order - lb)

    def _exp_of_sum(self, la, lb) -> np.ndarray:
        """exp[la + lb] in one buffer: the sum in place in the larger fresh log array
        if it has the broadcast shape, then the gather over it (indices in range)."""
        if la.size < lb.size:
            la, lb = lb, la
        try:
            s = np.add(la, lb, out=la)
        except (TypeError, ValueError):  # a scalar, or an outer sum: one new buffer
            s = np.asarray(la + lb)
        return self._exp.take(s, out=s, mode="clip")

    def prod(self, a, axis=-1) -> np.ndarray:
        """Product of the field elements of a along an axis."""
        la = self._log[a]
        zero = np.logical_or.reduce(la == 2 * self.order, axis)
        return np.where(zero, 0, self._exp[np.add.reduce(la, axis) % self.order])

    def power(self, e) -> np.ndarray:
        """2 ** e elementwise, for any integer exponents."""
        return self._exp[np.mod(e, self.order)]

    def matmul(self, A, B) -> np.ndarray:
        """Matrix product over the field; A is (p, q), B is (q, r)."""
        A, B = np.asarray(A), np.asarray(B)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise InvalidParams(f"incompatible shapes {A.shape} x {B.shape}")
        (p, q), r = A.shape, B.shape[1]
        if max(p, r) <= 2 * self.q and not self._splits(p, q, r):
            la, lb = self._log[A], self._log[B]
            if p * q * r <= _BLOCK_CELLS:
                return np.bitwise_xor.reduce(self._exp[la[:, :, None] + lb[None, :, :]], axis=1)
            # even blocks of inner indices, _BLOCK_CELLS cells at most (or one index)
            blocks = -(-q // max(1, _BLOCK_CELLS // (p * r)))
            out, part = np.zeros((p, r), dtype=np.int64), np.empty((p, r), dtype=np.int64)
            buf = np.empty(p * -(-q // blocks) * r, dtype=np.int64)
            for i in range(blocks):
                j0, j1 = i * q // blocks, (i + 1) * q // blocks
                cube = buf[: p * (j1 - j0) * r].reshape(p, j1 - j0, r)
                np.add(la[:, j0:j1, None], lb[None, j0:j1, :], out=cube)
                out ^= np.bitwise_xor.reduce(self._exp.take(cube, out=cube, mode="clip"), axis=1, out=part)
            return out
        if p > r:  # tall data A times a short constant B
            return self._row_product(A, B)
        return self._row_product(B.T, A.T).T  # a short constant A times wide data B

    @staticmethod
    def _splits(p: int, q: int, r: int) -> bool:
        """Whether ``matmul`` sends a (p, q) by (q, r) product whose outer sides
        are both within 2^(m+1) to split tables rather than the log/exp cube:
        more cells than one cube block, a long side of at least 64, and a short
        side of at least 2 if it is r, the cube's innermost axis (short rows make
        its cells dear), or of at least 16 if it is p.  From a measured grid
        over GF(2^8), GF(2^11) and GF(2^16), both orientations."""
        return max(p, r) >= 64 and p * q * r > _BLOCK_CELLS and min(p, r) >= (2 if r < p else 16)

    def packs_rows(self, p: int, r: int) -> bool:
        """Whether ``matmul`` of a (p, q) by a (q, r) matrix gathers whole rows of
        the constant: p past 2^(m+1) and r, and a row of r symbols small enough
        that its table of 2^m rows fits _ROW_TABLE_BYTES (one lane group)."""
        return p > max(r, 2 * self.q) and r * self.q * self._lane.itemsize <= _ROW_TABLE_BYTES

    def _row_product(self, A, B) -> np.ndarray:
        """A·B for data A (p, q) and a short constant B (q, r).

        A symbol splits into s = ceil(m/c) slices of c bits (``_slice_bits``),
        slice i starting at bit i·c.  B's columns go in groups of as many lanes
        as one table of 2^c packed rows fits in _ROW_TABLE_BYTES, at least one.
        In a group C, the table of inner index j and slice i maps v to the row
        (v·2^(i·c))·C[j, :], packed into one word of 1, 2, 4 or 8 bytes, or as
        many uint64 as it takes.  The tables are built by linearity: the rows
        v < 2^h and v = 2^k come from one log/exp gather of the elements v·2^(i·c)
        (``_seeds``; h seeds small tables whole, where XOR steps cost more than
        the gather), then t[2^k + v] = t[2^k] ^ t[v] for v < 2^k, one XOR step
        per bit k >= h over all tables at once.  With one slice, each index's
        table is read straight by A's column; with more, ``_split_gathers``
        takes the rows in blocks within _BLOCK_CELLS.  Either way the rows are
        XOR-accumulated already in (p, lanes) order, and an index whose
        coefficients in C are all zero is skipped.  The groups' lanes go to
        int64 in one pass.
        """
        (p, q), r = A.shape, B.shape[1]
        m, c = self.m, self._slice_bits(p)
        s = -(-m // c)
        group = max(1, _ROW_TABLE_BYTES // ((1 << c) * self._lane.itemsize))
        parts = []
        for g in range(0, r, group):
            C, js = np.ascontiguousarray(B[:, g : g + group]), None  # the table layout follows C's
            if np.count_nonzero(C) < C.size:  # some zeros: keep the indices with a nonzero
                js = np.flatnonzero(C.any(axis=1))
                C = C[js]
            n, w = C.shape
            size = w * self._lane.itemsize
            word = _UINT[8 if size > 8 else 1 << (size - 1).bit_length()]
            words = -(-size // word.itemsize)
            lanes = words * word.itemsize // self._lane.itemsize  # w padded to whole words
            # t[v, i, j] = (v·2^(i·c))·C[j, :]: the rows v < 2^h and v = 2^k (h <= k < c) in
            # one log/exp gather, then one XOR step per bit k >= h over all tables at once
            h = min(c, (_SEED_CELLS // max(1, n * s * w)).bit_length())
            seeded, logs = self._seeds(c, h)
            prods = logs[:, :, None, None] + self._log[C]
            t = np.zeros((1 << c, s, n, lanes), dtype=self._lane)
            t[seeded, ..., :w] = self._exp.take(prods, out=prods, mode="clip")
            t = t.view(word).reshape(1 << c, s * n, words)
            for k in range(h, c):
                np.bitwise_xor(t[1 : 1 << k], t[1 << k], out=t[(1 << k) + 1 : 2 << k])
            if words == 1:
                t = t[..., 0]
            if s == 1:  # one table per index, each made contiguous, indexed by A's column as it is
                t = np.ascontiguousarray(t.swapaxes(0, 1))
                gathers = (t[i][A[:, j]] if words == 1 else t[i].take(A[:, j], axis=0)
                           for i, j in enumerate(range(q) if js is None else js))
            else:
                rows = max(1, _BLOCK_CELLS // (p * max(1, words * word.itemsize // 8)))
                gathers = _split_gathers(t.reshape(-1, *t.shape[2:]), A if js is None else A[:, js], c, s, rows)
            acc = reduce(ixor, gathers) if n else np.zeros((p, words), dtype=word)
            part = acc.view(self._lane).reshape(p, lanes)[:, :w]
            if r <= group:  # while the tables are held: freeing them first ran slower
                return part.astype(np.int64)
            parts.append(part)
        return np.concatenate(parts or [np.zeros((p, 0), dtype=np.int64)], axis=1, dtype=np.int64)

    def _slice_bits(self, p: int) -> int:
        """Bits c per slice of ``_row_product`` for p rows of data: m (one slice)
        past 2^(m+1), else the c < m that minimises s·(2^c + p), s = ceil(m/c)."""
        m = self.m
        if p > 2 * self.q:
            return m
        return min(range(1, m), key=lambda c: -(-m // c) * ((1 << c) + p))

    def _seeds(self, c: int, h: int):
        """The table rows v < 2^h and v = 2^k (h <= k < c) of slices of c bits,
        and the logs of their elements v·2^b_i, one column per slice i; an
        element past the field only fills a row that no symbol reads."""
        if (c, h) not in self._seed_rows:
            rows = np.concatenate([np.arange(1 << h), 1 << np.arange(h, c)])
            elements = rows[:, None] << np.arange(0, self.m, c)
            logs = self._log.take(elements, mode="clip")
            self._seed_rows[c, h] = slice(None) if h == c else rows, logs  # all rows: a slice
        return self._seed_rows[c, h]
