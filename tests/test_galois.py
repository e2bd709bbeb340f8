"""Field arithmetic checked against an independent polynomial oracle."""

from __future__ import annotations

import random

import numpy as np
import pytest

from regencode import GF, DEFAULT_PRIMITIVE_POLYS, InvalidParams, ZeroInverse


def poly_mul_mod(a: int, b: int, poly: int) -> int:
    """Oracle: schoolbook GF(2)[x] multiply, then long-division reduction.

    Written independently of the library's shift-and-reduce loop.
    """
    prod = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            prod ^= a << i
        i += 1
    deg = poly.bit_length() - 1
    while prod.bit_length() - 1 >= deg:
        prod ^= poly << (prod.bit_length() - 1 - deg)
    return prod


def div(gf, x: int, y: int) -> int:
    """Scalar x / y through mul and pow(y, -1); raises ZeroInverse for y = 0."""
    return gf.mul(x, gf.pow(y, -1))


@pytest.fixture(scope="module")
def gf16():
    return GF(4)


def test_defaults_match_stated_polynomials():
    assert DEFAULT_PRIMITIVE_POLYS[4] == 0b10011
    assert DEFAULT_PRIMITIVE_POLYS[8] == 0x11D
    assert DEFAULT_PRIMITIVE_POLYS[11] == 0b100000000101
    assert DEFAULT_PRIMITIVE_POLYS[16] == (1 << 16) + (1 << 12) + (1 << 3) + 2 + 1


def test_mul_exhaustive_gf16_vs_oracle(gf16):
    poly = DEFAULT_PRIMITIVE_POLYS[4]
    for x in range(16):
        for y in range(16):
            assert gf16.mul(x, y) == poly_mul_mod(x, y, poly), (x, y)


@pytest.mark.parametrize("m", [8, 11])
def test_mul_randomized_vs_oracle(m):
    gf = GF(m)
    rng = random.Random(0xC0DE + m)
    poly = DEFAULT_PRIMITIVE_POLYS[m]
    for _ in range(20000):
        x = rng.randrange(gf.q)
        y = rng.randrange(gf.q)
        assert gf.mul(x, y) == poly_mul_mod(x, y, poly)


def test_field_axioms_exhaustive_gf16(gf16):
    elems = range(16)
    for x in elems:
        for y in elems:
            assert gf16.mul(x, y) == gf16.mul(y, x)
            for z in elems:
                assert gf16.mul(x, gf16.mul(y, z)) == gf16.mul(gf16.mul(x, y), z)
                assert gf16.mul(x, y ^ z) == gf16.mul(x, y) ^ gf16.mul(x, z)


def test_inverse_exhaustive(gf16):
    for x in range(1, 16):
        assert gf16.mul(x, gf16.pow(x, -1)) == 1
    with pytest.raises(ZeroInverse):
        gf16.pow(0, -1)


def test_pow(gf16):
    a = 2  # the generator
    assert gf16.pow(a, 0) == 1
    assert gf16.pow(a, 1) == a
    assert gf16.pow(a, gf16.order) == 1
    assert gf16.pow(0, 5) == 0
    assert gf16.pow(0, 0) == 1
    with pytest.raises(ZeroInverse):
        gf16.pow(0, -1)
    rng = random.Random(7)
    for _ in range(200):
        x = rng.randrange(1, 16)
        i = rng.randrange(-20, 20)
        j = rng.randrange(-20, 20)
        assert gf16.mul(gf16.pow(x, i), gf16.pow(x, j)) == gf16.pow(x, i + j)
        assert gf16.mul(gf16.pow(x, -i), gf16.pow(x, i)) == 1


def test_generator_visits_every_nonzero_element():
    for m in sorted(DEFAULT_PRIMITIVE_POLYS):
        gf = GF(m)
        assert sorted(gf.exp[: gf.order]) == list(range(1, gf.q))


def test_param_validation():
    with pytest.raises(InvalidParams):
        GF(1)
    with pytest.raises(InvalidParams):
        GF(17)


@pytest.mark.parametrize("m", range(2, 17))
def test_vector_ops_match_scalar(m):
    gf = GF(m)
    rng = np.random.default_rng(11 + m)
    a = rng.integers(0, gf.q, size=300)
    b = rng.integers(0, gf.q, size=300)
    a[:40:2] = 0  # zeros in a, in b and in both, at the table bounds
    b[:40:4] = 0
    b[1:40:2] = 0
    a[-3:] = b[-2:] = gf.q - 1
    pairs = list(zip(a.tolist(), b.tolist()))
    assert gf.vmul(a, b).tolist() == [gf.mul(x, y) for x, y in pairs]
    nz = b != 0
    assert gf.vdiv(a[nz], b[nz]).tolist() == [div(gf, x, y) for x, y in pairs if y]
    assert gf.vdiv(0, b[nz]).tolist() == [0] * int(nz.sum())
    with pytest.raises(ZeroInverse):
        gf.vdiv(a, b)
    with pytest.raises(ZeroInverse):
        gf.vdiv(1, 0)
    e = np.concatenate([rng.integers(-3 * gf.order, 3 * gf.order, size=200),
                        [0, -1, gf.order, -gf.order, 2 * gf.order + 1]])
    assert gf.power(e).tolist() == [gf.pow(2, x) for x in e.tolist()]
    # products along an axis: 30 rows of 10, the first four rows with a zero
    rows = a.reshape(30, 10)
    want = []
    for row in rows.tolist():
        acc = 1
        for x in row:
            acc = gf.mul(acc, x)
        want.append(acc)
    assert gf.prod(rows).tolist() == want
    assert gf.prod(rows[-1]) == want[-1]
    assert gf.prod(rows.T, axis=0).tolist() == want
    assert gf.prod(rows[:, :0]).tolist() == [1] * 30  # the empty product


@pytest.mark.parametrize("m", range(2, 17))
def test_matmul_matches_naive(m):
    gf = GF(m)
    rng = np.random.default_rng(13 + m)
    A = rng.integers(0, gf.q, size=(5, 7))
    B = rng.integers(0, gf.q, size=(7, 4))
    A[0] = 0
    A[:, 1] = 0
    B[2] = 0
    B[:, 3] = 0
    A[4, 6] = B[6, 0] = gf.q - 1
    got = gf.matmul(A, B)
    for i in range(5):
        for j in range(4):
            acc = 0
            for t in range(7):
                acc ^= gf.mul(int(A[i, t]), int(B[t, j]))
            assert got[i, j] == acc


def scalar_entry(gf, A, B, i, j):
    acc = 0
    for t in range(A.shape[1]):
        acc ^= gf.mul(int(A[i, t]), int(B[t, j]))
    return acc


@pytest.mark.parametrize("m", range(2, 17))
@pytest.mark.parametrize("extra", [0, 1], ids=["cube", "tables"])
@pytest.mark.parametrize("tall", [True, False], ids=["tall_a", "wide_b"])
@pytest.mark.parametrize("q, r", [(4, 3), (1, 1)])
def test_matmul_long_operand_matches_scalar(m, extra, tall, q, r):
    # long data against a short constant, with the long side at 2^(m+1)
    # (the cube) and at 2^(m+1) + 1 (the product tables), in both orientations
    gf = GF(m)
    rng = np.random.default_rng(17 * m + 2 * extra + tall)
    data = rng.integers(0, gf.q, size=(2 * gf.q + extra, q))
    const = rng.integers(0, gf.q, size=(q, r))
    data[0] = 0
    data[-1] = gf.q - 1
    data[1::5, 0] = 0
    const[0, 0] = 0
    const[-1, -1] = gf.q - 1
    if q > 1:
        data[:, 1] = 0
        const[2] = 0
    if r > 1:
        const[:, 1] = 0
    A, B = (data, const) if tall else (const.T, data.T)
    got = gf.matmul(A, B)
    assert got.shape == (A.shape[0], B.shape[1])
    assert got.dtype == np.int64
    if m <= 11:
        cells = [(i, j) for i in range(got.shape[0]) for j in range(got.shape[1])]
    else:
        cells = [(0, 0), (got.shape[0] - 1, got.shape[1] - 1)] + [
            (int(rng.integers(got.shape[0])), int(rng.integers(got.shape[1])))
            for _ in range(200)
        ]
    for i, j in cells:
        assert got[i, j] == scalar_entry(gf, A, B, i, j)


@pytest.mark.parametrize("shape", [
    (0, 3, 300), (300, 3, 0), (300, 0, 2), (2, 0, 300),  # the cube
    (513, 0, 2), (513, 3, 0), (513, 0, 0), (2, 0, 513), (0, 3, 513), (513, 0, 17),  # past 2^9
])
def test_matmul_empty_operands(shape):
    gf = GF(8)
    p, q, r = shape
    got = gf.matmul(np.zeros((p, q), dtype=np.int64), np.zeros((q, r), dtype=np.int64))
    assert got.shape == (p, r)
    assert got.dtype == np.int64
    assert not got.any()


def scalar_matmul(gf, A, B):
    """Oracle: XOR of scalar GF.mul products, one inner index at a time."""
    A, B = A.tolist(), B.tolist()
    out = [[0] * (len(B[0]) if B else 0) for _ in A]
    for row, a_row in zip(out, A):
        for a, b_row in zip(a_row, B):
            if a:
                for j, b in enumerate(b_row):
                    row[j] ^= gf.mul(a, b)
    return out


# (m, p, q, r) around the cube's block bound and the table switch
BLOCK_SHAPES = [
    (8, 93, 16, 11),  # exactly _BLOCK_CELLS: one cube
    (8, 107, 9, 17),  # three cells over: split tables
    (11, 8, 38, 62),  # two even blocks of 19 (not 33 + 5)
    (11, 8, 39, 62),  # blocks of 19 and 20
    (11, 40, 37, 20),  # blocks of 18 and 19
    (11, 152, 38, 100),  # the byzantine store encode: split tables, blocks of two indices
    (8, 200, 1, 200),  # q = 1: one inner index, however many cells
    (8, 0, 38, 62),  # zero rows
    (8, 62, 38, 0),  # zero columns
    (2, 4, 1100, 4),  # p = r = 2^m, blocks of 550
    (4, 16, 70, 16),
    (8, 256, 8, 9),  # p = 2^m: split tables
    (8, 9, 8, 256),  # r = 2^m, blocked
    (11, 60, 20, 20),
    (16, 20, 50, 20),
]


@pytest.mark.parametrize("m, p, q, r", BLOCK_SHAPES)
def test_matmul_blocks_match_scalar(m, p, q, r):
    from regencode.galois import _BLOCK_CELLS

    assert _BLOCK_CELLS == 93 * 16 * 11 == 107 * 9 * 17 - 3
    gf = GF(m)
    rng = np.random.default_rng(p * 1000 + q * 10 + r + m)
    A = rng.integers(0, gf.q, size=(p, q))
    B = rng.integers(0, gf.q, size=(q, r))
    if p and q and r:
        A[0] = 0
        B[:, -1] = 0
        A[-1, -1] = B[-1, 0] = gf.q - 1
    got = gf.matmul(A, B)
    assert got.dtype == np.int64 and got.shape == (p, r)
    assert got.tolist() == scalar_matmul(gf, A, B)
    # an all-zero operand on either side
    assert not gf.matmul(np.zeros_like(A), B).any()
    assert not gf.matmul(A, np.zeros_like(B)).any()


@pytest.mark.parametrize("m", [2, 4, 8, 11, 16])
@pytest.mark.parametrize("long", [0, 1], ids=["cube", "tables"])
def test_matmul_switch_matches_scalar(m, long):
    # the longer outer side at 2^(m+1) (the log/exp cube, blocked when it is
    # large) and one past it (product tables), with enough inner terms to
    # pass the block bound
    gf = GF(m)
    rng = np.random.default_rng(31 * m + long)
    if m > 11:  # keep the oracle small: the long side on B, a few columns checked
        A = rng.integers(0, gf.q, size=(2, 3))
        B = rng.integers(0, gf.q, size=(3, 2 * gf.q + long))
        cols = [0, 1, B.shape[1] - 1]
        assert gf.matmul(A, B)[:, cols].tolist() == scalar_matmul(gf, A, B[:, cols])
        return
    q = 40 if m > 2 else 1100
    A = rng.integers(0, gf.q, size=(2 * gf.q + long, q))
    B = rng.integers(0, gf.q, size=(q, 3))
    assert gf.matmul(A, B).tolist() == scalar_matmul(gf, A, B)


# (m, r): constants of one lane group and more, split into groups of 64
# (GF(2^8)), 16 (GF(2^9)), 4 (GF(2^11)), 2 (GF(2^12)) and 1 lane (GF(2^13) up)
LANE_SPLITS = [(8, 65), (9, 17), (11, 5), (11, 9), (12, 3), (13, 2), (16, 3)]

# (m, r): every packing of the packed-row kernel; over GF(2^8) words of 1, 2,
# 4 and 8 bytes (r = 1, 2, 3-4, 5-8) and of 2 and 3 uint64 (r = 9-16, 17),
# then uint16 lanes, then the lane group splits
ROW_PACKINGS = [(8, r) for r in (1, 2, 3, 4, 5, 8, 9, 16, 17)] + [
    (9, 1), (9, 3), (9, 5), (11, 2), (11, 4), (11, 9), (16, 1), (16, 6)]
ROW_PACKINGS += [split for split in LANE_SPLITS if split not in ROW_PACKINGS]


@pytest.mark.parametrize("m, r", ROW_PACKINGS)
@pytest.mark.parametrize("q", [1, 5])
def test_row_kernel_matches_scalar(m, r, q):
    # the kernel itself, on short data, so every field and packing is cheap to
    # check; operands as the callers pass them: C-ordered, transposed, strided
    # and column-picked views of a bigger word, and a transposed constant
    gf = GF(m)
    rng = np.random.default_rng(1000 * m + 10 * r + q)
    word = rng.integers(0, gf.q, size=(61, 3 * q + 2))
    word[0] = 0
    word[-1] = gf.q - 1
    word[5:9, 1] = 0
    B = rng.integers(0, gf.q, size=(r, q)).T  # (q, r), not C-contiguous
    B[0, 0] = 0
    if q > 1:
        B[1] = 0  # a zero row
    if r > 1:
        B[:, -1] = 0  # a zero column
    if r > gf._group:
        B[-1, : gf._group] = 0  # zero inside the first group only (all of index 0 if q = 1)
    views = {
        "c_order": np.ascontiguousarray(word[:, :q]),
        "transposed": np.ascontiguousarray(word[:, :q].T).T,
        "sliced": word[::2, 1 : 3 * q + 1 : 3],
        "picked": word[:, list(range(q, 0, -1))] if q > 1 else word[:, [2]],
        "base": word[:, 2 : 2 + q],
    }
    for name, A in views.items():
        got = gf._row_product(A, B)
        assert got.dtype == np.int64 and got.flags.c_contiguous, name
        assert got.tolist() == scalar_matmul(gf, A, B), name


@pytest.mark.parametrize("m, q, r", [(8, 1, 1), (8, 6, 6), (8, 12, 9), (8, 4, 17), (11, 4, 4), (11, 1, 2)])
def test_matmul_row_kernel_past_switch(m, q, r):
    # one row past 2^(m+1), where matmul takes the packed-row kernel
    gf = GF(m)
    p = 2 * gf.q + 1
    assert gf.packs_rows(p, r) and not gf.packs_rows(p - 1, r)
    rng = np.random.default_rng(m + q + r)
    A = rng.integers(0, gf.q, size=(p, q))
    B = rng.integers(0, gf.q, size=(q, r))
    A[1] = 0
    A[-1] = gf.q - 1
    got = gf.matmul(A, B)
    assert got.dtype == np.int64 and got.flags.c_contiguous and got.shape == (p, r)
    assert got.tolist() == scalar_matmul(gf, A, B)


@pytest.mark.parametrize("m, r", LANE_SPLITS)
@pytest.mark.parametrize("tall", [True, False], ids=["tall_a", "wide_b"])
def test_matmul_lane_groups_match_scalar(m, r, tall):
    # one past 2^(m+1) against a constant of r columns (tall data) or rows
    # (wide data) in more than one lane group; a sample of the long side is
    # checked
    gf = GF(m)
    group = gf._group
    assert group < r <= 2 * gf.q
    rng = np.random.default_rng(100 * m + r + tall)
    data = rng.integers(0, gf.q, size=(2 * gf.q + 1, 5))
    const = rng.integers(0, gf.q, size=(5, r))
    data[0] = 0
    data[-1] = gf.q - 1
    const[1] = 0  # zero in every group
    const[-1, :group] = 0  # zero inside the first group only
    const[:, -1] = 0  # a zero column
    A, B = (data, const) if tall else (const.T, data.T)
    got = gf.matmul(A, B)
    assert got.dtype == np.int64 and got.shape == (A.shape[0], B.shape[1])
    picks = [0, 1, len(data) - 1] + rng.integers(len(data), size=40).tolist()
    if tall:
        assert got[picks].tolist() == scalar_matmul(gf, A[picks], B)
    else:
        assert got[:, picks].tolist() == scalar_matmul(gf, A, B[:, picks])


def test_row_kernel_only_for_small_tables():
    # a 2^m-row table of packed rows stays within 16 KiB; larger ones keep the
    # per-coefficient product tables, and the wide orientation never packs rows
    assert GF(8).packs_rows(513, 64) and not GF(8).packs_rows(513, 65)
    assert GF(11).packs_rows(4097, 4) and not GF(11).packs_rows(4097, 5)
    assert GF(12).packs_rows(8193, 2) and not GF(12).packs_rows(8193, 3)
    assert not GF(16).packs_rows(1 << 18, 1)
    assert not GF(8).packs_rows(3, 32772)


def test_vector_ops_broadcast_in_one_buffer():
    gf = GF(8)
    rng = np.random.default_rng(5)
    col = rng.integers(0, gf.q, size=(7, 1))
    row = rng.integers(1, gf.q, size=(1, 9))
    full = rng.integers(0, gf.q, size=(7, 9))
    keep = [col.copy(), row.copy(), full.copy()]
    outer = [[gf.mul(x, y) for y in row[0].tolist()] for x in col[:, 0].tolist()]
    assert gf.vmul(col, row).tolist() == outer  # neither has the full shape
    assert gf.vmul(row, col).tolist() == outer
    want = [[gf.mul(x, y) for x, y in zip(fr, row[0].tolist())] for fr in full.tolist()]
    assert gf.vmul(full, row).tolist() == want
    assert gf.vmul(row, full).tolist() == want
    assert gf.vdiv(full, row).tolist() == [
        [div(gf, x, y) for x, y in zip(fr, row[0].tolist())] for fr in full.tolist()]
    assert gf.vdiv(3, row).tolist() == [[div(gf, 3, y) for y in row[0].tolist()]]
    assert gf.vmul(5, full).tolist() == [[gf.mul(5, x) for x in fr] for fr in full.tolist()]
    assert int(gf.vmul(3, 7)) == gf.mul(3, 7) and int(gf.vdiv(3, 7)) == div(gf, 3, 7)
    for before, after in zip(keep, [col, row, full]):  # operands untouched
        assert np.array_equal(before, after)


def check_both_orientations(gf, data, const, product):
    """product(A, B) for tall data A = data times B = const, and for the wide
    orientation A = const.T times data.T, each against the scalar oracle."""
    for A, B in ((data, const), (const.T, data.T)):
        got = product(A, B)
        assert got.dtype == np.int64 and got.shape == (A.shape[0], B.shape[1])
        assert got.tolist() == scalar_matmul(gf, A, B)


def split_operands(gf, rng, p, q, r):
    """Data (p, q) and a constant (q, r) with zero rows and corners: inner index
    1 and, past four indices, the last are all-zero coefficients."""
    data = rng.integers(0, gf.q, size=(p, q))
    const = rng.integers(0, gf.q, size=(q, r))
    data[0] = 0
    data[-1] = gf.q - 1
    if q > 1:
        const[1] = 0
    if q > 4:
        const[-1] = 0
    return data, const


def slice_changes(gf):
    """Every p at which ``_row_product`` changes its slice width, the last one
    at 2^(m+1) + 1 (one slice); the width only grows with p."""
    changes, p = [], 1
    while p <= 2 * gf.q:
        lo, hi, c = p, 2 * gf.q + 1, gf._slice_bits(p)
        while hi - lo > 1:  # the first p past lo with another width
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if gf._slice_bits(mid) == c else (lo, mid)
        changes.append(hi)
        p = hi
    return changes


@pytest.mark.parametrize("m", [4, 8, 11, 16])
def test_split_tables_every_slice_change(m):
    # one row on each side of every change in the slice width s, the last one
    # the s = 1 boundary at 2^(m+1) + 1, in both orientations
    gf = GF(m)
    changes = slice_changes(gf)
    assert changes[-1] == 2 * gf.q + 1 and gf._slice_bits(changes[-1]) == m
    assert all(gf._slice_bits(p) < m for p in range(1, min(changes[-1], 300)))
    rng = np.random.default_rng(70 + m)
    for p in changes:
        for rows in (p - 1, p):
            if rows > 4000:  # GF(2^16) past 2^17 rows: a sample against the oracle
                data, const = split_operands(gf, rng, rows, 2, 3)
                pick = [0, 1, rows - 1] + rng.integers(rows, size=30).tolist()
                assert gf._row_product(data, const)[pick].tolist() == scalar_matmul(gf, data[pick], const)
                wide = gf._row_product(data, const.T[::-1].T)  # a strided constant
                assert wide[pick].tolist() == scalar_matmul(gf, data[pick], const[:, ::-1])
                continue
            data, const = split_operands(gf, rng, rows, 6, 5)
            check_both_orientations(gf, data, const, lambda A, B: (
                gf._row_product(A, B) if A.shape[0] >= B.shape[1] else gf._row_product(B.T, A.T).T))


# (m, p, q, r): one step on each side of the cube / split-table switch, each as
# a tall product and as its transpose
SWITCH_SHAPES = [
    (8, 64, 64, 4), (8, 63, 64, 4),  # long side 64 against 63
    (11, 64, 64, 4), (11, 64, 63, 4),  # 16 384 cells against 16 128
    (8, 93, 16, 11), (11, 93, 16, 11), (16, 93, 16, 11),  # exactly _BLOCK_CELLS: the cube
    (11, 512, 40, 2), (11, 512, 40, 1), (16, 300, 60, 2),  # a short r of 2 against 1
    (11, 16, 30, 64), (11, 15, 30, 64), (8, 16, 30, 300),  # a short p of 16 against 15
    (8, 512, 8, 8), (8, 513, 8, 8),  # split tables at 2^(m+1), one slice past it
    (11, 152, 38, 38), (11, 304, 19, 19), (11, 152, 38, 62),  # the byzantine decode
    (11, 20, 19, 160), (7, 100, 5, 99),  # its MSR algebra and checksum-share encode
    (11, 38, 38, 38), (16, 20, 50, 20),  # kept on the cube
]


def takes_split_tables(p, q, r):
    from regencode.galois import _BLOCK_CELLS

    return max(p, r) >= 64 and p * q * r > _BLOCK_CELLS and min(p, r) >= (2 if r < p else 16)


@pytest.mark.parametrize("m, p, q, r", SWITCH_SHAPES)
def test_split_switch_matches_scalar(m, p, q, r):
    gf = GF(m)
    assert gf._splits(p, q, r) == takes_split_tables(p, q, r)
    assert gf._splits(r, q, p) == takes_split_tables(r, q, p)
    rng = np.random.default_rng(m * p + q * r)
    data, const = split_operands(gf, rng, p, q, r)
    check_both_orientations(gf, data, const, gf.matmul)


def test_split_switch_routes_named_shapes():
    # the products of a [100, 20, 38] Byzantine decode and store over GF(2^11)
    # go to split tables; the small ones stay on the log/exp cube
    gf = GF(11)
    for p, q, r in [(152, 38, 38), (304, 19, 19), (152, 38, 53), (152, 38, 62), (152, 38, 100),
                    (20, 19, 160)]:
        assert gf._splits(p, q, r) and max(p, r) <= 2 * gf.q
    for p, q, r in [(8, 38, 19), (8, 38, 38), (19, 19, 16), (38, 38, 38), (20, 50, 20)]:
        assert not gf._splits(p, q, r)


@pytest.mark.parametrize("m", [8, 11, 16])
def test_split_tables_zero_coefficients(m):
    # inner indices whose coefficients are all zero: one inside a block, a
    # whole block's worth, and every one of them
    gf = GF(m)
    rng = np.random.default_rng(90 + m)
    data = rng.integers(0, gf.q, size=(200, 40))
    const = rng.integers(0, gf.q, size=(40, 30))
    const[3] = 0
    const[10:20] = 0
    check_both_orientations(gf, data, const, gf.matmul)
    assert gf._splits(200, 40, 30)
    const[:] = 0
    assert not gf.matmul(data, const).any() and not gf.matmul(const.T, data.T).any()
