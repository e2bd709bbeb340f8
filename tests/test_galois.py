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


@pytest.fixture(scope="module")
def gf16():
    return GF(4)


def test_defaults_match_stated_polynomials():
    assert DEFAULT_PRIMITIVE_POLYS[4] == 0b10011
    assert DEFAULT_PRIMITIVE_POLYS[8] == 0x11D
    assert DEFAULT_PRIMITIVE_POLYS[11] == 0b100000000101
    assert DEFAULT_PRIMITIVE_POLYS[16] == (1 << 16) + (1 << 12) + (1 << 3) + 2 + 1


def test_add_is_xor(gf16):
    assert gf16.add(0b1010, 0b0110) == 0b1100
    for x in range(16):
        assert gf16.add(x, x) == 0
        assert gf16.add(x, 0) == x
        assert gf16.sub(x, x) == 0


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
        assert gf16.mul(x, gf16.inv(x)) == 1
        assert gf16.div(1, x) == gf16.inv(x)
    with pytest.raises(ZeroInverse):
        gf16.inv(0)
    with pytest.raises(ZeroInverse):
        gf16.div(3, 0)


def test_pow(gf16):
    a = gf16.generator
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
        assert gf16.pow(x, -i) == gf16.inv(gf16.pow(x, i))


def test_generator_visits_every_nonzero_element():
    for m in sorted(DEFAULT_PRIMITIVE_POLYS):
        gf = GF(m)
        assert sorted(gf.exp[: gf.order]) == list(range(1, gf.q))


def test_primitivity_is_enforced():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5 in it.
    with pytest.raises(InvalidParams):
        GF(4, prim_poly=0b11111)
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 is reducible.
    with pytest.raises(InvalidParams):
        GF(4, prim_poly=0b10101)
    # 8 == 2^3 has order 5 in GF(2^4), so it cannot serve as the generator.
    with pytest.raises(InvalidParams):
        GF(4, generator=8)
    # Any primitive element works as an alternative generator: 2^7 has
    # order 15 because gcd(7, 15) == 1.
    alt = GF(4, generator=GF(4).pow(2, 7))
    assert sorted(alt.exp[: alt.order]) == list(range(1, 16))


def test_param_validation():
    with pytest.raises(InvalidParams):
        GF(1)
    with pytest.raises(InvalidParams):
        GF(17)
    with pytest.raises(InvalidParams):
        GF(4, prim_poly=0b1011)  # degree 3 polynomial for m=4
    with pytest.raises(InvalidParams):
        GF(4, generator=0)
    with pytest.raises(InvalidParams):
        GF(4, generator=16)


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
    assert gf.vdiv(a[nz], b[nz]).tolist() == [gf.div(x, y) for x, y in pairs if y]
    assert gf.vdiv(0, b[nz]).tolist() == [0] * int(nz.sum())
    with pytest.raises(ZeroInverse):
        gf.vdiv(a, b)
    with pytest.raises(ZeroInverse):
        gf.vdiv(1, 0)
    e = np.concatenate([rng.integers(-3 * gf.order, 3 * gf.order, size=200),
                        [0, -1, gf.order, -gf.order, 2 * gf.order + 1]])
    g = gf.generator
    assert gf.power(e).tolist() == [gf.pow(g, x) for x in e.tolist()]


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
