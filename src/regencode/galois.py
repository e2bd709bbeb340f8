"""Arithmetic over GF(2^m), 2 <= m <= 16, with log/antilog tables.

Addition is XOR.  Multiplication, inversion and exponentiation go through
eagerly built log/antilog tables for a configurable primitive polynomial
and generator element.  Bulk operations (syndrome updates, Chien search,
matrix products) go through ``vmul``, ``vdiv``, ``matmul`` and ``power``
on numpy arrays; this module is the only one that knows the table format.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams, ZeroInverse

# Primitive polynomials by degree, bit i = coefficient of x^i.
# Conventional choices; primitivity is re-verified at construction time.
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


def _clmul_mod(a: int, b: int, poly: int, m: int) -> int:
    """Carry-less multiply of a and b reduced modulo poly (degree m)."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= poly
    return acc


class GF:
    """A finite field GF(2^m) together with its arithmetic tables."""

    def __init__(self, m: int, prim_poly: int | None = None, generator: int = 2):
        if not 2 <= m <= 16:
            raise InvalidParams(f"field degree m={m} outside supported range [2, 16]")
        if prim_poly is None:
            prim_poly = DEFAULT_PRIMITIVE_POLYS[m]
        if prim_poly.bit_length() != m + 1:
            raise InvalidParams(
                f"polynomial 0x{prim_poly:x} does not have degree {m}"
            )
        q = 1 << m
        if not 1 <= generator < q:
            raise InvalidParams(f"generator {generator} outside field of size {q}")

        self.m = m
        self.q = q
        self.order = q - 1
        self.prim_poly = prim_poly
        self.generator = generator

        # Fill exp/log by repeated multiplication with the generator.  The
        # generator must reach every nonzero element exactly once before
        # cycling back to 1, which verifies both that the polynomial gives
        # a field and that the generator is primitive in it.
        exp = [0] * (2 * self.order)
        log = [0] * q
        x = 1
        for i in range(self.order):
            if x == 0:
                raise InvalidParams(
                    f"0x{prim_poly:x} is reducible: powers of the generator hit zero"
                )
            if x == 1 and i > 0:
                raise InvalidParams(
                    f"generator {generator} has order {i} < {self.order}; "
                    "pick a primitive polynomial and generator"
                )
            exp[i] = x
            exp[i + self.order] = x
            log[x] = i
            x = _clmul_mod(x, generator, prim_poly, m)
        if x != 1:
            raise InvalidParams(
                f"generator {generator} does not have order {self.order}"
            )

        self.exp = exp  # doubled: exp[i] == generator ** (i % order), 0 <= i < 2*order
        self.log = log  # log[0] is a placeholder and must never be used
        # Vector tables: log(0) is the sentinel 2·order and exp is zero from
        # 2·order through 4·order, so a product or quotient with a zero
        # operand lands on an exp entry of 0 and needs no mask.
        self._log = np.array(log, dtype=np.int64)
        self._log[0] = 2 * self.order
        self._exp = np.zeros(4 * self.order + 1, dtype=np.int64)
        self._exp[: 2 * self.order] = exp

    def __repr__(self):
        return f"GF(2^{self.m}, poly=0x{self.prim_poly:x}, g={self.generator})"

    # -- scalar operations -------------------------------------------------

    @staticmethod
    def add(x: int, y: int) -> int:
        return x ^ y

    # Subtraction coincides with addition in characteristic 2.
    sub = add

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self.exp[self.log[x] + self.log[y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return self.exp[self.order - self.log[x]]

    def div(self, x: int, y: int) -> int:
        if y == 0:
            raise ZeroInverse("division by zero")
        if x == 0:
            return 0
        return self.exp[self.log[x] - self.log[y] + self.order]

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
        return self._exp[self._log[a] + self._log[b]]

    def vdiv(self, a, b) -> np.ndarray:
        """Elementwise (broadcast) quotient a / b; raises on a zero divisor."""
        lb = self._log[b]
        if (lb == 2 * self.order).any():
            raise ZeroInverse("division by zero")
        return self._exp[self._log[a] - lb + self.order]

    def power(self, e) -> np.ndarray:
        """generator ** e elementwise, for any integer exponents."""
        return self._exp[np.mod(e, self.order)]

    def matmul(self, A, B) -> np.ndarray:
        """Matrix product over the field; A is (p, q), B is (q, r)."""
        la, lb = self._log[A], self._log[B]
        if la.ndim != 2 or lb.ndim != 2 or la.shape[1] != lb.shape[0]:
            raise InvalidParams(f"incompatible shapes {la.shape} x {lb.shape}")
        return np.bitwise_xor.reduce(self._exp[la[:, :, None] + lb[None, :, :]], axis=1)
