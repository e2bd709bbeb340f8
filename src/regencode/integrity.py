"""CRC checksums and checksum-share directories.

The CRC uses the IEEE 802.3 convention: reflected input/output, all-ones
initial register, final complement.  With the default width r=32 and
polynomial 0x04C11DB7 the byte-stream behaviour is identical to zlib's
crc32 when bytes are expanded least-significant-bit first.  Payloads here
are arbitrary *bit* sequences (symbol sizes are rarely byte multiples),
so the register is defined directly over the bit stream; whole-byte
prefixes go through zlib.crc32 for that default, and through a table
for other parameters.  A CRC of width r lets a fraction
1/2^r of random corruptions through; that residual risk is inherent.

For regeneration each node's chunk checksum is spread over the other
n-1 nodes in one of two ways:

* replicated: every peer stores the full r-bit checksum; recovery takes
  a strict majority and tolerates floor((d-1)/2) forged shares out of d.
* coded: the checksum is zero-padded to k'*m' bits, split into k' symbols
  of m' bits, and encoded with an [n-1, k'] evaluation code over
  GF(2^m'); peer t stores coordinate t.  Recovery is error-erasure
  decoding and tolerates floor((d-k')/2) forged shares out of d, at a
  per-node cost of (n-1)*m' bits instead of (n-1)*r.
"""

from __future__ import annotations

import functools
import math
import zlib
from collections import Counter

import numpy as np

from .errors import InvalidParams, NoMajority, TooShort
from .galois import GF
from .rscode import (
    ReceivedWord,
    RsParams,
    decode_error_erasure,
    encode_eval,
    invert_submatrix,
    vandermonde,
)

DEFAULT_CRC_POLYS = {
    4: 0x3,  # x^4 + x + 1
    8: 0x07,  # x^8 + x^2 + x + 1
    16: 0x8005,  # x^16 + x^15 + x^2 + 1
    32: 0x04C11DB7,  # IEEE 802.3
}


def _reflect(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


class CrcParams:
    """Width and polynomial of the checksum; IEEE 802.3 convention."""

    def __init__(self, r: int = 32, poly: int | None = None):
        if r < 1 or r > 64:
            raise InvalidParams(f"checksum width r={r} outside [1, 64]")
        if poly is None:
            if r not in DEFAULT_CRC_POLYS:
                raise InvalidParams(f"no default polynomial for r={r}")
            poly = DEFAULT_CRC_POLYS[r]
        if not 0 < poly < (1 << r):
            raise InvalidParams(
                f"polynomial 0x{poly:x} is not a degree-{r} polynomial "
                "in truncated (leading term implicit) form"
            )
        self.r = r
        self.poly = poly
        self.mask = (1 << r) - 1
        self.rpoly = _reflect(poly, r)
        self._zlib = r == 32 and poly == DEFAULT_CRC_POLYS[32]
        self._table = None
        if r >= 8:
            table = []
            for byte in range(256):
                crc = byte
                for _ in range(8):
                    crc = (crc >> 1) ^ (self.rpoly if crc & 1 else 0)
                table.append(crc)
            self._table = table

    def __repr__(self):
        return f"CrcParams(r={self.r}, poly=0x{self.poly:x})"


# -- bit packing helpers --------------------------------------------------


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Expand bytes most-significant-bit first."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits) -> bytes:
    """Pack bits most-significant-bit first, zero-padding the tail byte."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def int_to_bits(value: int, width: int) -> np.ndarray:
    if value >> width:
        raise InvalidParams(f"value {value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def bits_to_int(bits) -> int:
    out = 0
    for b in np.asarray(bits, dtype=np.uint8).tolist():
        out = (out << 1) | b
    return out


def symbols_to_bits(symbols, m: int) -> np.ndarray:
    """Serialise field elements as m bits each, most-significant first."""
    syms = np.asarray(symbols, dtype=np.int64).reshape(-1)
    shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
    return ((syms[:, None] >> shifts[None, :]) & 1).astype(np.uint8).reshape(-1)


def bits_to_symbols(bits, m: int) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.int64)
    if len(bits) % m:
        raise InvalidParams(f"{len(bits)} bits do not split into {m}-bit symbols")
    weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
    return bits.reshape(-1, m) @ weights


# -- CRC core -------------------------------------------------------------


def _crc_register(bits, params: CrcParams, init: int) -> int:
    crc = init
    bits = np.asarray(bits, dtype=np.uint8)
    nfull = len(bits) // 8
    if params._table is not None and nfull:
        data = np.packbits(bits[: nfull * 8], bitorder="little").tobytes()
        if params._zlib:  # zlib complements the register on entry and exit
            crc = zlib.crc32(data, crc ^ params.mask) ^ params.mask
        else:
            table = params._table
            for byte in data:
                crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
        tail = bits[nfull * 8 :]
    else:
        tail = bits
    rpoly = params.rpoly
    for b in tail.tolist():
        crc = (crc >> 1) ^ (rpoly if (crc ^ b) & 1 else 0)
    return crc


def crc_checksum(bits, params: CrcParams) -> int:
    """Checksum of a bit sequence under the configured parameterisation."""
    return _crc_register(bits, params, params.mask) ^ params.mask


def crc_linear(bits, params: CrcParams) -> int:
    """The GF(2)-linear part of the checksum (zero init, no final xor).

    crc_checksum(x ^ y) == crc_checksum(x) ^ crc_linear(y) for equal-length
    x and y, which is what makes consistent low-weight forgeries possible.
    """
    return _crc_register(bits, params, 0)


def crc_append(bits, params: CrcParams) -> np.ndarray:
    """Payload followed by its r checksum bits (most-significant first)."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.concatenate([bits, int_to_bits(crc_checksum(bits, params), params.r)])


def crc_verify(bits, params: CrcParams) -> bool:
    """True when the trailing r bits match the checksum of the prefix."""
    bits = np.asarray(bits, dtype=np.uint8)
    if len(bits) < params.r:
        raise TooShort(f"{len(bits)} bits cannot carry an r={params.r} checksum")
    payload, stored = bits[: len(bits) - params.r], bits[len(bits) - params.r :]
    return crc_checksum(payload, params) == bits_to_int(stored)


def chunk_checksum(symbols, m: int, params: CrcParams) -> int:
    """Checksum of a stored chunk, taken over its serialised bits."""
    return crc_checksum(symbols_to_bits(symbols, m), params)


# -- checksum directories -------------------------------------------------

REPLICATED = "replicated"
CODED = "coded"
SCHEMES = (REPLICATED, CODED)


def checksum_code_size(n: int, r: int) -> tuple[int, int]:
    """(m', k') of the [n-1, k'] share code for an r-bit checksum.

    k' may exceed n-1; CodedLayout rejects that case, but the capability
    calculator still reports it (as an infeasible scheme).
    """
    if n < 3:
        raise InvalidParams(f"coded checksum scheme needs n >= 3, got {n}")
    if r < 1:
        raise InvalidParams(f"checksum width must be positive, got {r}")
    m_prime = max(2, (n - 2).bit_length())
    # the [n-1, k'] code needs n-1 distinct nonzero evaluation points
    while (1 << m_prime) - 1 < n - 1:
        m_prime += 1
    return m_prime, math.ceil(r / m_prime)


class CodedLayout:
    """Derived parameters of the coded checksum scheme for (n, r)."""

    def __init__(self, n: int, r: int):
        m_prime, k_prime = checksum_code_size(n, r)
        if k_prime > n - 1:
            raise InvalidParams(
                f"checksum of {r} bits needs k'={k_prime} symbols but only "
                f"{n - 1} shares exist; use a shorter checksum or more nodes"
            )
        self.n = n
        self.r = r
        self.m_prime = m_prime
        self.k_prime = k_prime
        self.field = GF(m_prime)
        self.code = RsParams(n - 1, k_prime, self.field)
        self.ghat_inv = invert_submatrix(
            vandermonde(self.code), range(k_prime), self.field
        )

    def checksum_to_message(self, checksum: int) -> list[int]:
        padded = np.concatenate(
            [
                int_to_bits(checksum, self.r),
                np.zeros(self.k_prime * self.m_prime - self.r, dtype=np.uint8),
            ]
        )
        return bits_to_symbols(padded, self.m_prime).tolist()

    def message_to_checksum(self, message) -> int:
        bits = symbols_to_bits(message, self.m_prime)
        return bits_to_int(bits[: self.r])


@functools.cache
def coded_layout(n: int, r: int) -> CodedLayout:
    return CodedLayout(n, r)


def _peer_position(holder: int, owner: int) -> int:
    """Index of a holder node within the owner's ascending peer list."""
    return holder - 1 if holder > owner else holder


def build_directory(checksums, scheme: str, crc: CrcParams) -> list[dict[int, int]]:
    """Shares held by each node: shares[j][i] is j's share of node i's checksum."""
    n = len(checksums)
    if scheme not in SCHEMES:
        raise InvalidParams(f"unknown checksum scheme {scheme!r}")
    shares: list[dict[int, int]] = [{} for _ in range(n)]
    if scheme == REPLICATED:
        for i, cs in enumerate(checksums):
            for j in range(n):
                if j != i:
                    shares[j][i] = int(cs)
        return shares
    layout = coded_layout(n, crc.r)
    messages = [layout.checksum_to_message(int(cs)) for cs in checksums]
    cws = encode_eval(messages, layout.code).tolist()  # one codeword per owner
    for i, cw in enumerate(cws):
        for j in range(n):
            if j != i:
                shares[j][i] = cw[_peer_position(j, i)]
    return shares


def recover_checksum(
    responses: dict[int, int], failed: int, scheme: str, n: int, crc: CrcParams
) -> int:
    """Recover the failed node's checksum from peers' shares.

    Raises NoMajority (replicated) or DecodeFailure (coded) when the
    responses cannot determine the checksum; the caller may then gather
    more shares and retry.
    """
    if scheme not in SCHEMES:
        raise InvalidParams(f"unknown checksum scheme {scheme!r}")
    if failed in responses:
        raise InvalidParams(f"node {failed} cannot vouch for its own checksum")
    if not responses:
        raise InvalidParams("no checksum shares supplied")
    if scheme == REPLICATED:
        counts = Counter(responses.values())
        value, top = counts.most_common(1)[0]
        if 2 * top <= len(responses):
            raise NoMajority(
                f"top candidate holds {top} of {len(responses)} votes"
            )
        return int(value)
    layout = coded_layout(n, crc.r)
    word = ReceivedWord(
        {_peer_position(j, failed): int(v) for j, v in responses.items()}
    )
    outcome = decode_error_erasure(word, layout.code)
    c = np.array([outcome.codeword[: layout.k_prime]], dtype=np.int64)
    message = layout.field.matmul(c, layout.ghat_inv)[0].tolist()
    return layout.message_to_checksum(message)
