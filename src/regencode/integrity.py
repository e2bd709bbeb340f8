"""CRC checksums, the packed frame format and checksum-share directories.

The CRC uses the IEEE 802.3 convention: reflected input/output, all-ones
initial register, final complement.  Its width r is 4, 8, 16, 32 or 64,
and each width has one polynomial (``DEFAULT_CRC_POLYS``).  At the default
r=32, polynomial 0x04C11DB7, the byte-stream behaviour is identical to
zlib's crc32 when bytes are expanded least-significant-bit first.
Payloads here are arbitrary *bit* sequences (symbol sizes are rarely
byte multiples), so the register is defined over the bit stream.

A frame (payload ∥ CRC ∥ zero pad) is carried as bytes plus a bit
length, most-significant bit first: the layout ``np.packbits`` produces,
so 0/1 bit arrays cross the API edge through packbits/unpackbits.  m-bit
field symbols follow each other in the same order, so for m = 8 the
frame bytes are the symbols.  The CRC core reads whole bytes through a
bit-reversal table into zlib.crc32 (r = 32) or one byte table (every
other width: the reflected byte update holds for r < 8 too), and the
tail of fewer than 8 bits bit by bit.  A CRC of width r lets a fraction
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

``chunk_checksums`` packs all n chunks in one pass.  ``build_directory``
returns all shares as one n×n array: row j, indexed by owner, is what
node j holds, with a zero at j itself; it writes each owner's n-1 words
around the diagonal of an owner-major matrix, then transposes it.
"""

from __future__ import annotations

import functools
import math
import zlib
from collections import Counter

import numpy as np

from .errors import InvalidParams, NoMajority, TooShort
from .galois import GF
from .rscode import ReceivedWord, RsParams, decode_error_erasure, encode_eval

# The one polynomial of each checksum width, truncated (leading term implicit).
DEFAULT_CRC_POLYS = {
    4: 0x3,  # x^4 + x + 1
    8: 0x07,  # x^8 + x^2 + x + 1
    16: 0x8005,  # x^16 + x^15 + x^2 + 1
    32: 0x04C11DB7,  # IEEE 802.3
    64: 0x42F0E1EBA9EA3693,  # ECMA-182
}


def _reflect(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


class CrcParams:
    """Width of the checksum, which names its polynomial; IEEE 802.3 convention."""

    def __init__(self, r: int = 32):
        if r not in DEFAULT_CRC_POLYS:
            raise InvalidParams(f"no CRC polynomial of width r={r}: widths are 4, 8, 16, 32, 64")
        self.r = r
        self.poly = DEFAULT_CRC_POLYS[r]
        self.mask = (1 << r) - 1
        self.rpoly = _reflect(self.poly, r)
        self._zlib = r == 32

    @functools.cached_property
    def _table(self) -> list[int]:
        """Register update per input byte, for every width off the zlib path."""
        table = []
        for byte in range(256):
            crc = byte
            for _ in range(8):
                crc = (crc >> 1) ^ (self.rpoly if crc & 1 else 0)
            table.append(crc)
        return table

    def __repr__(self):
        return f"CrcParams(r={self.r})"


# -- frames: packed bytes, most-significant bit first ---------------------

_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def bits_at(data: bytes, start: int, width: int) -> int:
    """The ``width`` bits of ``data`` from bit ``start`` on, as an integer."""
    if start + width > 8 * len(data):
        raise InvalidParams(f"bits {start}..{start + width - 1} run past {len(data)} bytes")
    first, stop = start >> 3, (start + width + 7) >> 3
    value = int.from_bytes(data[first:stop], "big")
    return value >> (8 * stop - start - width) & ((1 << width) - 1)


def _packed_rows(rows: np.ndarray, m: int) -> np.ndarray:
    """Each row of 2-D symbols as uint8, serialised as ``symbols_to_bytes`` does."""
    if m == 8:
        return rows.astype(np.uint8, order="C")
    bits = np.unpackbits(rows.astype(">u2", order="C").view(np.uint8))
    return np.packbits(bits.reshape(len(rows), -1, 16)[:, :, 16 - m :].reshape(len(rows), -1), axis=1)


def symbols_to_bytes(symbols, m: int) -> bytes:
    """Serialise field elements as m bits each, most-significant first, and
    zero-pad the last byte.  For m == 8 each symbol is one byte; otherwise
    the last m bits of each symbol's big-endian uint16 are kept."""
    return _packed_rows(np.reshape(symbols, (1, -1)), m).tobytes()


def bytes_to_symbols(data: bytes, m: int, count: int) -> np.ndarray:
    """The first ``count`` m-bit symbols of ``data``, as int64."""
    raw = np.frombuffer(data, dtype=np.uint8)
    if 8 * raw.size < count * m:
        raise InvalidParams(f"{raw.size} bytes hold fewer than {count} {m}-bit symbols")
    if m == 8:
        return raw[:count].astype(np.int64)
    padded = np.zeros((count, 16), dtype=np.uint8)
    padded[:, 16 - m :] = np.unpackbits(raw, count=count * m).reshape(count, m)
    return np.packbits(padded).view(">u2").astype(np.int64)


# -- CRC core -------------------------------------------------------------


def _crc_register(data: bytes, nbits: int, params: CrcParams, init: int) -> int:
    """The register after the first nbits bits of ``data``, fed in frame
    order: whole bytes, bit-reversed for the reflected register, go through
    zlib or the byte table, and the tail of fewer than 8 bits bit by bit."""
    if not 0 <= nbits <= 8 * len(data):
        raise InvalidParams(f"{nbits} bits do not fit in {len(data)} bytes")
    crc = init
    nfull = nbits // 8
    if nfull:
        whole = bytes(data[:nfull]).translate(_REVERSED)
        if params._zlib:  # zlib complements the register on entry and exit
            crc = zlib.crc32(whole, crc ^ params.mask) ^ params.mask
        else:
            table = params._table
            for byte in whole:
                crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    rpoly = params.rpoly
    for i in range(8 * nfull, nbits):
        crc = (crc >> 1) ^ (rpoly if (crc ^ data[i >> 3] >> (7 - (i & 7))) & 1 else 0)
    return crc


def crc_checksum(data: bytes, nbits: int, params: CrcParams) -> int:
    """Checksum of the first nbits bits of a packed frame."""
    return _crc_register(data, nbits, params, params.mask) ^ params.mask


def crc_linear(data: bytes, nbits: int, params: CrcParams) -> int:
    """The GF(2)-linear part of the checksum (zero init, no final xor).

    crc_checksum(x ^ y) == crc_checksum(x) ^ crc_linear(y) for equal-length
    x and y, which is what makes consistent low-weight forgeries possible.
    """
    return _crc_register(data, nbits, params, 0)


def crc_verify(data: bytes, nbits: int, params: CrcParams) -> bool:
    """True when bits nbits-r .. nbits-1 hold the checksum of the bits before."""
    if nbits < params.r:
        raise TooShort(f"{nbits} bits cannot carry an r={params.r} checksum")
    payload = nbits - params.r
    return crc_checksum(data, payload, params) == bits_at(data, payload, params.r)


def chunk_checksums(chunks, m: int, params: CrcParams) -> list[int]:
    """``chunk_checksum`` of each chunk along the first axis: all packed in
    one pass, each row zero-padded to whole bytes, then one ``crc_checksum``
    per chunk over a memoryview of its bytes (a tail bit reads a Python int)."""
    rows = np.asarray(chunks)
    rows = rows.reshape(len(rows), -1)
    packed = _packed_rows(rows, m)
    data, width, nbits = memoryview(packed.reshape(-1)), packed.shape[1], rows.shape[1] * m
    return [crc_checksum(data[i * width : (i + 1) * width], nbits, params) for i in range(len(rows))]


def chunk_checksum(symbols, m: int, params: CrcParams) -> int:
    """Checksum of a stored chunk, taken over its serialised bits."""
    return chunk_checksums(np.reshape(symbols, (1, -1)), m, params)[0]


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
    m_prime = max(2, (n - 2).bit_length())
    # the [n-1, k'] code needs n-1 distinct nonzero evaluation points
    while (1 << m_prime) - 1 < n - 1:
        m_prime += 1
    return m_prime, math.ceil(r / m_prime)


def share_bits(scheme: str, n: int, r: int) -> int:
    """Width of one checksum share: r bits replicated, m' bits coded."""
    return r if scheme == REPLICATED else checksum_code_size(n, r)[0]


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

    def checksum_to_message(self, checksum):
        """The zero-padded r bits as k' m'-bit symbols; one row per checksum of an array."""
        cs = np.asarray(checksum, dtype=np.uint64)
        if (cs >> np.uint64(self.r - 1) > 1).any():
            raise InvalidParams(f"checksum does not fit in {self.r} bits")
        # symbol t holds the checksum bits of weight r-(t+1)m' .. r-tm'-1; the
        # last symbol may run into the zero pad (negative weights)
        shift = self.r - self.m_prime * np.arange(1, self.k_prime + 1)
        right, left = np.maximum(shift, 0).astype(np.uint64), np.maximum(-shift, 0).astype(np.uint64)
        msg = ((cs[..., None] >> right << left) & np.uint64((1 << self.m_prime) - 1)).astype(np.int64)
        return msg.tolist() if cs.ndim == 0 else msg

    def message_to_checksum(self, message) -> int:
        value = 0
        for symbol in message:
            value = value << self.m_prime | int(symbol)
        return value >> (self.k_prime * self.m_prime - self.r)


@functools.cache
def coded_layout(n: int, r: int) -> CodedLayout:
    return CodedLayout(n, r)


def build_directory(checksums, scheme: str, crc: CrcParams) -> np.ndarray:
    """The n×n uint64 share directory: shares[j, i] is holder j's share of
    node i's checksum, and the diagonal is zero (no node vouches for
    itself).  Row j, indexed by owner, is what node j stores.  uint64
    holds every checksum width up to r = 64."""
    if scheme not in SCHEMES:
        raise InvalidParams(f"unknown checksum scheme {scheme!r}")
    n = len(checksums)
    cs = np.array([int(c) for c in checksums], dtype=np.uint64)
    if scheme == REPLICATED:
        words = np.broadcast_to(cs[:, None], (n, n - 1))
    else:  # one codeword per owner, its coordinates in peer-position order
        layout = coded_layout(n, crc.r)
        words = encode_eval(layout.checksum_to_message(cs), layout.code)
    # owner i's n-1 words fill row i around the diagonal: every (n+1)-th cell
    by_owner = np.zeros((n, n), dtype=np.uint64)
    by_owner.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n] = words.reshape(n - 1, n)
    return by_owner.T


def recover_checksum(
    responses: dict[int, int], failed: int, scheme: str, n: int, crc: CrcParams
) -> int:
    """Recover the failed node's checksum from peers' shares.

    Responses wider than a share are dropped.  Raises NoMajority
    (replicated) or DecodeFailure (coded) when the rest cannot determine
    the checksum; the caller may then gather more shares and retry.
    """
    if scheme not in SCHEMES:
        raise InvalidParams(f"unknown checksum scheme {scheme!r}")
    if failed in responses:
        raise InvalidParams(f"node {failed} cannot vouch for its own checksum")
    if not responses:
        raise InvalidParams("no checksum shares supplied")
    space = 1 << share_bits(scheme, n, crc.r)
    responses = {j: v for j, v in zip(responses, map(int, responses.values())) if 0 <= v < space}
    if scheme == REPLICATED:
        value, top = (Counter(responses.values()).most_common(1) or [(0, 0)])[0]
        if 2 * top <= len(responses):
            raise NoMajority(f"top candidate holds {top} of {len(responses)} votes")
        return value
    layout = coded_layout(n, crc.r)
    # a holder's coordinate is its place in the failed node's ascending peer list
    word = ReceivedWord({j - (j > failed): v for j, v in responses.items()})
    return layout.message_to_checksum(decode_error_erasure(word, layout.code).messages)
