"""Chunk file serialization.

Each node's stored state lives in one self-describing file: a fixed header
carrying every code parameter (so a decoder needs no side channel — the
generator matrix column is regenerable from the node index and the
field), followed by the packed chunk symbols and the node's checksum
shares.

Layout (all integers big-endian):

    magic "RGEN" | version u8 | family u8 | m u8 | generator u8 |
    prim_poly u32 | n u16 | k u16 | d u16 | beta u32 | r u8 |
    crc_poly u64 | scheme u8 | node_index u16 | payload_bit_len u64

The generator, prim_poly and crc_poly fields are fixed by m and r, as 2,
DEFAULT_PRIMITIVE_POLYS[m] and DEFAULT_CRC_POLYS[r]: ``pack_chunk`` writes
them, and ``unpack_chunk`` rejects other values or an m or r without one.

Body: ``beta * alpha`` symbols in stripe-major order, each in ceil(m/8)
bytes most-significant-bit-first; then n-1 checksum shares in ascending
owner order, each in ceil(r/8) bytes (replicated scheme) or ceil(m'/8)
bytes (coded scheme).  Each part is one array of big-endian words, cast
to and viewed as ``>u{width}``.  A width is always 1, 2, 4 or 8:
2 <= m <= 16, r is 4, 8, 16, 32 or 64, and m' <= 16 because the header's
n is a u16; ``_polys`` rejects any other m or r before a width is read.

In memory the shares are the node's row of the checksum directory: n
entries indexed by owner, with a zero at the node's own index.  The file
holds that row without its own entry, so ``pack_chunk`` deletes the entry
and ``unpack_chunk`` inserts it back.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .cluster import PARAMS
from .errors import MalformedChunk
from .galois import DEFAULT_PRIMITIVE_POLYS, GF
from .integrity import CODED, DEFAULT_CRC_POLYS, REPLICATED, CrcParams, share_bits

MAGIC = b"RGEN"
VERSION = 1
_HEADER = struct.Struct(">4sBBBBIHHHIBQBHQ")
_FAMILY_CODES = {"msr": 0, "mbr": 1}
_FAMILY_NAMES = {v: f for f, v in _FAMILY_CODES.items()}
_SCHEME_CODES = {REPLICATED: 0, CODED: 1}
_SCHEME_NAMES = {v: s for s, v in _SCHEME_CODES.items()}


@dataclass(frozen=True)
class ChunkHeader:
    family: str
    m: int
    n: int
    k: int
    d: int
    beta: int
    r: int
    scheme: str
    node_index: int
    payload_bit_len: int

    @property
    def alpha(self) -> int:
        return PARAMS[self.family].alpha_for(self.k, self.d)

    @property
    def symbol_bytes(self) -> int:
        return (self.m + 7) // 8

    @property
    def share_bytes(self) -> int:
        return (share_bits(self.scheme, self.n, self.r) + 7) // 8

    def body_size(self) -> int:
        return (
            self.beta * self.alpha * self.symbol_bytes
            + (self.n - 1) * self.share_bytes
        )


def header_for_state(state, node_index: int) -> ChunkHeader:
    """Header describing one node of an in-memory cluster."""
    p = state.params
    return ChunkHeader(
        family=p.family,
        m=p.field.m,
        n=p.n,
        k=p.k,
        d=p.d,
        beta=p.beta,
        r=state.crc.r,
        scheme=state.scheme,
        node_index=node_index,
        payload_bit_len=state.payload_bit_len,
    )


def params_from_header(h: ChunkHeader):
    """(code params, CrcParams) reconstructed from a header."""
    return PARAMS[h.family](h.n, h.k, h.d, h.beta, GF(h.m)), CrcParams(h.r)


def _polys(m: int, r: int) -> tuple[int, int, int]:
    """The (generator, prim_poly, crc_poly) header fields that m and r fix."""
    if m not in DEFAULT_PRIMITIVE_POLYS or r not in DEFAULT_CRC_POLYS:
        raise MalformedChunk(f"no field of degree m={m} or checksum of width r={r}")
    return 2, DEFAULT_PRIMITIVE_POLYS[m], DEFAULT_CRC_POLYS[r]


def pack_chunk(header: ChunkHeader, chunk, shares) -> bytes:
    generator, prim_poly, crc_poly = _polys(header.m, header.r)
    head = _HEADER.pack(
        MAGIC, VERSION, _FAMILY_CODES[header.family], header.m, generator, prim_poly,
        header.n, header.k, header.d, header.beta, header.r, crc_poly,
        _SCHEME_CODES[header.scheme], header.node_index, header.payload_bit_len,
    )
    chunk = np.asarray(chunk, dtype=np.int64)
    if chunk.shape != (header.beta, header.alpha):
        raise MalformedChunk(
            f"chunk shape {chunk.shape} does not match "
            f"(beta, alpha) = ({header.beta}, {header.alpha})"
        )
    shares = np.asarray(shares)
    if shares.shape != (header.n,) or shares[header.node_index] != 0:
        raise MalformedChunk(
            f"shares must be a row of {header.n} with a zero at node {header.node_index}"
        )
    # numpy shifts a negative value to -1, by 64 bits too, so both checks
    # also refuse negative values
    if (chunk >> header.m).any():
        raise MalformedChunk(f"symbol exceeds {header.m} bits")
    row = np.delete(shares, header.node_index)
    if (row >> 8 * header.share_bytes).any():
        raise MalformedChunk(f"share does not fit in {header.share_bytes} bytes")
    return (head + chunk.astype(f">u{header.symbol_bytes}").tobytes()
            + row.astype(f">u{header.share_bytes}").tobytes())


def unpack_chunk(data: bytes) -> tuple[ChunkHeader, np.ndarray, np.ndarray]:
    if len(data) < _HEADER.size:
        raise MalformedChunk(f"file too short for header ({len(data)} bytes)")
    (magic, version, family_code, m, generator, prim_poly, n, k, d, beta, r,
     crc_poly, scheme_code, node_index, bit_len) = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise MalformedChunk(f"bad magic {magic!r}")
    if version != VERSION:
        raise MalformedChunk(f"unsupported format version {version}")
    if family_code not in _FAMILY_NAMES:
        raise MalformedChunk(f"unknown family code {family_code}")
    if scheme_code not in _SCHEME_NAMES:
        raise MalformedChunk(f"unknown scheme code {scheme_code}")
    if node_index >= n:
        raise MalformedChunk(f"node index {node_index} out of range for n={n}")
    if (generator, prim_poly, crc_poly) != _polys(m, r):
        raise MalformedChunk(f"generator or polynomials {generator}, 0x{prim_poly:x}, "
                             f"0x{crc_poly:x} are not those of m={m}, r={r}")
    if scheme_code == _SCHEME_CODES[CODED] and n < 3:
        raise MalformedChunk(f"coded checksum scheme needs n >= 3, got {n}")
    if not 1 <= k <= d < n:
        raise MalformedChunk(f"need 1 <= k <= d < n, got n={n}, k={k}, d={d}")
    header = ChunkHeader(_FAMILY_NAMES[family_code], m, n, k, d, beta, r,
                         _SCHEME_NAMES[scheme_code], node_index, bit_len)
    body = memoryview(data)[_HEADER.size :]
    if len(body) != header.body_size():
        raise MalformedChunk(
            f"body has {len(body)} bytes, layout requires {header.body_size()}"
        )
    count = header.beta * header.alpha
    flat = np.frombuffer(body, f">u{header.symbol_bytes}", count)
    if (flat >> m).any():
        raise MalformedChunk(f"symbol exceeds {m} bits")
    chunk = flat.astype(np.int64).reshape(header.beta, header.alpha)
    row = np.frombuffer(body, f">u{header.share_bytes}", n - 1, count * header.symbol_bytes)
    return header, chunk, np.insert(row.astype(np.uint64), node_index, 0)


def read_chunk_file(path) -> tuple[ChunkHeader, np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        return unpack_chunk(fh.read())


def write_atomic(path, data: bytes) -> None:
    """Write to a temporary file beside path, then replace path with it: a
    write cut short leaves any existing file as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_chunk_file(path, header: ChunkHeader, chunk, shares) -> None:
    """Pack first, then write atomically: a chunk that fails to pack
    leaves any existing file as it was."""
    write_atomic(path, pack_chunk(header, chunk, shares))
