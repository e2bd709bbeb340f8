"""Chunk-file format: numpy packing against per-symbol byte loops, a
seeded fuzz of the parser, and atomic writes."""

import os
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regencode.chunkio import (
    ChunkHeader,
    pack_chunk,
    read_chunk_file,
    unpack_chunk,
    write_chunk_file,
)
from regencode.errors import MalformedChunk
from regencode.galois import DEFAULT_PRIMITIVE_POLYS
from regencode.integrity import CODED, DEFAULT_CRC_POLYS, REPLICATED

HEADER_FMT = ">4sBBBBIHHHIBQBHQ"
HEADER_LEN = struct.calcsize(HEADER_FMT)
M, GENERATOR, PRIM_POLY, R, CRC_POLY = 3, 4, 5, 10, 11  # field positions in the header


def make_header(m, r, scheme, node_index=2, n=7, k=3, d=4, beta=5):
    return ChunkHeader(family="msr", m=m, n=n, k=k, d=d, beta=beta, r=r, scheme=scheme,
                       node_index=node_index, payload_bit_len=123)


def oracle_body(header, chunk, shares):
    """Oracle: the body one integer at a time with int.to_bytes; shares is
    the node's row, indexed by owner."""
    owners = [i for i in range(header.n) if i != header.node_index]
    body = b"".join(int(x).to_bytes(header.symbol_bytes, "big") for x in np.ravel(chunk))
    return body + b"".join(int(shares[i]).to_bytes(header.share_bytes, "big") for i in owners)


def oracle_unpack_body(header, body):
    """Oracle: symbols and shares one integer at a time with int.from_bytes;
    the shares come back as the node's row, zero at its own index."""
    sw, bw = header.symbol_bytes, header.share_bytes
    count = header.beta * header.alpha
    flat = [int.from_bytes(body[i * sw : (i + 1) * sw], "big") for i in range(count)]
    owners = [i for i in range(header.n) if i != header.node_index]
    off = count * sw
    shares = [0] * header.n
    for j, o in enumerate(owners):
        shares[o] = int.from_bytes(body[off + j * bw : off + (j + 1) * bw], "big")
    return flat, shares


# (m, r, scheme): 1- and 2-byte symbols; 1-, 2-, 4- and 8-byte replicated
# shares; coded shares of m' = 3 bits in one byte
LAYOUTS = [
    (8, 32, REPLICATED),
    (11, 16, REPLICATED),
    (16, 64, REPLICATED),
    (5, 8, REPLICATED),
    (8, 16, CODED),
    (13, 32, CODED),
]


@pytest.mark.parametrize("m, r, scheme", LAYOUTS)
def test_pack_and_unpack_match_byte_loops(m, r, scheme):
    rng = np.random.default_rng(m * 100 + r)
    header = make_header(m, r, scheme)
    owners = [i for i in range(header.n) if i != header.node_index]
    for _ in range(5):
        chunk = rng.integers(0, 1 << m, (header.beta, header.alpha))
        top = rng.integers(0, 1 << 8 * header.share_bytes, len(owners), dtype=np.uint64)
        shares = np.zeros(header.n, dtype=np.uint64)
        shares[owners] = top
        data = pack_chunk(header, chunk, shares)
        assert data[HEADER_LEN:] == oracle_body(header, chunk, shares)
        got_header, got_chunk, got_shares = unpack_chunk(data)
        want_flat, want_shares = oracle_unpack_body(header, data[HEADER_LEN:])
        assert got_header == header
        assert got_chunk.dtype == np.int64
        assert got_chunk.reshape(-1).tolist() == want_flat == chunk.reshape(-1).tolist()
        assert got_shares.shape == (header.n,)
        assert got_shares.tolist() == want_shares == shares.tolist()


def test_unpack_keeps_its_checks():
    header = make_header(11, 32, REPLICATED)
    chunk = np.zeros((header.beta, header.alpha), dtype=np.int64)
    shares = np.zeros(header.n, dtype=np.uint64)
    data = bytearray(pack_chunk(header, chunk, shares))
    data[HEADER_LEN] = 0x08  # first symbol becomes 0x0800, twelve bits
    with pytest.raises(MalformedChunk, match="exceeds 11 bits"):
        unpack_chunk(bytes(data))
    with pytest.raises(MalformedChunk, match="body has"):
        unpack_chunk(bytes(data[:-1]))
    with pytest.raises(MalformedChunk):
        pack_chunk(header, chunk + (1 << 16), shares)
    with pytest.raises(MalformedChunk):
        pack_chunk(header, chunk - 1, shares)
    too_wide = shares.copy()
    too_wide[0] = 1 << 32
    with pytest.raises(MalformedChunk):
        pack_chunk(header, chunk, too_wide)
    # pack refuses a symbol that unpack would refuse
    wide_symbol = chunk.copy()
    wide_symbol[0, 0] = 0x800
    with pytest.raises(MalformedChunk, match="exceeds 11 bits"):
        pack_chunk(header, wide_symbol, shares)
    # a negative share does not wrap into the widest share either
    header64 = make_header(11, 64, REPLICATED)
    negative = np.zeros(header64.n, dtype=np.int64)
    negative[0] = -1
    with pytest.raises(MalformedChunk):
        pack_chunk(header64, chunk, negative)


def test_header_polynomials_are_fixed_by_m_and_r():
    # the generator, prim_poly and crc_poly fields hold the values m and r
    # fix; a header with any other value, or with an m or r that has no
    # polynomial, is malformed
    header = make_header(11, 16, REPLICATED)
    chunk = np.zeros((header.beta, header.alpha), dtype=np.int64)
    shares = np.zeros(header.n, dtype=np.uint64)
    data = pack_chunk(header, chunk, shares)
    fields = struct.unpack_from(HEADER_FMT, data)
    assert (fields[GENERATOR], fields[PRIM_POLY], fields[CRC_POLY]) == (
        2, DEFAULT_PRIMITIVE_POLYS[11], DEFAULT_CRC_POLYS[16])
    assert unpack_chunk(data)[0] == header

    def with_field(i, value):
        edited = list(fields)
        edited[i] = value
        return struct.pack(HEADER_FMT, *edited) + data[HEADER_LEN:]

    for i in (GENERATOR, PRIM_POLY, CRC_POLY):
        for value in (fields[i] - 1, fields[i] + 1):
            with pytest.raises(MalformedChunk, match="are not those of m=11, r=16"):
                unpack_chunk(with_field(i, value))
    for i, value in ((M, 1), (M, 17), (R, 0), (R, 24), (R, 65)):
        with pytest.raises(MalformedChunk, match="no field of degree"):
            unpack_chunk(with_field(i, value))
        with pytest.raises(MalformedChunk, match="no field of degree"):
            pack_chunk(replace(header, **{"m" if i == M else "r": value}), chunk, shares)


def test_pack_rejects_malformed_share_rows():
    header = make_header(8, 32, REPLICATED)  # n = 7, node 2
    chunk = np.zeros((header.beta, header.alpha), dtype=np.int64)
    row = np.arange(header.n, dtype=np.uint64)
    row[header.node_index] = 0
    pack_chunk(header, chunk, row)
    for bad in (row[:-1], np.append(row, 0), np.delete(row, header.node_index),
                row.reshape(1, -1), np.zeros(0, dtype=np.uint64)):
        with pytest.raises(MalformedChunk, match="row of 7"):
            pack_chunk(header, chunk, bad)
    own = row.copy()
    own[header.node_index] = 9  # no node holds a share of its own checksum
    with pytest.raises(MalformedChunk, match="zero at node 2"):
        pack_chunk(header, chunk, own)


def test_write_is_atomic(tmp_path):
    header = make_header(8, 32, REPLICATED)
    chunk = np.arange(header.beta * header.alpha).reshape(header.beta, header.alpha)
    shares = np.arange(header.n, dtype=np.uint64)
    shares[header.node_index] = 0
    path = tmp_path / "node002.rgen"
    write_chunk_file(path, header, chunk, shares)
    before = path.read_bytes()
    _, got, got_shares = read_chunk_file(path)
    assert np.array_equal(got, chunk) and np.array_equal(got_shares, shares)
    # a chunk that cannot be packed leaves the old file as it was
    with pytest.raises(MalformedChunk):
        write_chunk_file(path, header, chunk[:-1], shares)
    with pytest.raises(MalformedChunk):
        write_chunk_file(path, header, chunk, shares[:-1])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["node002.rgen"]
    # a good write replaces it, again with no temporary file left
    write_chunk_file(path, header, chunk + 1, shares)
    assert np.array_equal(read_chunk_file(path)[1], chunk + 1)
    assert os.listdir(tmp_path) == ["node002.rgen"]


def fuzz_file(m, r, scheme):
    header = make_header(m, r, scheme, node_index=0, beta=2)
    chunk = np.arange(header.beta * header.alpha).reshape(header.beta, header.alpha)
    return pack_chunk(header, chunk, 3 * np.arange(header.n))


# every word width the parser reads: 1- and 2-byte symbols; 1-, 4- and
# 8-byte shares
FUZZ_FILES = [fuzz_file(8, 32, REPLICATED), fuzz_file(8, 8, CODED),
              fuzz_file(11, 32, REPLICATED), fuzz_file(8, 64, REPLICATED)]
N_OFFSET = struct.calcsize(">4sBBBBI")  # where the u16 fields n, k, d start


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    which=st.sampled_from(range(len(FUZZ_FILES))),
    edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=6),
    cut=st.none() | st.integers(0, 1 << 16),
)
@example(which=1, edits=[(N_OFFSET, 0), (N_OFFSET + 1, 2)], cut=None)  # coded, n = 2
# k = 6 > d + 1 makes alpha = -1, and the cut matches the body size that implies
@example(which=0, edits=[(N_OFFSET + 3, 6)], cut=HEADER_LEN + 22)
def test_unpack_parses_or_rejects_any_bytes(which, edits, cut):
    # byte overwrites anywhere in header or body, then an optional cut:
    # the file parses into a consistent chunk or is MalformedChunk
    data = bytearray(FUZZ_FILES[which])
    for pos, value in edits:
        data[pos % len(data)] = value
    if cut is not None:
        data = data[: cut % (len(data) + 1)]
    try:
        header, chunk, shares = unpack_chunk(bytes(data))
    except MalformedChunk:
        return
    assert chunk.shape == (header.beta, header.alpha)
    assert shares.shape == (header.n,) and shares[header.node_index] == 0
    # the node's own arrays, whatever the word width
    assert chunk.dtype == np.int64 and shares.dtype == np.uint64
    assert chunk.flags.writeable and shares.flags.writeable
