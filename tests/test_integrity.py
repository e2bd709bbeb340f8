"""Checksum core, packed frames, and checksum-share directories."""

import math
import random
import zlib

import numpy as np
import pytest

from regencode.cluster import CODECS, run_reconstruction, store
from regencode.errors import DecodeFailure, InvalidParams, NoMajority, TooShort
from regencode.galois import GF
from regencode.integrity import (
    CODED,
    REPLICATED,
    SCHEMES,
    CrcParams,
    bits_at,
    build_directory,
    bytes_to_symbols,
    chunk_checksum,
    chunk_checksums,
    coded_layout,
    crc_checksum,
    crc_linear,
    crc_verify,
    recover_checksum,
    symbols_to_bytes,
)
from regencode.mbr import MbrParams
from regencode.msr import MsrParams
from regencode.rscode import encode_eval

CRC32 = CrcParams()


def _reflect_bits(value, width):
    return sum(((value >> i) & 1) << (width - 1 - i) for i in range(width))


def oracle_register(bits, r, poly, reg):
    """Bit-by-bit long division in most-significant-first register form,
    from the register value reg; the result reflected."""
    mask = (1 << r) - 1
    for b in bits:
        top = (reg >> (r - 1)) & 1
        reg = ((reg << 1) & mask) ^ (poly if top ^ (int(b) & 1) else 0)
    return _reflect_bits(reg, r)


def oracle_crc(bits, r, poly):
    """The checksum: all-ones initial register, final complement."""
    mask = (1 << r) - 1
    return oracle_register(bits, r, poly, mask) ^ mask


def lsb_first_bits(data: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")


def packed(bits):
    """(frame bytes, bit length) of a 0/1 sequence, most-significant bit first."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.packbits(bits).tobytes(), bits.size


def int_bits(value, width):
    """Oracle: the width bits of value, most-significant first."""
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


# -- CRC core --------------------------------------------------------------


def test_crc32_matches_zlib_on_byte_streams():
    rng = random.Random(0xC4C)
    assert crc_checksum(b"", 0, CRC32) == zlib.crc32(b"") == 0
    for size in [1, 2, 3, 7, 8, 9, 63, 64, 65, 300]:
        data = rng.randbytes(size)
        assert crc_checksum(*packed(lsb_first_bits(data)), CRC32) == zlib.crc32(data)


def test_crc_matches_long_division_oracle_all_widths():
    rng = random.Random(0x0A11)
    for r in (4, 8, 16, 32, 64):
        params = CrcParams(r)
        for _ in range(25):
            bits = [rng.randrange(2) for _ in range(rng.randrange(0, 90))]
            assert crc_checksum(*packed(bits), params) == oracle_crc(bits, r, params.poly)


def test_crc_byte_table_agrees_with_bitwise_on_ragged_lengths():
    # lengths straddling byte boundaries exercise the table + tail split;
    # at r = 4 the byte table's register is narrower than the byte it reads
    for r in (4, 8, 16):
        params = CrcParams(r)
        rng = random.Random(7 + r)
        for nbits in range(0, 40):
            bits = [rng.randrange(2) for _ in range(nbits)]
            assert crc_checksum(*packed(bits), params) == oracle_crc(bits, r, params.poly)
            assert crc_linear(*packed(bits), params) == oracle_register(bits, r, params.poly, 0)


def test_append_verify_round_trip_and_single_bit_flips():
    rng = random.Random(3)
    for nbits in (0, 1, 17, 80):
        payload = np.array([rng.randrange(2) for _ in range(nbits)], dtype=np.uint8)
        ext = np.concatenate([payload, int_bits(oracle_crc(payload, 32, CRC32.poly), 32)])
        assert crc_verify(*packed(ext), CRC32)
        # bits past nbits (a frame's zero pad, or anything else) are not read
        tail = np.concatenate([ext, np.ones(13, dtype=np.uint8)])
        assert crc_verify(packed(tail)[0], ext.size, CRC32)
        for pos in range(len(ext)):
            flipped = ext.copy()
            flipped[pos] ^= 1
            assert not crc_verify(*packed(flipped), CRC32)


def test_verify_too_short():
    assert crc_verify(bytes(4), 32, CrcParams(32)) is not None
    with pytest.raises(TooShort):
        crc_verify(bytes(4), 31, CrcParams(32))
    with pytest.raises(InvalidParams):  # more bits than the data holds
        crc_verify(bytes(3), 32, CrcParams(32))


def test_crc_linearity():
    rng = random.Random(0x11)
    params = CrcParams(32)
    for _ in range(30):
        nbits = rng.randrange(1, 200)
        x = np.array([rng.randrange(2) for _ in range(nbits)], dtype=np.uint8)
        d1 = np.array([rng.randrange(2) for _ in range(nbits)], dtype=np.uint8)
        d2 = np.array([rng.randrange(2) for _ in range(nbits)], dtype=np.uint8)
        assert crc_checksum(*packed(x ^ d1), params) == crc_checksum(
            *packed(x), params
        ) ^ crc_linear(*packed(d1), params)
        assert crc_linear(*packed(d1 ^ d2), params) == crc_linear(
            *packed(d1), params
        ) ^ crc_linear(*packed(d2), params)
    assert crc_linear(bytes(8), 64, params) == 0


def test_crc_params_validation():
    with pytest.raises(InvalidParams):
        CrcParams(5)  # no polynomial of this width
    with pytest.raises(InvalidParams):
        CrcParams(0)
    assert CrcParams(64).poly == 0x42F0E1EBA9EA3693


# -- packed frames ---------------------------------------------------------


def test_bit_helpers_round_trip():
    rng = random.Random(9)
    data = rng.randbytes(33)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    for width in (0, 1, 7, 32, 50):
        for start in (0, 3, 8, 13, 264 - width):
            want = int("".join(map(str, bits[start : start + width])) or "0", 2)
            assert bits_at(data, start, width) == want
        v = rng.randrange(1 << width) if width else 0
        assert bits_at(packed(np.concatenate([bits[:5], int_bits(v, width)]))[0], 5, width) == v
    for m in (4, 8, 11):
        syms = [rng.randrange(1 << m) for _ in range(40)]
        data = symbols_to_bytes(syms, m)
        assert len(data) == 40 * m // 8
        assert bytes_to_symbols(data, m, 40).tolist() == syms
    # explicit order check: symbol 0b1011 over m=4 is MSB first
    assert symbols_to_bytes([0b1011], 4) == bytes([0b10110000])
    with pytest.raises(InvalidParams):
        bytes_to_symbols(b"\x00", 2, 5)


def shift_bits(symbols, m):
    """Oracle: m bits per symbol from an (N, m) shift broadcast."""
    syms = np.asarray(symbols, dtype=np.int64).reshape(-1)
    shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
    return ((syms[:, None] >> shifts[None, :]) & 1).astype(np.uint8).reshape(-1)


def weighted_symbols(bits, m):
    """Oracle: each group of m bits dotted with the powers of two."""
    weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
    return np.asarray(bits, dtype=np.int64).reshape(-1, m) @ weights


@pytest.mark.parametrize("m", range(2, 17))
def test_symbol_serialisation_matches_shift_oracle(m):
    rng = np.random.default_rng(40 + m)
    syms = np.concatenate([[0, (1 << m) - 1], rng.integers(0, 1 << m, 300)])
    data = symbols_to_bytes(syms, m)
    assert type(data) is bytes
    assert data == packed(shift_bits(syms, m))[0]
    assert symbols_to_bytes(syms.reshape(2, -1), m) == data
    back = bytes_to_symbols(data, m, syms.size)
    assert back.dtype == np.int64
    assert np.array_equal(back, syms)
    assert np.array_equal(bytes_to_symbols(data, m, 5), syms[:5])
    raw = rng.integers(0, 2, 37 * m, dtype=np.uint8)
    raw_data = packed(raw)[0]
    assert np.array_equal(bytes_to_symbols(raw_data, m, 37), weighted_symbols(raw, m))
    assert symbols_to_bytes(bytes_to_symbols(raw_data, m, 37), m) == raw_data
    assert symbols_to_bytes([], m) == b""
    assert bytes_to_symbols(b"", m, 0).size == 0


def test_chunk_checksum_equals_bit_serialisation():
    rng = random.Random(12)
    syms = np.array([[rng.randrange(16) for _ in range(6)] for _ in range(3)])
    expect = oracle_crc(shift_bits(syms, 4), 32, CRC32.poly)
    assert crc_checksum(*packed(shift_bits(syms, 4)), CRC32) == expect
    assert chunk_checksum(syms, 4, CRC32) == expect


def old_chunk_checksum(chunk, m, crc):
    """Oracle: the per-chunk body, one serialisation and one CRC per chunk."""
    chunk = np.asarray(chunk)
    return crc_checksum(symbols_to_bytes(chunk, m), chunk.size * m, crc)


@pytest.mark.parametrize("r", [4, 8, 16, 32, 64])
@pytest.mark.parametrize("m", [2, 3, 8, 11, 16])
def test_chunk_checksums_match_per_chunk_and_bit_oracles(m, r):
    """All chunks packed at once give each chunk's own checksum, for every
    chunk width mod 8 that m allows, from encode's transposed (n, β, α)
    view as from a contiguous array."""
    crc = CrcParams(r)
    rng = np.random.default_rng([m, r])
    residues = set()
    for n in (1, 3, 100):
        for beta, alpha in [(1, 1), (1, 2), (3, 1), (2, 2), (1, 5), (3, 2), (7, 1), (2, 4), (5, 3)]:
            # laid out as encode returns it: (β, α, n) transposed to (n, β, α)
            by_stripe = rng.integers(0, 1 << m, (beta, alpha, n))
            by_stripe.flat[:2] = [0, (1 << m) - 1][: by_stripe.size]
            chunks = by_stripe.transpose(2, 0, 1)
            want = [oracle_crc(shift_bits(c, m), r, crc.poly) for c in chunks]
            assert [old_chunk_checksum(c, m, crc) for c in chunks] == want
            got = chunk_checksums(chunks, m, crc)
            assert got == want and all(type(v) is int for v in got)
            assert chunk_checksums(np.ascontiguousarray(chunks), m, crc) == want
            assert [chunk_checksum(c, m, crc) for c in chunks] == want
            residues.add(beta * alpha * m % 8)
    assert residues == set(range(0, 8, math.gcd(m, 8)))  # every width mod 8 that m allows


# -- directories -----------------------------------------------------------


def test_replicated_directory_share_counts_and_values():
    checksums = [0xA0 + i for i in range(3)]
    shares = build_directory(checksums, REPLICATED, CrcParams(8))
    assert shares.shape == (3, 3) and shares.dtype == np.uint64
    for j in range(3):
        assert shares[j, j] == 0  # no node vouches for itself
        for i in range(3):
            if i != j:
                assert shares[j, i] == checksums[i]
    # overhead is exactly (n-1) * r bits per node: the row less its own entry
    assert all(np.delete(row, j).size * 8 == 2 * 8 for j, row in enumerate(shares))


def test_coded_layout_parameters():
    big = coded_layout(100, 32)
    assert (big.m_prime, big.k_prime) == (7, 5)
    assert (big.n - 1) * big.m_prime == 693  # per-node overhead in bits
    assert coded_layout(12, 8).m_prime == 4
    assert coded_layout(12, 8).k_prime == 2
    # 2^ceil(log2(n-1)) - 1 < n - 1 forces the symbol size up one bit
    assert coded_layout(5, 4).m_prime == 3
    with pytest.raises(InvalidParams):
        coded_layout(6, 32)  # k' = 11 shares cannot fit in 5 peers
    with pytest.raises(InvalidParams):
        coded_layout(2, 4)


def test_coded_directory_round_trip_and_overhead():
    rng = random.Random(0xD1)
    crc = CrcParams(8)
    checksums = [rng.randrange(1 << 8) for _ in range(12)]
    shares = build_directory(checksums, CODED, crc)
    layout = coded_layout(12, 8)
    assert shares.shape == (12, 12)
    for j in range(12):
        assert shares[j, j] == 0
        for v in np.delete(shares[j], j):
            assert 0 <= v < (1 << layout.m_prime)
    # fault-free recovery from any d subset of peers
    for i in (0, 5, 11):
        peers = [j for j in range(12) if j != i]
        for _ in range(10):
            sub = rng.sample(peers, 8)
            responses = {j: shares[j][i] for j in sub}
            assert recover_checksum(responses, i, CODED, 12, crc) == checksums[i]


def per_share_directory(checksums, scheme, crc):
    """Oracle: the per-checksum, per-share loop, with each message built
    bit by bit from the checksum's r bits and zero padding; shares[j][i] is
    holder j's share of node i's checksum, zero where j == i."""
    n = len(checksums)
    shares = [[0] * n for _ in range(n)]
    if scheme == REPLICATED:
        for i, cs in enumerate(checksums):
            for j in range(n):
                if j != i:
                    shares[j][i] = int(cs)
        return shares
    layout = coded_layout(n, crc.r)
    pad = np.zeros(layout.k_prime * layout.m_prime - crc.r, dtype=np.uint8)
    for i, cs in enumerate(checksums):
        bits = np.concatenate([int_bits(int(cs), crc.r), pad])
        message = weighted_symbols(bits, layout.m_prime).tolist()
        cw = encode_eval(message, layout.code)
        for j in range(n):
            if j != i:
                shares[j][i] = cw[j - 1 if j > i else j]
    return shares


def coded_layout_fails(n, r):
    try:
        coded_layout(n, r)
    except InvalidParams:
        return True
    return False


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", [2, 3, 4, 17, 100])
@pytest.mark.parametrize("r", [8, 16, 32])
def test_directory_matches_per_share_oracle(scheme, n, r):
    crc = CrcParams(r)
    rng = random.Random(f"directory|{scheme}|{n}|{r}")
    checksums = [0, (1 << r) - 1] + [rng.randrange(1 << r) for _ in range(n - 2)]
    rng.shuffle(checksums)
    if scheme == CODED and coded_layout_fails(n, r):
        with pytest.raises(InvalidParams):
            per_share_directory(checksums, scheme, crc)
        with pytest.raises(InvalidParams):
            build_directory(checksums, scheme, crc)
        return
    want = per_share_directory(checksums, scheme, crc)
    got = build_directory(checksums, scheme, crc)
    assert got.shape == (n, n) and got.dtype == np.uint64
    assert not got.diagonal().any()  # no node holds a share of its own checksum
    assert got.tolist() == want


def test_checksum_to_message_rejects_wide_checksums():
    layout = coded_layout(17, 16)
    assert layout.checksum_to_message(0xFFFF) == [31, 31, 31, 16]  # m' = 5, k' = 4
    with pytest.raises(InvalidParams):
        layout.checksum_to_message(1 << 16)
    with pytest.raises(InvalidParams):
        build_directory([1] * 16 + [1 << 16], CODED, CrcParams(16))


def test_replicated_recovery_thresholds_exhaustive():
    crc = CrcParams(8)
    true_cs, forged = 0x5A, 0xC3
    for d in range(2, 8):
        budget = (d - 1) // 2
        for wrong in range(budget + 1):
            # all placements collapse to counts; try colluding and split forgers
            responses = {j: true_cs for j in range(d - wrong)}
            for t in range(wrong):
                responses[d - wrong + t] = forged
            assert recover_checksum(responses, 99, REPLICATED, 100, crc) == true_cs
        over = budget + 1
        responses = {j: true_cs for j in range(d - over)}
        for t in range(over):
            responses[d - over + t] = forged
        if 2 * over > d:  # d odd: colluders now hold the strict majority
            assert recover_checksum(responses, 99, REPLICATED, 100, crc) == forged
        else:  # d even: a tie, surfaced rather than broken silently
            with pytest.raises(NoMajority):
                recover_checksum(responses, 99, REPLICATED, 100, crc)


def test_replicated_split_forgers_yield_no_majority():
    crc = CrcParams(8)
    responses = {0: 0x11, 1: 0x11, 2: 0x22, 3: 0x33}
    with pytest.raises(NoMajority):
        recover_checksum(responses, 9, REPLICATED, 10, crc)


def test_coded_recovery_thresholds_randomized():
    rng = random.Random(0xBEEF)
    crc = CrcParams(8)
    n, d = 12, 8
    layout = coded_layout(n, 8)
    budget = (d - layout.k_prime) // 2  # 3
    checksums = [rng.randrange(1 << 8) for _ in range(n)]
    shares = build_directory(checksums, CODED, crc)
    for _ in range(200):
        i = rng.randrange(n)
        sub = rng.sample([j for j in range(n) if j != i], d)
        responses = {j: shares[j][i] for j in sub}
        for j in rng.sample(sub, rng.randrange(budget + 1)):
            responses[j] ^= rng.randrange(1, 1 << layout.m_prime)
        assert recover_checksum(responses, i, CODED, n, crc) == checksums[i]


def test_coded_recovery_defeated_beyond_threshold():
    rng = random.Random(0xFACE)
    crc = CrcParams(8)
    n, d = 12, 8
    layout = coded_layout(n, 8)
    budget = (d - layout.k_prime) // 2
    checksums = [rng.randrange(1 << 8) for _ in range(n)]
    shares = build_directory(checksums, CODED, crc)
    # budget+1 random corruptions: recovery is no longer guaranteed
    broke = 0
    for _ in range(60):
        i = rng.randrange(n)
        sub = rng.sample([j for j in range(n) if j != i], d)
        responses = {j: shares[j][i] for j in sub}
        for j in rng.sample(sub, budget + 1):
            responses[j] ^= rng.randrange(1, 1 << layout.m_prime)
        try:
            got = recover_checksum(responses, i, CODED, n, crc)
        except DecodeFailure:
            broke += 1
        else:
            broke += got != checksums[i]
    assert broke > 0
    # colluders aligned on another checksum's codeword force a wrong value
    i = 0
    forged_cs = checksums[i] ^ 0xFF
    from regencode.rscode import encode_eval

    forged_cw = encode_eval(layout.checksum_to_message(forged_cs), layout.code)
    peers = [j for j in range(1, n)]
    sub = peers[:d]
    responses = {j: forged_cw[j - 1] for j in sub[: d - 1]}
    responses[sub[d - 1]] = shares[sub[d - 1]][i]
    assert recover_checksum(responses, i, CODED, n, crc) == forged_cs


@pytest.mark.parametrize("scheme, n, r", [(REPLICATED, 6, 4), (CODED, 12, 8)])
def test_recover_checksum_drops_out_of_width_shares(scheme, n, r):
    # a share byte holds 8 bits, a share only r = 4 (replicated) or m' = 4
    # (coded): 0xFF is no share, so it neither votes nor enters the decoder
    crc = CrcParams(r)
    checksums = [(5 * i + 3) % (1 << r) for i in range(n)]
    if scheme == REPLICATED:  # counted as a vote, 0xFF would leave 2 of 4 in agreement
        responses = {1: 0xFF, 2: checksums[0] ^ 1, 3: checksums[0], 4: checksums[0]}
    else:
        shares = build_directory(checksums, scheme, crc)
        responses = {j: shares[j][0] for j in range(1, 9)}
        responses[1] = 0xFF
    assert recover_checksum(responses, 0, scheme, n, crc) == checksums[0]
    # no share left is a "read more" failure, not an invalid input
    with pytest.raises(NoMajority if scheme == REPLICATED else DecodeFailure):
        recover_checksum({j: 0xFF for j in responses}, 0, scheme, n, crc)


def test_recover_checksum_input_validation():
    crc = CrcParams(8)
    with pytest.raises(InvalidParams):
        recover_checksum({}, 0, REPLICATED, 6, crc)
    with pytest.raises(InvalidParams):
        recover_checksum({2: 1, 0: 1}, 2, REPLICATED, 6, crc)
    with pytest.raises(InvalidParams):
        recover_checksum({1: 1}, 0, "paritied", 6, crc)
    with pytest.raises(InvalidParams):
        build_directory([1, 2, 3], "paritied", crc)


def test_zlib_prefix_matches_table_path():
    # the default r=32 register runs whole bytes through zlib.crc32; with
    # the zlib path switched off the same bits go through the byte table
    table_only = CrcParams()
    table_only._zlib = False
    rng = np.random.default_rng(71)
    inputs = [rng.integers(0, 2, nbits).astype(np.uint8) for nbits in range(70)]
    inputs.append(rng.integers(0, 2, 8 * 65536).astype(np.uint8))
    inputs.append(rng.integers(0, 2, 8 * 65536 + 5).astype(np.uint8))
    for bits in inputs:
        assert crc_checksum(*packed(bits), CRC32) == crc_checksum(*packed(bits), table_only)
        assert crc_linear(*packed(bits), CRC32) == crc_linear(*packed(bits), table_only)


# -- store and reconstruct against the bit-level recipe -------------------


# GF(4) has too few points for any MSR code (k >= 2 needs n >= 3 > 2)
SHAPES = {("mbr", 2): (2, 1, 1), ("msr", 3): (3, 2, 2), ("mbr", 3): (3, 2, 2)}


@pytest.mark.parametrize("r", [4, 8, 16, 32])
@pytest.mark.parametrize("family, m", [("mbr", 2)] + [
    (family, m) for m in (3, 8, 11, 16) for family in ("msr", "mbr")])
def test_store_frames_match_bit_level_recipe(family, m, r):
    """Chunks are the encode of payload ∥ CRC ∥ zero pad cut into m-bit
    symbols, built here one uint8 per bit, for every payload length mod 8
    at both ends of the frame; each node's shares are the per-share
    directory of the chunks' bit-level CRCs, under every scheme the shape
    admits (chunks of m = 3 and 11 end inside a byte); reconstruction
    returns the payload bits."""
    cls = MbrParams if family == "mbr" else MsrParams
    n, k, d = SHAPES.get((family, m), (6, 3, 4))
    field, crc = GF(m), CrcParams(r)
    per_stripe = cls(n, k, d, 1, field).B * m
    params = cls(n, k, d, -(-(r + 16) // per_stripe), field)
    capacity = params.beta * params.B * m
    schemes = [s for s in SCHEMES if s == REPLICATED or not coded_layout_fails(n, r)]
    rng = np.random.default_rng([m, r, family == "mbr"])
    for nbits in [*range(8), *range(capacity - r - 7, capacity - r + 1)]:
        payload = rng.integers(0, 2, nbits, dtype=np.uint8)
        framed = np.zeros(capacity, dtype=np.uint8)
        framed[: nbits + r] = np.concatenate([payload, int_bits(oracle_crc(payload, r, crc.poly), r)])
        stripes = weighted_symbols(framed, m).reshape(params.beta, params.B)
        want = CODECS[family].encode(stripes, params)
        checksums = [oracle_crc(shift_bits(chunk, m), r, crc.poly) for chunk in want]
        states = {scheme: store(payload, params, scheme, crc=crc) for scheme in schemes}
        for scheme, stored in states.items():
            assert all(np.array_equal(slot.chunk, want[i]) for i, slot in enumerate(stored.nodes))
            assert [slot.shares.tolist() for slot in stored.nodes] == per_share_directory(checksums, scheme, crc)
        state = states[REPLICATED]
        assert state.payload_bit_len == nbits
        if nbits % 8 == 0:
            as_bytes = store(packed(payload)[0], params, crc=crc)
            assert all(np.array_equal(slot.chunk, want[i]) for i, slot in enumerate(as_bytes.nodes))
        out, _ = run_reconstruction(state)
        assert out.dtype == np.uint8 and np.array_equal(out, payload)
        frame, length = packed(framed[: nbits + r])
        assert crc_verify(frame, length, crc)
        for pos in range(length):
            flipped = bytearray(frame)
            flipped[pos >> 3] ^= 0x80 >> (pos & 7)
            assert not crc_verify(bytes(flipped), length, crc)
