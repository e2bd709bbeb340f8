"""Minimum-bandwidth family: block-symmetric fill, two-phase
reconstruction, and symmetry-based regeneration."""

import itertools
import random

import numpy as np
import pytest

from regencode import mbr, progressive
from regencode.errors import (
    ClusterExhausted,
    InvalidParams,
    LengthMismatch,
    SelfRepair,
)
from regencode.galois import GF
from regencode.integrity import CrcParams, chunk_checksum
from regencode.rscode import ProgressiveDecoder, encode_eval, gf_inverse

F16 = GF(4)
CRC32 = CrcParams()


def small_params(beta=1):
    return mbr.MbrParams(6, 3, 4, beta, F16)


def rand_msg(rng, params):
    return np.array(
        [[rng.randrange(params.field.order) for _ in range(params.B)]
         for _ in range(params.beta)],
        dtype=np.int64,
    )


class ListSource:
    """Serves items in a fixed order; counts the items read and the rounds
    (fetches that returned something)."""

    def __init__(self, items):
        self.items = list(items)
        self.pos = self.rounds = 0

    def fetch(self, count):
        out = self.items[self.pos : self.pos + count]
        self.pos += len(out)
        self.rounds += bool(out)
        return out


class ListCollector(ListSource):
    def __init__(self, chunks, order):
        super().__init__((i, chunks[i]) for i in order)


def accept_truth(truth):
    return lambda stripes: stripes if np.array_equal(stripes, truth) else None


def accept_checksum(checksum, crc_of):
    return lambda chunk: chunk if crc_of(chunk) == checksum else None


def test_params_validation():
    with pytest.raises(InvalidParams):
        mbr.MbrParams(6, 5, 4, 1, F16)  # k > d
    with pytest.raises(InvalidParams, match=r"need 1 <= k <= d <= n-1, got n=6, k=0, d=4"):
        mbr.MbrParams(6, 0, 4, 1, F16)
    with pytest.raises(InvalidParams):
        mbr.MbrParams(4, 3, 4, 1, F16)  # d > n-1
    with pytest.raises(InvalidParams):
        mbr.MbrParams(16, 3, 4, 1, F16)
    with pytest.raises(InvalidParams):
        mbr.MbrParams(6, 3, 4, 0, F16)
    p = small_params()
    assert (p.alpha, p.B) == (4, 9)
    assert mbr.MbrParams(6, 3, 3, 1, F16).B == 6  # degenerate d = k


def test_fill_maps_frozen_k3_d4():
    # [[A1, A2ᵀ], [A2, 0]], the zero corner marked B = 9
    assert small_params().fill.tolist() == [[0, 1, 2, 6], [1, 3, 4, 7], [2, 4, 5, 8], [6, 7, 8, 9]]


def test_build_read_round_trip_and_symmetry():
    rng = random.Random(1)
    for n, k, d in [(6, 3, 4), (8, 3, 4), (9, 4, 7), (6, 3, 3)]:
        p = mbr.MbrParams(n, k, d, 1, GF(4))
        msg = rand_msg(rng, p)[0]
        u = progressive.build_u(msg, p)
        assert np.array_equal(u, u.T)
        assert not u[k:, k:].any()  # zero corner
        assert np.array_equal(progressive.read_u(u, p), msg)
        assert np.array_equal(progressive.read_u(u[:k], p), msg)  # [A1 | A2ᵀ] alone
    with pytest.raises(LengthMismatch):
        progressive.build_u([0], small_params())


def test_encode_zero_and_rs_oracle():
    rng = random.Random(2)
    p = small_params(beta=2)
    assert not mbr.encode(np.zeros((2, p.B), dtype=np.int64), p).any()
    msg = rand_msg(rng, p)
    chunks = mbr.encode(msg, p)
    assert chunks.shape == (p.n, p.beta, p.d)
    for s in range(p.beta):
        u = progressive.build_u(msg[s], p)
        for r in range(p.d):
            cw = encode_eval(u[r].tolist(), p.code)
            for i in range(p.n):
                assert chunks[i][s][r] == cw[i]
        # bottom rows carry polynomials of degree < k
        for r in range(p.k, p.d):
            assert encode_eval(u[r][: p.k].tolist(), p.code_k) == encode_eval(
                u[r].tolist(), p.code
            )


def test_phase_two_input_is_a1_code():
    # after subtracting the A2 contribution, the top rows must match the
    # encoding of A1 alone under the [n, k] code
    rng = random.Random(3)
    p = small_params()
    msg = rand_msg(rng, p)
    chunks = mbr.encode(msg, p)
    u = progressive.build_u(msg[0], p)
    a1, a2 = u[: p.k, : p.k], u[p.k :, : p.k]
    e_full = p.field.matmul(a2.T, p.bottom)
    a1_cw = p.field.matmul(a1, p.G[: p.k])
    for i in range(p.n):
        stripped = chunks[i][0][: p.k] ^ e_full[:, i]
        assert np.array_equal(stripped, a1_cw[:, i])


def test_reconstruct_fault_free_all_subsets():
    rng = random.Random(4)
    p = small_params(beta=2)
    msg = rand_msg(rng, p)
    chunks = mbr.encode(msg, p)
    for subset in itertools.combinations(range(p.n), p.k):
        coll = ListCollector(chunks, subset)
        out = mbr.reconstruct(coll, p, accept_truth(msg))
        assert np.array_equal(out, msg)
        assert coll.rounds == 1
        assert coll.pos == p.k


def test_reconstruct_one_byzantine_any_position():
    rng = random.Random(5)
    p = small_params()
    msg = rand_msg(rng, p)
    clean = mbr.encode(msg, p)
    for byz in range(p.n):
        chunks = clean.copy()
        chunks[byz] ^= np.array(
            [[rng.randrange(1, p.field.order) for _ in range(p.d)]]
        )
        coll = ListCollector(chunks, range(p.n))
        out = mbr.reconstruct(coll, p, accept_truth(msg))
        assert np.array_equal(out, msg)
        assert coll.rounds == (1 if byz >= p.k else 2)


def test_reconstruct_two_byzantine_exhausts():
    rng = random.Random(6)
    p = small_params()
    msg = rand_msg(rng, p)
    clean = mbr.encode(msg, p)
    for pair in itertools.combinations(range(p.k), 2):  # inside the first read
        chunks = clean.copy()
        for byz in pair:
            chunks[byz] ^= np.array(
                [[rng.randrange(1, p.field.order) for _ in range(p.d)]]
            )
        coll = ListCollector(chunks, range(p.n))
        with pytest.raises(ClusterExhausted):
            mbr.reconstruct(coll, p, accept_truth(msg))
        assert coll.pos == p.n


def test_reconstruct_degenerate_d_equals_k():
    rng = random.Random(7)
    p = mbr.MbrParams(6, 3, 3, 2, F16)
    msg = rand_msg(rng, p)
    chunks = mbr.encode(msg, p)
    coll = ListCollector(chunks, [4, 0, 2])
    out = mbr.reconstruct(coll, p, accept_truth(msg))
    assert np.array_equal(out, msg) and coll.rounds == 1


def test_reconstruct_byzantine_d_equals_k():
    # d = k leaves A2 empty: round two's decoder holds β·0 rows, so their
    # message width cannot be inferred, and the A1 phase alone locates the
    # corrupt column
    rng = random.Random(17)
    for n, k, beta in ((7, 3, 2), (6, 2, 3)):
        p = mbr.MbrParams(n, k, k, beta, F16)
        msg = rand_msg(rng, p)
        clean = mbr.encode(msg, p)
        for byz in range(k):
            chunks = clean.copy()
            chunks[byz] ^= np.array([[rng.randrange(1, p.field.order) for _ in range(p.d)]
                                     for _ in range(p.beta)])
            coll = ListCollector(chunks, range(p.n))
            out = mbr.reconstruct(coll, p, accept_truth(msg))
            assert np.array_equal(out, msg) and coll.rounds == 2 and coll.pos == k + 2


# -- fast reconstruction -----------------------------------------------------


def two_decoder_reconstruct(columns, params):
    """Oracle: the round-two candidate, two block decoders over the [n, k]
    code, on the columns given (k of them here, so no error is located)."""
    field, k, d, beta = params.field, params.k, params.d, params.beta
    ghat_inv = gf_inverse(field, params.G[:k, :k])
    dec = ProgressiveDecoder(params.code_k, beta * (d - k))
    dec.absorb({i: np.asarray(c)[:, k:].reshape(-1) for i, c in columns.items()})
    a2 = field.matmul(dec.attempt().codeword[:, :k], ghat_inv).reshape(beta, d - k, k)
    e = field.matmul(a2.transpose(0, 2, 1).reshape(beta * k, d - k), params.bottom)
    e = e.reshape(beta, k, params.n)
    dec = ProgressiveDecoder(params.code_k, beta * k)
    dec.absorb({i: (np.asarray(c)[:, :k] ^ e[:, :, i]).reshape(-1) for i, c in columns.items()})
    a1 = field.matmul(dec.attempt().codeword[:, :k], ghat_inv).reshape(beta, k, k)
    rows, cols = np.triu_indices(k)  # A1's upper triangle row by row, then A2 row-major
    return np.concatenate([a1[:, rows, cols], a2.reshape(beta, -1)], axis=1)


def stripes_through_algebra(monkeypatch):
    """Record how many stripes each run of the two-phase algebra takes: k·d
    on the decoding-matrix route, beta on the data route."""
    seen, inner = [], mbr._two_phase
    monkeypatch.setattr(mbr, "_two_phase", lambda y, *a: seen.append(len(y)) or inner(y, *a))
    return seen


# by_matrix: the route under test at beta > k·d, set on the params whatever
# the route rule picks (it picks the data route at these small betas)
@pytest.mark.parametrize("n,k,d,field,betas,subsets,by_matrix", [
    (6, 3, 4, GF(8), (1, 12, 13, 40), None, True),  # the files workload's code
    (6, 3, 4, F16, (1, 13), None, True),
    (6, 3, 3, GF(8), (1, 9, 10, 40), None, True),  # d = k: A2 is empty
    (6, 3, 4, GF(16), (12, 13), None, True),
    (8, 2, 5, GF(8), (11,), 6, True),
    (10, 4, 7, GF(8), (29, 40), 6, False),
    (20, 10, 11, GF(8), (111,), 2, False),
])
def test_fast_path_matches_two_decoder_path(monkeypatch, n, k, d, field, betas, subsets,
                                            by_matrix):
    # clean columns give the message; with random columns corrupted the
    # candidate equals the decoders' bit for bit, so the checksum verdict
    # and every count after it are those of the decoder path; a beta up to
    # k·d takes the data route
    rng = np.random.default_rng(n * d * field.m)
    if subsets is None:
        access = list(itertools.combinations(range(n), k))
    else:
        access = [tuple(rng.choice(n, size=k, replace=False).tolist()) for _ in range(subsets)]
    seen = stripes_through_algebra(monkeypatch)
    for beta in betas:
        p = mbr.MbrParams(n, k, d, beta, field)
        assert not p.by_matrix
        p.by_matrix = by_matrix and beta > k * d
        msg = rng.integers(0, field.q, (beta, p.B))
        chunks = mbr.encode(msg, p)
        for subset in access:
            nodes = [int(i) for i in rng.permutation(subset)]
            cols = {i: chunks[i] for i in nodes}
            assert np.array_equal(mbr.reconstruct_fast(cols, p), msg)
            for i in rng.choice(nodes, size=int(rng.integers(1, k + 1)), replace=False):
                flip = rng.integers(0, field.q, (beta, d))
                flip[int(rng.integers(beta)), int(rng.integers(d))] |= 1
                cols[i] = chunks[i] ^ flip
            got = mbr.reconstruct_fast(cols, p)
            assert np.array_equal(got, two_decoder_reconstruct(cols, p))
            assert not np.array_equal(got, msg)
    assert set(seen) == {k * d if by_matrix and b > k * d else b for b in betas}


def test_rejected_candidate_matches_round_two_oracle():
    # the collector reads exactly k columns, one of them corrupt: the fast
    # path's candidate goes to the verifier, which rejects it, and the
    # cluster runs out
    rng = np.random.default_rng(12)
    for beta in (5, 13):
        p = mbr.MbrParams(6, 3, 4, beta, GF(8))
        msg = rng.integers(0, p.field.q, (beta, p.B))
        chunks = mbr.encode(msg, p)
        chunks[4] ^= rng.integers(1, p.field.q, chunks[4].shape)
        order = [4, 0, 5]
        candidates = []

        def reject(candidate):
            candidates.append(candidate)
            return None

        with pytest.raises(ClusterExhausted):
            mbr.reconstruct(ListCollector(chunks, order), p, reject)
        assert len(candidates) == 1
        want = two_decoder_reconstruct({i: chunks[i] for i in order}, p)
        assert np.array_equal(candidates[0], want)


def test_fast_path_builds_no_decoder(monkeypatch):
    # a fault-free reconstruct accepted in round one error-decodes nothing
    class NoDecoder:
        def __init__(self, *args, **kwargs):
            raise AssertionError("ProgressiveDecoder built on the fast path")

    monkeypatch.setattr(mbr, "ProgressiveDecoder", NoDecoder)
    monkeypatch.setattr(progressive, "ProgressiveDecoder", NoDecoder)
    rng = random.Random(13)
    for beta in (2, 13):
        p = small_params(beta)
        msg = rand_msg(rng, p)
        chunks = mbr.encode(msg, p)
        for subset in itertools.combinations(range(p.n), p.k):
            coll = ListCollector(chunks, subset)
            out = mbr.reconstruct(coll, p, accept_truth(msg))
            assert np.array_equal(out, msg) and coll.rounds == 1


def test_reconstruct_malformed_column_in_a_later_round():
    # round two feeds the decoder; a short column there raised numpy's
    # ValueError from absorb
    rng = random.Random(15)
    p = small_params(3)
    msg = rand_msg(rng, p)
    chunks = [c for c in mbr.encode(msg, p)]
    chunks[0] = chunks[0] ^ 1  # round one rejects
    chunks[4] = chunks[4][:2]
    with pytest.raises(LengthMismatch):
        mbr.reconstruct(ListCollector(chunks, range(p.n)), p, accept_truth(msg))


def test_reconstruct_names_received_symbol_in_a_later_round():
    # round two XORs the top rows with A2ᵀ·bottom; an out-of-field symbol
    # there was once named after the XOR (382 here)
    rng = random.Random(16)
    p = mbr.MbrParams(6, 3, 4, 2, GF(8))
    msg = rand_msg(rng, p)
    chunks = [c for c in mbr.encode(msg, p)]
    chunks[0] = chunks[0] ^ 1  # round one rejects
    chunks[4] = chunks[4].copy()
    chunks[4][0, 0] = 256
    with pytest.raises(InvalidParams, match="symbol 256 outside field of size 256"):
        mbr.reconstruct(ListCollector(chunks, range(p.n)), p, accept_truth(msg))


def test_repair_response_properties():
    rng = random.Random(8)
    p = small_params(beta=2)
    msg = rand_msg(rng, p)
    chunks = mbr.encode(msg, p)
    with pytest.raises(SelfRepair):
        mbr.repair_response(chunks[1], 1, 1, p)
    assert np.array_equal(
        mbr.repair_response(chunks[2], 2, 0, p),
        np.bitwise_xor.reduce(chunks[2], axis=1),
    )
    for failed in range(p.n):
        for s in range(p.beta):
            u = progressive.build_u(msg[s], p)
            g = p.G[:, failed : failed + 1].T
            t = p.field.matmul(g, u)[0]
            cw = encode_eval(t.tolist(), p.code)
            for j in range(p.n):
                if j != failed:
                    assert mbr.repair_response(chunks[j], j, failed, p)[s] == cw[j]


def test_regenerate_fault_free_exhaustive():
    rng = random.Random(9)
    p = small_params(beta=2)
    msg = rand_msg(rng, p)
    chunks = mbr.encode(msg, p)
    checksums = [chunk_checksum(chunks[i], p.field.m, CRC32) for i in range(p.n)]
    crc_of = lambda ch: chunk_checksum(ch, p.field.m, CRC32)
    for failed in range(p.n):
        helpers = [j for j in range(p.n) if j != failed]
        for subset in itertools.combinations(helpers, p.d):
            src = ListSource(
                [(j, mbr.repair_response(chunks[j], j, failed, p)) for j in subset]
            )
            chunk = mbr.regenerate(src, failed, p, accept_checksum(checksums[failed], crc_of))
            assert np.array_equal(chunk, chunks[failed])
            assert src.rounds == 1


def test_regenerate_one_byzantine_escalates():
    rng = random.Random(10)
    p = mbr.MbrParams(8, 3, 4, 1, F16)
    msg = rand_msg(rng, p)
    chunks = mbr.encode(msg, p)
    checksums = [chunk_checksum(chunks[i], p.field.m, CRC32) for i in range(p.n)]
    crc_of = lambda ch: chunk_checksum(ch, p.field.m, CRC32)
    failed = 2
    helpers = [j for j in range(p.n) if j != failed]
    for byz in helpers:
        responses = []
        for j in helpers:
            r = mbr.repair_response(chunks[j], j, failed, p)
            if j == byz:
                r = r ^ np.array([rng.randrange(1, p.field.order)])
            responses.append((j, r))
        src = ListSource(responses)
        chunk = mbr.regenerate(src, failed, p, accept_checksum(checksums[failed], crc_of))
        assert np.array_equal(chunk, chunks[failed])
        assert src.rounds <= 2  # d + 2 responses cover one wrong symbol


def test_regenerated_chunk_reserves_reconstruction():
    rng = random.Random(11)
    p = small_params()
    msg = rand_msg(rng, p)
    chunks = mbr.encode(msg, p)
    checksums = [chunk_checksum(chunks[i], p.field.m, CRC32) for i in range(p.n)]
    crc_of = lambda ch: chunk_checksum(ch, p.field.m, CRC32)
    failed = 5
    src = ListSource(
        [(j, mbr.repair_response(chunks[j], j, failed, p)) for j in range(p.d)]
    )
    chunk = mbr.regenerate(src, failed, p, accept_checksum(checksums[failed], crc_of))
    rebuilt = chunks.copy()
    rebuilt[failed] = chunk
    coll = ListCollector(rebuilt, [5, 1, 0])
    out = mbr.reconstruct(coll, p, accept_truth(msg))
    assert np.array_equal(out, msg)
