"""Minimum-storage family: fill maps, encoding, both reconstruction
paths, and regeneration, against ground-truth and rscode oracles."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from regencode import msr, progressive
from regencode.errors import (
    ClusterExhausted,
    InvalidParams,
    LengthMismatch,
    SelfRepair,
)
from regencode.galois import GF
from regencode.integrity import CrcParams, chunk_checksum
from regencode.rscode import encode_eval, gf_inverse

F16 = GF(4)
F64 = GF(6)
CRC8 = CrcParams(8)


def small_params(beta=1):
    return msr.MsrParams(6, 3, 4, beta, F16)


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
    """Serves chunks in a fixed node order."""

    def __init__(self, chunks, order):
        super().__init__((i, chunks[i]) for i in order)


def accept_truth(truth):
    return lambda stripes: stripes if np.array_equal(stripes, truth) else None


def accept_checksum(checksum, crc_of):
    return lambda chunk: chunk if crc_of(chunk) == checksum else None


# -- parameters and fill maps ----------------------------------------------


def test_params_validation():
    with pytest.raises(InvalidParams):
        msr.MsrParams(6, 3, 5, 1, F16)  # d != 2k-2
    with pytest.raises(InvalidParams):
        msr.MsrParams(6, 1, 0, 1, F16)
    with pytest.raises(InvalidParams):
        msr.MsrParams(4, 3, 4, 1, F16)  # d > n-1
    with pytest.raises(InvalidParams):
        msr.MsrParams(16, 3, 4, 1, F16)  # too few evaluation points
    with pytest.raises(InvalidParams):
        msr.MsrParams(6, 3, 4, 0, F16)
    with pytest.raises(InvalidParams):
        msr.MsrParams(10, 3, 4, 1, F16)  # n*alpha exceeds the field size
    p = small_params()
    assert (p.alpha, p.B) == (2, 6)
    assert len(set(p.lam.tolist())) == p.n


def test_too_many_powers_refused_before_any_table():
    # n·α = 6000 > 2^12 powers: refused before the [3000, 4] row code's
    # n×n tables (hundreds of MiB) are built
    field = GF(12)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParams, match=r"n\*alpha=6000"):
            msr.MsrParams(3000, 3, 4, 1, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_fill_maps_frozen_alpha2():
    assert small_params().fill.tolist() == [[0, 1, 3, 4], [1, 2, 4, 5]]  # [A1 | A2]


def test_build_read_round_trip():
    rng = random.Random(1)
    for n, k, d, field in [(6, 3, 4, F16), (8, 4, 6, F64), (11, 5, 8, F64)]:
        p = msr.MsrParams(n, k, d, 1, field)
        msg = rand_msg(rng, p)[0]
        u = progressive.build_u(msg, p)
        a1, a2 = u[:, : p.alpha], u[:, p.alpha :]
        assert np.array_equal(a1, a1.T) and np.array_equal(a2, a2.T)
        assert np.array_equal(progressive.read_u(u, p), msg)
    with pytest.raises(LengthMismatch):
        progressive.build_u([1, 2, 3], small_params())


# -- encoding ---------------------------------------------------------------


def test_encode_zero_and_first_node():
    p = small_params()
    zero = msr.encode(np.zeros((1, p.B), dtype=np.int64), p)
    assert not zero.any()
    rng = random.Random(2)
    msg = rand_msg(rng, p)
    chunks = msr.encode(msg, p)
    assert chunks.shape == (p.n, p.beta, p.alpha)
    u = progressive.build_u(msg[0], p)
    # node 0 evaluates at a^0 = 1: g is all-ones and lambda = 1
    expect = np.bitwise_xor.reduce(u, axis=1)
    assert np.array_equal(chunks[0][0], expect)


def test_encode_matches_rs_oracle():
    rng = random.Random(3)
    p = small_params(beta=2)
    msg = rand_msg(rng, p)
    chunks = msr.encode(msg, p)
    for s in range(p.beta):
        u = progressive.build_u(msg[s], p)
        for r in range(p.alpha):
            cw = encode_eval(u[r].tolist(), p.code)
            for i in range(p.n):
                assert chunks[i][s][r] == cw[i]


def test_chunk_identity_per_node():
    rng = random.Random(4)
    p = small_params()
    msg = rand_msg(rng, p)
    chunks = msr.encode(msg, p)
    a1, a2 = np.hsplit(progressive.build_u(msg[0], p), 2)
    f = p.field
    for i in range(p.n):
        g = p.G[: p.alpha, i]
        lam = int(p.lam[i])
        for r in range(p.alpha):
            v1 = 0
            v2 = 0
            for t in range(p.alpha):
                v1 ^= f.mul(int(a1[r, t]), int(g[t]))
                v2 ^= f.mul(int(a2[r, t]), int(g[t]))
            assert chunks[i][0][r] == v1 ^ f.mul(lam, v2)


# -- fast reconstruction -----------------------------------------------------


def test_fast_reconstruct_all_subsets():
    rng = random.Random(5)
    p = small_params()
    msg = rand_msg(rng, p)
    chunks = msr.encode(msg, p)
    for subset in itertools.combinations(range(p.n), p.k):
        cols = {i: chunks[i] for i in subset}
        assert np.array_equal(msr.reconstruct_fast(cols, p), msg)
    zero = msr.encode(np.zeros((1, p.B), dtype=np.int64), p)
    out = msr.reconstruct_fast({i: zero[i] for i in (0, 1, 2)}, p)
    assert not out.any()


def test_fast_reconstruct_multi_stripe():
    rng = random.Random(6)
    p = small_params(beta=3)
    msg = rand_msg(rng, p)
    chunks = msr.encode(msg, p)
    out = msr.reconstruct_fast({i: chunks[i] for i in (5, 1, 3)}, p)
    assert np.array_equal(out, msg)


def per_stripe_reconstruct_fast(columns, params):
    """Oracle: the fast path one stripe at a time, in scalar arithmetic
    around small matrix products."""
    field = params.field
    nodes = list(columns)
    alpha, k = params.alpha, params.k
    m_rows = params.G[: params.alpha, nodes].T
    w_inv = gf_inverse(field, m_rows[:alpha].T)
    v_invs = []
    for t in range(alpha):
        others = [tt for tt in range(k) if tt != t]
        v_invs.append((others, gf_inverse(field, m_rows[others])))
    lam = [int(params.lam[i]) for i in nodes]
    out = np.zeros((params.beta, params.B), dtype=np.int64)
    for s in range(params.beta):
        ymat = np.stack([columns[i][s] for i in nodes], axis=1)
        proj = field.matmul(m_rows, ymat)
        zcols, wcols = [], []
        for t in range(alpha):
            others, v_inv = v_invs[t]
            q = [field.mul(int(proj[o, t] ^ proj[t, o]), field.pow(lam[o] ^ lam[t], -1)) for o in others]
            r = [int(proj[o, t]) ^ field.mul(lam[t], qv) for o, qv in zip(others, q)]
            zcols.append(field.matmul(v_inv, np.array([q]).T)[:, 0])
            wcols.append(field.matmul(v_inv, np.array([r]).T)[:, 0])
        a2 = field.matmul(np.stack(zcols, axis=1), w_inv)
        a1 = field.matmul(np.stack(wcols, axis=1), w_inv)
        out[s] = progressive.read_u(np.hstack([a1, a2]), params)
    return out


@pytest.mark.parametrize("n,k,field", [(6, 3, F16), (10, 4, F64), (20, 6, GF(8)), (100, 20, GF(11))])
def test_batched_fast_path_matches_per_stripe_oracle(n, k, field):
    # random access sets in random order; on some trials columns are
    # corrupted, and the batched path must give the same wrong candidate.
    # [100, 20, 38] over GF(2^11) is the benchmark's byzantine code
    rng = np.random.default_rng(n)
    p = msr.MsrParams(n, k, 2 * k - 2, 7, field)
    msg = rng.integers(0, field.q, (p.beta, p.B))
    chunks = msr.encode(msg, p)
    for trial in range(12):
        nodes = rng.choice(n, size=k, replace=False).tolist()
        cols = {i: chunks[i].copy() for i in nodes}
        if trial % 2:
            for i in rng.choice(nodes, size=int(rng.integers(1, k + 1)), replace=False):
                cols[i] ^= rng.integers(0, field.q, cols[i].shape)
        got = msr.reconstruct_fast(cols, p)
        assert np.array_equal(got, per_stripe_reconstruct_fast(cols, p))
        if not trial % 2:
            assert np.array_equal(got, msg)


def field_product(field, a, b):
    """Matrix product by scalar log/antilog lookups, one inner index at a
    time, sharing no code with GF.matmul."""
    exp, log = np.array(field.exp), np.array(field.log)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for j in range(a.shape[1]):
        x, z = a[:, j, None], b[None, j, :]
        out ^= np.where((x != 0) & (z != 0), exp[log[x] + log[z]], 0)
    return out


def encoding_inverse(nodes, params):
    """E_S^-1 by Gauss-Jordan, where row s of E_S is what the nodes store
    (node by node) for the unit message e_s, so a message M reads Y = M·E_S."""
    unit = msr.MsrParams(params.n, params.k, params.d, params.B, params.field)
    chunks = msr.encode(np.eye(params.B, dtype=np.int64), unit)
    return gf_inverse(params.field, np.concatenate([chunks[i] for i in nodes], axis=1))


def structured_candidate(cols, params):
    return msr._reconstruct_structured(
        np.concatenate([np.asarray(c) for c in cols.values()], axis=1), list(cols), params)


@pytest.mark.parametrize("n,k,field,betas,subsets", [
    (4, 2, GF(8), (1, 2, 3, 50), None),
    (6, 3, GF(8), (1, 6, 7, 50), None),
    (6, 3, F16, (1, 6, 7, 50), None),
    (10, 4, GF(8), (1, 12, 13, 50), None),
    (14, 5, GF(8), (50,), 1),  # alpha = 4: the structured route at beta > B
    (100, 20, GF(11), (381,), 1),
])
def test_fast_path_routes_match_encoding_inverse(n, k, field, betas, subsets):
    # every route must equal Y·E_S^-1 on clean and on corrupted columns, and
    # the matrix route (beta > B, alpha <= 3) the structured algebra bit for bit
    rng = np.random.default_rng(n * field.m)
    if subsets is None:
        access = list(itertools.combinations(range(n), k))
    else:
        access = [tuple(rng.choice(n, size=k, replace=False).tolist()) for _ in range(subsets)]
    cases = []
    for beta in betas:
        p = msr.MsrParams(n, k, 2 * k - 2, beta, field)
        msg = rng.integers(0, field.q, (beta, p.B))
        cases.append((p, msg, msr.encode(msg, p)))
    for subset in access:
        for nodes in (list(subset), list(subset)[::-1]):
            e_inv = encoding_inverse(nodes, cases[0][0])
            for p, msg, chunks in cases:
                cols = {i: chunks[i] for i in nodes}
                assert np.array_equal(msr.reconstruct_fast(cols, p), msg)
                bad = nodes[int(rng.integers(k))]
                flip = rng.integers(0, field.q, (p.beta, p.alpha))
                flip[int(rng.integers(p.beta)), int(rng.integers(p.alpha))] |= 1
                cols[bad] = chunks[bad] ^ flip
                got = msr.reconstruct_fast(cols, p)
                assert np.array_equal(got, structured_candidate(cols, p))
                y = np.concatenate([cols[i] for i in nodes], axis=1)
                assert np.array_equal(got, field_product(field, y, e_inv))
                assert not np.array_equal(got, msg)


def test_fast_reconstruct_wrong_count():
    p = small_params()
    chunks = msr.encode(np.zeros((1, p.B), dtype=np.int64), p)
    with pytest.raises(LengthMismatch):
        msr.reconstruct_fast({0: chunks[0], 1: chunks[1]}, p)


# -- progressive reconstruction ----------------------------------------------


def test_reconstruct_fault_free_contacts_k():
    rng = random.Random(7)
    p = small_params(beta=2)
    msg = rand_msg(rng, p)
    chunks = msr.encode(msg, p)
    coll = ListCollector(chunks, range(p.n))
    out = msr.reconstruct(coll, p, accept_truth(msg))
    assert np.array_equal(out, msg)
    assert coll.rounds == 1
    assert coll.pos == p.k


def test_reconstruct_errored_path_matches_fast_path():
    rng = random.Random(8)
    p = small_params()
    msg = rand_msg(rng, p)
    chunks = msr.encode(msg, p)
    candidates = []

    def accept(stripes):
        candidates.append(stripes.copy())
        return stripes if len(candidates) > 1 else None  # one escalation past the fast path

    coll = ListCollector(chunks, range(p.n))
    out = msr.reconstruct(coll, p, accept)
    assert coll.rounds == 2
    assert coll.pos == p.d + 2
    assert np.array_equal(candidates[0], msg)  # fast path
    assert np.array_equal(candidates[1], msg)  # error-erasure path
    assert np.array_equal(out, msg)


def test_reconstruct_one_byzantine_any_position():
    rng = random.Random(9)
    p = small_params(beta=2)
    msg = rand_msg(rng, p)
    clean = msr.encode(msg, p)
    for byz in range(p.n):
        chunks = clean.copy()
        noise = np.array(
            [[rng.randrange(1, p.field.order) for _ in range(p.alpha)]
             for _ in range(p.beta)]
        )
        chunks[byz] ^= noise
        coll = ListCollector(chunks, range(p.n))
        out = msr.reconstruct(coll, p, accept_truth(msg))
        assert np.array_equal(out, msg)
        assert coll.rounds == (2 if byz < p.k else 1)


def test_reconstruct_two_byzantine_never_silently_wrong():
    rng = random.Random(10)
    p = small_params()
    msg = rand_msg(rng, p)
    clean = msr.encode(msg, p)
    for pair in itertools.combinations(range(p.n), 2):
        chunks = clean.copy()
        for byz in pair:
            chunks[byz] ^= np.array(
                [[rng.randrange(1, p.field.order) for _ in range(p.alpha)]]
            )
        coll = ListCollector(chunks, range(p.n))
        if all(byz >= p.k for byz in pair):
            # the fast path never touches the corrupt columns
            out = msr.reconstruct(coll, p, accept_truth(msg))
            assert np.array_equal(out, msg) and coll.rounds == 1
        else:
            # beyond the floor((n-d)/2)=1 budget: an exact-match acceptance
            # test is never satisfied, so the collector must run out
            with pytest.raises(ClusterExhausted):
                msr.reconstruct(coll, p, accept_truth(msg))
            assert coll.pos == p.n


def test_reconstruct_insufficient_nodes():
    p = small_params()
    chunks = msr.encode(np.zeros((1, p.B), dtype=np.int64), p)
    coll = ListCollector(chunks, [0, 4])
    with pytest.raises(ClusterExhausted):
        msr.reconstruct(coll, p, lambda s: s)


# -- regeneration -------------------------------------------------------------


def regen_fixture(rng, params, crc=CRC8):
    msg = rand_msg(rng, params)
    chunks = msr.encode(msg, params)
    checksums = [chunk_checksum(chunks[i], params.field.m, crc) for i in range(params.n)]
    crc_of = lambda ch: chunk_checksum(ch, params.field.m, crc)
    return msg, chunks, checksums, crc_of


def test_repair_response_properties():
    rng = random.Random(11)
    p = small_params(beta=2)
    msg, chunks, _, _ = regen_fixture(rng, p)
    with pytest.raises(SelfRepair):
        msr.repair_response(chunks[2], 2, 2, p)
    zero = np.zeros((p.beta, p.alpha), dtype=np.int64)
    assert not msr.repair_response(zero, 1, 0, p).any()
    # failed node 0 has g all-ones: the response is the symbol xor-sum
    resp = msr.repair_response(chunks[1], 1, 0, p)
    assert np.array_equal(resp, np.bitwise_xor.reduce(chunks[1], axis=1))
    # responses across helpers trace out the codeword of g_i·U
    for failed in range(p.n):
        for s in range(p.beta):
            u = progressive.build_u(msg[s], p)
            g = p.G[: p.alpha, failed : failed + 1].T  # 1 × alpha
            t = p.field.matmul(g, u)[0]
            cw = encode_eval(t.tolist(), p.code)
            for j in range(p.n):
                if j == failed:
                    continue
                got = msr.repair_response(chunks[j], j, failed, p)
                assert got[s] == cw[j]


def test_regenerate_fault_free_exhaustive():
    rng = random.Random(12)
    p = small_params(beta=2)
    _, chunks, checksums, crc_of = regen_fixture(rng, p)
    for failed in range(p.n):
        helpers = [j for j in range(p.n) if j != failed]
        for subset in itertools.combinations(helpers, p.d):
            src = ListSource(
                [(j, msr.repair_response(chunks[j], j, failed, p)) for j in subset]
            )
            chunk = msr.regenerate(src, failed, p, accept_checksum(checksums[failed], crc_of))
            assert np.array_equal(chunk, chunks[failed])
            assert src.rounds == 1


def test_regenerate_byzantine_escalation():
    rng = random.Random(13)
    p = msr.MsrParams(13, 5, 8, 1, F64)
    # a short checksum would let one of the ~200 adversarial decode
    # attempts below collide; use the full-width default
    _, chunks, checksums, crc_of = regen_fixture(rng, p, crc=CrcParams())
    failed = 0
    helpers = [j for j in range(p.n) if j != failed]
    honest = {j: msr.repair_response(chunks[j], j, failed, p) for j in helpers}
    budget = (p.n - 1 - p.d) // 2  # the failed node itself never responds
    assert budget == 2
    sets = list(itertools.combinations(helpers, 1)) + list(
        itertools.combinations(helpers, 2)
    )
    for bad in sets:
        responses = []
        for j in helpers:
            r = honest[j].copy()
            if j in bad:
                r ^= np.array([rng.randrange(1, p.field.order)])
            responses.append((j, r))
        src = ListSource(responses)
        chunk = msr.regenerate(src, failed, p, accept_checksum(checksums[failed], crc_of))
        assert np.array_equal(chunk, chunks[failed])
        assert src.rounds <= 3


def test_regenerate_failure_modes():
    rng = random.Random(14)
    p = small_params()
    _, chunks, checksums, crc_of = regen_fixture(rng, p)
    failed = 3
    helpers = [j for j in range(p.n) if j != failed]
    mk = lambda: ListSource(
        [(j, msr.repair_response(chunks[j], j, failed, p)) for j in helpers]
    )
    # an accept that never takes a candidate (no checksum recovered, or a
    # wrong one) reads every helper, then the source runs out
    for accept in (lambda chunk: None, accept_checksum(checksums[failed] ^ 1, crc_of)):
        src = mk()
        with pytest.raises(ClusterExhausted):
            msr.regenerate(src, failed, p, accept)
        assert src.pos == len(helpers)
    right = accept_checksum(checksums[failed], crc_of)
    with pytest.raises(ClusterExhausted):
        msr.regenerate(ListSource([]), failed, p, right)
    with pytest.raises(SelfRepair):
        src = ListSource([(failed, np.zeros(1, dtype=np.int64))])
        msr.regenerate(src, failed, p, right)
