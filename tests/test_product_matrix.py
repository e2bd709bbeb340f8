"""The product-matrix layer both families share: U's index maps against
the closed forms of the construction (and build_u/read_u round trips on
them), the fast-path frame's input checks and route rule, chunk files
pinned byte for byte, stacked repair responses, and the progressive
ladder of a run that never accepts."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regencode.chunkio import header_for_state, pack_chunk
from regencode.cluster import CODECS, PARAMS, store
from regencode.errors import InvalidParams, LengthMismatch, SelfRepair
from regencode.galois import GF
from regencode.integrity import CODED, REPLICATED, CrcParams
from regencode.mbr import MbrParams
from regencode.msr import MsrParams
from regencode.progressive import build_u, read_u, repair_response

from listsource import ListSource

F256 = GF(8)


def msr_fill_oracle(alpha):
    """Closed-form message index of every entry of A1 and A2 (1-based i, j)."""
    f1 = np.zeros((alpha, alpha), dtype=np.int64)
    f2 = np.zeros((alpha, alpha), dtype=np.int64)
    for i in range(1, alpha + 1):
        for j in range(i, alpha + 1):
            k1 = (i - 1) * (alpha + 1) - i * (i + 1) // 2 + j
            f1[i - 1, j - 1] = f1[j - 1, i - 1] = k1
            jj = j + alpha
            k2 = (alpha + 1) * (i - 1) + alpha * (alpha + 1) // 2 - i * (i + 1) // 2 + (jj - alpha)
            f2[i - 1, j - 1] = f2[j - 1, i - 1] = k2
    return f1, f2


def mbr_fill_oracle(k, d):
    """Closed-form message index of every entry of A1 (k×k) and A2 ((d-k)×k)."""
    f1 = np.zeros((k, k), dtype=np.int64)
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            k1 = (i - 1) * (k + 1) - i * (i + 1) // 2 + j
            f1[i - 1, j - 1] = f1[j - 1, i - 1] = k1
    f2 = np.zeros((d - k, k), dtype=np.int64)
    for i in range(k + 1, d + 1):
        for j in range(1, k + 1):
            f2[i - k - 1, j - 1] = (i - k - 1) * k + k * (k + 1) // 2 + j - 1
    return f1, f2


def assert_fill(p, u_map, corner=0):
    assert np.array_equal(p.fill, u_map)
    # the map covers exactly the B message symbols, and B marks the corner×corner zero block
    assert set(u_map.ravel()) - {p.B} == set(range(p.B))
    assert np.count_nonzero(u_map == p.B) == corner**2
    # read_u inverts build_u over any leading axes, from U's top k rows alone
    # (MBR's [A1 | A2ᵀ]; all of MSR's α = k-1)
    msg = np.random.default_rng(p.B).integers(0, p.field.q, (2, 3, p.B))
    u = build_u(msg, p)
    assert u.shape == (2, 3) + u_map.shape and not u[..., u_map == p.B].any()
    assert np.array_equal(read_u(u, p), msg) and np.array_equal(read_u(u[..., : p.k, :], p), msg)


@pytest.mark.parametrize("alpha", range(1, 7))
def test_msr_fill_maps_match_closed_form(alpha):
    d = 2 * alpha
    f1, f2 = msr_fill_oracle(alpha)
    assert_fill(MsrParams(d + 1, alpha + 1, d, 1, F256), np.hstack([f1, f2]))  # [A1 | A2]


@pytest.mark.parametrize("k, d", [(k, d) for k in range(1, 5) for d in range(k, 7)])
def test_mbr_fill_maps_match_closed_form(k, d):
    p = MbrParams(d + 1, k, d, 1, F256)
    f1, f2 = mbr_fill_oracle(k, d)
    assert_fill(p, np.block([[f1, f2.T], [f2, np.full((d - k, d - k), p.B)]]), d - k)


@pytest.mark.parametrize("cls, n, k, d, m", [(MsrParams, 6, 3, 4, 8), (MsrParams, 14, 5, 8, 11),
                                           (MbrParams, 6, 3, 4, 8), (MbrParams, 10, 4, 7, 5)])
def test_generator_and_multipliers_match_scalar_powers(cls, n, k, d, m):
    field = GF(m)
    p = cls(n, k, d, 1, field)
    points = [field.pow(2, c) for c in range(n)]
    assert p.G.tolist() == [[field.pow(x, r) for x in points] for r in range(d)]  # (a^c)^r
    if cls is MsrParams:
        assert p.lam.tolist() == [field.pow(x, p.alpha) for x in points]  # λ_i = (a^i)^α


@pytest.mark.parametrize("name,m,beta,by_matrix", [
    ("msr", 4, 5, False),
    ("msr", 4, 7, True),  # beta > B = 6
    ("mbr", 8, 5, False),
    ("mbr", 4, 144, True),  # beta >= 2^4·B = 144
])
def test_fast_reconstruct_rejects_malformed_input(name, m, beta, by_matrix):
    # node id -1 once indexed as node n-1 and decoded the true message, and n
    # escaped as a bare IndexError; a wrong shape escaped as a numpy
    # ValueError and a symbol past the field as an IndexError; on the matrix
    # route a negative symbol would index a multiply table from its end.
    # Through MBR's decoders an out-of-field symbol in the top k rows was
    # named after its XOR with A2ᵀ·bottom
    field = GF(m)
    family, p = CODECS[name], PARAMS[name](6, 3, 4, beta, field)
    assert p.by_matrix == by_matrix
    msg = np.random.default_rng(beta).integers(0, field.q, (beta, p.B))
    chunks = family.encode(msg, p)
    good = {5: chunks[5], 1: chunks[1], 2: chunks[2]}
    for bad in (-1, p.n):
        with pytest.raises(InvalidParams, match="outside"):
            family.reconstruct_fast({bad: chunks[5], 1: chunks[1], 2: chunks[2]}, p)
    for shape in ((beta - 1, p.alpha), (beta + 1, p.alpha), (beta, p.alpha + 1), (beta, p.k),
                  (beta,)):
        with pytest.raises(LengthMismatch):
            family.reconstruct_fast({**good, 1: np.zeros(shape, dtype=np.int64)}, p)
    with pytest.raises(LengthMismatch):
        family.reconstruct_fast({5: chunks[5], 1: chunks[1]}, p)
    # the first and last symbol, and MBR's last top row
    for row in {0, min(p.k, p.alpha) - 1, p.alpha - 1}:
        for bad in sorted({256, 300, field.q, -1}):
            col = chunks[1].copy()
            col[beta - 1, row] = bad
            with pytest.raises(InvalidParams, match=f"symbol {bad} outside field of size {field.q}"):
                family.reconstruct_fast({**good, 1: col}, p)
    assert np.array_equal(family.reconstruct_fast(good, p), msg)


@pytest.mark.parametrize("family,n,k,d,m,beta,by_matrix", [
    ("msr", 6, 3, 4, 8, 10924, True),  # the healthy workload
    ("msr", 100, 20, 38, 11, 8, False),  # the byzantine workload
    ("mbr", 6, 3, 4, 8, 7282, True),  # the files workload
    ("mbr", 10, 4, 7, 8, 4546, False),  # 100 001 bytes; D has 208 nonzeros, over 150,
    ("mbr", 10, 4, 7, 8, 2979, False),  # and β < 2^8·B = 5 632: 64 KiB
    ("mbr", 10, 4, 7, 8, 47663, True),  # 1 MiB: D's packed rows pay off
    ("msr", 14, 5, 8, 8, 3277, True),  # 64 KiB, α = 4: B² = 400 > 396, but D's rows pack
    ("msr", 14, 5, 8, 8, 52429, True),  # 1 MiB
    ("msr", 14, 5, 8, 8, 500, False),  # β ≤ 2^9: Y·D would run on the cube
])
def test_fast_path_route_per_shape(family, n, k, d, m, beta, by_matrix):
    assert PARAMS[family](n, k, d, beta, GF(m)).by_matrix == by_matrix


# sha256 of every node's chunk file for PAYLOAD, beta = 20, GF(2^8)
CHUNK_SHA256 = {
    ('msr', 6, 3, 4, REPLICATED, 32): [
        "20d763bc0da769b82688f809bfb49c72c93552c451a55f9c21d53ff125f4e627",
        "a50d592a87cd17b1679cc0c6aef54d2a7ba8ab2674f02a8ce4895f418a218f17",
        "9f9b5ab24b7c819cb48b28437486d22448bf823fb95948028cc69693c9b2e6cb",
        "1648c1944c0abf770fe51769f8a82d1d336955e21dee7867bfe83993acd25ab6",
        "168fb5da571de559dce5c75fd492a09f32450832707196738e9828eabce1ac7b",
        "8b92b5b6166529ef01d5e95a4faa308c5ea5d0cec961f41501d70075cf684f77",
    ],
    ('msr', 10, 4, 6, REPLICATED, 32): [
        "ae021ee7b0d4d6b6cab12aebf43358414802eec2d811849dae656f124a1554c6",
        "0a56a8ecd0730220f7c2c58fe7c385aeb038a1d2805d099f90410c33bd913b19",
        "a41f9be2b49e38fe5e38bcc6f230358acb84c9ba36af64b54ebc7429373b4654",
        "66194cc2aa565c96a7ba67a9fd5b4e1bfa85e3f2c2cfc59d19ee37bee64a4374",
        "e4cb336c778405c2def6591c93ad73a06044d5fc185166647e53a7888bb7ff27",
        "e5a477de7d75f66152e91f1b18773a39e1727d6a2f68188946e9b2918100e9bf",
        "cd6e573d3abf13fe1b9f7a6f3cafe62dba3455f5cc0254127e40249545ff419d",
        "f8052d9c5ab42f2c31b6b36b520d8bbca381f8fa407cfa97d26d5dcf77138e40",
        "41d9f88e428d96733b182c5ac5d02686732b5ebb8fa25a56a528e835bd15c7e6",
        "c8d9ff9f90eb7e3d89ae81c3964601ba3f3cc9bcad584364deadb0f24ff3a1a3",
    ],
    ('msr', 6, 3, 4, CODED, 8): [
        "bfcf9faf7a026ad089f35956a2096e64db8bc1c158ff74012951584962df470f",
        "a24939519536ed306ea99ea3281aa5996879fe35e4cb535978ea19035648e763",
        "cb5fce837f737d4e9bcac4790ea4b79f52d5a972dd55012ec028ed4b44390cd3",
        "220a92264ab83de29a74340f4b266169e1f5922fbc9f9bd3a724266496c82209",
        "38cb50d9d103a064fc645e3f08122572b0a9a33bfa72ed82bf49588525e11867",
        "dc9a6d9ec8a01a12f8ce82744bb33afc241501d94e3de16a6350da159b044e8a",
    ],
    ('mbr', 6, 3, 4, REPLICATED, 32): [
        "dbca36a7e04b5691f8f541f6d13afeae804760fef6321e997c975806c15cb302",
        "61da044ee243f0ac22678556f873e0ffbb7a461b536af81d3b3e283c3b7dc4c4",
        "ef485ea2883bace3c7f587b7a99013e20d564a4be80b5358bd9f14d01a8ede20",
        "6c68a5a766bd054cb7aa0d8fee3a9c3a6b620d8a4b21bc0d450d07055e5a3689",
        "e07a1ef7185cd4d7edd328245484204aa3ce9aee84c56c2bb616f3794536f6e8",
        "6a67a65e9ec50fe4381ffa04cb5e0b7e0082e2f51c7917aa5fec11cb7f837a73",
    ],
    ('mbr', 6, 3, 3, REPLICATED, 32): [
        "31262faa1376f8a85b5a3572e612e8fa13cb53a7f6670ecfc07daa40ab91a34f",
        "40c5e541f7aff235d6f1c0024184c8361a7b36ed3ff9824d8340fe0d1ca48cfc",
        "7b5804f70c61fabd81610ec19065bd03900f8d434d6343629eba3404bf5b6749",
        "f96bb87ec250d5f2c16543048673211dfa8aa9ee735304b22fcb675731948bf0",
        "54f068b6a3df76668db921d99eeb3df0eefa4f11f50b47ab2950355a2442452b",
        "d179362d26c200e8d952fdbf36c03cba94889c07a0ae0a2f01389cb015edd61a",
    ],
    ('mbr', 8, 3, 5, REPLICATED, 32): [
        "b9ed8962f332c7b4e09590658de993a3985f131b0910079e72c046a049933b1b",
        "984faf73f4586fac203e711660af678991d8a401b28c6d7141d59e333961c64c",
        "ade13a654816a5b77014ad24b5abf205919a2d604a4209eea6ec3ae41bcc88c2",
        "66093aea11dc827693e5ed3b739c2c509e413e33b35a3849c9a0df6a9966fce1",
        "86d8927f23ef9d29fb50aaf215815ad6ee614ebbf326533bdcc4a68f8954200d",
        "88aa3f162364cf07c0761fe3519549f705461e84b4c00e2070d0a8417c900b11",
        "c322eb956fe1628333962dc587e17faad88dd84f370bd104fae417b88e032fb9",
        "b631f985f3fdfe4e300819c6d00d247e4a32c1581c8d3a7c328b063813795b94",
    ],
}
PAYLOAD = bytes((i * 37 + 11) % 256 for i in range(100))


@pytest.mark.parametrize("case", CHUNK_SHA256)
def test_chunk_files_are_pinned(case):
    family, n, k, d, scheme, r = case
    state = store(PAYLOAD, PARAMS[family](n, k, d, 20, F256), scheme, crc=CrcParams(r))
    got = [
        hashlib.sha256(pack_chunk(header_for_state(state, i), s.chunk, s.shares)).hexdigest()
        for i, s in enumerate(state.nodes)
    ]
    assert got == CHUNK_SHA256[case]


@pytest.mark.parametrize("family,n,k,d,m,beta", [
    ("msr", 6, 3, 4, 8, 5),
    ("mbr", 6, 3, 4, 8, 5),
    ("msr", 100, 20, 38, 11, 8),  # the benchmark's byzantine code and frame
])
def test_stacked_repair_responses_match_per_helper_loop(family, n, k, d, m, beta):
    # a round's responses come from one call on the holders' stacked chunks;
    # each row must be what that holder's own call gives, and both must be
    # the chunk times g_failed by elementwise products (no matmul)
    codec, params = CODECS[family], PARAMS[family](n, k, d, beta, GF(m))
    rng = np.random.default_rng(n + m)
    chunks = codec.encode(rng.integers(0, 1 << m, (beta, params.B)), params)
    for failed in (0, n // 2, n - 1):
        holders = [j for j in rng.permutation(n).tolist() if j != failed][:d]
        g = params.G[: params.alpha, failed]
        oracle = np.bitwise_xor.reduce(params.field.vmul(chunks[holders], g), axis=-1)
        stacked = codec.repair_response(chunks[holders], holders, failed, params)
        assert stacked.shape == (len(holders), beta)
        assert np.array_equal(stacked, oracle)
        for row, j in zip(stacked, holders):
            assert np.array_equal(codec.repair_response(chunks[j], j, failed, params), row)
        with_failed = holders[:2] + [failed] + holders[2:]
        with pytest.raises(SelfRepair):
            codec.repair_response(chunks[with_failed], with_failed, failed, params)
        with pytest.raises(SelfRepair):
            codec.repair_response(chunks[failed], failed, failed, params)


def ladder(first, dim, total):
    """(items read, non-empty fetches) of a run over ``total`` items whose
    acceptance test never takes a candidate: ``first`` items, then
    max(dim - count, 0) + 2 per round, until a fetch comes back short."""
    count, want, rounds = 0, first, 0
    while True:
        got = min(want, total - count)
        count, rounds = count + got, rounds + (got > 0)
        if got < want:
            return count, rounds
        want = max(dim - count, 0) + 2


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(family=st.sampled_from(["msr", "mbr"]), k=st.integers(1, 4), spread=st.integers(0, 2),
       spare=st.integers(1, 3), beta=st.sampled_from([1, 3]), repair=st.booleans(),
       perm=st.permutations(range(9)))
@example(family="mbr", k=3, spread=0, spare=2, beta=3, repair=False, perm=list(range(9)))  # d = k
def test_rejecting_run_reads_the_ladder_then_returns_none(family, k, spread, spare, beta, repair, perm):
    # MSR has d = 2k-2 (k >= 2); MBR any k <= d <= k+2; n = d + spare <= 9
    k, d = (max(k, 2), 2 * max(k, 2) - 2) if family == "msr" else (k, k + spread)
    params = PARAMS[family](d + spare, k, d, beta, GF(6))
    order = [i for i in perm if i < params.n]
    chunks = CODECS[family].encode(np.random.default_rng(len(order)).integers(0, 64, (beta, params.B)), params)
    never = lambda candidate: None
    if repair:  # the first node in the order fails, the others help
        failed, helpers = order[0], order[1:]
        source = ListSource((j, repair_response(chunks[j], j, failed, params)) for j in helpers)
        assert CODECS[family].regenerate(source, failed, params, never) is None
        want = ladder(d, d, len(helpers))
    else:
        source = ListSource((i, chunks[i]) for i in order)
        assert CODECS[family].reconstruct(source, params, never) is None
        want = ladder(k, d if family == "msr" else k, len(order))
    assert source.pos == len(source.items)  # every item read
    assert (source.pos, source.rounds) == want
