"""Cluster simulator: store/inject/run drivers, policies, metrics, forgery."""

import hashlib
import itertools
import random
from dataclasses import astuple

import numpy as np
import pytest

from regencode import cluster
from regencode.cluster import (
    BYZANTINE,
    CRASHED,
    FAIL,
    HEALTHY,
    SUCCESS,
    Adversarial,
    ConsistentForgery,
    ExplicitOrder,
    FaultPlan,
    RandomCorruption,
    SeededRandom,
    build_msr_zero_crc_forgery,
    rebuild_shares,
    inject,
    run_reconstruction,
    run_regeneration,
    store,
)
from regencode.errors import (
    InvalidParams,
    OverlappingSets,
    PayloadTooLarge,
)
from regencode.galois import GF
from regencode.integrity import CODED, REPLICATED, CrcParams
from regencode.mbr import MbrParams
from regencode.msr import MsrParams
from regencode.rscode import encode_eval

F16 = GF(4)


def make_state(family="msr", n=6, k=3, d=4, beta=1, field=None, r=8,
               scheme=REPLICATED, seed=0, payload_bits=None):
    field = field if field is not None else F16
    if family == "msr":
        params = MsrParams(n, k, d, beta, field)
    else:
        params = MbrParams(n, k, d, beta, field)
    capacity = beta * params.B * field.m
    size = payload_bits if payload_bits is not None else capacity - r
    rng = np.random.default_rng(seed + 7)
    bits = rng.integers(0, 2, size=size, dtype=np.uint8)
    state = store(bits, params, scheme, crc=CrcParams(r), seed=seed)
    return state, bits


# ---------------------------------------------------------------------------
# store


@pytest.mark.parametrize("family", ["msr", "mbr"])
def test_store_round_trip_fault_free(family):
    state, bits = make_state(family)
    out, metrics = run_reconstruction(state)
    assert np.array_equal(out, bits)
    assert metrics.outcome == SUCCESS
    assert metrics.nodes_contacted == state.params.k
    assert metrics.decode_rounds == 1
    p = state.params
    assert metrics.symbols_downloaded == p.k * p.beta * p.alpha
    assert metrics.checksum_symbols_downloaded == 0


@pytest.mark.parametrize("family", ["msr", "mbr"])
def test_store_per_node_symbol_count(family):
    state, _ = make_state(family, beta=2)
    p = state.params
    for i, slot in enumerate(state.nodes):
        assert slot.chunk.shape == (p.beta, p.alpha)
        # a row indexed by owner; the n-1 shares sit off the node's own index
        assert slot.shares.shape == (p.n,) and slot.shares[i] == 0
        assert slot.status == HEALTHY


def test_store_payload_too_large():
    params = MsrParams(6, 3, 4, 1, F16)  # capacity 6*4 = 24 bits
    store(np.zeros(16, dtype=np.uint8), params, crc=CrcParams(8))
    with pytest.raises(PayloadTooLarge):
        store(np.zeros(17, dtype=np.uint8), params, crc=CrcParams(8))


def test_store_input_validation():
    params = MsrParams(6, 3, 4, 1, F16)
    with pytest.raises(InvalidParams):
        store(np.zeros(8, dtype=np.uint8), params, scheme="nonsense",
              crc=CrcParams(8))
    with pytest.raises(InvalidParams):
        store(np.array([0, 2, 1]), params, crc=CrcParams(8))
    with pytest.raises(InvalidParams):
        store(b"xy", object(), crc=CrcParams(8))


def test_store_accepts_bytes():
    params = MsrParams(6, 3, 4, 2, F16)  # capacity 48 bits
    state = store(b"hi", params, crc=CrcParams(8))
    out, _ = run_reconstruction(state)
    assert bytes(np.packbits(out)) == b"hi"


def snapshot(state):
    """Every node's chunk and shares as (dtype, shape, bytes), and its status."""
    return [
        [(a.dtype, a.shape, a.tobytes()) for a in (s.chunk, s.shares)] + [s.status]
        for s in state.nodes
    ]


@pytest.mark.parametrize("family", ["msr", "mbr"])
@pytest.mark.parametrize("scheme", [REPLICATED, CODED])
def test_stored_nodes_are_independent(family, scheme):
    """Each node owns its chunk and its shares: writing into one node's
    arrays changes no other node, and inject leaves its input bit-identical."""
    state, _ = make_state(family, scheme=scheme)
    before = snapshot(state)
    for i, slot in enumerate(state.nodes):
        slot.chunk ^= 1
        slot.shares ^= np.uint64(1)
        after = snapshot(state)
        assert after[i] != before[i]
        assert after[:i] + after[i + 1 :] == before[:i] + before[i + 1 :]
        slot.chunk ^= 1
        slot.shares ^= np.uint64(1)
    assert snapshot(state) == before
    strategies = [RandomCorruption(1.0)]
    if family == "msr":
        strategies.append(build_msr_zero_crc_forgery(state, [1, 2]))
    for strategy in strategies:
        out = inject(state, FaultPlan(crashes={0}, byzantine={1, 2}, strategy=strategy))
        assert snapshot(out) != before
        assert snapshot(state) == before


# ---------------------------------------------------------------------------
# inject


def test_inject_empty_plan_unchanged():
    state, _ = make_state()
    out = inject(state, FaultPlan())
    for a, b in zip(out.nodes, state.nodes):
        assert np.array_equal(a.chunk, b.chunk)
        assert np.array_equal(a.shares, b.shares)
        assert a.status == HEALTHY


def test_inject_overlap_and_range():
    state, _ = make_state()
    with pytest.raises(OverlappingSets):
        inject(state, FaultPlan(crashes={1}, byzantine={1, 2}))
    with pytest.raises(InvalidParams):
        inject(state, FaultPlan(crashes={6}))
    with pytest.raises(InvalidParams):
        inject(state, FaultPlan(byzantine={0}, strategy="bogus"))


def test_inject_applies_any_strategy():
    # a strategy that neither built-in class is: inject applies it to each
    # Byzantine node in index order, on the copy it returns
    class Stamp:
        def __init__(self):
            self.seen = []

        def apply(self, state, idx):
            self.seen.append(idx)
            state.nodes[idx].chunk[:] = idx + 1

    state, _ = make_state()
    before = [s.chunk.copy() for s in state.nodes]
    stamp = Stamp()
    out = inject(state, FaultPlan(crashes={0}, byzantine={4, 1}, strategy=stamp))
    assert stamp.seen == [1, 4]
    assert [s.status for s in out.nodes] == [CRASHED, BYZANTINE, HEALTHY, HEALTHY, BYZANTINE, HEALTHY]
    for i in (1, 4):
        assert (out.nodes[i].chunk == i + 1).all()
    assert all(np.array_equal(a, s.chunk) for a, s in zip(before, state.nodes))


def test_inject_does_not_mutate_input():
    state, _ = make_state()
    before = [s.chunk.copy() for s in state.nodes]
    out = inject(state, FaultPlan(crashes={0}, byzantine={1}))
    assert all(s.status == HEALTHY for s in state.nodes)
    assert all(np.array_equal(a, s.chunk) for a, s in zip(before, state.nodes))
    assert out.nodes[0].status == CRASHED
    assert out.nodes[1].status == BYZANTINE
    # corruption really changed the Byzantine node's stored data
    assert not np.array_equal(out.nodes[1].chunk, state.nodes[1].chunk)


def test_inject_corruption_deterministic_per_seed():
    state, _ = make_state(seed=11)
    plan = FaultPlan(byzantine={2, 4}, strategy=RandomCorruption(0.7))
    one = inject(state, plan)
    two = inject(state, plan)
    for a, b in zip(one.nodes, two.nodes):
        assert np.array_equal(a.chunk, b.chunk)
        assert np.array_equal(a.shares, b.shares)
    other_seed, _ = make_state(seed=12)
    three = inject(other_seed, plan)
    assert any(
        not np.array_equal(a.chunk, b.chunk)
        for a, b in zip(one.nodes, three.nodes)
    )


def test_inject_corrupts_held_shares():
    state, _ = make_state(scheme=REPLICATED)
    out = inject(state, FaultPlan(byzantine={3}, strategy=RandomCorruption(1.0)))
    assert not np.array_equal(out.nodes[3].shares, state.nodes[3].shares)
    assert out.nodes[3].shares[3] == 0  # its own entry is no share to corrupt
    for i, (a, b) in enumerate(zip(out.nodes, state.nodes)):
        if i != 3:
            assert np.array_equal(a.shares, b.shares)


@pytest.mark.parametrize("scheme,digest", [
    (CODED, "fade4361b997603a6c2a81eced3af01ca9051a073355ece9764b14cd285537b1"),
    (REPLICATED, "bdd4b45abf8d3c5a5af34525c476257d4e73d62e8dba2cd21b7864daae8e3d2d"),
])
def test_inject_corruption_pinned(scheme, digest):
    # the RNG stream of RandomCorruption is frozen: chunks and held shares
    # (owners ascending, the node's own entry skipped) hash to a fixed value
    state, _ = make_state("msr", 13, 5, 8, beta=3, field=GF(6), r=8,
                          scheme=scheme, seed=5)
    out = inject(state, FaultPlan(byzantine={0, 4, 12}, strategy=RandomCorruption(0.5)))
    h = hashlib.sha256()
    for i, slot in enumerate(out.nodes):
        h.update(slot.chunk.astype(np.int64).tobytes())
        h.update(np.array([slot.shares[o] for o in range(13) if o != i], np.int64).tobytes())
    assert h.hexdigest() == digest


# ---------------------------------------------------------------------------
# reconstruction sweeps


@pytest.mark.parametrize("family", ["msr", "mbr"])
def test_reconstruction_survives_n_minus_k_crashes(family):
    state, bits = make_state(family)
    p = state.params
    for crash_set in itertools.combinations(range(p.n), p.n - p.k):
        faulty = inject(state, FaultPlan(crashes=set(crash_set)))
        out, metrics = run_reconstruction(faulty, SeededRandom(1))
        assert metrics.outcome == SUCCESS
        assert np.array_equal(out, bits)
        assert metrics.nodes_contacted == p.k


def test_reconstruction_one_byzantine_msr_all_positions():
    state, bits = make_state("msr")
    p = state.params
    for byz in range(p.n):
        faulty = inject(state, FaultPlan(byzantine={byz}))
        for seed in range(4):
            out, metrics = run_reconstruction(faulty, SeededRandom(seed))
            assert metrics.outcome == SUCCESS
            assert np.array_equal(out, bits)
            assert metrics.nodes_contacted <= p.d + 2


def test_reconstruction_one_byzantine_mbr_all_positions():
    state, bits = make_state("mbr")
    for byz in range(state.params.n):
        faulty = inject(state, FaultPlan(byzantine={byz}))
        for seed in range(4):
            out, metrics = run_reconstruction(faulty, SeededRandom(seed))
            assert metrics.outcome == SUCCESS
            assert np.array_equal(out, bits)


@pytest.mark.parametrize("family, k, d, beta", [("mbr", 3, 4, 2), ("msr", 2, 2, 4)])
def test_full_length_code(family, k, d, beta):
    # n = 7 = 2^3 - 1: every nonzero point of GF(2^3) is a node
    state, bits = make_state(family, n=7, k=k, d=d, beta=beta, field=GF(3))
    p = state.params
    for byz in range(p.n):
        faulty = inject(state, FaultPlan(byzantine={byz}))
        out, metrics = run_reconstruction(faulty, SeededRandom(byz))
        assert metrics.outcome == SUCCESS
        assert np.array_equal(out, bits)
        # the failed node crashed, the next one Byzantine
        failed = (byz + 1) % p.n
        faulty = inject(state, FaultPlan(crashes={failed}, byzantine={byz}))
        chunk, metrics = run_regeneration(faulty, failed, SeededRandom(byz))
        assert metrics.outcome == SUCCESS
        assert np.array_equal(chunk, state.nodes[failed].chunk)


def test_reconstruction_at_budget_with_partial_corruption():
    # Byzantine nodes that leave half their symbols intact: the rows share
    # only part of the error columns, and the decoder must neither miss nor
    # invent a correction in any of them.
    state, bits = make_state("msr", n=20, k=6, d=10, beta=3, field=GF(7), r=16, seed=5)
    p = state.params
    budget = (p.n - p.d) // 2
    for trial in range(4):
        state.rng_seed = trial
        byz = set(np.random.default_rng(trial).choice(p.n, size=budget, replace=False).tolist())
        faulty = inject(state, FaultPlan(byzantine=byz, strategy=RandomCorruption(0.5)))
        for policy in (Adversarial(), SeededRandom(trial)):
            out, metrics = run_reconstruction(faulty, policy)
            assert metrics.outcome == SUCCESS, (trial, policy)
            assert np.array_equal(out, bits)


@pytest.mark.parametrize("family", ["msr", "mbr"])
def test_reconstruction_beyond_budget_never_silently_wrong(family):
    # two corrupted nodes exceed both families' budgets on [6,3,4]
    state, bits = make_state(family, beta=2, r=32)
    for pair in itertools.combinations(range(6), 2):
        faulty = inject(state, FaultPlan(byzantine=set(pair)))
        out, metrics = run_reconstruction(faulty, SeededRandom(3))
        if metrics.outcome == SUCCESS:
            assert np.array_equal(out, bits)


def test_silent_wrong_rate_beyond_budget_10k_trials():
    # module invariant: beyond-budget corruption either fails or is caught
    # by the 32-bit CRC; no silent wrong SUCCESS in 10^4 seeded trials.
    state, bits = make_state("msr", beta=2, r=32)
    plan = FaultPlan(byzantine={0, 1}, strategy=RandomCorruption(1.0))
    wrong = 0
    for trial in range(10_000):
        state.rng_seed = trial
        faulty = inject(state, plan)
        out, metrics = run_reconstruction(faulty, SeededRandom())
        if metrics.outcome == SUCCESS and not np.array_equal(out, bits):
            wrong += 1
    assert wrong == 0


# ---------------------------------------------------------------------------
# regeneration


def install(state, failed, chunk):
    """Put a regenerated node back, with its shares rebuilt from its peers."""
    slot = state.nodes[failed]
    slot.chunk = chunk.copy()
    slot.shares = rebuild_shares(state, failed)[0]
    slot.status = HEALTHY


@pytest.mark.parametrize("family", ["msr", "mbr"])
def test_crash_then_regenerate_restores_exact_chunk(family):
    state, _ = make_state(family, beta=2)
    p = state.params
    for failed in range(p.n):
        original = state.nodes[failed]
        faulty = inject(state, FaultPlan(crashes={failed}))
        chunk, metrics = run_regeneration(faulty, failed)
        assert metrics.outcome == SUCCESS
        install(faulty, failed, chunk)
        assert np.array_equal(chunk, original.chunk)
        assert metrics.nodes_contacted == p.d
        assert metrics.symbols_downloaded == p.d * p.beta
        assert metrics.checksum_symbols_downloaded == p.d
        assert metrics.decode_rounds == 1
        slot = faulty.nodes[failed]
        assert slot.status == HEALTHY
        assert np.array_equal(slot.chunk, original.chunk)
        assert np.array_equal(slot.shares, original.shares)


def test_regenerated_node_serves_reconstruction():
    state, bits = make_state("msr")
    faulty = inject(state, FaultPlan(crashes={2}))
    chunk, metrics = run_regeneration(faulty, 2)
    assert metrics.outcome == SUCCESS
    install(faulty, 2, chunk)
    # force the collector to use the regenerated node
    out, metrics = run_reconstruction(faulty, ExplicitOrder([2, 0, 1, 3, 4, 5]))
    assert metrics.outcome == SUCCESS
    assert np.array_equal(out, bits)


def test_regeneration_byzantine_helpers_within_budget():
    # [13,5,8] over GF(2^6), coded shares: budget min{(n-d)//2, (d-k')//2} = 2
    field = GF(6)
    state, _ = make_state(
        "msr", n=13, k=5, d=8, field=field, r=8, scheme=CODED, seed=3
    )
    failed = 4
    original = state.nodes[failed].chunk
    for byz in [(0, 7), (11, 12), (5, 9)]:
        faulty = inject(
            state, FaultPlan(crashes={failed}, byzantine=set(byz))
        )
        chunk, metrics = run_regeneration(faulty, failed, SeededRandom(1))
        assert metrics.outcome == SUCCESS
        assert np.array_equal(chunk, original)


def test_regeneration_survives_n_minus_d_minus_one_crashes():
    # with the failed node down, n-1-d additional crashes still leave d helpers
    state, _ = make_state("mbr", n=7, k=3, d=4)
    failed = 1
    original = state.nodes[failed].chunk
    others = [i for i in range(7) if i != failed]
    for crash_set in itertools.combinations(others, 2):
        faulty = inject(state, FaultPlan(crashes={failed, *crash_set}))
        chunk, metrics = run_regeneration(faulty, failed)
        assert metrics.outcome == SUCCESS
        assert np.array_equal(chunk, original)


def test_regeneration_fail_outcome_when_exhausted():
    state, _ = make_state("msr")  # n=6, d=4: one spare helper
    faulty = inject(state, FaultPlan(crashes={0, 1, 5}))
    chunk, metrics = run_regeneration(faulty, 0)
    assert chunk is None
    assert metrics.outcome == FAIL
    with pytest.raises(InvalidParams):
        run_regeneration(state, 6)


def test_rebuild_shares_zero_fills_unrecoverable_owner():
    state, _ = make_state("msr", scheme=REPLICATED)
    # split the vouchers for node 3's checksum so no strict majority exists
    votes = [1, 1, 2, None, 2, 3]
    for j, v in enumerate(votes):
        if v is not None:
            state.nodes[j].shares[3] = v
    rebuilt, missing = rebuild_shares(state, 0)
    assert rebuilt[3] == 0
    assert missing == [3]
    for owner in (1, 2, 4, 5):
        assert rebuilt[owner] == state.nodes[0].shares[owner]


@pytest.mark.parametrize("n,k,d,field,scheme", [
    (13, 5, 8, GF(6), CODED),
    (6, 3, 4, F16, REPLICATED),
])
def test_rebuild_shares_matches_stored_directory(n, k, d, field, scheme):
    # on an intact cluster every node's rebuilt shares are the ones it holds
    state, _ = make_state("msr", n, k, d, field=field, r=8, scheme=scheme)
    for j in range(n):
        rebuilt, missing = rebuild_shares(state, j)
        assert np.array_equal(rebuilt, state.nodes[j].shares)
        assert missing == []


def test_rebuild_shares_drops_out_of_width_share():
    # coded shares at n = 13 are m' = 4 bits; a held share of 0xFF is no
    # share, so owner 5's checksum decodes from the other holders
    state, _ = make_state("msr", 13, 5, 8, field=GF(6), r=8, scheme=CODED)
    state.nodes[2].shares[5] = 0xFF
    rebuilt, missing = rebuild_shares(state, 0)
    assert np.array_equal(rebuilt, state.nodes[0].shares)
    assert missing == []


def test_full_width_checksum_shares():
    # r = 64: replicated shares at or above 2^63 survive storage, corruption
    # and recovery as exact values
    state = store(bytes(range(20)), MsrParams(6, 3, 4, 8, GF(8)), crc=CrcParams(64))
    held = [int(state.nodes[0].shares[i]) for i in range(1, 6)]
    assert max(held) >> 63 == 1
    for failed in range(6):
        faulty = inject(state, FaultPlan(crashes={failed}))
        chunk, metrics = run_regeneration(faulty, failed)
        assert metrics.outcome == SUCCESS
        assert np.array_equal(chunk, state.nodes[failed].chunk)
        rebuilt, missing = rebuild_shares(faulty, failed)
        assert missing == []
        assert [int(rebuilt[i]) for i in range(6) if i != failed] == [
            int(state.nodes[failed].shares[i]) for i in range(6) if i != failed]
    out = inject(state, FaultPlan(byzantine={2}, strategy=RandomCorruption(1.0)))
    assert all(out.nodes[2].shares[i] != state.nodes[2].shares[i] for i in (0, 1, 3, 4, 5))


# ---------------------------------------------------------------------------
# progressive fetch schedule


def _schedule_cases():
    for (n, k, d), schemes in (((20, 6, 10), (REPLICATED, CODED)), ((6, 3, 4), (REPLICATED,))):
        for family, scheme in itertools.product(("msr", "mbr"), schemes):
            dim = d if family == "msr" else k  # dimension of the reconstruct row code
            for b in range((n - dim) // 2 + 1):
                yield family, n, k, d, scheme, "reconstruct", b
            for b in range((n - 1 - d) // 2 + 1):
                yield family, n, k, d, scheme, "regenerate", b


@pytest.mark.parametrize("family,n,k,d,scheme,op,b", list(_schedule_cases()))
def test_progressive_fetch_schedule(family, n, k, d, scheme, op, b):
    # b corrupt nodes are read first; each costs one more round of two reads
    state, bits = make_state(family, n, k, d, beta=2, field=GF(8), r=32, scheme=scheme)
    faulty = inject(state, FaultPlan(byzantine=set(range(b))))
    if op == "reconstruct":
        out, metrics = run_reconstruction(faulty, Adversarial())
        truth, first, dim = bits, k, d if family == "msr" else k
    else:
        out, metrics = run_regeneration(faulty, n - 1, Adversarial())
        truth, first, dim = state.nodes[n - 1].chunk, d, d
    assert metrics.outcome == SUCCESS
    assert np.array_equal(out, truth)
    rounds = metrics.decode_rounds
    assert rounds == b + 1
    assert metrics.nodes_contacted == (first if rounds == 1 else dim + 2 * (rounds - 1))


def _metered_runs(monkeypatch) -> list:
    """(metrics, read order) of every metered run made after the call."""
    seen, run = [], cluster._MeteredSource.run

    def recording(source, *args):
        result = run(source, *args)
        seen.append((astuple(source.metrics), source.read[:]))
        return result

    monkeypatch.setattr(cluster._MeteredSource, "run", recording)
    return seen


def _digest(read) -> str:
    return hashlib.sha256(",".join(map(str, read)).encode()).hexdigest()[:16]


# (outcome, nodes_contacted, symbols_downloaded, checksum_symbols_downloaded,
# decode_rounds) and the read order's length and digest: reconstruct, then
# regenerate, per seed
BYZANTINE_RUNS = {
    1: [(("SUCCESS", 100, 15200, 0, 32), 100, "d2e786249f9243d9"),
        (("SUCCESS", 54, 432, 54, 9), 54, "c67ed594bafbb2c9")],
    2: [(("SUCCESS", 98, 14896, 0, 31), 98, "61adc0c80a2c78e7"),
        (("SUCCESS", 54, 432, 54, 9), 54, "d53f223ffd0bbf82")],
}


@pytest.mark.parametrize("seed", sorted(BYZANTINE_RUNS))
def test_byzantine_shaped_runs_pinned(monkeypatch, seed):
    # MSR [100,20,38] over GF(2^11) at beta = 8, coded, as in the benchmark:
    # 31 liars against the reconstruct, then 16 among the regenerate's
    # helpers, so liars sit inside rounds whose responses are one product
    state, bits = make_state("msr", 100, 20, 38, beta=8, field=GF(11), r=32, scheme=CODED, seed=seed)
    rng = random.Random(f"{seed}|pinned")
    seen = _metered_runs(monkeypatch)
    faulty = inject(state, FaultPlan(byzantine=frozenset(rng.sample(range(100), 31))))
    out, metrics = run_reconstruction(faulty, SeededRandom(seed))
    assert np.array_equal(out, bits)
    failed = rng.randrange(100)
    faulty = inject(state, FaultPlan(byzantine=frozenset(
        rng.sample([i for i in range(100) if i != failed], 16))))
    chunk, metrics = run_regeneration(faulty, failed, SeededRandom(seed))
    assert np.array_equal(chunk, state.nodes[failed].chunk)
    got = [(m, len(read), _digest(read)) for m, read in seen]
    assert got == BYZANTINE_RUNS[seed]


# the reconstruct's, then the regenerate's (metrics, read order)
CRASHED_RUNS = {
    ("msr", 64): [(("SUCCESS", 3, 384, 0, 1), [1, 3, 5]), (("SUCCESS", 4, 256, 4, 1), [1, 3, 5, 0])],
    ("mbr", 64): [(("SUCCESS", 3, 768, 0, 1), [1, 3, 5]), (("SUCCESS", 4, 256, 4, 1), [1, 3, 5, 0])],
    ("msr", 2100): [(("SUCCESS", 3, 12600, 0, 1), [1, 3, 5]), (("SUCCESS", 4, 8400, 4, 1), [1, 3, 5, 0])],
    ("mbr", 2100): [(("SUCCESS", 3, 25200, 0, 1), [1, 3, 5]), (("SUCCESS", 4, 8400, 4, 1), [1, 3, 5, 0])],
}


@pytest.mark.parametrize("family,beta,calls", [
    ("msr", 64, 1), ("mbr", 64, 1), ("msr", 2100, 4), ("mbr", 2100, 4)])
def test_crashed_node_runs_pinned(monkeypatch, family, beta, calls):
    # [6,3,4] over GF(2^8), replicated, node 2 crashed: a reconstruct, then the
    # crashed node's regenerate from d = 4 helpers in one round, whose responses
    # are one product while their stack of 4·β·α symbols fits one heap block of
    # GF.matmul, and one product per helper past it
    state, bits = make_state(family, beta=beta, field=GF(8), r=32, seed=5)
    codec, made = cluster.CODECS[family], []
    respond = codec.repair_response
    monkeypatch.setattr(codec, "repair_response", lambda *args: made.append(args) or respond(*args))
    seen = _metered_runs(monkeypatch)
    faulty = inject(state, FaultPlan(crashes={2}))
    out, _ = run_reconstruction(faulty, SeededRandom(3))
    assert np.array_equal(out, bits)
    chunk, _ = run_regeneration(faulty, 2, SeededRandom(3))
    assert np.array_equal(chunk, state.nodes[2].chunk)
    assert len(made) == calls
    assert seen == CRASHED_RUNS[family, beta]


# ---------------------------------------------------------------------------
# policies, determinism, crash isolation


def test_adversarial_policy_prefers_compromised():
    state, _ = make_state("msr")
    faulty = inject(state, FaultPlan(crashes={0}, byzantine={2, 4}))
    order = Adversarial().order(faulty)
    assert order[:2] == [2, 4]
    assert 0 not in order
    assert sorted(order) == [1, 2, 3, 4, 5]


def test_explicit_order_validates_and_filters():
    state, _ = make_state("msr")
    faulty = inject(state, FaultPlan(crashes={1}))
    policy = ExplicitOrder([5, 1, 0, 3, 2, 4])
    assert policy.order(faulty) == [5, 0, 3, 2, 4]
    assert policy.order(faulty, {3}) == [5, 0, 2, 4]
    with pytest.raises(InvalidParams):
        ExplicitOrder([9]).order(faulty)
    assert ExplicitOrder([3, 3, 0, 5, 0]).order(faulty) == [3, 0, 5]


def test_explicit_order_reads_each_node_once():
    # a repeated id is read once: nodes 0, 1, 2 are k = 3 healthy nodes, and
    # 0, 1, 2, 3 are d = 4 healthy helpers
    state, bits = make_state("msr", beta=4, field=GF(8), r=32)
    out, metrics = run_reconstruction(state, ExplicitOrder([0, 0, 1, 2]))
    assert metrics.outcome == SUCCESS
    assert np.array_equal(out, bits)
    assert metrics.nodes_contacted == 3
    chunk, metrics = run_regeneration(state, 5, ExplicitOrder([0, 0, 1, 2, 1, 3, 4]))
    assert metrics.outcome == SUCCESS
    assert np.array_equal(chunk, state.nodes[5].chunk)
    assert metrics.nodes_contacted == 4


def test_seeded_random_policy_determinism():
    state, bits = make_state("msr", beta=2, seed=21)
    plan = FaultPlan(crashes={1}, byzantine={4})
    runs = []
    for _ in range(2):
        faulty = inject(state, plan)
        out, metrics = run_reconstruction(faulty, SeededRandom(9))
        runs.append((out, metrics))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]
    regen_runs = [
        run_regeneration(inject(state, plan), 1, SeededRandom(9))
        for _ in range(2)
    ]
    assert np.array_equal(regen_runs[0][0], regen_runs[1][0])
    assert regen_runs[0][1] == regen_runs[1][1]


def test_crashed_nodes_are_never_read():
    state, bits = make_state("msr")
    faulty = inject(state, FaultPlan(crashes={0, 5}))
    # poison crashed slots: any read would raise (TypeError on None)
    for i in (0, 5):
        faulty.nodes[i].chunk = None
        faulty.nodes[i].shares = None
    out, metrics = run_reconstruction(faulty, SeededRandom(2))
    assert np.array_equal(out, bits)
    chunk, metrics = run_regeneration(faulty, 0, SeededRandom(2))
    assert metrics.outcome == SUCCESS
    assert np.array_equal(chunk, state.nodes[0].chunk)


# ---------------------------------------------------------------------------
# colluding forgery


def forgery_fixture():
    # payload fills the whole frame so any surviving delta is payload-visible
    state, bits = make_state("msr", beta=8, r=32, seed=5)
    return state, bits


def test_zero_crc_forgery_wrong_success_with_adversarial_order():
    state, bits = forgery_fixture()
    colluders = {0, 1}  # b = ceil((n-d+2)/2) = 2
    forgery = build_msr_zero_crc_forgery(state, colluders)
    assert forgery.forged_row_delta.any()  # non-trivial
    faulty = inject(state, FaultPlan(byzantine=colluders, strategy=forgery))
    out, metrics = run_reconstruction(faulty, Adversarial())
    assert metrics.outcome == SUCCESS
    assert not np.array_equal(out, bits)  # CRC-valid but wrong


def test_zero_crc_forgery_below_threshold_recovers_truth():
    state, bits = forgery_fixture()
    forgery = build_msr_zero_crc_forgery(state, {0})  # b-1 = 1 colluder
    faulty = inject(state, FaultPlan(byzantine={0}, strategy=forgery))
    rng = np.random.default_rng(0)
    perms = [rng.permutation(6).tolist() for _ in range(40)]
    perms.append([0, 1, 2, 3, 4, 5])
    for perm in perms:
        out, metrics = run_reconstruction(faulty, ExplicitOrder(perm))
        assert metrics.outcome == SUCCESS
        assert np.array_equal(out, bits)


def test_forgery_builder_validation():
    state, _ = forgery_fixture()
    with pytest.raises(InvalidParams):
        build_msr_zero_crc_forgery(state, set())
    with pytest.raises(InvalidParams):
        build_msr_zero_crc_forgery(state, {7})
    mbr_state, _ = make_state("mbr")
    with pytest.raises(InvalidParams):
        build_msr_zero_crc_forgery(mbr_state, {0})
    # MSR [6,3,4] over GF(2^8) at beta = 1 leaves 16 payload bits: its 16
    # unit residues of 32 bits have no GF(2) dependency
    short, _ = make_state("msr", field=GF(8), r=32)
    assert short.payload_bit_len == 16
    with pytest.raises(InvalidParams, match="no zero-residue forgery exists"):
        build_msr_zero_crc_forgery(short, [0, 1])


def _forgery_digest(forgery) -> str:
    return hashlib.sha256(np.asarray(forgery.forged_row_delta, np.int64).tobytes()).hexdigest()


def _beta200_state():
    params = MsrParams(6, 3, 4, 200, GF(8))
    bits = np.random.default_rng(3).integers(0, 2, 200 * params.B * 8 - 32, dtype=np.uint8)
    return store(bits, params, seed=3)


@pytest.mark.parametrize("colluders", [{0, 1}, {0, 1, 2}])
def test_forgery_pinned(colluders):
    # both colluder sets have the support {0, 1, 2}, so one forgery
    state, _ = forgery_fixture()
    forgery = build_msr_zero_crc_forgery(state, colluders)
    assert forgery.forged_row_delta.shape == (8, 2, 4)
    assert _forgery_digest(forgery) == (
        "20467b2693f7e0a58a55f5ca5c54882dca1535ba7001f260a4830ec9f6b8a432")


def test_forgery_pinned_beta200_reads_at_most_r_plus_1_residues(monkeypatch):
    # the first GF(2) dependency lies among the first r+1 residues, and only
    # those (plus the final check) are computed
    state = _beta200_state()
    calls = []
    real = cluster.crc_linear
    monkeypatch.setattr(cluster, "crc_linear", lambda *a: calls.append(a) or real(*a))
    forgery = build_msr_zero_crc_forgery(state, {2, 5})
    assert len(calls) <= state.crc.r + 2
    assert _forgery_digest(forgery) == (
        "b4fa163c4452ad61035471cdd8b44143d50cad20675dbb257e31b14d5503cc15")


def test_forgery_of_wrong_shape_is_rejected_at_inject():
    state, _ = forgery_fixture()
    for shape in [(8, 2, 3), (7, 2, 4), (8 * 2, 4)]:
        bad = ConsistentForgery(forged_row_delta=np.ones(shape, dtype=np.int64))
        with pytest.raises(InvalidParams):
            inject(state, FaultPlan(byzantine={0}, strategy=bad))


def test_forged_rows_are_codeword_consistent():
    # decoding all-colluder data with no honest nodes in support must yield
    # a CRC-valid frame: the forged chunks lie on one consistent codeword
    state, bits = forgery_fixture()
    forgery = build_msr_zero_crc_forgery(state, {0, 1, 2})
    faulty = inject(state, FaultPlan(byzantine={0, 1, 2}, strategy=forgery))
    out, metrics = run_reconstruction(faulty, Adversarial())
    assert metrics.outcome == SUCCESS
    assert not np.array_equal(out, bits)
    # each colluder's injected delta is its coordinate of a full encode
    codewords = encode_eval(forgery.forged_row_delta.reshape(-1, 4), state.params.code)
    for i in range(3):
        injected = faulty.nodes[i].chunk ^ state.nodes[i].chunk
        assert np.array_equal(injected, codewords[:, i].reshape(8, 2))
