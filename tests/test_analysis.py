"""Capability calculator: cut-set bound and the capability report."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from regencode.analysis import capabilities, cut_set_bound, percent
from regencode.cluster import (
    FAIL, PARAMS, Adversarial, FaultPlan, SeededRandom, inject, run_reconstruction,
    run_regeneration, store,
)
from regencode.errors import InvalidParams
from regencode.galois import GF
from regencode.integrity import CODED, REPLICATED, CrcParams
from regencode.mbr import MbrParams
from regencode.msr import MsrParams


def test_cut_set_bound_saturated_alpha():
    # alpha beyond d*beta: every term is (d-i)*beta
    for n, k, d, beta in [(6, 3, 4, 1), (10, 4, 7, 3), (9, 5, 5, 2)]:
        expect = beta * (k * d - k * (k - 1) // 2)
        assert cut_set_bound(n, k, d, 10 ** 6, beta) == expect


def test_cut_set_bound_extreme_points():
    for n, k, d, beta in [(6, 3, 4, 1), (13, 5, 8, 4), (12, 4, 9, 2)]:
        msr_alpha = (d - k + 1) * beta
        assert cut_set_bound(n, k, d, msr_alpha, beta) == k * msr_alpha
        mbr_alpha = d * beta
        assert cut_set_bound(n, k, d, mbr_alpha, beta) == beta * (
            k * d - k * (k - 1) // 2
        )


def test_cut_set_bound_matches_constructed_codes():
    rng = np.random.default_rng(9)
    field = GF(11)
    for _ in range(25):
        k = int(rng.integers(2, 8))
        d = 2 * k - 2
        n = int(rng.integers(d + 1, d + 9))
        beta = int(rng.integers(1, 4))
        p = MsrParams(n, k, d, beta, field)
        assert cut_set_bound(n, k, d, p.alpha, 1) == p.B
        assert cut_set_bound(n, k, d, p.alpha * beta, beta) == p.B * beta
    for _ in range(25):
        k = int(rng.integers(1, 8))
        d = int(rng.integers(k, k + 6))
        n = int(rng.integers(d + 1, d + 9))
        beta = int(rng.integers(1, 4))
        p = MbrParams(n, k, d, beta, field)
        assert cut_set_bound(n, k, d, p.alpha, 1) == p.B
        assert cut_set_bound(n, k, d, p.alpha * beta, beta) == p.B * beta


def test_cut_set_bound_validation():
    with pytest.raises(InvalidParams):
        cut_set_bound(6, 4, 3, 2, 1)  # k > d
    with pytest.raises(InvalidParams):
        cut_set_bound(4, 2, 4, 2, 1)  # d > n-1
    with pytest.raises(InvalidParams):
        cut_set_bound(6, 3, 4, 0, 1)


def test_code_point_fields():
    pt = capabilities(100, 20, 38, "msr", beta=1000, m=11, r=32)
    assert (pt.alpha, pt.B) == (19, 380)
    assert (pt.m_prime, pt.k_prime) == (7, 5)
    pt = capabilities(6, 3, 4, "mbr", m=4, r=8)
    assert (pt.alpha, pt.B) == (4, 9)
    assert pt.m_prime == 3  # ceil(log2 5), and 2^3 - 1 >= 5
    pt = capabilities(9, 3, 4, "mbr", m=4, r=8)
    assert pt.m_prime == 4  # bumped: 2^3 - 1 < 8 evaluation points
    assert pt.k_prime == 2
    with pytest.raises(InvalidParams):
        capabilities(6, 3, 4, "raid")
    with pytest.raises(InvalidParams):
        capabilities(6, 4, 3, "msr")


def test_capability_table_large_msr():
    rep = capabilities(100, 20, 38, "msr", beta=1000, m=11, r=32)
    assert rep.erasure_reconstruction == 80
    assert rep.erasure_regeneration == 61  # failed node is the 62nd crash
    assert rep.byzantine_reconstruction == 31
    assert rep.byzantine_regeneration == min((100 - 1 - 38) // 2, (38 - 5) // 2) == 16
    assert rep.security_reconstruction == min(20, 32) - 1 == 19
    assert rep.security_regeneration == min(38, 32) - 1 == 31
    assert rep.storage_reconstruction == Fraction(32, 11 * 20 * 19 - 32)
    assert percent(rep.storage_reconstruction) == "0.77%"
    assert rep.storage_regeneration_replicated == Fraction(32 * 99, 209000)
    assert percent(rep.storage_regeneration_replicated) == "1.52%"
    assert rep.bandwidth_regeneration_replicated == Fraction(32, 11000)
    assert percent(rep.bandwidth_regeneration_replicated) == "0.29%"
    assert rep.storage_regeneration_coded == Fraction(99 * 7, 209000)
    assert percent(rep.storage_regeneration_coded) == "0.33%"
    assert rep.bandwidth_regeneration_coded == Fraction(7, 11000)
    assert percent(rep.bandwidth_regeneration_coded) == "0.06%"


def test_capability_table_small_msr():
    # m=16 so the 32-bit checksum still fits one stripe's k*alpha symbols
    rep = capabilities(6, 3, 4, "msr", m=16, r=32)
    assert rep.byzantine_reconstruction == 1
    assert rep.security_reconstruction == min(3, 2) - 1 == 1
    assert rep.security_regeneration == min(4, 2) - 1 == 1
    # k' = ceil(32/3) = 11 > d: the coded scheme cannot vouch at all
    assert rep.k_prime == 11
    assert rep.byzantine_regeneration == 0


def test_capability_table_small_mbr():
    rep = capabilities(6, 3, 4, "mbr", m=4, r=8)
    assert rep.erasure_reconstruction == 3
    assert rep.erasure_regeneration == 1
    assert rep.byzantine_reconstruction == 1  # floor((6-3)/2)
    assert rep.security_reconstruction == min(3, -((6 - 3 + 2) // -2)) - 1 == 2
    assert rep.security_regeneration == 1
    # m' = 3, k' = ceil(8/3) = 3: regen tolerance min{(6-1-4)//2, (4-3)//2} = min{0, 0} = 0
    assert rep.byzantine_regeneration == 0
    assert rep.storage_reconstruction == Fraction(8, 4 * 9 - 8)


def test_capability_table_boundaries():
    rep = capabilities(5, 3, 4, "msr", m=4, r=8)
    assert rep.erasure_regeneration == 0  # n = d+1
    assert rep.byzantine_reconstruction == 0
    with pytest.raises(InvalidParams):
        capabilities(5, 3, 4, "lrc", m=4, r=8)
    # checksum larger than the stored data: 9 symbols of 3 bits (MSR [6,3,4]
    # needs n·α = 12 powers, more than GF(2^3) has, and is refused first)
    with pytest.raises(InvalidParams, match="no room for data"):
        capabilities(6, 3, 4, "mbr", m=3, r=32)


def test_fields_no_code_can_use_are_refused():
    # the checks GF, MsrParams and RsParams make: a degree with no primitive
    # polynomial, more MSR powers n·α than the field has, and more nodes than
    # the field has nonzero points
    for m in (0, 1, 17):
        with pytest.raises(InvalidParams, match=rf"field degree m={m} outside supported range"):
            capabilities(6, 3, 4, "msr", m=m, r=8)
    with pytest.raises(InvalidParams, match=r"m=4 too small for n\*alpha=1900"):
        capabilities(100, 20, 38, "msr", m=4, r=8)
    with pytest.raises(InvalidParams, match="length n=16 exceeds the 15 distinct nonzero points"):
        capabilities(16, 4, 7, "mbr", m=4, r=8)
    assert capabilities(15, 4, 7, "mbr", m=4, r=8).n == 15  # full length: every point


def test_two_nodes_report_coded_cells_infeasible():
    # no [n-1, k'] share code exists below n = 3: the coded cells take the
    # sizes at n = 3 (m' = 2) and vouch for nothing, as when k' > n-1; the
    # replicated cells are reported (a 16-bit symbol holds the 8-bit checksum).
    # MBR is the family with a point at n = 2: MSR [2,1,1] breaks d = 2k-2
    rep = capabilities(2, 1, 1, "mbr", m=16, r=8)
    assert (rep.alpha, rep.B) == (1, 1)
    assert (rep.m_prime, rep.k_prime) == (2, 4)
    assert rep.k_prime > rep.n - 1
    assert rep.erasure_reconstruction == 1
    assert rep.erasure_regeneration == 0
    assert rep.byzantine_regeneration == 0
    assert rep.storage_reconstruction == Fraction(8, 16 - 8)
    assert rep.storage_regeneration_replicated == Fraction(8, 16)
    assert rep.storage_regeneration_coded == Fraction(2, 16)
    rep = capabilities(2, 1, 1, "mbr", m=8, r=4)  # the narrowest checksum
    assert (rep.m_prime, rep.k_prime, rep.byzantine_regeneration) == (2, 2, 0)
    with pytest.raises(InvalidParams, match="construction requires d = 2k-2"):
        capabilities(2, 1, 1, "msr", m=16, r=8)
    with pytest.raises(InvalidParams, match="no room for data"):
        capabilities(2, 1, 1, "mbr", m=11, r=32)  # 11 stored bits, 32 checksum bits


def test_percent_rendering():
    assert percent(Fraction(1, 2)) == "50.00%"
    assert percent(Fraction(1, 3)) == "33.33%"
    assert percent(Fraction(0)) == "0.00%"


@pytest.mark.parametrize("n,k,d,m,r,budget", [(8, 4, 6, 8, 8, 0), (12, 5, 8, 6, 16, 1)])
def test_byzantine_regeneration_budget_is_exact(n, k, d, m, r, budget):
    # a newcomer has n-1 helpers, so its [n-1, d] helper code corrects
    # floor((n-1-d)/2) errors, one fewer than floor((n-d)/2) when n-d is
    # even.  Exhaustive over one coded store: every failed node and every
    # liar set of the reported size, liars read first and every symbol they
    # hold (chunk and shares) corrupted, regenerates exactly; some set one
    # larger ends FAIL.  Liars are present in the exact runs only at r = 16,
    # where a CRC collision is 2^-16 per candidate (at r = 8, budget 0)
    assert capabilities(n, k, d, "msr", m=m, r=r).byzantine_regeneration == budget
    params = MsrParams(n, k, d, 2, GF(m))
    bits = np.random.default_rng(n).integers(0, 2, params.beta * params.B * m - r)
    state = store(bits, params, CODED, crc=CrcParams(r), seed=n)

    def run(failed, liars):
        return run_regeneration(inject(state, FaultPlan(byzantine=frozenset(liars))),
                                failed, Adversarial())

    sets = [(f, liars) for f in range(n)
            for liars in itertools.combinations([j for j in range(n) if j != f], budget)]
    for failed, liars in sets:
        chunk, _ = run(failed, liars)
        assert chunk is not None and np.array_equal(chunk, state.nodes[failed].chunk)
    assert any(run(f, liars)[1].outcome == FAIL for f in range(n)
               for liars in itertools.combinations([j for j in range(n) if j != f], budget + 1))


@pytest.mark.parametrize("r", [8, 16])
@pytest.mark.parametrize("m", [4, 5])
@pytest.mark.parametrize("family,n,k,d", [
    ("msr", 6, 3, 4), ("msr", 5, 3, 4), ("mbr", 6, 3, 4), ("mbr", 5, 2, 3),
])
def test_erasure_cells_match_real_runs(family, n, k, d, m, r):
    # every crash set of the reported size reconstructs the payload (or
    # regenerates each failed node's chunk) exactly, and some set one node
    # larger ends FAIL.  The coded scheme needs k' = ceil(r/m') <= n-1 shares,
    # which r = 16 breaks at n <= 6 (m' = 3)
    rep = capabilities(n, k, d, family, m=m, r=r)
    params = PARAMS[family](n, k, d, 2, GF(m))
    bits = np.random.default_rng([n, k, d, m, r]).integers(0, 2, 2 * params.B * m - r)
    for scheme in (REPLICATED, CODED) if r == 8 else (REPLICATED,):
        state = store(bits, params, scheme, crc=CrcParams(r), seed=m)

        def reconstruct(crashes):
            return run_reconstruction(inject(state, FaultPlan(crashes=frozenset(crashes))),
                                      SeededRandom(r))

        for crashes in itertools.combinations(range(n), rep.erasure_reconstruction):
            out, _ = reconstruct(crashes)
            assert out is not None and np.array_equal(out, bits)
        assert any(reconstruct(crashes)[1].outcome == FAIL
                   for crashes in itertools.combinations(range(n), rep.erasure_reconstruction + 1))

        def regenerate(failed, crashes):
            faulty = inject(state, FaultPlan(crashes=frozenset({failed, *crashes})))
            return run_regeneration(faulty, failed, SeededRandom(r))

        others = {f: [j for j in range(n) if j != f] for f in range(n)}
        for failed in range(n):
            for crashes in itertools.combinations(others[failed], rep.erasure_regeneration):
                chunk, _ = regenerate(failed, crashes)
                assert chunk is not None and np.array_equal(chunk, state.nodes[failed].chunk)
        assert any(regenerate(f, crashes)[1].outcome == FAIL for f in range(n)
                   for crashes in itertools.combinations(others[f], rep.erasure_regeneration + 1))
