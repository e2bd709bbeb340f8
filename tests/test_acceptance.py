"""Acceptance gate: ten end-to-end properties, one pass/fail line each.

Run under pytest (``pytest tests/test_acceptance.py -s``) or directly
(``python3 tests/test_acceptance.py``); each criterion prints exactly one
``criterion NN [...] PASS|FAIL`` line.
"""

import io
import itertools
import random
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np

from regencode.analysis import cut_set_bound
from regencode.cli import main as cli_main
from regencode.cluster import (
    SUCCESS,
    Adversarial,
    ExplicitOrder,
    FaultPlan,
    RandomCorruption,
    SeededRandom,
    build_msr_zero_crc_forgery,
    inject,
    run_reconstruction,
    run_regeneration,
    store,
)
from regencode.errors import DecodeFailure, NoMajority
from regencode.galois import GF
from regencode.integrity import (
    CODED,
    REPLICATED,
    CrcParams,
    coded_layout,
    recover_checksum,
)
from regencode.mbr import MbrParams
from regencode.msr import MsrParams, reconstruct_fast
from regencode.msr import encode as msr_encode
from regencode.rscode import (
    ProgressiveDecoder,
    ReceivedWord,
    RsParams,
    decode_error_erasure,
    encode_eval,
)

F16 = GF(4)


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [{title}] FAIL")
        raise
    print(f"criterion {num:2d} [{title}] PASS")


def full_frame_state(params, scheme=REPLICATED, r=32, seed=0):
    """Cluster whose payload fills the frame up to the checksum."""
    size = params.beta * params.B * params.field.m - r
    assert size > 0
    payload = np.random.default_rng(seed).integers(0, 2, size=size, dtype=np.uint8)
    return store(payload, params, scheme, crc=CrcParams(r), seed=seed), payload


# criterion 1 -----------------------------------------------------------


def test_any_k_reconstruction_msr():
    with criterion(1, "any-k reconstruction, MSR [6,3,4]"):
        t0 = time.perf_counter()
        params = MsrParams(6, 3, 4, 1, F16)
        stripes = np.random.default_rng(10).integers(0, 16, size=(1, params.B))
        chunks = msr_encode(stripes, params)
        for subset in itertools.combinations(range(6), 3):
            got = reconstruct_fast({i: chunks[i] for i in subset}, params)
            assert np.array_equal(got, stripes), subset
        state, payload = full_frame_state(params, r=8, seed=1)
        for subset in itertools.combinations(range(6), 3):
            out, metrics = run_reconstruction(state, ExplicitOrder(subset))
            assert metrics.outcome == SUCCESS
            assert metrics.nodes_contacted == 3  # fast path reads exactly k
            assert metrics.decode_rounds == 1
            assert np.array_equal(out, payload)
        assert time.perf_counter() - t0 < 1.0


# criterion 2 -----------------------------------------------------------


def test_exact_regeneration_all_helper_subsets():
    with criterion(2, "exact regeneration over every d-subset of helpers"):
        t0 = time.perf_counter()
        instances = [
            MsrParams(6, 3, 4, 1, F16),
            MsrParams(8, 4, 6, 1, GF(6)),
            MbrParams(6, 3, 4, 1, F16),
            MbrParams(7, 3, 5, 1, F16),
        ]
        for params in instances:
            state, _ = full_frame_state(params, r=8, seed=params.n)
            for failed in range(params.n):
                truth = state.nodes[failed].chunk
                others = [i for i in range(params.n) if i != failed]
                for helpers in itertools.combinations(others, params.d):
                    chunk, metrics = run_regeneration(
                        state, failed, ExplicitOrder(helpers)
                    )
                    assert metrics.outcome == SUCCESS
                    assert metrics.nodes_contacted == params.d
                    assert np.array_equal(chunk, truth), (failed, helpers)
        assert time.perf_counter() - t0 < 5.0


# criterion 3 -----------------------------------------------------------


def test_byzantine_reconstruction_budget():
    with criterion(3, "Byzantine reconstruction budget, MSR and MBR"):
        # exhaustive at the small instances: every corruption set of the
        # tolerated size, worst-case access order (corrupt nodes first)
        for params, budget in [
            (MsrParams(6, 3, 4, 2, F16), (6 - 4) // 2),
            (MbrParams(6, 3, 4, 2, F16), (6 - 3) // 2),
        ]:
            assert budget == 1
            base, payload = full_frame_state(params, r=16, seed=3)
            for byz in itertools.combinations(range(6), budget):
                state = inject(
                    base, FaultPlan(byzantine=set(byz), strategy=RandomCorruption())
                )
                out, metrics = run_reconstruction(state, Adversarial())
                assert metrics.outcome == SUCCESS, byz
                assert np.array_equal(out, payload), byz

        # randomized spot-check at [100,20,38] over GF(2^11): 31 corrupt
        t0 = time.perf_counter()
        params = MsrParams(100, 20, 38, 1, GF(11))
        budget = (100 - 38) // 2
        assert budget == 31
        base, payload = full_frame_state(params, seed=33)
        for trial in range(100):
            rng = random.Random(trial)
            byz = set(rng.sample(range(100), budget))
            base.rng_seed = trial
            state = inject(
                base, FaultPlan(byzantine=byz, strategy=RandomCorruption())
            )
            out, metrics = run_reconstruction(state, SeededRandom(trial))
            assert metrics.outcome == SUCCESS, trial  # zero wrong or failed
            assert np.array_equal(out, payload), trial
        assert time.perf_counter() - t0 < 60.0


# criterion 4 -----------------------------------------------------------


def regen_budget(params, r: int) -> int:
    k_prime = coded_layout(params.n, r).k_prime
    return min((params.n - params.d) // 2, (params.d - k_prime) // 2)


def test_byzantine_regeneration_budget_coded():
    with criterion(4, "Byzantine regeneration budget, coded checksums"):
        # exhaustive on small instances; r=16 keeps the accidental-collision
        # probability of a wrong round-one candidate at 2^-16 per attempt
        for params, r in [
            (MsrParams(13, 5, 8, 1, GF(6)), 16),
            (MbrParams(11, 4, 6, 1, F16), 16),
        ]:
            budget = regen_budget(params, r)
            assert budget >= 1
            base, _ = full_frame_state(params, CODED, r=r, seed=4)
            for failed in range(params.n):
                truth = base.nodes[failed].chunk
                others = [i for i in range(params.n) if i != failed]
                for byz in itertools.combinations(others, budget):
                    state = inject(
                        base,
                        FaultPlan(byzantine=set(byz), strategy=RandomCorruption()),
                    )
                    chunk, metrics = run_regeneration(state, failed, Adversarial())
                    assert metrics.outcome == SUCCESS, (failed, byz)
                    assert np.array_equal(chunk, truth), (failed, byz)

        # randomized at [100,20,38]: 10^3 trials, zero failures in budget
        params = MsrParams(100, 20, 38, 1, GF(11))
        budget = regen_budget(params, 32)
        assert budget == 16
        base, _ = full_frame_state(params, CODED, seed=44)
        for trial in range(1000):
            rng = random.Random(trial)
            failed = rng.randrange(100)
            byz = set(rng.sample([i for i in range(100) if i != failed], budget))
            base.rng_seed = trial
            state = inject(
                base, FaultPlan(byzantine=byz, strategy=RandomCorruption())
            )
            chunk, metrics = run_regeneration(state, failed, SeededRandom(trial))
            assert metrics.outcome == SUCCESS, trial
            assert np.array_equal(chunk, base.nodes[failed].chunk), trial


# criterion 5 -----------------------------------------------------------


def coded_shares(layout, failed: int, checksum: int, holders) -> dict:
    msg = layout.checksum_to_message(checksum)
    cw = encode_eval(msg, layout.code)
    out = {}
    for j in holders:
        pos = j - 1 if j > failed else j
        out[j] = cw[pos]
    return out


def test_checksum_recovery_thresholds():
    with criterion(5, "checksum recovery thresholds are sharp"):
        crc = CrcParams(32)
        truth, forged_value = 0xDEADBEEF, 0x01020304
        # replicated: exhaustive over colluding-forgery placements, d <= 7
        for d in range(1, 8):
            holders = list(range(1, d + 1))
            budget = (d - 1) // 2
            for bad in itertools.combinations(holders, budget):
                responses = {
                    j: (forged_value if j in bad else truth) for j in holders
                }
                assert recover_checksum(responses, 0, REPLICATED, 20, crc) == truth
            # one more forged share defeats recovery (wrong value or no majority)
            bad = set(holders[: budget + 1])
            responses = {j: (forged_value if j in bad else truth) for j in holders}
            try:
                got = recover_checksum(responses, 0, REPLICATED, 20, crc)
                assert got != truth, d
            except NoMajority:
                pass

        # coded: randomized sweep within budget, constructed defeat beyond it
        rng = random.Random(55)
        for n, r in [(9, 8), (13, 8), (40, 16), (100, 32)]:
            layout = coded_layout(n, r)
            failed = rng.randrange(n)
            peers = [j for j in range(n) if j != failed]
            cksum = rng.randrange(1 << r)
            for _ in range(60):
                d = rng.randrange(layout.k_prime, n - 1 + 1)
                holders = rng.sample(peers, d)
                honest = coded_shares(layout, failed, cksum, holders)
                budget = (d - layout.k_prime) // 2
                bad = rng.sample(holders, budget)
                for j in bad:
                    honest[j] ^= 1 + rng.randrange((1 << layout.m_prime) - 1)
                got = recover_checksum(honest, failed, CODED, n, CrcParams(r))
                assert got == cksum, (n, r, d)
                # budget+1 shares consistent with a different checksum defeat it
                wrong = coded_shares(layout, failed, cksum ^ 1, holders)
                defeated = coded_shares(layout, failed, cksum, holders)
                for j in holders[: budget + 1]:
                    defeated[j] = wrong[j]
                try:
                    got = recover_checksum(defeated, failed, CODED, n, CrcParams(r))
                    assert got != cksum, (n, r, d)
                except DecodeFailure:
                    pass


# criterion 6 -----------------------------------------------------------


def analyze_lines(*argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli_main(["analyze", *argv]) == 0
    return buf.getvalue()


def test_headline_figure_reproduction():
    with criterion(6, "headline figures for [100,20,38]"):
        out = analyze_lines("--family", "msr", "--n", "100", "--k", "20", "--d", "38")
        assert "alpha=19" in out
        assert "B=380" in out
        assert "storage_reconstruction_pct=0.77%" in out
        out = analyze_lines(
            "--family", "msr", "--n", "100", "--k", "20", "--d", "38",
            "--beta", "1000",
        )
        assert "storage_regeneration_replicated_pct=1.52%" in out
        assert "bandwidth_regeneration_replicated_pct=0.29%" in out


# criterion 7 -----------------------------------------------------------


def test_cut_set_bound_equality():
    with criterion(7, "constructed codes meet the cut-set bound with equality"):
        rng = random.Random(7)
        field = GF(8)
        for _ in range(50):
            k = rng.randrange(2, 9)
            d = 2 * k - 2
            n = rng.randrange(d + 1, d + 10)
            params = MsrParams(n, k, d, 1, field)
            assert cut_set_bound(n, k, d, params.alpha, 1) == params.B
        for _ in range(50):
            k = rng.randrange(1, 9)
            d = rng.randrange(k, k + 8)
            n = rng.randrange(d + 1, d + 10)
            params = MbrParams(n, k, d, 1, field)
            assert cut_set_bound(n, k, d, params.alpha, 1) == params.B


# criterion 8 -----------------------------------------------------------


def test_rs_decoder_sharpness():
    with criterion(8, "RS error-erasure decoding sharp at 2v+s <= n-dim"):
        params = RsParams(15, 4, F16)
        two_t = 15 - 4
        loads = [
            (v, s)
            for v in range(two_t // 2 + 1)
            for s in range(two_t - 2 * v + 1)
        ]
        # from-scratch syndrome matrix in scalar arithmetic, not RsParams.synd
        synd = [
            [F16.mul(params.w[p], F16.pow(params.points[p], j)) for j in range(two_t)]
            for p in range(15)
        ]
        rng = random.Random(8)
        cases = 0
        while cases < 10_000:
            v, s = loads[cases % len(loads)]
            msg = [rng.randrange(16) for _ in range(4)]
            cw = encode_eval(msg, params)
            positions = list(range(15))
            rng.shuffle(positions)
            erased, errored = positions[:s], positions[s : s + v]
            received = {
                p: cw[p] for p in range(15) if p not in erased
            }
            for p in errored:
                received[p] ^= 1 + rng.randrange(15)
            batch = decode_error_erasure(ReceivedWord(dict(received)), params)
            assert batch.codeword == cw, (v, s)
            assert batch.error_positions == set(errored)
            # same symbols delivered progressively on a random schedule;
            # once the full set is absorbed the outcome must equal batch
            # (a partial prefix may legally decode to another codeword)
            dec = ProgressiveDecoder(params)
            pending = list(received.items())
            rng.shuffle(pending)
            while pending:
                take = min(len(pending), rng.randrange(1, 6))
                dec.absorb(dict(pending[:take]))
                del pending[:take]
                if pending:
                    try:
                        dec.attempt()
                    except DecodeFailure:
                        pass
            assert np.array_equal(F16.matmul(dec.word, synd)[0], dec.syndromes)
            outcome = dec.attempt()
            assert outcome.codeword == batch.codeword, (v, s)
            assert outcome.error_positions == batch.error_positions
            cases += 1


# criterion 9 -----------------------------------------------------------


def test_colluding_forgery_strength():
    with criterion(9, "zero-CRC collusion: b colluders win, b-1 cannot"):
        params = MsrParams(6, 3, 4, 8, F16)
        b = -((6 - 4 + 2) // -2)  # smallest colluder count that can win
        assert b == 2
        base, payload = full_frame_state(params, seed=9)
        forgery = build_msr_zero_crc_forgery(base, [0, 3])
        state = inject(base, FaultPlan(byzantine={0, 3}, strategy=forgery))
        out, metrics = run_reconstruction(state, Adversarial())
        assert metrics.outcome == SUCCESS  # CRC accepted the forged frame
        assert not np.array_equal(out, payload)  # ...and it is wrong

        solo = build_msr_zero_crc_forgery(base, [0])
        state = inject(base, FaultPlan(byzantine={0}, strategy=solo))
        wrong = 0
        for order in itertools.permutations(range(6)):
            out, metrics = run_reconstruction(state, ExplicitOrder(order))
            if metrics.outcome == SUCCESS and not np.array_equal(out, payload):
                wrong += 1
        assert wrong == 0


# criterion 10 ----------------------------------------------------------


def test_bandwidth_accounting():
    with criterion(10, "repair downloads d*beta symbols; 10x saving at scale"):
        for params in [MsrParams(6, 3, 4, 3, F16), MbrParams(6, 3, 4, 2, F16)]:
            state, _ = full_frame_state(params, seed=12)
            chunk, metrics = run_regeneration(state, 2, SeededRandom(1))
            assert metrics.outcome == SUCCESS
            assert metrics.symbols_downloaded == params.d * params.beta

        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "sim.cfg"
            cfg.write_text(
                "family=msr\nn=100\nk=20\nd=38\nbeta=1\nm=11\nseed=0\n"
                "trials=1\noperation=regenerate\nfailed=7\n"
            )
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert cli_main(["simulate", "--config", str(cfg)]) == 0
            report = buf.getvalue()
        assert "symbols_downloaded=38" in report
        assert "repair_download_symbols=38" in report
        assert "reconstruct_download_symbols=380" in report
        assert "bandwidth_saving=10.00x" in report


ALL = [
    test_any_k_reconstruction_msr,
    test_exact_regeneration_all_helper_subsets,
    test_byzantine_reconstruction_budget,
    test_byzantine_regeneration_budget_coded,
    test_checksum_recovery_thresholds,
    test_headline_figure_reproduction,
    test_cut_set_bound_equality,
    test_rs_decoder_sharpness,
    test_colluding_forgery_strength,
    test_bandwidth_accounting,
]

if __name__ == "__main__":
    failures = 0
    for fn in ALL:
        try:
            fn()
        except BaseException as exc:  # keep going; report every criterion
            failures += 1
            print(f"  {type(exc).__name__}: {exc}")
    raise SystemExit(1 if failures else 0)
