"""Codec tests backed by brute-force and polynomial-evaluation oracles."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from regencode import GF, DecodeFailure, DuplicatePosition, InvalidParams, LengthMismatch, SingularMatrix
from regencode.rscode import (
    DecodeOutcome,
    ProgressiveDecoder,
    ReceivedWord,
    RsParams,
    decode_error_erasure,
    encode_eval,
    gf_inverse,
    invert_submatrix,
    vandermonde,
)


def oracle_encode(field, message, n):
    """Oracle: evaluate the message polynomial term by term (no Horner)."""
    out = []
    for p in range(n):
        x = field.exp[p]
        acc = 0
        for j, u in enumerate(message):
            acc ^= field.mul(u, field.pow(x, j))
        out.append(acc)
    return out


def oracle_solve(field, A, rhs):
    """Oracle: solve a square system by elimination, independent of the lib."""
    nn = len(rhs)
    M = [list(row) + [r] for row, r in zip(A, rhs)]
    for col in range(nn):
        piv = next(r for r in range(col, nn) if M[r][col])
        M[col], M[piv] = M[piv], M[col]
        s = field.inv(M[col][col])
        M[col] = [field.mul(s, x) for x in M[col]]
        for r in range(nn):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [x ^ field.mul(f, y) for x, y in zip(M[r], M[col])]
    return [M[r][nn] for r in range(nn)]


def recomputed_syndromes(dec):
    """Oracle: a decoder's syndromes from scratch as one field matrix
    product over a matrix built in scalar arithmetic (entry (p, j) is
    w_p·(a^p)^j); must match its incremental state."""
    params = dec.params
    field = params.field
    H = [
        [field.mul(params.w[p], field.pow(params.points[p], j)) for j in range(params.two_t)]
        for p in range(params.n)
    ]
    S = field.matmul(dec.word, np.array(H, dtype=np.int64))
    return S[0] if dec.rows is None else S


def is_codeword(field, word, dim):
    """Oracle: interpolate through the first dim points, check the rest."""
    A = [[field.pow(field.exp[p], j) for j in range(dim)] for p in range(dim)]
    msg = oracle_solve(field, A, word[:dim])
    return oracle_encode(field, msg, len(word)) == list(word)


@pytest.fixture(scope="module")
def gf16():
    return GF(4)


@pytest.fixture(scope="module")
def gf8():
    return GF(3)


@pytest.fixture(scope="module")
def rs15_4(gf16):
    return RsParams(15, 4, gf16)


def test_params_validation(gf16):
    with pytest.raises(InvalidParams):
        RsParams(16, 4, gf16)  # only 15 nonzero points exist
    with pytest.raises(InvalidParams):
        RsParams(10, 0, gf16)
    with pytest.raises(InvalidParams):
        RsParams(4, 5, gf16)


def test_encode_matches_oracle(rs15_4, gf16):
    rng = random.Random(21)
    assert encode_eval([0, 0, 0, 0], rs15_4) == [0] * 15
    assert encode_eval([7, 0, 0, 0], rs15_4) == [7] * 15
    for _ in range(50):
        msg = [rng.randrange(16) for _ in range(4)]
        assert encode_eval(msg, rs15_4) == oracle_encode(gf16, msg, 15)
    msgs = [[rng.randrange(16) for _ in range(4)] for _ in range(7)]
    assert encode_eval(msgs, rs15_4).tolist() == [oracle_encode(gf16, m, 15) for m in msgs]
    with pytest.raises(LengthMismatch):
        encode_eval([1, 2, 3], rs15_4)
    with pytest.raises(LengthMismatch):
        encode_eval([[1, 2, 3]], rs15_4)


def test_full_length_codewords_have_consecutive_roots(gf16):
    # At n == 2^m - 1 the evaluation code is the cyclic code whose
    # codeword polynomials vanish at a^1 ... a^{n-dim}.
    params = RsParams(15, 11, gf16)
    rng = random.Random(3)
    msg = [rng.randrange(16) for _ in range(11)]
    c = encode_eval(msg, params)
    for j in range(1, 5):
        x = gf16.exp[j]
        acc = 0
        for p, cp in enumerate(c):
            acc ^= gf16.mul(cp, gf16.pow(x, p))
        assert acc == 0, j


def test_vandermonde_structure(rs15_4, gf16):
    G = vandermonde(rs15_4)
    assert G.shape == (4, 15)
    assert (G[0] == 1).all()
    assert (G[:, 0] == 1).all()
    for r in range(4):
        for c in range(15):
            assert G[r, c] == gf16.pow(gf16.exp[c], r)


def test_random_column_subsets_invertible(rs15_4, gf16):
    G = vandermonde(rs15_4)
    rng = random.Random(5)
    for _ in range(40):
        cols = rng.sample(range(15), 4)
        inv = invert_submatrix(G, cols, gf16)
        # multiply back with a naive product loop
        sub = G[:, cols]
        for i in range(4):
            for j in range(4):
                acc = 0
                for t in range(4):
                    acc ^= gf16.mul(int(sub[i, t]), int(inv[t, j]))
                assert acc == (1 if i == j else 0)


def test_invert_submatrix_validation(rs15_4, gf16):
    G = vandermonde(rs15_4)
    with pytest.raises(InvalidParams):
        invert_submatrix(G, [0, 1, 2], gf16)
    with pytest.raises(InvalidParams):
        invert_submatrix(G, [0, 1, 2, 2], gf16)
    with pytest.raises(SingularMatrix):
        gf_inverse(gf16, [[1, 2], [1, 2]])


def corrupt(rng, field, codeword, erase, flip):
    """Build a received map with the given erasure and error counts."""
    n = len(codeword)
    positions = rng.sample(range(n), erase + flip)
    erased = set(positions[:erase])
    flipped = set(positions[erase:])
    symbols = {}
    for p in range(n):
        if p in erased:
            continue
        y = codeword[p]
        if p in flipped:
            y ^= rng.randrange(1, field.q)
        symbols[p] = y
    return symbols, erased, flipped


def test_decode_within_budget_exhaustive_loads(rs15_4, gf16):
    rng = random.Random(31)
    for s in range(12):
        for v in range((11 - s) // 2 + 1):
            for _ in range(8):
                msg = [rng.randrange(16) for _ in range(4)]
                cw = encode_eval(msg, rs15_4)
                symbols, erased, flipped = corrupt(rng, gf16, cw, s, v)
                out = decode_error_erasure(ReceivedWord(symbols), rs15_4)
                assert out.codeword == cw, (s, v)
                assert out.error_positions == flipped
                assert out.corrected_count == v


def test_decode_beyond_budget_never_silently_invalid(rs15_4, gf16):
    rng = random.Random(37)
    wrong_but_valid = 0
    for _ in range(300):
        s = rng.randrange(0, 8)
        v = (11 - s) // 2 + 1 + rng.randrange(0, 2)
        msg = [rng.randrange(16) for _ in range(4)]
        cw = encode_eval(msg, rs15_4)
        symbols, _, _ = corrupt(rng, gf16, cw, s, v)
        try:
            out = decode_error_erasure(ReceivedWord(symbols), rs15_4)
        except DecodeFailure:
            continue
        # If anything is returned it must at least be a codeword; the
        # caller-level checksum is what rejects a wrong one.
        assert is_codeword(gf16, out.codeword, 4)
        if out.codeword != cw:
            wrong_but_valid += 1
    # Some overload cases must actually raise rather than miscorrect.
    assert wrong_but_valid < 300


def test_erasure_only_interpolation(rs15_4, gf16):
    rng = random.Random(41)
    for _ in range(30):
        msg = [rng.randrange(16) for _ in range(4)]
        cw = encode_eval(msg, rs15_4)
        symbols, _, _ = corrupt(rng, gf16, cw, 11, 0)
        out = decode_error_erasure(ReceivedWord(symbols), rs15_4)
        assert out.codeword == cw
        assert out.corrected_count == 0
    # one more erasure than the parity budget
    msg = [rng.randrange(16) for _ in range(4)]
    cw = encode_eval(msg, rs15_4)
    symbols, _, _ = corrupt(rng, gf16, cw, 12, 0)
    with pytest.raises(DecodeFailure):
        decode_error_erasure(ReceivedWord(symbols), rs15_4)


def test_brute_force_oracle_small_code(gf8):
    """Every decode on [7,3] must match exhaustive nearest-codeword search."""
    params = RsParams(7, 3, gf8)
    codebook = {}
    for msg in itertools.product(range(8), repeat=3):
        codebook[tuple(oracle_encode(gf8, list(msg), 7))] = msg
    rng = random.Random(43)
    for _ in range(250):
        s = rng.randrange(0, 5)
        v = rng.randrange(0, (4 - s) // 2 + 1)
        cw = rng.choice(list(codebook))
        symbols, _, _ = corrupt(rng, gf8, list(cw), s, v)
        # oracle: codewords within v flips of the received symbols
        matches = [
            c
            for c in codebook
            if sum(1 for p, y in symbols.items() if c[p] != y) <= v
        ]
        assert matches == [cw], "oracle uniqueness"
        out = decode_error_erasure(ReceivedWord(symbols), params)
        assert tuple(out.codeword) == cw


def test_mds_minimum_distance_exhaustive(gf8):
    params = RsParams(7, 2, gf8)
    words = [tuple(encode_eval([a, b], params)) for a in range(8) for b in range(8)]
    for w1, w2 in itertools.combinations(words, 2):
        dist = sum(1 for x, y in zip(w1, w2) if x != y)
        assert dist >= 6


def test_decode_is_translation_invariant(rs15_4, gf16):
    rng = random.Random(47)
    msg1 = [rng.randrange(16) for _ in range(4)]
    msg2 = [rng.randrange(16) for _ in range(4)]
    c1 = encode_eval(msg1, rs15_4)
    c2 = encode_eval(msg2, rs15_4)
    symbols, _, flipped = corrupt(rng, gf16, c1, 3, 2)
    shifted = {p: y ^ c2[p] for p, y in symbols.items()}
    out1 = decode_error_erasure(ReceivedWord(symbols), rs15_4)
    out2 = decode_error_erasure(ReceivedWord(shifted), rs15_4)
    assert [x ^ y for x, y in zip(out1.codeword, c2)] == out2.codeword
    assert out2.error_positions == flipped


def test_progressive_matches_batch_on_many_schedules(rs15_4, gf16):
    rng = random.Random(53)
    for _ in range(60):
        s = rng.randrange(0, 12)
        v = rng.randrange(0, (11 - s) // 2 + 1)
        msg = [rng.randrange(16) for _ in range(4)]
        cw = encode_eval(msg, rs15_4)
        symbols, _, _ = corrupt(rng, gf16, cw, s, v)
        items = list(symbols.items())
        rng.shuffle(items)
        state = ProgressiveDecoder(rs15_4)
        i = 0
        rounds = 0
        while i < len(items):
            step = rng.randrange(1, 5)
            state.absorb(dict(items[i : i + step]))
            i += step
            rounds += 1
            assert state.syndromes.tolist() == recomputed_syndromes(state).tolist()
            if i < len(items):
                # mid-stream attempts may fail but must never corrupt state
                try:
                    state.attempt()
                except DecodeFailure:
                    pass
        assert state.round == rounds
        batch = decode_error_erasure(ReceivedWord(symbols), rs15_4)
        final = state.attempt()
        assert final.codeword == batch.codeword == cw
        assert final.error_positions == batch.error_positions


def test_duplicate_position_rejected(rs15_4):
    state = ProgressiveDecoder(rs15_4)
    state.absorb({0: 3, 1: 5})
    with pytest.raises(DuplicatePosition):
        state.absorb({1: 5})
    with pytest.raises(InvalidParams):
        state.absorb({15: 1})
    with pytest.raises(InvalidParams):
        state.absorb({2: 16})


def test_received_word_validation(rs15_4):
    with pytest.raises(InvalidParams):
        decode_error_erasure(ReceivedWord({0: 1}, erasures={0}), rs15_4)
    with pytest.raises(InvalidParams):
        decode_error_erasure(ReceivedWord({0: 1}, erasures={20}), rs15_4)


def test_zero_dimension_redundancy_free_code(gf16):
    # n == dim: no parity at all; decoding is the identity on full reads.
    params = RsParams(6, 6, gf16)
    msg = [1, 2, 3, 4, 5, 6]
    cw = encode_eval(msg, params)
    out = decode_error_erasure(ReceivedWord(dict(enumerate(cw))), params)
    assert out.codeword == cw
    with pytest.raises(DecodeFailure):
        decode_error_erasure(ReceivedWord({p: cw[p] for p in range(5)}), params)


# -- block decoder and vectorised inverse against scalar oracles --------------


def scalar_inverse(field, M):
    """Oracle: Gauss-Jordan elimination one scalar at a time."""
    nn = len(M)
    a = [[int(x) for x in row] for row in M]
    inv = [[1 if i == j else 0 for j in range(nn)] for i in range(nn)]
    for col in range(nn):
        piv = next((r for r in range(col, nn) if a[r][col]), None)
        if piv is None:
            raise SingularMatrix(f"no pivot in column {col}")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = field.inv(a[col][col])
        a[col] = [field.mul(scale, x) for x in a[col]]
        inv[col] = [field.mul(scale, x) for x in inv[col]]
        for r in range(nn):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x ^ field.mul(f, y) for x, y in zip(a[r], a[col])]
                inv[r] = [x ^ field.mul(f, y) for x, y in zip(inv[r], inv[col])]
    return inv


def _poly_mul(field, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] ^= field.mul(ai, bj)
    return out


def _poly_eval(field, poly, x):
    acc = 0
    for c in reversed(poly):
        acc = field.mul(acc, x) ^ c
    return acc


def _poly_add_scaled_shifted(field, a, b, scale, shift):
    out = list(a) + [0] * max(0, shift + len(b) - len(a))
    for j, bj in enumerate(b):
        out[shift + j] ^= field.mul(scale, bj)
    return out


class ScalarDecoder:
    """Oracle: one row, every step in scalar field arithmetic — syndromes,
    erasure locator, Berlekamp-Massey, Chien search by evaluation at every
    inverse point, Forney."""

    def __init__(self, params):
        self.params = params
        self.received = {}

    def absorb(self, symbols):
        self.received.update({int(p): int(y) for p, y in symbols.items()})

    def attempt(self):
        params = self.params
        field = params.field
        n, two_t = params.n, params.two_t
        S = [0] * two_t
        for p, y in self.received.items():
            for j in range(two_t):
                S[j] ^= field.mul(y, field.mul(params.w[p], field.pow(params.points[p], j)))
        erased = [p for p in range(n) if p not in self.received]
        s = len(erased)
        if s > two_t:
            raise DecodeFailure("too many erasures")
        gamma = [1]
        for p in erased:
            gamma = _poly_mul(field, gamma, [1, params.points[p]])
        lam, B, L, b, gap = list(gamma), list(gamma), s, 1, 1
        for r in range(s, two_t):
            d = 0
            for jj, lj in enumerate(lam):
                if jj <= r:
                    d ^= field.mul(lj, S[r - jj])
            if d == 0:
                gap += 1
            elif 2 * L <= r + s:
                T = _poly_add_scaled_shifted(field, lam, B, field.div(d, b), gap)
                B, b, L, gap, lam = lam, d, r + 1 + s - L, 1, T
            else:
                lam = _poly_add_scaled_shifted(field, lam, B, field.div(d, b), gap)
                gap += 1
        if 2 * (L - s) + s > two_t:
            raise DecodeFailure("over budget")
        while len(lam) > 1 and lam[-1] == 0:
            lam.pop()
        deg = len(lam) - 1
        if deg != L:
            raise DecodeFailure("inconsistent locator")
        roots = [p for p in range(n) if _poly_eval(field, lam, field.inv(params.points[p])) == 0]
        if len(roots) != deg:
            raise DecodeFailure("missing roots")
        omega = (_poly_mul(field, lam, S) if S else [0])[:two_t] or [0]
        deriv = [lam[j] if j % 2 else 0 for j in range(1, deg + 1)] or [0]
        codeword = [self.received.get(p, 0) for p in range(n)]
        errors = set()
        for p in roots:
            xinv = field.inv(params.points[p])
            den = field.mul(params.w[p], _poly_eval(field, deriv, xinv))
            if den == 0:
                raise DecodeFailure("vanishing derivative")
            e = field.mul(params.points[p], field.div(_poly_eval(field, omega, xinv), den))
            if p in self.received:
                if e == 0:
                    raise DecodeFailure("zero magnitude")
                errors.add(p)
            codeword[p] ^= e
        return DecodeOutcome(codeword, errors, len(errors))


def test_gf_inverse_matches_scalar_oracle():
    rng = np.random.default_rng(61)
    for m, size, trials in ((4, 4, 60), (8, 19, 10), (11, 38, 3)):
        field = GF(m)
        for _ in range(trials):
            M = rng.integers(0, field.q, (size, size))
            try:
                want = scalar_inverse(field, M.tolist())
            except SingularMatrix:
                with pytest.raises(SingularMatrix):
                    gf_inverse(field, M)
                continue
            assert gf_inverse(field, M).tolist() == want
    with pytest.raises(SingularMatrix):
        gf_inverse(GF(4), [[0, 0], [3, 1]])


def test_scalar_oracle_agrees_with_batch_decode(rs15_4, gf16):
    rng = random.Random(67)
    for _ in range(40):
        s = rng.randrange(0, 12)
        v = rng.randrange(0, (11 - s) // 2 + 2)
        cw = encode_eval([rng.randrange(16) for _ in range(4)], rs15_4)
        symbols, _, _ = corrupt(rng, gf16, cw, s, v)
        oracle = ScalarDecoder(rs15_4)
        oracle.absorb(symbols)
        try:
            want = oracle.attempt()
        except DecodeFailure:
            with pytest.raises(DecodeFailure):
                decode_error_erasure(ReceivedWord(symbols), rs15_4)
            continue
        got = decode_error_erasure(ReceivedWord(symbols), rs15_4)
        assert got.codeword == want.codeword
        assert got.error_positions == want.error_positions


def assert_block_matches_oracles(block, oracles):
    """The block attempt equals one scalar decode per row: codewords, the
    union of errors, the total count, and DecodeFailure if any row fails."""
    wants = []
    for dec in oracles:
        try:
            wants.append(dec.attempt())
        except DecodeFailure:
            wants.append(None)
    if any(w is None for w in wants):
        with pytest.raises(DecodeFailure):
            block.attempt()
        return False
    got = block.attempt()
    assert got.codeword.tolist() == [w.codeword for w in wants]
    assert got.error_positions == set().union(*(w.error_positions for w in wants))
    assert got.corrected_count == sum(w.corrected_count for w in wants)
    return True


@pytest.mark.parametrize("seed", range(6))
def test_block_decoder_matches_one_scalar_decoder_per_row(seed):
    # rows share the received positions; each row gets its own mix: clean,
    # erasure-only at a different budget use, within-budget errors, or more
    # errors than the budget allows.  Symbols arrive over several rounds and
    # every round's attempt is compared.
    rng = np.random.default_rng(seed)
    field = GF(5)
    params = RsParams(20, 8, field)
    rows = 24
    cw = np.array([encode_eval(rng.integers(0, 32, 8).tolist(), params) for _ in range(rows)])
    order = rng.permutation(params.n).tolist()
    budget = params.two_t
    # 0 clean, 1 within budget, 2 over budget; half the seeds have no row
    # over budget, so that whole-block successes get compared too
    kinds = rng.integers(0, 2 + seed % 2, rows)
    words = cw.copy()
    for r in range(rows):
        if kinds[r]:
            v = int(rng.integers(1, 4)) if kinds[r] == 1 else budget
            for p in rng.choice(params.n, size=v, replace=False):
                words[r, p] ^= int(rng.integers(1, 32))
    block = ProgressiveDecoder(params, rows)
    oracles = [ScalarDecoder(params) for _ in range(rows)]
    start = 0
    while start < params.n:
        step = int(rng.integers(1, 6))
        batch = order[start : start + step]
        start += step
        block.absorb({p: words[:, p] for p in batch})
        for r, dec in enumerate(oracles):
            dec.absorb({p: words[r, p] for p in batch})
        assert np.array_equal(block.syndromes, recomputed_syndromes(block))
        assert_block_matches_oracles(block, oracles)


@pytest.mark.parametrize("seed", range(8))
def test_block_decoder_on_shared_column_errors(seed):
    # A Byzantine node corrupts its whole chunk, so the rows share one set
    # of error columns.  Per row: 0 clean, 1 every shared column corrupted,
    # 2 each shared column corrupted with probability 1/2 (the rest keep
    # the true value), 3 as 2 plus one private error elsewhere.  Odd seeds
    # add one row over budget.  Up to 5 shared columns of a budget of 8
    # errors, so private errors push the union of located errors past it.
    rng = np.random.default_rng(300 + seed)
    field = GF(5)
    params = RsParams(24, 8, field)
    rows = 40
    cw = encode_eval(rng.integers(0, 32, (rows, 8)), params)
    shared = rng.choice(params.n, size=2 + seed % 4, replace=False)
    kinds = rng.integers(0, 4, rows)
    kinds[0] = seed % 4
    words = cw.copy()
    for r in range(rows):
        cols = shared if kinds[r] == 1 else shared[rng.random(shared.size) < 0.5]
        if kinds[r] == 3:
            cols = np.append(cols, rng.choice(np.setdiff1d(np.arange(params.n), shared)))
        if kinds[r]:
            words[r, cols] ^= rng.integers(1, 32, cols.size)
    if seed % 2:
        r = int(rng.integers(1, rows))
        cols = rng.choice(params.n, size=params.two_t // 2 + 1, replace=False)
        words[r, cols] ^= rng.integers(1, 32, cols.size)
    block = ProgressiveDecoder(params, rows)
    oracles = [ScalarDecoder(params) for _ in range(rows)]
    order = rng.permutation(params.n).tolist()
    successes = 0
    while order:
        step = int(rng.integers(1, 5))
        batch, order = order[:step], order[step:]
        block.absorb({p: words[:, p] for p in batch})
        for r, dec in enumerate(oracles):
            dec.absorb({p: words[r, p] for p in batch})
        successes += assert_block_matches_oracles(block, oracles)
    assert successes or seed % 2  # a row over budget may fail every round


def test_shared_error_columns_run_few_berlekamp_massey(monkeypatch):
    # the point of the located set: rows that share their error columns are
    # filled by one Forney step, not decoded one by one
    calls = []
    decode_row = ProgressiveDecoder._decode_row
    monkeypatch.setattr(ProgressiveDecoder, "_decode_row",
                        lambda self, r, *args: calls.append(r) or decode_row(self, r, *args))
    rng = np.random.default_rng(71)
    params = RsParams(24, 8, GF(5))
    rows, cols = 40, np.array([3, 11, 17, 20])
    cw = encode_eval(rng.integers(0, 32, (rows, 8)), params)
    for keep in (0.0, 0.5):  # share of corrupted-column symbols left intact
        words = cw.copy()
        flip = rng.random((rows, cols.size)) >= keep
        words[:, cols] ^= np.where(flip, rng.integers(1, 32, (rows, cols.size)), 0)
        block = ProgressiveDecoder(params, rows)
        block.absorb({p: words[:, p] for p in range(params.n) if p != 5})
        calls.clear()
        out = block.attempt()
        assert out.codeword.tolist() == cw.tolist()
        assert out.error_positions == set(cols[flip.any(axis=0)].tolist())
        assert out.corrected_count == flip.sum()
        # each row decoded alone adds at least one column to the located set
        assert 1 <= len(calls) <= cols.size and calls[0] == 0
    # over budget in every row: the attempt fails after one decode
    words = cw.copy()
    words[:, : params.two_t // 2 + 1] ^= 1
    block = ProgressiveDecoder(params, rows)
    block.absorb({p: words[:, p] for p in range(params.n)})
    calls.clear()
    with pytest.raises(DecodeFailure):
        block.attempt()
    assert calls == [0]


def test_block_decoder_validates_blocks(rs15_4):
    block = ProgressiveDecoder(rs15_4, 3)
    block.absorb({0: [1, 2, 3]})
    with pytest.raises(LengthMismatch):
        block.absorb({1: [1, 2]})
    with pytest.raises(DuplicatePosition):
        block.absorb({0: [1, 2, 3]})
    with pytest.raises(InvalidParams):
        block.absorb({2: [1, 16, 3]})
    assert block.have.sum() == 1
