"""Codec tests backed by brute-force and polynomial-evaluation oracles."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from regencode import GF, ClusterExhausted, DecodeFailure, DuplicatePosition, InvalidParams, LengthMismatch, SingularMatrix, rscode
from regencode.integrity import coded_layout
from regencode.rscode import (
    ProgressiveDecoder,
    ReceivedWord,
    RsParams,
    _barycentric,
    decode_error_erasure,
    encode_eval,
    gf_inverse,
    vandermonde_inverse,
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
        s = field.pow(M[col][col], -1)
        M[col] = [field.mul(s, x) for x in M[col]]
        for r in range(nn):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [x ^ field.mul(f, y) for x, y in zip(M[r], M[col])]
    return [M[r][nn] for r in range(nn)]


def recomputed_syndromes(dec):
    """Oracle: a decoder's syndromes from scratch as one field matrix
    product over a matrix built in scalar arithmetic (entry (p, j) is
    w_p·(a^p)^j); must match its syndromes property."""
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
    G = rs15_4.G
    assert G.shape == (4, 15)
    assert (G[0] == 1).all()
    assert (G[:, 0] == 1).all()
    for r in range(4):
        for c in range(15):
            assert G[r, c] == gf16.pow(gf16.exp[c], r)


def test_random_column_subsets_invertible(rs15_4, gf16):
    G = rs15_4.G
    rng = random.Random(5)
    for _ in range(40):
        cols = rng.sample(range(15), 4)
        sub = G[:, cols]
        inv = gf_inverse(gf16, sub)
        # multiply back with a naive product loop
        for i in range(4):
            for j in range(4):
                acc = 0
                for t in range(4):
                    acc ^= gf16.mul(int(sub[i, t]), int(inv[t, j]))
                assert acc == (1 if i == j else 0)


def test_invert_submatrix_validation(rs15_4, gf16):
    G = rs15_4.G
    # too few columns leave the submatrix non-square
    with pytest.raises(InvalidParams):
        gf_inverse(gf16, G[:, [0, 1, 2]])
    # a repeated column leaves the submatrix singular
    with pytest.raises(SingularMatrix):
        gf_inverse(gf16, G[:, [0, 1, 2, 2]])
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
    for _ in range(3000):
        s = rng.randrange(0, 8)
        v = (11 - s) // 2 + 1 + rng.randrange(0, 2)
        msg = [rng.randrange(16) for _ in range(4)]
        cw = encode_eval(msg, rs15_4)
        symbols, _, _ = corrupt(rng, gf16, cw, s, v)
        try:
            out = decode_error_erasure(ReceivedWord(symbols), rs15_4)
        except DecodeFailure:
            continue
        # If anything is returned it must at least be a codeword that agrees
        # with the received word outside the reported errors; the
        # caller-level checksum is what rejects a wrong one.
        got = out.codeword
        assert is_codeword(gf16, got, 4)
        for p, y in symbols.items():
            assert (got[p] != y) == (p in out.error_positions), p
        assert out.error_positions <= symbols.keys()
        assert out.corrected_count == len(out.error_positions)
        if got != cw:
            wrong_but_valid += 1
    # Some overload cases must actually raise rather than miscorrect.
    assert wrong_but_valid < 3000


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
        while i < len(items):
            step = rng.randrange(1, 5)
            state.absorb(dict(items[i : i + step]))
            i += step
            assert state.syndromes.tolist() == recomputed_syndromes(state).tolist()
            if i < len(items):
                # mid-stream attempts may fail but must never corrupt state
                try:
                    state.attempt()
                except DecodeFailure:
                    pass
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
    # the one range check names the offending symbol: a negative one, and an
    # out-of-field one inside a multi-row vector; nothing is absorbed
    with pytest.raises(InvalidParams, match="symbol -1 outside"):
        state.absorb({2: -1})
    block = ProgressiveDecoder(rs15_4, 3)
    with pytest.raises(InvalidParams, match="symbol 17 outside"):
        block.absorb({3: [1, 2, 3], 4: [0, 17, 5]})
    with pytest.raises(InvalidParams, match="symbol -8 outside"):
        block.absorb({3: [1, 2, 3], 4: [0, 15, -8]})
    assert list(state.have.nonzero()[0]) == [0, 1] and not block.have.any()
    # the one-shot decode takes the same checks: every unread position is an
    # erasure, and a position past n (16 symbols for n = 15 need one) raises
    with pytest.raises(InvalidParams):
        decode_error_erasure(ReceivedWord({20: 1}), rs15_4)
    with pytest.raises(InvalidParams):
        decode_error_erasure(ReceivedWord(dict.fromkeys(range(16), 1)), rs15_4)


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
        scale = field.pow(a[col][col], -1)
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


def _div(field, x, y):
    return field.mul(x, field.pow(y, -1))


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


@dataclass
class ScalarOutcome:
    """The scalar oracle's decode, as the codeword it corrects to."""

    codeword: list[int]
    error_positions: set[int]
    corrected_count: int


class ScalarDecoder:
    """Oracle: one row, every step in scalar field arithmetic — syndromes,
    erasure locator, Berlekamp-Massey, Chien search by evaluation at every
    inverse point, Forney."""

    def __init__(self, params):
        self.params = params
        self.received = {}
        self.S = [0] * params.two_t

    def absorb(self, symbols):
        field = self.params.field
        for p, y in symbols.items():
            p, y = int(p), int(y)
            self.received[p] = y
            w, x = int(self.params.w[p]), self.params.points[p]
            for j in range(self.params.two_t):
                self.S[j] ^= field.mul(y, field.mul(w, field.pow(x, j)))

    def attempt(self):
        params = self.params
        field = params.field
        n, two_t = params.n, params.two_t
        S = self.S
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
                T = _poly_add_scaled_shifted(field, lam, B, _div(field, d, b), gap)
                B, b, L, gap, lam = lam, d, r + 1 + s - L, 1, T
            else:
                lam = _poly_add_scaled_shifted(field, lam, B, _div(field, d, b), gap)
                gap += 1
        if 2 * (L - s) + s > two_t:
            raise DecodeFailure("over budget")
        while len(lam) > 1 and lam[-1] == 0:
            lam.pop()
        deg = len(lam) - 1
        if deg != L:
            raise DecodeFailure("inconsistent locator")
        roots = [p for p in range(n) if _poly_eval(field, lam, field.pow(params.points[p], -1)) == 0]
        if len(roots) != deg:
            raise DecodeFailure("missing roots")
        omega = (_poly_mul(field, lam, S) if S else [0])[:two_t] or [0]
        deriv = [lam[j] if j % 2 else 0 for j in range(1, deg + 1)] or [0]
        codeword = [self.received.get(p, 0) for p in range(n)]
        errors = set()
        for p in roots:
            xinv = field.pow(params.points[p], -1)
            den = field.mul(params.w[p], _poly_eval(field, deriv, xinv))
            if den == 0:
                raise DecodeFailure("vanishing derivative")
            e = field.mul(params.points[p], _div(field, _poly_eval(field, omega, xinv), den))
            if p in self.received:
                if e == 0:
                    raise DecodeFailure("zero magnitude")
                errors.add(p)
            codeword[p] ^= e
        return ScalarOutcome(codeword, errors, len(errors))


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


def test_gf_inverse_stack_matches_scalar_oracle():
    # a (3, 2) stack of invertible matrices, some of which need a row swap
    rng = np.random.default_rng(62)
    for m, size in ((4, 4), (11, 19)):
        field = GF(m)
        members, want = [], []
        while len(members) < 6:
            M = rng.integers(0, field.q, (size, size))
            if len(members) % 2:
                M[0, 0] = 0
            try:
                want.append(scalar_inverse(field, M.tolist()))
            except SingularMatrix:
                continue
            members.append(M)
        stack = np.array(members).reshape(3, 2, size, size)
        got = gf_inverse(field, stack)
        assert got.shape == stack.shape
        assert got.reshape(6, size, size).tolist() == want
        stack[2, 0, 1] = stack[2, 0, 0]  # one singular member fails the whole stack
        with pytest.raises(SingularMatrix):
            gf_inverse(field, stack)
    with pytest.raises(InvalidParams):
        gf_inverse(GF(4), np.zeros((2, 3, 2), dtype=np.int64))
    with pytest.raises(InvalidParams):
        gf_inverse(GF(4), [1, 2])


def vandermonde_on(field, x):
    """V[..., r, c] = x_c^r (0^0 = 1) by repeated products, for any stack of x."""
    rows = [np.ones_like(x)]
    for _ in range(1, x.shape[-1]):
        rows.append(field.vmul(rows[-1], x))
    return np.stack(rows, axis=-2)


def test_vandermonde_inverse_matches_gauss_jordan():
    # distinct points in random order, 0 among them on every third draw
    rng = np.random.default_rng(71)

    def points(field, size, *stack):
        x = np.array([1 + rng.choice(field.order, size, replace=False) for _ in range(math.prod(stack))])
        for row in x[::3]:
            row[rng.integers(size)] = 0
        return x.reshape(*stack, size)

    for m in range(2, 17):
        field = GF(m)
        for size in range(1, min(field.order, 24) + 1):
            for stack in ((), (2, 3)) if size % 4 == 1 else ((),):
                x = points(field, size, *stack)
                got = vandermonde_inverse(field, x)
                assert got.shape == x.shape + (size,)
                assert np.array_equal(got, gf_inverse(field, vandermonde_on(field, x))), (m, x)


def test_vandermonde_inverse_byzantine_stack_and_repeats():
    # the MSR fast path's stack on the byzantine code: 20 sets of 19 of the
    # points a^0 .. a^99 over GF(2^11)
    field = GF(11)
    rng = np.random.default_rng(72)
    x = field.power(np.array([rng.choice(100, 19, replace=False) for _ in range(20)]))
    assert np.array_equal(vandermonde_inverse(field, x), gf_inverse(field, vandermonde_on(field, x)))
    for x in ([5, 3, 5], [0, 0], [[1, 2, 3], [4, 6, 4]]):
        with pytest.raises(SingularMatrix):
            vandermonde_inverse(GF(4), x)
        with pytest.raises(SingularMatrix):
            gf_inverse(GF(4), vandermonde_on(GF(4), np.array(x)))


@pytest.mark.parametrize("make", [
    lambda: RsParams(6, 4, GF(8)),  # the healthy workload's row code
    lambda: RsParams(6, 3, GF(8)),
    lambda: RsParams(100, 38, GF(11)),  # the byzantine workload's row code
    lambda: coded_layout(6, 8).code,
    lambda: coded_layout(100, 32).code,
], ids=["6-4", "6-3", "100-38", "coded-r8", "coded-r32"])
def test_messages_invert_encode_eval(make):
    # the decoder's messages are what encode_eval encoded: 6 rows (more
    # rows than dim, or fewer) and one scalar row
    code = make()
    field, dim = code.field, code.dim
    msg = np.random.default_rng(code.n * dim).integers(0, field.q, (2, 3, dim))
    words = encode_eval(msg.reshape(-1, dim), code)
    block = ProgressiveDecoder(code, 6).absorb({p: words[:, p] for p in range(code.n)})
    assert np.array_equal(block.attempt().messages.reshape(2, 3, -1), msg)
    word = ReceivedWord(dict(enumerate(encode_eval(msg[0, 0].tolist(), code))))
    assert decode_error_erasure(word, code).messages.tolist() == msg[0, 0].tolist()
    # unit symbols at positions 0..dim-1 alone give (G[:, :dim])⁻¹ itself,
    # against the closed form
    want = vandermonde_inverse(field, field.power(np.arange(dim)))
    unit = np.eye(dim, dtype=np.int64)
    block = ProgressiveDecoder(code, dim).absorb({p: unit[:, p] for p in range(dim)})
    assert np.array_equal(block.attempt().messages, want)


def test_messages_invert_once_at_first_use(monkeypatch):
    calls, inner = [], rscode.gf_inverse
    monkeypatch.setattr(rscode, "gf_inverse", lambda *a: calls.append(a) or inner(*a))
    code = RsParams(6, 4, GF(8))
    assert not calls
    for _ in range(3):
        block = ProgressiveDecoder(code, 2).absorb({p: [0, 0] for p in range(6)})
        assert not block.attempt().messages.any()
    assert len(calls) == 1


def test_row_dirty_under_its_own_errors_fails_once(monkeypatch):
    # An exact locator never leaves a row dirty under its own errors; a
    # locator that finds none for row 1 must end the attempt, not loop.
    code = RsParams(6, 2, GF(8))
    words = encode_eval(np.array([[3, 5], [7, 11]]), code)
    words[1, 4] ^= 1  # row 1 alone has an error
    block = ProgressiveDecoder(code, 2).absorb({p: words[:, p] for p in range(code.n)})
    located, real = [], ProgressiveDecoder._locate

    def locate(self, r):
        located.append(r)
        assert len(located) <= 2, "attempt loops on the dirty row"
        return real(self, r) if r == 0 else []

    monkeypatch.setattr(ProgressiveDecoder, "_locate", locate)
    with pytest.raises(DecodeFailure, match="stays dirty"):
        block.attempt()
    assert located == [0, 1]


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


def test_block_decoder_at_the_byzantine_row_code_shape():
    # The row code of the `byzantine` benchmark: [100, 38] over GF(2^11)
    # with 31 Byzantine columns.  Each row corrupts each of them with
    # probability 1/2 and the last row has 3 private errors as well.  40
    # positions arrive first, then 2 per round, as the reconstruct ladder
    # reads them; every round's attempt is compared row by row.
    rng = np.random.default_rng(808)
    params = RsParams(100, 38, GF(11))
    rows = 4
    cw = encode_eval(rng.integers(0, 2048, (rows, 38)), params)
    cols = rng.choice(100, size=31, replace=False)
    words = cw.copy()
    for r in range(rows):
        hit = cols[rng.random(cols.size) < 0.5]
        words[r, hit] ^= rng.integers(1, 2048, hit.size)
    private = rng.choice(np.setdiff1d(np.arange(100), cols), size=3, replace=False)
    words[-1, private] ^= rng.integers(1, 2048, private.size)
    block = ProgressiveDecoder(params, rows)
    oracles = [ScalarDecoder(params) for _ in range(rows)]
    order = rng.permutation(100).tolist()
    outcomes = []
    for batch in [order[:40]] + [order[i : i + 2] for i in range(40, 100, 2)]:
        block.absorb({p: words[:, p] for p in batch})
        for r, dec in enumerate(oracles):
            dec.absorb({p: words[r, p] for p in batch})
        outcomes.append(assert_block_matches_oracles(block, oracles))
    assert not outcomes[0] and outcomes[-1]  # the ladder fails, then succeeds


def _attempt_or_none(dec):
    try:
        out = dec.attempt()
    except DecodeFailure:
        return None
    return np.asarray(out.codeword).tolist(), out.error_positions, out.corrected_count


def _fed(params, rows, words, order, sizes):
    """A block decoder fed the columns of words at order, in batches of
    the given sizes (repeated)."""
    dec = ProgressiveDecoder(params, rows)
    start = 0
    for size in itertools.cycle(sizes):
        if start >= len(order):
            return dec
        dec.absorb({p: words[:, p] for p in order[start : start + size]})
        start += size


@pytest.mark.parametrize("m, n, dim, rows, nerr, nerase", [
    (4, 15, 5, 3, 3, 4),  # full length, within the radius
    (4, 15, 5, 3, 4, 4),  # one error beyond it
    (3, 7, 3, 2, 2, 0),   # full length, exactly at the radius
    (5, 20, 8, 2, 5, 2),
    (4, 12, 12, 2, 0, 0),  # dim = n: no parity
    (4, 12, 12, 2, 0, 1),
    (4, 10, 4, 0, 0, 3),  # no rows, as in MBR with d = k
    (4, 10, 4, 0, 0, 7),
])
def test_attempt_is_independent_of_absorb_order_and_base(m, n, dim, rows, nerr, nerase):
    # The first dim positions absorbed are the re-encoding base.  The same
    # received symbols, absorbed with all errors inside the base, with
    # none of them there, in sorted order in one batch and in random orders
    # and batch sizes, give one attempt outcome.
    rng = np.random.default_rng(1000 * m + 10 * n + nerr + nerase)
    field = GF(m)
    params = RsParams(n, dim, field)
    words = encode_eval(rng.integers(0, field.q, (rows, dim)), params).reshape(rows, n)
    pos = rng.permutation(n)
    errs, kept = pos[:nerr].tolist(), sorted(pos[nerr + nerase :].tolist())
    words[:, errs] ^= rng.integers(1, field.q, (rows, nerr))
    received = errs + kept
    schedules = [
        (received, [n]),  # errors first: all of them in the base
        (kept + errs, [1, 2]),  # errors last
        (sorted(received), [n]),
    ] + [(rng.permutation(received).tolist(), rng.integers(1, 5, 3).tolist()) for _ in range(4)]
    outcomes = [_attempt_or_none(_fed(params, rows, words, order, sizes))
                for order, sizes in schedules]
    assert all(out == outcomes[0] for out in outcomes)
    if rows:
        oracles = [ScalarDecoder(params) for _ in range(rows)]
        for r, dec in enumerate(oracles):
            dec.absorb({p: words[r, p] for p in received})
        assert assert_block_matches_oracles(_fed(params, rows, words, received, [n]), oracles) == (
            outcomes[0] is not None)
    else:
        assert outcomes[0] == (None if nerase > n - dim else ([], set(), 0))


@pytest.mark.parametrize("m", range(3, 12))
def test_barycentric_weights_interpolate_codewords(m):
    # Through any dim positions of a codeword, in any order, the weights
    # give the codeword at every other position (the fill map), and the
    # re-encoded values y_p·v_p + sum_j W[p, j]·y_{base_j} there are zero
    rng = np.random.default_rng(900 + m)
    field = GF(m)
    for _ in range(3):
        n = int(rng.integers(2, min(field.order, 60) + 1))
        for dim in sorted({1, n - 1, int(rng.integers(1, n))}):
            params = RsParams(n, dim, field)
            cw = encode_eval(rng.integers(0, field.q, (3, dim)), params)
            base = rng.permutation(n)[:dim].tolist()
            rest = np.setdiff1d(np.arange(n), base)
            W, v = _barycentric(params, base)
            fill = field.vdiv(W[rest], v[rest, None])
            assert np.array_equal(field.matmul(cw[:, base], fill.T), cw[:, rest])
            z = field.matmul(cw[:, base], W[rest].T) ^ field.vmul(cw[:, rest], v[rest])
            assert not z.any()


def test_located_errors_inside_the_base_move_the_fill_base():
    # Errors among the first dim positions absorbed: the fill skips them and
    # interpolates through later positions.  Row 0 locates two columns of
    # the base; row 2 adds a third base column and one outside the base, so
    # the fill base moves again after the union.
    rng = np.random.default_rng(77)
    params = RsParams(24, 8, GF(5))
    rows = 6
    cw = encode_eval(rng.integers(0, 32, (rows, 8)), params)
    order = rng.permutation(params.n).tolist()
    received = order[:-4]
    words = cw.copy()
    words[:, order[:2]] ^= rng.integers(1, 32, (rows, 2))
    words[2, [order[2], order[10]]] ^= rng.integers(1, 32, 2)
    block = ProgressiveDecoder(params, rows)
    oracles = [ScalarDecoder(params) for _ in range(rows)]
    for batch in (received[:8], received[8:]):
        block.absorb({p: words[:, p] for p in batch})
        for r, dec in enumerate(oracles):
            dec.absorb({p: words[r, p] for p in batch})
    assert assert_block_matches_oracles(block, oracles)
    out = block.attempt()
    assert out.codeword.tolist() == cw.tolist()
    assert out.error_positions == set(order[:3]) | {order[10]}


def test_one_shot_decode_is_independent_of_dict_order(rs15_4, gf16):
    # decode_error_erasure absorbs the dict in its own order, so its first
    # dim keys are the base; inside and beyond the radius, any key order
    # gives the same outcome
    rng = random.Random(59)
    for _ in range(200):
        s = rng.randrange(0, 8)
        v = rng.randrange(0, (11 - s) // 2 + 3)
        cw = encode_eval([rng.randrange(16) for _ in range(4)], rs15_4)
        symbols, _, flipped = corrupt(rng, gf16, cw, s, v)
        items = list(symbols.items())
        rng.shuffle(items)
        first = sorted(flipped) + [p for p in sorted(symbols) if p not in flipped]
        words = [dict(items), dict(sorted(items)), {p: symbols[p] for p in first}]
        outcomes = []
        for word in words:
            try:
                out = decode_error_erasure(ReceivedWord(word), rs15_4)
                outcomes.append((out.codeword, out.error_positions, out.corrected_count))
            except DecodeFailure:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1] == outcomes[2]


def test_shared_error_columns_run_few_row_locators(monkeypatch):
    # the point of the located set: rows that share their error columns are
    # filled by one interpolation, not located one by one
    calls = []
    locate = ProgressiveDecoder._locate
    monkeypatch.setattr(ProgressiveDecoder, "_locate",
                        lambda self, r: calls.append(r) or locate(self, r))
    rng = np.random.default_rng(71)
    params = RsParams(24, 8, GF(5))
    rows, cols = 40, np.array([3, 11, 17, 20])
    cw = encode_eval(rng.integers(0, 32, (rows, 8)), params)
    for keep in (0.0, 0.5):  # share of corrupted-column symbols left intact
        words = cw.copy()
        flip = rng.random((rows, cols.size)) >= keep
        words[:, cols] ^= np.where(flip, rng.integers(1, 32, (rows, cols.size)), 0)
        assert flip[0].any()  # so that row 0's run adds a column too
        block = ProgressiveDecoder(params, rows)
        block.absorb({p: words[:, p] for p in range(params.n) if p != 5})
        calls.clear()
        out = block.attempt()
        assert out.codeword.tolist() == cw.tolist()
        assert out.error_positions == set(cols[flip.any(axis=0)].tolist())
        assert out.corrected_count == flip.sum()
        # each row located alone adds at least one column to the located set
        assert 1 <= len(calls) <= cols.size and calls[0] == 0
    # over budget in every row: the attempt fails after one locator run
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


def test_block_decoder_rejects_ragged_vectors(rs15_4):
    # vectors of unequal lengths in one absorb once escaped as numpy's
    # "inhomogeneous shape" ValueError; equal sizes in other shapes flatten
    block = ProgressiveDecoder(rs15_4, 3)
    for ragged in ({1: [1, 2, 3], 2: [1, 2]}, {1: np.zeros(3, dtype=np.int64), 2: np.zeros((2, 2))}):
        with pytest.raises(LengthMismatch, match="unequal lengths"):
            block.absorb(ragged)
    assert not block.have.any()
    block.absorb({1: [[1], [2], [3]], 2: [4, 5, 6]})
    assert block.word[:, [1, 2]].T.tolist() == [[1, 2, 3], [4, 5, 6]]


def oracle_product(field, A, B):
    """Oracle: a matrix product in scalar field arithmetic."""
    out = []
    for row in A:
        out.append([0] * len(B[0]))
        for a, b_row in zip(row, B):
            out[-1] = [x ^ field.mul(int(a), int(b)) for x, b in zip(out[-1], b_row)]
    return out


def oracle_message(field, dim, codeword):
    """Oracle: the message of a codeword, by elimination on its first dim
    positions (the Vandermonde rows there)."""
    A = [[field.pow(field.exp[p], j) for j in range(dim)] for p in range(dim)]
    return oracle_solve(field, A, [int(c) for c in codeword[:dim]])


@pytest.mark.parametrize("rows", [1, 6, 15])
@pytest.mark.parametrize("right", [False, True])
def test_messages_match_scalar_oracle_with_erasures_and_errors(rows, right):
    # the block decoder's message product (one row, dim rows and more rows
    # than dim, so both association orders run) against the scalar decoder
    # followed by elimination, which share no code with it: every row's
    # message times the right factor, the union of errors and their total
    rng = np.random.default_rng(5000 + 10 * rows + right)
    field = GF(5)
    params = RsParams(20, 6, field)
    R = rng.integers(0, field.q, (6, 3)) if right else None
    checked = 0
    for trial in range(12):
        msgs = rng.integers(0, field.q, (rows, 6))
        words = encode_eval(msgs, params)
        s = int(rng.integers(0, params.two_t + 1))
        erased = rng.permutation(params.n)[:s]
        kept = np.setdiff1d(np.arange(params.n), erased)
        # errors within every row's radius: shared columns, plus one private
        # column in some rows while the budget allows
        shared = rng.permutation(kept)[: int(rng.integers(0, (params.two_t - s) // 2 + 1))]
        for r in range(rows):
            cols = shared[rng.random(shared.size) < 0.7]
            if 2 * (shared.size + 1) + s <= params.two_t and rng.random() < 0.3:
                cols = np.append(cols, rng.choice(np.setdiff1d(kept, shared)))
            words[r, cols] ^= rng.integers(1, field.q, cols.size)
        order = rng.permutation(kept).tolist()
        cut = int(rng.integers(1, len(order) + 1))
        block = ProgressiveDecoder(params, rows)
        oracles = [ScalarDecoder(params) for _ in range(rows)]
        for batch in (order[:cut], order[cut:]):
            block.absorb({p: words[:, p] for p in batch})
            for r, dec in enumerate(oracles):
                dec.absorb({p: words[r, p] for p in batch})
        wants = [dec.attempt() for dec in oracles]
        got = block.attempt(R)
        want = [oracle_message(field, 6, w.codeword) for w in wants]
        assert want == msgs.tolist()
        if right:
            want = oracle_product(field, want, R.tolist())
            with pytest.raises(InvalidParams):
                got.codeword  # messages times R are no message of the code
        assert got.messages.tolist() == want, trial
        assert got.error_positions == set().union(*(w.error_positions for w in wants))
        assert got.corrected_count == sum(w.corrected_count for w in wants)
        checked += got.corrected_count > 0
    assert checked  # some trials corrected errors


def _fill_then_invert(params, failed, responses):
    """The regenerate decode as the codeword-filling decoder did it: each
    stripe's g_failed·U codeword is interpolated through the first d
    responses, checked at the rest (DecodeFailure on a mismatch), filled
    at positions 0..d-1 and multiplied by (G[:, :d])⁻¹, then mapped to
    the lost column (t[:α] + λ·t[α:] for MSR, t itself for MBR)."""
    field, d = params.field, params.d
    nodes = list(responses)
    A = [[field.pow(field.exp[p], j) for j in range(d)] for p in nodes[:d]]
    ghat_inv = gf_inverse(field, [[field.pow(field.exp[c], r) for c in range(d)] for r in range(d)])
    out = []
    for s in range(params.beta):
        y = [int(responses[j][s]) for j in nodes]
        cw = oracle_encode(field, oracle_solve(field, A, y[:d]), params.n)
        if any(cw[j] != v for j, v in zip(nodes[d:], y[d:])):
            raise DecodeFailure("a response disagrees with the interpolant")
        t = field.matmul(np.array([cw[:d]]), ghat_inv)[0]
        if params.family == "msr":
            t = t[: params.alpha] ^ field.vmul(params.lam[failed], t[params.alpha :])
        out.append(t.tolist())
    return out


class _Helpers:
    """A source that hands out the given responses in order, as many as
    asked; counts the rounds (fetches that returned something)."""

    def __init__(self, responses):
        self.items = list(responses.items())
        self.rounds = 0

    def fetch(self, count):
        got, self.items = self.items[:count], self.items[count:]
        self.rounds += bool(got)
        return got


@pytest.mark.parametrize("family", ["msr", "mbr"])
@pytest.mark.parametrize("beta", [3, 9])
def test_regenerate_product_matches_fill_then_invert(family, beta):
    # MSR and MBR [6,3,4] over GF(2^8): every failed node, every d-subset of
    # its helpers and all n-1 of them, clean and with one corrupt response.
    # Each round's candidate (d responses, then all of them) must be the
    # codeword-filling decode's column, or no candidate where that decode
    # fails; the acceptance test takes only the true chunk.
    from regencode import mbr, msr
    from regencode.progressive import encode, repair_response

    mod, Params = (msr, msr.MsrParams) if family == "msr" else (mbr, mbr.MbrParams)
    params = Params(6, 3, 4, beta, GF(8))
    rng = np.random.default_rng(beta)
    chunks = encode(rng.integers(0, 256, (beta, params.B)), params)
    for failed in range(params.n):
        truth = chunks[failed].tolist()
        helpers = [j for j in range(params.n) if j != failed]
        for subset in itertools.chain(itertools.combinations(helpers, params.d), [helpers]):
            for bad in (None, subset[int(rng.integers(len(subset)))]):
                responses = {j: repair_response(chunks[j], j, failed, params) for j in subset}
                if bad is not None:
                    responses[bad] = responses[bad] ^ np.eye(1, beta, int(rng.integers(beta)), dtype=np.int64)[0]
                want, rounds = [], 0
                for count in sorted({params.d, len(subset)}):
                    rounds += 1
                    try:
                        want.append(_fill_then_invert(params, failed, dict(list(responses.items())[:count])))
                    except DecodeFailure:
                        continue
                    if want[-1] == truth:
                        break
                seen, source = [], _Helpers(responses)
                accept = lambda chunk: seen.append(chunk.tolist()) or (chunk if chunk.tolist() == truth else None)
                run = lambda: mod.regenerate(source, failed, params, accept)
                if truth in want:
                    assert run().tolist() == truth and source.rounds == rounds
                else:
                    assert bad is not None
                    with pytest.raises(ClusterExhausted):
                        run()
                assert seen == want, (failed, subset, bad)
                assert (bad in subset[: params.d]) == (want[0] != truth)
