"""Reed-Solomon evaluation codes with progressive error-erasure decoding.

A message (u_0, ..., u_{dim-1}) is encoded as the evaluations of
u(x) = sum_j u_j x^j at the points a^0, a^1, ..., a^{n-1}, where a is the
field generator.  Any dim columns of the resulting Vandermonde generator
matrix are invertible, so the code is MDS with minimum distance n-dim+1.

Decoding runs on the punctured view of the code: the n - dim syndromes
carry the dual-code column multipliers w_p = 1 / prod_{q!=p}(a^p - a^q),
which makes the standard pipeline (syndromes -> Berlekamp-Massey with
erasure initialisation -> Chien search -> Forney) work for any length
n <= 2^m - 1 with the budget

    2 * errors + erasures <= n - dim.

At full length (n == 2^m - 1) the multipliers collapse to w_p = a^p and
the syndromes become the classical evaluations of the received word at
a^1 ... a^{n-dim}, i.e. the code is the cyclic Reed-Solomon code whose
generator polynomial has those roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .errors import (
    DecodeFailure,
    DuplicatePosition,
    InvalidParams,
    LengthMismatch,
    SingularMatrix,
)
from .galois import GF


class RsParams:
    """An [n, dim] evaluation code over a given field."""

    def __init__(self, n: int, dim: int, field: GF):
        if not 1 <= dim <= n:
            raise InvalidParams(f"need 1 <= dim <= n, got dim={dim}, n={n}")
        if n > field.order:
            raise InvalidParams(
                f"length n={n} exceeds the {field.order} distinct nonzero points "
                f"of GF(2^{field.m})"
            )
        self.n = n
        self.dim = dim
        self.field = field
        self.two_t = n - dim
        self.points = [field.exp[p] for p in range(n)]  # a^p
        self.logpoints = list(range(n))

        # Dual-code column multipliers w_p = 1 / prod_{q != p}(a^p - a^q).
        w = []
        for p in range(n):
            acc = 1
            ap = self.points[p]
            for s in range(n):
                if s != p:
                    acc = field.mul(acc, ap ^ self.points[s])
            w.append(field.inv(acc))
        self.w = w

        order = field.order
        logp = np.arange(n, dtype=np.int64)
        logw = np.array([field.log[x] for x in w], dtype=np.int64)
        j = np.arange(self.two_t, dtype=np.int64)
        # log(w_p * a^{p*j}), the contribution of a unit symbol at p to S_j
        self.synd_log = (logw[:, None] + logp[:, None] * j[None, :]) % order
        jj = np.arange(self.two_t + 1, dtype=np.int64)
        # log(a^{-p*j}), used to evaluate locators at every inverse point
        self.chien_log = (-(logp[:, None] * jj[None, :])) % order

    def __repr__(self):
        return f"RsParams(n={self.n}, dim={self.dim}, field={self.field!r})"


@dataclass
class ReceivedWord:
    """Symbols observed at known positions plus declared erasures."""

    symbols: dict[int, int]
    erasures: set[int] = dfield(default_factory=set)


@dataclass
class DecodeOutcome:
    codeword: list[int]
    error_positions: set[int]
    corrected_count: int


def encode_eval(message, params: RsParams) -> list[int]:
    """Evaluate the message polynomial at every code point."""
    if len(message) != params.dim:
        raise LengthMismatch(f"message length {len(message)} != dim {params.dim}")
    field = params.field
    out = []
    for p in range(params.n):
        x = params.points[p]
        acc = 0
        for c in reversed(message):
            acc = field.mul(acc, x) ^ int(c)
        out.append(acc)
    return out


def vandermonde(params: RsParams) -> np.ndarray:
    """Generator matrix, shape (dim, n), entry (r, c) = (a^c)^r."""
    r = np.arange(params.dim, dtype=np.int64)[:, None]
    c = np.arange(params.n, dtype=np.int64)[None, :]
    return params.field.exp_np[(r * c) % params.field.order]


def gf_inverse(field: GF, M) -> np.ndarray:
    """Invert a square matrix by Gaussian elimination over the field."""
    M = np.asarray(M, dtype=np.int64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidParams(f"matrix of shape {M.shape} is not square")
    nn = M.shape[0]
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
    return np.array(inv, dtype=np.int64)


def invert_submatrix(G, cols, field: GF) -> np.ndarray:
    """Invert the square submatrix formed by the given columns of G."""
    G = np.asarray(G, dtype=np.int64)
    cols = list(cols)
    if len(set(cols)) != len(cols):
        raise InvalidParams(f"duplicate columns in {cols}")
    if len(cols) != G.shape[0]:
        raise InvalidParams(
            f"need {G.shape[0]} columns for a square submatrix, got {len(cols)}"
        )
    return gf_inverse(field, G[:, cols])


def _poly_mul(field: GF, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            la = field.log[ai]
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] ^= field.exp[la + field.log[bj]]
    return out


def _poly_eval(field: GF, poly, x):
    acc = 0
    for c in reversed(poly):
        acc = field.mul(acc, x) ^ c
    return acc


def _poly_add_scaled_shifted(field: GF, a, b, scale, shift):
    """a(x) + scale * x^shift * b(x)."""
    out = list(a) + [0] * max(0, shift + len(b) - len(a))
    if scale:
        ls = field.log[scale]
        for j, bj in enumerate(b):
            if bj:
                out[shift + j] ^= field.exp[ls + field.log[bj]]
    return out


class ProgressiveDecoder:
    """Error-erasure decoder state that accepts symbols incrementally.

    Syndromes are maintained under symbol arrival, so each retrieval round
    only pays for the new symbols; a decode attempt may be made after any
    absorb.  Positions never absorbed count as erasures.
    """

    def __init__(self, params: RsParams):
        self.params = params
        self.received: dict[int, int] = {}
        self.syndromes = np.zeros(params.two_t, dtype=np.int64)
        self.round = 0

    def absorb(self, new_symbols: dict[int, int]) -> "ProgressiveDecoder":
        params = self.params
        field = params.field
        for p, y in new_symbols.items():
            p = int(p)
            if p in self.received:
                raise DuplicatePosition(f"position {p} already delivered")
            if not 0 <= p < params.n:
                raise InvalidParams(f"position {p} outside [0, {params.n})")
            y = int(y)
            if not 0 <= y < field.q:
                raise InvalidParams(f"symbol {y} outside field of size {field.q}")
            self.received[p] = y
            if y and params.two_t:
                self.syndromes ^= field.exp_np[params.synd_log[p] + field.log[y]]
        self.round += 1
        return self

    def recompute_syndromes(self) -> np.ndarray:
        """Batch syndrome computation; must match the incremental state."""
        params = self.params
        field = params.field
        S = np.zeros(params.two_t, dtype=np.int64)
        for p, y in self.received.items():
            if y and params.two_t:
                S ^= field.exp_np[params.synd_log[p] + field.log[y]]
        return S

    def attempt(self) -> DecodeOutcome:
        params = self.params
        field = params.field
        n, two_t = params.n, params.two_t
        erased = [p for p in range(n) if p not in self.received]
        s = len(erased)
        if s > two_t:
            raise DecodeFailure(f"{s} erasures exceed the {two_t} parity symbols")

        S = [int(x) for x in self.syndromes]

        # Erasure locator gamma(x) = prod (1 - a^p x) over erased positions.
        gamma = [1]
        for p in erased:
            ap = params.points[p]
            gamma = [
                (gamma[j] if j < len(gamma) else 0)
                ^ (field.mul(ap, gamma[j - 1]) if j > 0 else 0)
                for j in range(len(gamma) + 1)
            ]

        # Berlekamp-Massey seeded with the erasure locator: the register
        # starts at length s and only the remaining two_t - s syndromes
        # are free to locate errors, giving 2v <= two_t - s.
        lam = list(gamma)
        B = list(gamma)
        L = s
        b = 1
        gap = 1
        for r in range(s, two_t):
            d = 0
            for jj, lj in enumerate(lam):
                if lj and jj <= r and S[r - jj]:
                    d ^= field.exp[field.log[lj] + field.log[S[r - jj]]]
            if d == 0:
                gap += 1
            elif 2 * L <= r + s:
                T = _poly_add_scaled_shifted(field, lam, B, field.div(d, b), gap)
                B = lam
                b = d
                L = r + 1 + s - L
                gap = 1
                lam = T
            else:
                lam = _poly_add_scaled_shifted(field, lam, B, field.div(d, b), gap)
                gap += 1

        if 2 * (L - s) + s > two_t:
            raise DecodeFailure(
                f"{L - s} errors with {s} erasures exceed the budget {two_t}"
            )
        while len(lam) > 1 and lam[-1] == 0:
            lam.pop()
        deg = len(lam) - 1
        if deg != L:
            raise DecodeFailure("locator degree is inconsistent with its length")

        # Chien search: evaluate lam at a^{-p} for every position p.
        if deg == 0:
            root_positions = []
        else:
            lam_np = np.array(lam, dtype=np.int64)
            nz = np.flatnonzero(lam_np)
            idx = field.log_np[lam_np[nz]][None, :] + params.chien_log[:, : deg + 1][:, nz]
            vals = np.bitwise_xor.reduce(field.exp_np[idx], axis=1)
            root_positions = np.flatnonzero(vals == 0).tolist()
        if len(root_positions) != deg:
            raise DecodeFailure(
                f"locator of degree {deg} has {len(root_positions)} roots"
            )

        # Forney: errata evaluator omega = lam * S mod x^two_t, then
        # e_p = a^p * omega(a^-p) / (w_p * lam'(a^-p)).
        prod = _poly_mul(field, lam, S) if S else [0]
        omega = prod[:two_t] if two_t else [0]
        deriv_poly = [0] * max(1, deg)
        for j in range(1, deg + 1, 2):
            deriv_poly[j - 1] = lam[j]

        codeword: list[int] = [0] * n
        rootset = set(root_positions)
        errors: set[int] = set()
        for p, y in self.received.items():
            if p not in rootset:
                codeword[p] = y
        order = field.order
        for p in root_positions:
            xinv = field.exp[order - params.logpoints[p]]
            num = _poly_eval(field, omega, xinv)
            den = field.mul(params.w[p], _poly_eval(field, deriv_poly, xinv))
            if den == 0:
                raise DecodeFailure("errata evaluator derivative vanished at a root")
            e = field.mul(params.points[p], field.div(num, den))
            if p in self.received:
                if e == 0:
                    raise DecodeFailure(f"claimed error at {p} has zero magnitude")
                codeword[p] = self.received[p] ^ e
                errors.add(p)
            else:
                codeword[p] = e
        return DecodeOutcome(
            codeword=codeword, error_positions=errors, corrected_count=len(errors)
        )


def decode_error_erasure(word: ReceivedWord, params: RsParams) -> DecodeOutcome:
    """One-shot decode of a received word (batch variant of the decoder)."""
    if word.erasures & set(word.symbols):
        raise InvalidParams("erasure set overlaps received symbols")
    if len(word.symbols) + len(word.erasures) > params.n:
        raise InvalidParams("more symbols and erasures than code positions")
    for p in word.erasures:
        if not 0 <= p < params.n:
            raise InvalidParams(f"erasure position {p} outside [0, {params.n})")
    state = ProgressiveDecoder(params)
    state.absorb(word.symbols)
    return state.attempt()
