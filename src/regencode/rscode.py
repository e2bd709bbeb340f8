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

import math
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
        self.points = field.power(np.arange(n)).tolist()  # a^p

        # Dual-code column multipliers w_p = 1 / prod_{q != p}(a^p - a^q).
        w = []
        for p in range(n):
            acc = 1
            ap = self.points[p]
            for s in range(n):
                if s != p:
                    acc = field.mul(acc, ap ^ self.points[s])
            w.append(field.inv(acc))
        self.w = np.array(w, dtype=np.int64)

        p = np.arange(n, dtype=np.int64)[:, None]
        # w_p·a^{p·j}, the contribution of a unit symbol at p to S_j
        self.synd = field.vmul(self.w[:, None], field.power(p * np.arange(self.two_t)))
        # a^{-p·j}, used to evaluate locators at every inverse point
        self.chien = field.power(-p * np.arange(self.two_t + 1))

    def __repr__(self):
        return f"RsParams(n={self.n}, dim={self.dim}, field={self.field!r})"


@dataclass
class ReceivedWord:
    """Symbols observed at known positions plus declared erasures."""

    symbols: dict[int, int]
    erasures: set[int] = dfield(default_factory=set)


@dataclass
class DecodeOutcome:
    codeword: list[int] | np.ndarray  # a list for rows=None, else (rows, n)
    error_positions: set[int]
    corrected_count: int


def encode_eval(message, params: RsParams) -> list[int] | np.ndarray:
    """Evaluate the message polynomial at every code point: one product with
    the Vandermonde generator.  A 2-D message (one message per row) gives
    an array of codewords."""
    msg = np.asarray(message, dtype=np.int64)
    if msg.shape[-1:] != (params.dim,):
        raise LengthMismatch(f"message of shape {msg.shape} does not end in dim {params.dim}")
    cw = params.field.matmul(msg.reshape(-1, params.dim), vandermonde(params))
    return cw[0].tolist() if msg.ndim == 1 else cw


def vandermonde(params: RsParams) -> np.ndarray:
    """Generator matrix, shape (dim, n), entry (r, c) = (a^c)^r."""
    r = np.arange(params.dim, dtype=np.int64)[:, None]
    return params.field.power(r * np.arange(params.n))


def gf_inverse(field: GF, M) -> np.ndarray:
    """Invert a square matrix by Gauss-Jordan elimination over the field.
    Any leading axes index a stack of matrices, each with its own pivots.

    Each pivot is one numpy step on the augmented matrices [M | I]: scale
    the pivot rows, then clear their column from every other row at once.
    Raises SingularMatrix if any matrix of the stack is singular.
    """
    M = np.asarray(M, dtype=np.int64)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise InvalidParams(f"matrix of shape {M.shape} is not square")
    nn = M.shape[-1]
    eye = np.broadcast_to(np.eye(nn, dtype=np.int64), M.shape)
    stack = np.arange(math.prod(M.shape[:-2]))
    a = np.concatenate([M, eye], axis=-1).reshape(len(stack), nn, 2 * nn)
    for col in range(nn):
        nz = a[:, col:, col] != 0
        if not nz.any(axis=1).all():
            raise SingularMatrix(f"no pivot in column {col}")
        piv = col + nz.argmax(axis=1)
        rows = a[stack, piv]
        a[stack, piv] = a[:, col]
        a[:, col] = row = field.vdiv(rows, rows[:, col : col + 1])
        f = a[:, :, col].copy()
        f[:, col] = 0
        a ^= field.vmul(f[:, :, None], row[:, None, :])
    return a[:, :, nn:].reshape(M.shape)


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
    """Error-erasure decoder over a block of rows, fed symbols incrementally.

    The rows share one set of received positions: each absorb delivers,
    per position, one symbol for every row.  ``rows=None`` is a block of
    one row that takes and returns plain ints.  The (rows × n-dim)
    syndrome matrix is maintained under symbol arrival, so each retrieval
    round only pays for the new symbols; a decode attempt may be made
    after any absorb.  Positions never absorbed count as erasures.
    """

    def __init__(self, params: RsParams, rows: int | None = None):
        self.params = params
        self.rows = rows
        height = 1 if rows is None else rows
        self.word = np.zeros((height, params.n), dtype=np.int64)  # 0 where unread
        self.have = np.zeros(params.n, dtype=bool)
        self._synd = np.zeros((height, params.two_t), dtype=np.int64)
        self.round = 0

    @property
    def syndromes(self) -> np.ndarray:
        return self._synd[0] if self.rows is None else self._synd

    def absorb(self, new_symbols: dict) -> "ProgressiveDecoder":
        """Add {position: symbol}, or {position: vector of rows symbols}."""
        params = self.params
        field = params.field
        pos = [int(p) for p in new_symbols]
        for p in pos:
            if not 0 <= p < params.n:
                raise InvalidParams(f"position {p} outside [0, {params.n})")
            if self.have[p]:
                raise DuplicatePosition(f"position {p} already delivered")
        if pos:
            ys = np.array(list(new_symbols.values()), dtype=np.int64).reshape(len(pos), -1)
            if ys.shape[1] != self.word.shape[0]:
                raise LengthMismatch(
                    f"expected {self.word.shape[0]} symbols per position, got {ys.shape[1]}"
                )
            bad = ys[(ys < 0) | (ys >= field.q)]
            if bad.size:
                raise InvalidParams(f"symbol {bad[0]} outside field of size {field.q}")
            ys = ys.T  # (rows, positions)
            self.word[:, pos] = ys
            self.have[pos] = True
            if params.two_t:
                self._synd ^= field.matmul(ys, params.synd[pos])
        self.round += 1
        return self

    def attempt(self) -> DecodeOutcome:
        """Decode every row; errors are the union and the total over rows.

        The rows share their error positions (a Byzantine node corrupts its
        whole chunk).  A row whose syndromes under gamma·Lambda_E vanish at
        s+|E|..n-dim-1 is within its unique-decoding radius of a codeword
        that differs only at erasures and E, since 2|E| + s <= n-dim, so
        one vectorised Forney step fills all such rows.  The first row
        still dirty runs Berlekamp-Massey alone; its errors join E (or
        replace it past the budget).  E starts empty and row 0 goes first,
        so a round that cannot succeed costs one Berlekamp-Massey.
        """
        params = self.params
        field = params.field
        two_t = params.two_t
        erased = np.flatnonzero(~self.have).tolist()
        s = len(erased)
        if s > two_t:
            raise DecodeFailure(f"{s} erasures exceed the {two_t} parity symbols")
        gamma = _locator(params, erased)
        codeword = self.word.copy()
        located: list[int] = []
        errors: set[int] = set()
        count = 0

        def fill(rows: np.ndarray) -> np.ndarray:
            """Fill the rows that are clean under E; return the others."""
            nonlocal count
            if not rows.size:
                return rows
            lam = _locator(params, located, gamma)
            S = self._synd if rows.size == len(self._synd) else self._synd[rows]
            prod = _times_mod(field, lam, S)  # lam·S mod x^two_t
            dirty = prod[:, s + len(located) :].any(axis=1)
            roots = erased + located
            if roots and not dirty.all():
                ok, prod = (rows[~dirty], prod[~dirty]) if dirty.any() else (rows, prod)
                e = _forney(params, lam, prod, roots)
                hit = e[:, s:] != 0
                errors.update(np.asarray(located)[hit.any(axis=0)].tolist())
                count += int(hit.sum())
                e[:, s:] ^= self.word[np.ix_(ok, located)]
                codeword[np.ix_(ok, roots)] = e
            return rows[dirty]

        todo = np.arange(len(codeword))
        if not _times_mod(field, gamma, self._synd[:1], s).any():
            todo = fill(todo)
        while todo.size:
            r = int(todo[0])
            codeword[r], found = self._decode_row(r, s, gamma)
            errors |= found
            count += len(found)
            union = found.union(located)
            located = sorted(union if 2 * len(union) + s <= two_t else found)
            todo = fill(todo[1:])
        if self.rows is None:
            codeword = codeword[0].tolist()
        return DecodeOutcome(codeword, errors, count)

    def _decode_row(self, r: int, s: int, gamma: list[int]) -> tuple[np.ndarray, set[int]]:
        """Berlekamp-Massey, Chien and Forney for one row; (codeword, errors)."""
        params = self.params
        field = params.field
        two_t = params.two_t
        S = self._synd[r].tolist()

        # Berlekamp-Massey seeded with the erasure locator: the register
        # starts at length s and only the remaining two_t - s syndromes
        # are free to locate errors, giving 2v <= two_t - s.
        lam, B, L, b, gap = list(gamma), list(gamma), s, 1, 1
        for i in range(s, two_t):
            d = 0
            for jj, lj in enumerate(lam):
                if lj and jj <= i and S[i - jj]:
                    d ^= field.exp[field.log[lj] + field.log[S[i - jj]]]
            if d == 0:
                gap += 1
            elif 2 * L <= i + s:
                T = _poly_add_scaled_shifted(field, lam, B, field.div(d, b), gap)
                B, b, L, gap, lam = lam, d, i + 1 + s - L, 1, T
            else:
                lam = _poly_add_scaled_shifted(field, lam, B, field.div(d, b), gap)
                gap += 1

        if 2 * (L - s) + s > two_t:
            raise DecodeFailure(f"{L - s} errors with {s} erasures exceed the budget {two_t}")
        while len(lam) > 1 and lam[-1] == 0:
            lam.pop()
        deg = len(lam) - 1
        if deg != L:
            raise DecodeFailure("locator degree is inconsistent with its length")

        # Chien search: evaluate lam at a^{-p} for every position p.
        roots = np.flatnonzero(_at_inverse_points(params, [lam], slice(None))[0] == 0)
        if len(roots) != deg:
            raise DecodeFailure(f"locator of degree {deg} has {len(roots)} roots")

        codeword = self.word[r].copy()
        e = _forney(params, lam, _times_mod(field, lam, self._synd[r : r + 1]), roots)[0]
        got = self.have[roots]
        zero = np.flatnonzero(got & (e == 0))
        if zero.size:
            raise DecodeFailure(f"claimed error at {roots[zero[0]]} has zero magnitude")
        codeword[roots] ^= e
        return codeword, set(roots[got].tolist())


def _locator(params: RsParams, positions, poly=(1,)) -> list[int]:
    """poly(x)·prod (1 - a^p x) over the given positions."""
    exp, log = params.field.exp, params.field.log
    poly = list(poly)
    for p in positions:  # scalar like Berlekamp-Massey; log(a^p) = p
        poly = [x ^ (exp[log[y] + p] if y else 0) for x, y in zip(poly + [0], [0] + poly)]
    return poly


def _times_mod(field: GF, poly: list[int], S: np.ndarray, lo: int = 0) -> np.ndarray:
    """Coefficients lo..two_t-1 of poly(x)·S(x) for every row of S."""
    two_t = S.shape[1]
    poly = np.asarray(poly[:two_t], dtype=np.int64)
    j = np.flatnonzero(poly)
    shift = np.arange(lo, two_t)[None, :] - j[:, None]  # coefficient c takes S_{c-j}
    part = np.where(shift >= 0, S[:, shift], 0)  # (rows, terms, two_t - lo)
    return np.bitwise_xor.reduce(field.vmul(poly[j][:, None], part), axis=1)


def _at_inverse_points(params: RsParams, polys, positions) -> np.ndarray:
    """Every row of polys (degree at most n - dim) at a^-p, shape (rows, positions)."""
    polys = np.asarray(polys, dtype=np.int64)
    return params.field.matmul(polys, params.chien[positions, : polys.shape[1]].T)


def _forney(params: RsParams, lam: list[int], omega: np.ndarray, roots) -> np.ndarray:
    """Errata values e_p = a^p·omega(a^-p) / (w_p·lam'(a^-p)) at the roots
    of lam, for every row of errata evaluators omega."""
    field = params.field
    roots = np.asarray(roots, dtype=np.int64)
    deriv = [lam[j] if j % 2 else 0 for j in range(1, len(lam))]
    den = _at_inverse_points(params, [deriv], roots)[0]
    if not den.all():
        raise DecodeFailure("errata evaluator derivative vanished at a root")
    num = _at_inverse_points(params, omega, roots)
    return field.vmul(num, field.vdiv(field.power(roots), field.vmul(params.w[roots], den)))


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
