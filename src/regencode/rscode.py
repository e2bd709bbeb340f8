"""Reed-Solomon evaluation codes with progressive error-erasure decoding.

A message (u_0, ..., u_{dim-1}) is encoded as the evaluations of
u(x) = sum_j u_j x^j at the points a^0, a^1, ..., a^{n-1}, where a is the
field generator.  Any dim columns of the resulting Vandermonde generator
matrix G are invertible, so the code is MDS with minimum distance n-dim+1.
One table of a^{p·j} per code gives G, locators at a^p and syndromes.

Decoding corrects errors and erasures within the budget

    2 * errors + erasures <= n - dim.

Errors are located by Welch-Berlekamp interpolation (Berlekamp & Welch,
US 4 633 470): the received symbols, re-encoded against the first dim
of them, are points of a key equation whose least solution is the error
locator.  The solutions form a module with a two-element Groebner basis
that grows by one update per point (Fitzpatrick, "On the key equation",
IEEE T-IT 1995), so a decoder fed symbols over several rounds pays only
for the new ones.  The decoded word is the interpolant of degree < dim
through dim received positions outside the located errors E, checked in
barycentric form at the other received positions; it is the answer exactly
when it agrees with the received symbols outside E (Gao, "A new algorithm
for decoding Reed-Solomon codes", 2003, decodes the same way, without
syndromes), and its message is read off positions 0..dim-1 alone.  Syndromes
are only computed on demand, with the dual-code column multipliers
w_p = 1 / prod_{q!=p}(a^p - a^q), which exist for any length n <= 2^m - 1.

At full length (n == 2^m - 1) the multipliers collapse to w_p = a^p and
the syndromes become the classical evaluations of the received word at
a^1 ... a^{n-dim}, i.e. the code is the cyclic Reed-Solomon code whose
generator polynomial has those roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

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
        # powers[j, p] = a^{j·p}, j < max(dim, n - dim), in rows so that G (j < dim) is
        # contiguous for GF.matmul; syndromes read j < n - dim, locators j <= (n - dim) // 2
        self.powers = field.power(np.arange(max(dim, self.two_t))[:, None] * np.arange(n))
        self.G = self.powers[:dim]  # generator, (dim, n): entry (r, c) = (a^c)^r
        x = field.power(np.arange(n))
        self.points = x.tolist()  # a^p
        # 1/(a^p + a^q), with 1 on the diagonal, so that the product of a
        # row over a set of positions leaves out the row's own position
        self.inv_diff = field.vdiv(1, (x[:, None] ^ x) | np.eye(n, dtype=np.int64))
        # Dual-code column multipliers w_p = 1 / prod_{q != p}(a^p - a^q).
        self.w = field.prod(self.inv_diff)

    @cached_property
    def _message_inverse(self) -> np.ndarray:
        """(G[:, :dim])⁻¹, inverted at a row code's first decode."""
        return gf_inverse(self.field, self.G[:, : self.dim])

    def __repr__(self):
        return f"RsParams(n={self.n}, dim={self.dim}, field={self.field!r})"


@dataclass
class ReceivedWord:
    """Symbols observed at known positions; every other position is an erasure."""

    symbols: dict[int, int]


@dataclass
class DecodeOutcome:
    messages: np.ndarray  # (rows, dim), or (dim,) for rows=None; times attempt's right factor
    error_positions: set[int]
    corrected_count: int
    params: RsParams | None  # None when the messages carry a right factor

    @property
    def codeword(self) -> list[int] | np.ndarray:  # the messages re-encoded; a list for rows=None
        if self.params is None:
            raise InvalidParams("messages times a right factor have no codeword")
        return encode_eval(self.messages, self.params)


def encode_eval(message, params: RsParams) -> list[int] | np.ndarray:
    """Evaluate the message polynomial at every code point: one product with
    the generator G.  A 2-D message (one message per row) gives an array of
    codewords."""
    msg = np.asarray(message, dtype=np.int64)
    if msg.shape[-1:] != (params.dim,):
        raise LengthMismatch(f"message of shape {msg.shape} does not end in dim {params.dim}")
    cw = params.field.matmul(msg.reshape(-1, params.dim), params.G)
    return cw[0].tolist() if msg.ndim == 1 else cw


def gf_inverse(field: GF, M) -> np.ndarray:
    """Invert a square matrix by Gauss-Jordan elimination over the field.
    Any leading axes index a stack of matrices, each with its own pivots.

    Each pivot is one numpy step on the augmented matrices [M | I]: scale
    the pivot rows, then clear their column from every other row at once.
    Raises SingularMatrix if any matrix of the stack is singular.  Serves
    ``RsParams._message_inverse``, behind ``ProgressiveDecoder.attempt``;
    the MSR and MBR fast paths use vandermonde_inverse.
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


def vandermonde_inverse(field: GF, x) -> np.ndarray:
    """Inverse of V[r, c] = x_c^r on points x in closed form (Traub, SIAM
    Review 1966), over any leading stack axes of x.  Row i is w_i times the
    coefficients of M(x)/(x + x_i), lowest first, with M = prod_j (x + x_j)
    and w_i = 1/prod_{j!=i}(x_i + x_j).  Raises SingularMatrix on a repeated point."""
    x = np.asarray(x, dtype=np.int64)
    n = x.shape[-1]
    den = field.prod((x[..., :, None] ^ x[..., None, :]) | np.eye(n, dtype=np.int64))  # 1/w_i
    if not den.all():
        raise SingularMatrix("repeated Vandermonde point")
    # coefficient index leading, so every step runs on whole contiguous planes;
    # M highest coefficient first, one factor (x + x_j) per step
    h = np.zeros((n + 1,) + x.shape[:-1], dtype=np.int64)
    h[0] = 1
    for j in range(n):
        h[1 : j + 2] ^= field.vmul(h[: j + 1], x[..., j])
    q = np.empty((n,) + x.shape, dtype=np.int64)
    q[0] = 1  # M/(x + x_i) for every i at once, by synthetic division
    for d in range(1, n):
        q[d] = h[d, ..., None] ^ field.vmul(x, q[d - 1])
    return field.vdiv(np.moveaxis(q[::-1], 0, -1), den[..., None])


class ProgressiveDecoder:
    """Error-erasure decoder over a block of rows, fed symbols incrementally.

    The rows share one set of received positions: each absorb delivers,
    per position, one symbol for every row.  ``rows=None`` is a block of
    one row that takes and returns plain ints.  Positions never absorbed
    count as erasures; a decode attempt may be made after any absorb.

    Errors are located by Welch-Berlekamp interpolation.  The first dim
    positions absorbed are the base B; every later position p is a point
    (a^p, z_p) of the key equation Lambda(a^p)·z_p = g(a^p), deg g <
    deg Lambda, where z_p re-encodes y_p against B.  Row 0's basis of
    solutions is extended at each absorb, so each retrieval round pays
    only for its new symbols.  An attempt decodes the rows into messages
    by interpolation through a base outside the located errors (see attempt).
    """

    def __init__(self, params: RsParams, rows: int | None = None):
        self.params = params
        self.rows = rows
        height = 1 if rows is None else rows
        self.word = np.zeros((height, params.n), dtype=np.int64)  # 0 where unread
        self.have = np.zeros(params.n, dtype=bool)
        self._base: list[int] = []  # the first dim positions absorbed
        self._points: list[int] = []  # every later one, in absorb order
        self._bary = None  # _barycentric on B, once B is complete; see _z
        self._t: dict[int, np.ndarray] = {}  # W·y_B per row, see _z
        self._basis = _start_basis()  # row 0's

    @property
    def syndromes(self) -> np.ndarray:
        """S_j = sum_p w_p·a^{p·j}·y_p over the received symbols, per row."""
        params = self.params
        terms = params.field.vmul(params.powers[: params.two_t], params.w)  # w_p·a^{j·p}
        synd = params.field.matmul(self.word, terms.T)
        return synd[0] if self.rows is None else synd

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
            try:
                ys = np.array(list(new_symbols.values()), dtype=np.int64)
            except ValueError:  # numpy's "inhomogeneous shape": flatten, then compare sizes
                flat = [np.ravel(v) for v in new_symbols.values()]
                sizes = sorted({v.size for v in flat})
                if len(sizes) > 1:
                    raise LengthMismatch(f"symbol vectors of unequal lengths {sizes}") from None
                ys = np.array(flat, dtype=np.int64)
            ys = ys.reshape(len(pos), -1)
            if ys.shape[1] != len(self.word):
                raise LengthMismatch(f"expected {len(self.word)} symbols per position, got {ys.shape[1]}")
            if np.bitwise_or.reduce(ys, axis=None) >> field.m:  # a bit at or above m, or the sign
                raise InvalidParams(f"symbol {ys[ys >> field.m != 0][0]} outside field of size {field.q}")
            self.word[:, pos] = ys.T  # (rows, positions)
            self.have[pos] = True
            room = params.dim - len(self._base)
            self._base += pos[:room]
            if 0 < room <= len(pos):
                self._bary = _barycentric(params, self._base)
            new = pos[room:]
            if new:
                self._points += new
                if len(self.word):
                    _interpolate(field, self._basis, new, self._z(0, new), params.two_t // 2)
        return self

    def _z(self, r: int, points: list[int]) -> list[int]:
        """Row r re-encoded against the complete base B at the points.

        z_p = (y_p - T(a^p))/V_B(a^p), with T the interpolant of degree
        < dim through the row on B and V_B = prod_{q in B}(x + a^q), is
        v_p·y_p + t_p, where t = W·y_B in the barycentric form (W, v) of
        ``_barycentric``.  The base symbols never change once B is
        complete, so each row's t is computed once, at every position.
        """
        field, (weighted, v), y = self.params.field, self._bary, self.word[r]
        if r not in self._t:
            self._t[r] = np.bitwise_xor.reduce(field.vmul(weighted, y[self._base]), axis=1)
        return (self._t[r][points] ^ field.vmul(v[points], y[points])).tolist()

    def _locate(self, r: int) -> list[int]:
        """Error positions of row r, or DecodeFailure past its radius.

        Row 0 reads the basis kept across absorbs; any other row builds
        its own from scratch.  With N points, the least element of the
        basis is the unique solution of least degree: it locates e errors
        exactly when 2e <= N, i.e. 2e + s <= n - dim, and then has e
        distinct roots among the received positions.
        """
        basis = self._basis
        if r:
            basis = _start_basis()
            _interpolate(self.params.field, basis, self._points, self._z(r, self._points),
                         self.params.two_t // 2)
        lam, g, _ = min(basis, key=lambda b: b[2])
        lam, g = _trim(lam), _trim(g)
        deg = len(lam) - 1
        if deg < 0 or 2 * deg > len(self._points) or len(g) > deg:
            raise DecodeFailure(f"no locator within the budget for {len(self._points)} points")
        if not deg:
            return []
        received = self.have.nonzero()[0]
        at = self.params.field.matmul([lam], self.params.powers[: deg + 1, received])[0]  # Lambda(a^p)
        roots = received[at == 0]
        if len(roots) != deg:
            raise DecodeFailure(f"locator of degree {deg} has {len(roots)} roots")
        return roots.tolist()

    def attempt(self, right=None) -> DecodeOutcome:
        """Every row's message, times ``right`` if given; errors are the
        union and the total over rows.

        The rows share their error positions (a Byzantine node corrupts its
        whole chunk).  Row 0 is located first, from its kept basis, so a
        round that cannot succeed fails here, before any row is decoded.
        Its errors seed the located set E.  B' is the first dim received
        positions outside E, in absorb order.  A row whose interpolant
        through B' agrees with it at the other received positions outside E
        is within its unique-decoding radius, since 2|E| + s <= n-dim; its
        message is y_B'·P·(G[:, :dim])⁻¹, P the interpolation from B' to
        positions 0..dim-1; no other erasure is filled.  The first row still
        dirty is located alone; its errors join E (or replace it past the
        budget).
        """
        params = self.params
        field = params.field
        received = self._base + self._points  # in absorb order
        s = params.n - len(received)
        if s > params.two_t:
            raise DecodeFailure(f"{s} erasures exceed the {params.two_t} parity symbols")
        located = self._locate(0) if len(self.word) else []
        factors = [params._message_inverse] + ([] if right is None else [np.asarray(right)])
        messages = np.zeros((len(self.word), factors[-1].shape[1]), dtype=np.int64)
        errors, count = set(), 0

        def solve(rows: np.ndarray) -> np.ndarray:
            """Decode the rows that are clean under E; return the others."""
            nonlocal count
            out = set(located)
            kept = [p for p in received if p not in out]
            base, others = kept[: params.dim], kept[params.dim :]
            weighted, v = _barycentric(params, base)
            word = self.word if rows.size == len(self.word) else self.word[rows]
            y = word[:, base]
            gaps = [p for p in range(params.dim) if not self.have[p]]  # erased, among 0..dim-1
            # for y·P the gaps join the check product, or P joins the factors if cheaper
            compose = len(y) * len(gaps) >= params.dim**2
            cols = others + located + gaps
            interp = np.ascontiguousarray(field.vdiv(weighted[cols], v[cols, None]).T)  # T(a^p), T on B'
            todo, vals, evaluated = rows[:0], y[:, :0], len(cols) - len(gaps) * compose
            if evaluated:
                vals = field.matmul(y, interp[:, :evaluated])
                dirty = (vals[:, : len(others)] != word[:, others]).any(axis=1)
                if dirty.any():
                    todo, rows, y, word, vals = rows[dirty], rows[~dirty], y[~dirty], word[~dirty], vals[~dirty]
                hit = vals[:, len(others) : len(others) + len(located)] != word[:, located]
                errors.update(np.compress(hit.any(axis=0), located).tolist())
                count += int(hit.sum())
            if rows.size:  # positions 0..dim-1 are the dim least of base + cols
                pick, chain = np.argsort(base + cols)[: params.dim], factors
                if compose:  # y·P, P: unit columns on B', the interpolant elsewhere
                    chain = [np.hstack([np.eye(params.dim, dtype=np.int64), interp])[:, pick]] + factors
                else:  # the symbols received, but the interpolant at E and the gaps
                    y, at = word[:, : params.dim].copy(), np.flatnonzero(pick >= params.dim + len(others))
                    y[:, at] = vals[:, pick[at] - params.dim]
                if len(y) > params.dim:  # the small factors first when y is taller
                    chain = [reduce(field.matmul, chain)]
                messages[rows] = reduce(field.matmul, chain, y)
            return todo

        todo = solve(np.arange(len(self.word)))
        while todo.size:
            r = int(todo[0])
            found = self._locate(r)
            union = set(found).union(located)
            located = sorted(union if 2 * len(union) + s <= params.two_t else found)
            todo = solve(todo)
            if todo.size and todo[0] == r:  # never, for an exact locator
                raise DecodeFailure(f"row {r} stays dirty under its own errors")
        return DecodeOutcome(messages[0] if self.rows is None else messages, errors, count,
                             params if right is None else None)


def _barycentric(params: RsParams, base) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric weights of the interpolant through the positions of base.

    Returns (W, v): W[p, j] = w_j / (a^p + a^{base_j}), with w_j =
    1/prod_{q in base, q != base_j}(a^{base_j} + a^q), and v_p = 1/V(a^p),
    V = prod_{q in base}(x + a^q), for p outside the base (v_p = w_j at
    p = base_j).  The interpolant T of degree < len(base) through y on the
    base is T(a^p) = sum_j W[p, j]·y_{base_j} / v_p.
    """
    field = params.field
    inv = params.inv_diff[:, base]
    v = field.prod(inv)
    return field.vmul(inv, v[base]), v


def _start_basis() -> list:
    """(Lambda, g, weight) pairs spanning all solutions before any point."""
    return [[[1], [], 0], [[], [1], 1]]


def _interpolate(field: GF, basis: list, positions, zs, cap: int) -> None:
    """Extend basis by the points (a^p, z_p), one update per point.

    The weight of (Lambda, g) is max(deg Lambda, deg g + 1); element 0
    leads in Lambda and element 1 in g, and a tie in weight orders
    element 1 first.  Per point, the least element with a nonzero
    discrepancy Delta = Lambda(a^p)·z_p + g(a^p) is the pivot: a multiple
    of it clears the other's discrepancy, and it is then multiplied by
    (x + a^p).
    (Koetter's update on the Groebner basis of Fitzpatrick, "On the key
    equation", IEEE T-IT 1995.)

    Weights never fall, and a locator needs 2·weight <= N <= n - dim.
    So past cap = (n - dim) // 2 element 0 can never locate, and element
    1, which could only pivot for element 0 from a weight at most
    element 0's, is no longer kept up to date.
    """
    exp, log, order = field.exp, field.log, field.order  # Python ints, see ``galois``

    def at(poly, p):  # poly(a^p) by Horner; log(a^p) = p
        acc = 0
        for c in reversed(poly):
            acc = exp[log[acc] + p] ^ c if acc else c
        return acc

    def add(a, c, b):  # a + c·b, in place, for nonzero c
        lc = log[c]
        a.extend([0] * (len(b) - len(a)))
        for i, x in enumerate(b):
            if x:
                a[i] ^= exp[log[x] + lc]

    def times(poly, p):  # poly·(x + a^p)
        if not poly:
            return poly
        return [y ^ exp[log[x] + p] if x else y for x, y in zip(poly + [0], [0] + poly)]

    (l0, g0, w0), (l1, g1, w1) = basis
    for p, z in zip(positions, zs):
        if w0 > cap:
            break
        d0 = at(g0, p)
        if z and (v := at(l0, p)):
            d0 ^= exp[log[v] + log[z]]
        if w1 > cap:
            if d0:
                l0, g0, w0 = times(l0, p), times(g0, p), w0 + 1
            continue
        d1 = at(g1, p)
        if z and (v := at(l1, p)):
            d1 ^= exp[log[v] + log[z]]
        if d1 and (not d0 or w1 <= w0):
            if d0:
                c = exp[log[d0] - log[d1] + order]
                add(l0, c, l1)
                add(g0, c, g1)
            l1, g1, w1 = times(l1, p), times(g1, p), w1 + 1
        elif d0:
            if d1:
                c = exp[log[d1] - log[d0] + order]
                add(l1, c, l0)
                add(g1, c, g0)
            l0, g0, w0 = times(l0, p), times(g0, p), w0 + 1
    basis[:] = [l0, g0, w0], [l1, g1, w1]


def _trim(poly: list[int]) -> list[int]:
    """poly without its zero high coefficients; [] for the zero polynomial."""
    end = len(poly)
    while end and not poly[end - 1]:
        end -= 1
    return poly[:end]


def decode_error_erasure(word: ReceivedWord, params: RsParams) -> DecodeOutcome:
    """One-shot decode of a received word (batch variant of the decoder)."""
    return ProgressiveDecoder(params).absorb(word.symbols).attempt()
