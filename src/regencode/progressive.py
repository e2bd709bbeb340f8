"""The product-matrix layer shared by both code families.

Each stripe's B message symbols fill a symmetric message matrix U, whose
rows are encoded with the [n, d] evaluation code; node i stores column i
of U·G, and a helper answers a repair of node f with its chunk times
g_f = G[:α, f].  The families differ only in U's index map ``fill``
(``msr``: two symmetric α×α blocks side by side; ``mbr``: one symmetric
d×d matrix with a zero corner), in how a collector reconstructs U, and
in the column map that turns the decoded g_f·U into the lost column.
This module holds the rest: parameter checks and generator matrices, U's
packing (``build_u``) and unpacking (``read_u``, which reads each message
symbol once), ``encode``, ``repair_response``, the fast-path frame and the
progressive retrieval driver, whose decoder hands back every row's
message, times the column map when it regenerates.

Reconstruction from exactly k honest columns needs no error decoding.
``reconstruct_fast`` checks the columns once, lays them side by side as
y[s, t·α + a] (symbol a of node nodes[t] in stripe s) and hands y to the
family's ``algebra(y, nodes, params)``, which is linear in the k·α
symbols a stripe reads.  When ``params.by_matrix`` holds (the family's
cost rule, which implies β > k·α, so D is amortised) it runs the algebra
once on the k·α identity instead, to get the access set's (k·α)×B decoding
matrix D, and returns y·D.

Reconstruction and regeneration read what a fault-free run needs and
read more only when the caller's acceptance test turns the decoded result
down.  Each procedure takes one ``accept(candidate)``, which returns the
result, or None to read on; the codecs decode and never judge.
Round one asks for ``first`` items (k columns to reconstruct, d repair
responses to regenerate).  Every later round asks for
``max(dim - count, 0) + 2`` more, where ``dim`` is the dimension of the
row code being decoded and ``count`` the items read so far: ``dim``
symbols are the least a row decode needs, and each error it must correct
costs two more.  That yields the ladders k, d+2, d+4, … (MSR rows),
k, k+2, … (MBR's A2 rows) and d, d+2, … (regeneration).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ClusterExhausted, DecodeFailure, InvalidParams, LengthMismatch, SelfRepair
from .galois import GF
from .rscode import ProgressiveDecoder, RsParams


class ProductMatrixParams:
    """Geometry and generator matrices for one deployment.  Each family
    subclass sets ``family``, ``alpha_for``, ``B`` and ``fill``, the
    message index of every entry of U (α×d; B marks MBR's zero corner)."""

    def __init__(self, n: int, k: int, d: int, beta: int, field: GF):
        if not 1 <= k <= d <= n - 1:  # the text of analysis.cut_set_bound
            raise InvalidParams(f"need 1 <= k <= d <= n-1, got n={n}, k={k}, d={d}")
        if beta < 1:
            raise InvalidParams(f"beta={beta} must be positive")
        self.n, self.k, self.d, self.beta = n, k, d, beta
        self.field = field
        self.alpha = self.alpha_for(k, d)
        self.check_point()  # before any table is built
        self.code = RsParams(n, d, field)
        self.G = self.code.G  # d×n; column i is g_i

    def check_point(self):
        """The family's own rules: raise InvalidParams for a point it cannot build."""

    @cached_property
    def reads(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of each message symbol's first row-major entry of U."""
        _, first = np.unique(self.fill, return_index=True)
        return np.divmod(first[: self.B], self.d)

    def __repr__(self):
        return (
            f"{type(self).__name__}(n={self.n}, k={self.k}, d={self.d}, "
            f"beta={self.beta}, m={self.field.m})"
        )


def symmetric_fill(size: int, start: int = 0) -> np.ndarray:
    """Message index of every entry of a size×size symmetric matrix whose
    upper triangle holds start, start+1, … in row-major order."""
    fill = np.zeros((size, size), dtype=np.int64)
    rows, cols = np.triu_indices(size)
    fill[rows, cols] = fill[cols, rows] = start + np.arange(rows.size)
    return fill


def build_u(message, params) -> np.ndarray:
    """Arrange B message symbols into U.  Any leading axes index stripes."""
    msg = np.asarray(message, dtype=np.int64)
    if msg.shape[-1:] != (params.B,):
        raise LengthMismatch(f"expected {params.B} message symbols, got {msg.shape}")
    u = msg.take(params.fill, axis=-1, mode="clip")  # MBR's corner reads symbol B-1,
    u[..., params.fill == params.B] = 0  # then is cleared
    return u


def read_u(u, params) -> np.ndarray:
    """Inverse of build_u.  Every first entry lies in U's top k rows, so
    those alone do for MBR ([A1 | A2ᵀ]).  Any leading axes index stripes."""
    rows, cols = params.reads
    return np.asarray(u)[..., rows, cols]


def encode(stripes, params) -> np.ndarray:
    """Chunks for all nodes, shape (n, beta, alpha); stripes is beta×B."""
    stripes = np.asarray(stripes, dtype=np.int64)
    if stripes.shape != (params.beta, params.B):
        raise LengthMismatch(
            f"expected {params.beta}x{params.B} message stripes, got {stripes.shape}"
        )
    u_all = build_u(stripes, params).reshape(-1, params.d)
    c_all = params.field.matmul(u_all, params.G)  # (beta*alpha) × n
    return c_all.reshape(params.beta, params.alpha, params.n).transpose(2, 0, 1)


def repair_response(chunk, holder: int, failed: int, params) -> np.ndarray:
    """Helper's per-stripe download: its chunk times g_failed."""
    if holder == failed:
        raise SelfRepair(f"node {failed} cannot help regenerate itself")
    g = params.G[: params.alpha, failed : failed + 1]  # alpha × 1
    return params.field.matmul(np.asarray(chunk, dtype=np.int64), g)[:, 0]


def checked_columns(columns: dict, params) -> np.ndarray:
    """The columns side by side, y[s, t·α + a] = symbol a of the t-th node
    in stripe s.  A node id outside [0, n) or a symbol outside the field
    raises InvalidParams, a column that is not β×α LengthMismatch."""
    field, nodes, shape = params.field, list(columns), (params.beta, params.alpha)
    if not all(0 <= i < params.n for i in nodes):
        raise InvalidParams(f"node ids {nodes} outside [0, {params.n})")
    cols = [np.asarray(columns[i], dtype=np.int64) for i in nodes]
    if any(c.shape != shape for c in cols):
        raise LengthMismatch(f"columns must be {shape[0]}x{shape[1]}, got {[c.shape for c in cols]}")
    y = np.concatenate(cols, axis=1)
    if np.bitwise_or.reduce(y, axis=None) >> field.m:  # a bit at or above m, or the sign
        raise InvalidParams(f"symbol {y[(y < 0) | (y >= field.q)][0]} outside field of size {field.q}")
    return y


def reconstruct_fast(columns: dict, params, algebra) -> np.ndarray:
    """All β message stripes from exactly k columns by the family's
    ``algebra`` (see the module docstring); never error-decodes, so
    corrupt columns give a corrupt candidate for the integrity test."""
    if len(columns) != params.k:
        raise LengthMismatch(f"fast path needs exactly k={params.k} columns")
    y, nodes = checked_columns(columns, params), list(columns)
    if params.by_matrix:  # unit stripe s reads 1 at s
        return params.field.matmul(y, algebra(np.eye(y.shape[1], dtype=np.int64), nodes, params))
    return algebra(y, nodes, params)


def run(source, first: int, code, beta: int, rows: int, attempt, accept, take=None):
    """Fetch, decode and test until ``accept`` returns a result; return it.

    One block decoder over ``code`` holds beta × rows rows (stripe-major),
    fed the (beta, rows) symbols of each fetched item, or of ``take(item)``.
    ``attempt(received, decode)`` builds a candidate from the {node: data}
    received so far; ``decode(right)`` returns every row's message times
    ``right`` (None: the identity).  The decoder is built at the first
    ``decode()`` and fed at each call, so an accepted fast path needs none.
    A DecodeFailure counts as no candidate, and ``accept(candidate)``
    returning None as a rejected one.  Raises ClusterExhausted once the
    source runs out.
    """
    received: dict = {}
    pending: list = []
    decoder = None

    def decode(right=None) -> np.ndarray:
        nonlocal decoder
        if decoder is None:
            decoder = ProgressiveDecoder(code, beta * rows)
        decoder.absorb({j: np.asarray(data if take is None else take(data)).reshape(-1)
                        for j, data in pending})
        pending.clear()
        width = code.dim if right is None else right.shape[1]  # rows may be 0 (MBR, d = k)
        return decoder.attempt(right).messages.reshape(beta, rows, width)

    want = first
    while True:
        got = source.fetch(want)
        if got:
            received.update(got)
            pending.extend(got)
            try:
                candidate = attempt(received, decode)
            except DecodeFailure:
                candidate = None
            result = None if candidate is None else accept(candidate)
            if result is not None:
                return result
        if len(got) < want:
            raise ClusterExhausted(f"no verified result after reading {len(received)} nodes")
        want = max(code.dim - len(received), 0) + 2


def regenerate(source, failed: int, params, accept, right=None):
    """Rebuild node ``failed`` from helper responses; return what ``accept``
    returns for the first candidate chunk it takes.

    ``right`` is the family's d×α column map (None: the identity); each
    round's decoder returns g_failed·U times it, the lost chunk, in one
    product.
    """
    def attempt(received, decode):
        if failed in received:
            raise SelfRepair(f"node {failed} cannot help regenerate itself")
        return decode(right)[:, 0]

    return run(source, params.d, params.code, params.beta, 1, attempt, accept)
