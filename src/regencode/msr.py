"""Minimum-storage regenerating code for d = 2k-2.

The B = α(α+1) message symbols (α = k-1 = d/2) fill two symmetric α×α
matrices A1, A2.  Row r of U = [A1 | A2] is encoded with the [n, d]
evaluation code, and node i stores column i of the resulting C = U·G,
which collapses to A1·g_i + λ_i·A2·g_i with g_i = (1, b_i, …, b_i^{α-1}),
b_i = a^i and λ_i = b_i^α.  Each of the β stripes carries an independent
U over the same node geometry.

Reconstruction from exactly k = α+1 columns needs no error decoding:
for accessed nodes i ≠ j the cross projections g_j·y_i and g_i·y_j
differ only in their A2 terms (the A1 terms cancel by symmetry), so
(λ_i + λ_j) divides out g_j·A2·g_i, and α such bilinear values pin down
A2·g_i through an invertible Vandermonde system; A1 follows the same
way.  When the checksum test rejects that result, the collector falls
back to per-row error-erasure decoding of the [n, d] row code on the
shared schedule of ``progressive``.

Regeneration of node i downloads one symbol per stripe from each helper
j — the inner product g_i·y_j, which is coordinate j of the [n, d]
codeword (g_i·U)·G — decodes g_i·U, and re-derives the lost column.
"""

from __future__ import annotations

import numpy as np

from . import progressive
from .errors import (
    InvalidParams,
    LengthMismatch,
    SelfRepair,
    SingularMatrix,
    SingularSystem,
)
from .galois import GF
from .rscode import RsParams, gf_inverse, invert_submatrix, vandermonde


class MsrParams:
    """Geometry, generator matrices, and fill maps for one deployment."""

    family = "msr"

    @staticmethod
    def alpha_for(k: int, d: int) -> int:  # symbols per node and stripe
        return d - k + 1

    def __init__(self, n: int, k: int, d: int, beta: int, field: GF):
        if k < 2:
            raise InvalidParams(f"k={k} leaves no message symbols")
        if d != 2 * (k - 1):
            raise InvalidParams(f"construction requires d = 2k-2, got k={k}, d={d}")
        if not k <= d <= n - 1:
            raise InvalidParams(f"need k <= d <= n-1, got n={n}, k={k}, d={d}")
        if n > field.order - 1:
            raise InvalidParams(f"n={n} exceeds the {field.order - 1} nonzero points")
        if beta < 1:
            raise InvalidParams(f"beta={beta} must be positive")
        alpha = self.alpha_for(k, d)
        if field.m < (n * alpha - 1).bit_length():
            raise InvalidParams(
                f"m={field.m} too small for n*alpha={n * alpha}; powers would wrap"
            )
        self.n, self.k, self.d, self.beta = n, k, d, beta
        self.field = field
        self.alpha = alpha
        self.B = alpha * (alpha + 1)
        self.code = RsParams(n, d, field)
        self.G = vandermonde(self.code)  # d×n
        self.ghat_inv = invert_submatrix(self.G, range(d), field)
        self.gcols = self.G[:alpha, :]  # column i is g_i
        self.lam = field.power(np.arange(n, dtype=np.int64) * alpha)
        if len(set(self.lam.tolist())) != n:
            raise InvalidParams("node multipliers lambda_i collide; enlarge the field")
        self.fill1, self.fill2 = _fill_maps(alpha)
        tri = np.triu_indices(alpha)
        self._canon1 = (tri[0], tri[1], self.fill1[tri])
        self._canon2 = (tri[0], tri[1], self.fill2[tri])

    def __repr__(self):
        return (
            f"MsrParams(n={self.n}, k={self.k}, d={self.d}, "
            f"beta={self.beta}, m={self.field.m})"
        )


def _fill_maps(alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Message index of every entry of A1 and A2 (symmetric completion)."""
    f1 = np.zeros((alpha, alpha), dtype=np.int64)
    f2 = np.zeros((alpha, alpha), dtype=np.int64)
    for i in range(1, alpha + 1):
        for j in range(i, alpha + 1):
            k1 = (i - 1) * (alpha + 1) - i * (i + 1) // 2 + j
            f1[i - 1, j - 1] = f1[j - 1, i - 1] = k1
            jj = j + alpha
            k2 = (alpha + 1) * (i - 1) + alpha * (alpha + 1) // 2 - i * (i + 1) // 2 + (jj - alpha)
            f2[i - 1, j - 1] = f2[j - 1, i - 1] = k2
    B = alpha * (alpha + 1)
    # the index maps must partition 0..B-1 between the two matrices
    assert sorted(set(f1.reshape(-1)) | set(f2.reshape(-1))) == list(range(B))
    return f1, f2


def build_u(message, params: MsrParams) -> tuple[np.ndarray, np.ndarray]:
    """Arrange B message symbols into the symmetric pair (A1, A2).
    Any leading axes index stripes."""
    msg = np.asarray(message, dtype=np.int64)
    if msg.shape[-1:] != (params.B,):
        raise LengthMismatch(f"expected {params.B} message symbols, got {msg.shape}")
    return msg[..., params.fill1], msg[..., params.fill2]


def read_u(a1, a2, params: MsrParams) -> np.ndarray:
    """Inverse of build_u; reads the upper-triangle entries of each matrix.
    Any leading axes index stripes."""
    a1 = np.asarray(a1)
    a2 = np.asarray(a2)
    out = np.zeros(a1.shape[:-2] + (params.B,), dtype=np.int64)
    r1, c1, k1 = params._canon1
    r2, c2, k2 = params._canon2
    out[..., k1] = a1[..., r1, c1]
    out[..., k2] = a2[..., r2, c2]
    return out


def encode(stripes, params: MsrParams) -> np.ndarray:
    """Chunks for all nodes, shape (n, beta, alpha); stripes is beta×B."""
    stripes = np.asarray(stripes, dtype=np.int64)
    if stripes.shape != (params.beta, params.B):
        raise LengthMismatch(
            f"expected {params.beta}x{params.B} message stripes, got {stripes.shape}"
        )
    a1, a2 = build_u(stripes, params)
    u_all = np.concatenate([a1, a2], axis=2).reshape(-1, params.d)  # (beta*alpha) × d
    c_all = params.field.matmul(u_all, params.G)  # (beta*alpha) × n
    return c_all.reshape(params.beta, params.alpha, params.n).transpose(2, 0, 1)


def reconstruct_fast(columns: dict[int, np.ndarray], params: MsrParams) -> np.ndarray:
    """Recover all beta message stripes from exactly k healthy columns.

    Always produces a candidate message (corrupt inputs yield a corrupt
    candidate for the checksum test to reject); never error-decodes.
    Every step runs once over all stripes: α+2 field matrix products and
    two elementwise products, whatever beta is.
    """
    field = params.field
    nodes = list(columns)
    if len(nodes) != params.k:
        raise LengthMismatch(f"fast path needs exactly k={params.k} columns")
    alpha, k, beta = params.alpha, params.k, params.beta
    m_rows = params.gcols[:, nodes].T  # row t = g_{nodes[t]}
    others = [[o for o in range(k) if o != t] for t in range(alpha)]
    # W has columns g_i, i in nodes[:alpha]; V_t has rows g_o, o in others[t]
    try:
        w_inv, *v_invs = gf_inverse(field, np.stack([m_rows[:alpha].T] + [m_rows[o] for o in others]))
    except SingularMatrix as e:  # defensive: distinct points make this impossible
        raise SingularSystem(str(e)) from e
    lam = params.lam[nodes]
    # 1/(λ_o + λ_t) off the diagonal; the diagonal is never read
    gap = (lam[:, None] ^ lam[None, :]) + np.eye(k, dtype=np.int64)
    gap_inv = field.vdiv(1, gap[:, :alpha])

    # stripes innermost throughout, so every bulk step runs on long rows
    y = np.concatenate([np.asarray(columns[i], dtype=np.int64).T for i in nodes], axis=1)
    proj = field.matmul(m_rows, y).reshape(k, k, beta)  # proj[j, t, s] = g_j · y_t
    sym = proj[:, :alpha] ^ proj.transpose(1, 0, 2)[:, :alpha]
    q = field.vmul(sym, gap_inv[:, :, None])  # q[o, t, s] = g_o·A2·g_t
    r = proj[:, :alpha] ^ field.vmul(q, lam[:alpha, None])  # r[o, t, s] = g_o·A1·g_t
    qr = np.concatenate([q, r], axis=2)
    # column t of Z (of W) solves V_t·z = q[others, t] (= r[...]) per stripe
    zw = np.stack([field.matmul(v_invs[t], qr[o, t]) for t, o in enumerate(others)])
    # zw[t, i, (z|w, s)] is the row (i, z|w, s) of the left operand, column t
    a = field.matmul(zw.reshape(alpha, -1).T, w_inv).reshape(alpha, 2, beta, alpha)
    a = a.transpose(1, 2, 0, 3)  # [z|w, s, i, column]
    return read_u(a[1], a[0], params)


def reconstruct(collector, params: MsrParams, verify) -> tuple[np.ndarray, int]:
    """Progressive reconstruction; verify(stripes) is the acceptance test.

    Round one is the fast path on k columns; later rounds decode every row
    over all columns read.  Returns (stripes, decode_rounds).  Raises
    ClusterExhausted once every reachable node has been read.
    """
    def attempt(rounds, received, decode):
        if rounds == 1:
            return reconstruct_fast(received, params) if len(received) == params.k else None
        u = params.field.matmul(decode().reshape(-1, params.d), params.ghat_inv)
        u = u.reshape(params.beta, params.alpha, params.d)
        return read_u(u[..., : params.alpha], u[..., params.alpha :], params)

    return progressive.run(
        collector, params.k, params.code, params.beta, params.alpha,
        lambda column: column, attempt, verify,
    )


def repair_response(chunk, holder: int, failed: int, params: MsrParams) -> np.ndarray:
    """Helper's per-stripe download: inner product of its column with g_failed."""
    if holder == failed:
        raise SelfRepair(f"node {failed} cannot help regenerate itself")
    g = params.gcols[:, failed : failed + 1]  # alpha × 1
    chunk = np.asarray(chunk, dtype=np.int64)
    return params.field.matmul(chunk, g)[:, 0]


def regenerate(source, failed: int, params: MsrParams, recover, chunk_crc) -> tuple[np.ndarray, int]:
    """Rebuild node `failed` exactly from helper responses.

    recover(helpers) returns the node's checksum once enough shares are
    in hand (None before that); chunk_crc(chunk) is the candidate's
    checksum.  The decoded t = g_failed·U gives the lost column as
    t[:α] + λ_failed·t[α:].  Returns (chunk, decode_rounds).
    """
    alpha = params.alpha

    def column(t):
        return t[:, :alpha] ^ params.field.vmul(params.lam[failed], t[:, alpha:])

    return progressive.regenerate(source, failed, params, recover, chunk_crc, column)
