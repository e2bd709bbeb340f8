"""Minimum-bandwidth regenerating code for any k <= d.

The B = kd - k(k-1)/2 message symbols fill a symmetric d×d matrix

    U = [[A1, A2ᵀ],
         [A2,  0 ]]

with A1 k×k symmetric and A2 (d-k)×k.  Node i stores column i of
C = U·G under the [n, d] evaluation code; per-node storage is α = d
symbols per stripe, but repair needs only one symbol per helper.

Because the right blocks of U's bottom rows are zero, rows k..d-1 of C
are codewords of the [n, k] code.  Reconstruction therefore runs in two
phases on the same accessed columns: decode the bottom rows to get A2,
subtract A2ᵀ·(bottom rows of G) from the top rows — leaving A1·G_k —
and decode those to get A1.  When the checksum test rejects, more
columns are read on the shared schedule of ``progressive``, topped up to
k, the dimension of the [n, k] code.  Regeneration works exactly as in
the MSR family except the decoded vector g_i·U, transposed via U's
symmetry, *is* the lost column.
"""

from __future__ import annotations

import numpy as np

from . import progressive
from .errors import (
    InvalidParams,
    LengthMismatch,
    SelfRepair,
)
from .galois import GF
from .rscode import ProgressiveDecoder, RsParams, invert_submatrix, vandermonde


class MbrParams:
    """Geometry, generator matrices, and fill maps for one deployment."""

    family = "mbr"

    @staticmethod
    def alpha_for(k: int, d: int) -> int:  # symbols per node and stripe
        return d

    def __init__(self, n: int, k: int, d: int, beta: int, field: GF):
        if k < 1:
            raise InvalidParams(f"k={k} must be positive")
        if not k <= d <= n - 1:
            raise InvalidParams(f"need k <= d <= n-1, got n={n}, k={k}, d={d}")
        if n > field.order - 1:
            raise InvalidParams(f"n={n} exceeds the {field.order - 1} nonzero points")
        if beta < 1:
            raise InvalidParams(f"beta={beta} must be positive")
        self.n, self.k, self.d, self.beta = n, k, d, beta
        self.field = field
        self.alpha = self.alpha_for(k, d)
        self.B = k * d - k * (k - 1) // 2
        self.code = RsParams(n, d, field)
        self.code_k = RsParams(n, k, field)
        self.G = vandermonde(self.code)  # d×n
        self.bottom = self.G[k:d, :]  # rows multiplying A2ᵀ
        self.ghat_inv = invert_submatrix(self.G, range(d), field)
        self.ghat_k_inv = invert_submatrix(self.G[:k], range(k), field)
        self.fill1, self.fill2 = _fill_maps(k, d)
        tri = np.triu_indices(k)
        self._canon1 = (tri[0], tri[1], self.fill1[tri])

    def __repr__(self):
        return (
            f"MbrParams(n={self.n}, k={self.k}, d={self.d}, "
            f"beta={self.beta}, m={self.field.m})"
        )


def _fill_maps(k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Message index of every entry of A1 (k×k) and A2 ((d-k)×k)."""
    f1 = np.zeros((k, k), dtype=np.int64)
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            k1 = (i - 1) * (k + 1) - i * (i + 1) // 2 + j
            f1[i - 1, j - 1] = f1[j - 1, i - 1] = k1
    f2 = np.zeros((d - k, k), dtype=np.int64)
    for i in range(k + 1, d + 1):
        for j in range(1, k + 1):
            # the row-major offset overshoots by one; shift back so the
            # combined map lands exactly on 0..B-1
            k2 = (i - k - 1) * k + k * (k + 1) // 2 + j - 1
            f2[i - k - 1, j - 1] = k2
    B = k * d - k * (k - 1) // 2
    assert sorted(set(f1.reshape(-1)) | set(f2.reshape(-1))) == list(range(B))
    return f1, f2


def build_u(message, params: MbrParams) -> tuple[np.ndarray, np.ndarray]:
    """Arrange B message symbols into (A1, A2).  Any leading axes index
    stripes."""
    msg = np.asarray(message, dtype=np.int64)
    if msg.shape[-1:] != (params.B,):
        raise LengthMismatch(f"expected {params.B} message symbols, got {msg.shape}")
    return msg[..., params.fill1], msg[..., params.fill2]


def read_u(a1, a2, params: MbrParams) -> np.ndarray:
    """Inverse of build_u; A1 is read from its upper triangle, A2 in full.
    Any leading axes index stripes."""
    a1 = np.asarray(a1)
    out = np.zeros(a1.shape[:-2] + (params.B,), dtype=np.int64)
    r1, c1, k1 = params._canon1
    out[..., k1] = a1[..., r1, c1]
    out[..., params.fill2] = a2
    return out


def assemble_u(a1, a2, params: MbrParams) -> np.ndarray:
    """The full symmetric d×d information matrix.  Any leading axes index
    stripes."""
    a1 = np.asarray(a1)
    a2 = np.asarray(a2)
    k = params.k
    u = np.zeros(a1.shape[:-2] + (params.d, params.d), dtype=np.int64)
    u[..., :k, :k] = a1
    u[..., k:, :k] = a2
    u[..., :k, k:] = np.swapaxes(a2, -1, -2)
    return u


def encode(stripes, params: MbrParams) -> np.ndarray:
    """Chunks for all nodes, shape (n, beta, d); stripes is beta×B."""
    stripes = np.asarray(stripes, dtype=np.int64)
    if stripes.shape != (params.beta, params.B):
        raise LengthMismatch(
            f"expected {params.beta}x{params.B} message stripes, got {stripes.shape}"
        )
    u_all = assemble_u(*build_u(stripes, params), params).reshape(-1, params.d)  # (beta*d) × d
    c_all = params.field.matmul(u_all, params.G)
    return c_all.reshape(params.beta, params.d, params.n).transpose(2, 0, 1)


def reconstruct(collector, params: MbrParams, verify) -> tuple[np.ndarray, int]:
    """Two-phase progressive reconstruction from k columns upward.

    A2's rows are decoded with the [n, k] code, so ``progressive.run``
    tops up to k columns, not d.  Returns (stripes, decode_rounds).
    """
    field = params.field
    beta, n, k, d = params.beta, params.n, params.k, params.d

    def attempt(_rounds, received, decode):
        a2 = field.matmul(decode().reshape(-1, k), params.ghat_k_inv).reshape(beta, d - k, k)
        # strip the A2ᵀ contribution; the top rows become A1·G_k
        e_full = field.matmul(a2.transpose(0, 2, 1).reshape(beta * k, d - k), params.bottom)
        e_full = e_full.reshape(beta, k, n)
        dec = ProgressiveDecoder(params.code_k, beta * k)  # row s*k + r: stripe s, row r
        dec.absorb({
            p: (np.asarray(col)[:, :k] ^ e_full[:, :, p]).reshape(-1)
            for p, col in received.items()
        })
        a1 = field.matmul(dec.attempt().codeword[:, :k], params.ghat_k_inv).reshape(beta, k, k)
        return read_u(a1, a2, params)

    take = lambda column: np.asarray(column)[:, k:]  # rows k..d-1 carry A2
    return progressive.run(collector, k, params.code_k, beta, d - k, take, attempt, verify)


def repair_response(chunk, holder: int, failed: int, params: MbrParams) -> np.ndarray:
    """Helper's per-stripe download: inner product with the full column g_failed."""
    if holder == failed:
        raise SelfRepair(f"node {failed} cannot help regenerate itself")
    g = params.G[:, failed : failed + 1]  # d × 1
    chunk = np.asarray(chunk, dtype=np.int64)
    return params.field.matmul(chunk, g)[:, 0]


def regenerate(source, failed: int, params: MbrParams, recover, chunk_crc) -> tuple[np.ndarray, int]:
    """Rebuild node `failed` exactly; by U's symmetry the decoded g_i·U
    transposes into the stored column itself."""
    return progressive.regenerate(source, failed, params, recover, chunk_crc, lambda t: t)
