"""Minimum-storage regenerating code for d = 2k-2: its own parameter rules,
the U layout, the reconstruct procedure and the regenerate column map.  The
(n, k, d) check, U's packing, ``encode`` and ``repair_response`` are the
shared product-matrix layer of ``progressive``.

The B = α(α+1) message symbols (α = k-1 = d/2) fill two symmetric α×α
matrices A1, A2, laid out as U = [A1 | A2] by one α×d index map.  Node
i's column of U·G is A1·g_i + λ_i·A2·g_i with g_i = (1, b_i, …,
b_i^{α-1}), b_i = a^i and λ_i = b_i^α.

Reconstruction from exactly k = α+1 columns needs no error decoding:
for accessed nodes o ≠ t the cross projections g_o·y_t and g_t·y_o
differ only in their A2 terms (the A1 terms cancel by symmetry), so
(λ_o + λ_t) divides out F(b_o, b_t) = g_o·A2·g_t, and A1's F follows.
Interpolating x ↦ F(x, b_t) through the other α points fills the
diagonal of the α×α grid M = W^T·A·W (W's columns g_t, t < α), so
A = W⁻ᵀ·M·W⁻¹ (``rscode.vandermonde_inverse``): four matrix products
over all stripes, linear in the B = k·α symbols a stripe reads, in the
fast-path frame of ``progressive``.  Its route rule ``by_matrix`` is β > B
and either B² ≤ k²α + 2kα + 4α³ (α ≤ 3; the per-column algebra's count,
which it was timed against: k²α + 4kα + 4α³ + 2α would move α = 4 to Y·D
untimed) or Y·D runs on one lane group of ``GF.matmul``'s tables (β past
2^(m+1), B symbols to a row: α ≤ 7 over GF(2^8)).  A rejected result
falls back to per-row error-erasure decoding of the [n, d] row code on
``progressive``'s schedule, whose decoder hands back U's rows as messages.

Regeneration decodes t = g_i·U from one symbol per stripe from each
helper straight into the lost column t[:α] + λ_i·t[α:]: the decoder
multiplies by the column map [I; λ_i·I] in the same product.  Both
procedures return what their one ``accept`` returns.
"""

from __future__ import annotations

import numpy as np

from . import progressive
from .errors import InvalidParams
from .progressive import ProductMatrixParams, read_u, symmetric_fill
from .rscode import vandermonde_inverse


class MsrParams(ProductMatrixParams):
    """Product-matrix params with d = 2k-2, the multipliers λ_i and U = [A1 | A2]."""

    family = "msr"

    @staticmethod
    def alpha_for(k: int, d: int) -> int:  # symbols per node and stripe
        return d - k + 1

    def check_point(self):
        """d = 2k-2, and n·α ≤ 2^m, so that the λ_i = a^(i·α) are distinct."""
        n, k, d, m = self.n, self.k, self.d, self.field.m
        if d != 2 * (k - 1):
            raise InvalidParams(f"construction requires d = 2k-2, got k={k}, d={d}")
        if m < (n * self.alpha - 1).bit_length():
            raise InvalidParams(f"m={m} too small for n*alpha={n * self.alpha}; powers would wrap")

    def __init__(self, n: int, k: int, d: int, beta: int, field):
        super().__init__(n, k, d, beta, field)
        alpha = self.alpha
        self.B = alpha * (alpha + 1)
        self.lam = self.G[alpha]  # λ_i = (a^i)^α, distinct: i·α < 2^m - 1 for i < n
        self.fill = np.hstack([symmetric_fill(alpha), symmetric_fill(alpha, alpha * (alpha + 1) // 2)])
        # Y·D: B² cube products per stripe, or one packed row per input symbol
        self.by_matrix = beta > self.B and (
            self.B**2 <= (k * k + 2 * k + 4 * alpha * alpha) * alpha or field.packs_rows(beta, self.B))


def encode(stripes, params: MsrParams) -> np.ndarray:
    """Chunks for all nodes, shape (n, beta, alpha); U is [A1 | A2], α×d."""
    return progressive.encode(stripes, params)


def reconstruct_fast(columns: dict[int, np.ndarray], params: MsrParams) -> np.ndarray:
    """Recover all beta message stripes from exactly k columns by the
    structured algebra, in the shared frame of ``progressive.reconstruct_fast``."""
    return progressive.reconstruct_fast(columns, params, _reconstruct_structured)


def _reconstruct_structured(y: np.ndarray, nodes: list[int], params: MsrParams) -> np.ndarray:
    """The message stripes of y[s, t·α + a] = symbol a of node nodes[t] in stripe s, by
    the symmetric-projection algebra: four field matrix products over all β stripes."""
    field = params.field
    alpha, k, beta = params.alpha, params.k, y.shape[0]
    # y[a, t·β + s]: stripes innermost throughout, so every bulk step runs on long rows
    y = y.reshape(beta, k, alpha).transpose(2, 1, 0).reshape(alpha, k * beta)
    m_rows, b = params.G[:alpha, nodes].T, params.G[1, nodes]  # row t = g_{nodes[t]}; b_t
    full = field.prod((b[:, None] ^ b[None, :]) | np.eye(k, dtype=np.int64))  # ∏_{o≠t} (b_t + b_o)
    w_inv = vandermonde_inverse(field, b[:alpha])  # W: columns g_t, t < α
    lam = params.lam[nodes]
    # 1/(λ_o + λ_t) off the diagonal; the diagonal is never read
    gap = (lam[:, None] ^ lam[None, :]) + np.eye(k, dtype=np.int64)
    gap_inv = field.vdiv(1, gap[:, :alpha])

    proj = field.matmul(m_rows, y).reshape(k, k, beta)  # proj[j, t, s] = g_j · y_t
    sym = proj[:, :alpha] ^ proj.transpose(1, 0, 2)[:, :alpha]
    q = field.vmul(sym, gap_inv[:, :, None])  # q[o, t, s] = g_o·A2·g_t
    r = proj[:, :alpha] ^ field.vmul(q, lam[:alpha, None])  # r[o, t, s] = g_o·A1·g_t
    rq = np.concatenate([r, q], axis=2)  # F(b_o, b_t) = g_o·A·g_t, A = A1 | A2, off the diagonal
    rq[np.diag_indices(alpha)] = 0
    # x ↦ F(x, b_t) has degree < α: through the other α points, b_o weighs full_t / full_o
    diag = field.matmul(field.vdiv(1, full)[None], rq.reshape(k, -1)).reshape(alpha, -1)
    rq[np.diag_indices(alpha)] = field.vmul(diag, full[:alpha, None])  # M = rq[:α] = W^T·A·W
    # A = W⁻ᵀ·M·W⁻¹, M symmetric: rows (t, 1|2, s) times W⁻¹, then its transpose on the left
    x = field.matmul(rq[:alpha].transpose(1, 2, 0).reshape(-1, alpha), w_inv)
    a = field.matmul(x.reshape(alpha, -1).T, w_inv).reshape(2, beta, alpha, alpha)
    return read_u(a.transpose(1, 2, 0, 3).reshape(beta, alpha, -1), params)  # [s, i, A1 | A2]


def reconstruct(collector, params: MsrParams, accept):
    """Progressive reconstruction; returns what accept(stripes) returns for
    the first candidate it takes, or None once every reachable node has
    been read.

    Round one is the fast path on k columns; later rounds decode every row
    over all columns read.
    """
    def attempt(received, decode):
        if len(received) == params.k:
            return reconstruct_fast(received, params)
        return read_u(decode(), params)

    return progressive.run(collector, params.k, params.code, params.beta, params.alpha,
                           attempt, accept)


def repair_response(chunks, holders, failed: int, params: MsrParams) -> np.ndarray:
    """Helpers' per-stripe downloads g_failed·y_holder, of one chunk or a stack."""
    return progressive.repair_response(chunks, holders, failed, params)


def regenerate(source, failed: int, params: MsrParams, accept):
    """Rebuild node `failed` exactly from helper responses, through the
    column map [I; λ_f·I]; returns what accept(chunk) returns for the
    first candidate it takes, or None."""
    right = np.vstack([c * np.eye(params.alpha, dtype=np.int64) for c in (1, params.lam[failed])])
    return progressive.regenerate(source, failed, params, accept, right)
