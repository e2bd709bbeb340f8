"""Minimum-storage regenerating code for d = 2k-2: its own parameter rules,
the U layout, the reconstruct procedure and the regenerate column map.  The
(n, k, d) check, U's packing, ``encode`` and ``repair_response`` are the
shared product-matrix layer of ``progressive``.

The B = α(α+1) message symbols (α = k-1 = d/2) fill two symmetric α×α
matrices A1, A2, laid out as U = [A1 | A2] by one α×d index map.  Node
i's column of U·G is A1·g_i + λ_i·A2·g_i with g_i = (1, b_i, …,
b_i^{α-1}), b_i = a^i and λ_i = b_i^α.

Reconstruction from exactly k = α+1 columns needs no error decoding:
for accessed nodes i ≠ j the cross projections g_j·y_i and g_i·y_j
differ only in their A2 terms (the A1 terms cancel by symmetry), so
(λ_i + λ_j) divides out g_j·A2·g_i, and α such bilinear values pin down
A2·g_i through an invertible Vandermonde system, inverted in closed form
(``rscode.vandermonde_inverse``); A1 follows the same way.  That algebra
is linear in the B = k·α symbols read per stripe and runs in the shared
fast-path frame of ``progressive``; its route rule ``by_matrix`` is
β > B and either B² ≤ k²α + 2kα + 4α³ (Y·D's products per stripe
against the algebra's; α ≤ 3) or Y·D runs on one lane group of the
product tables of ``GF.matmul`` (β past 2^(m+1) and B symbols to a row,
so one gather per input symbol: α ≤ 7 over GF(2^8)).  When the caller's
acceptance test turns that result down, the collector falls back to
per-row error-erasure decoding of the [n, d] row code on the shared
schedule of ``progressive``, whose decoder hands back U's rows as messages.

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
    """The message stripes of y[s, t·α + a] = symbol a of node nodes[t] in
    stripe s, by the symmetric-projection algebra: α+2 field matrix
    products and two elementwise products, each over all β stripes at once."""
    field = params.field
    alpha, k, beta = params.alpha, params.k, y.shape[0]
    # y[a, t·β + s]: stripes innermost throughout, so every bulk step runs on long rows
    y = y.reshape(beta, k, alpha).transpose(2, 1, 0).reshape(alpha, k * beta)
    m_rows = params.G[:alpha, nodes].T  # row t = g_{nodes[t]}
    # others[t] is the access set without t.  W (columns g_i, i < alpha) is the
    # Vandermonde matrix on others[alpha]; V_t (rows g_o) is that on others[t], transposed
    others = [[o for o in range(k) if o != t] for t in range(k)]
    inv = vandermonde_inverse(field, field.power(np.asarray(nodes)[others]))
    w_inv, v_invs = inv[alpha], inv[:alpha].transpose(0, 2, 1)
    lam = params.lam[nodes]
    # 1/(λ_o + λ_t) off the diagonal; the diagonal is never read
    gap = (lam[:, None] ^ lam[None, :]) + np.eye(k, dtype=np.int64)
    gap_inv = field.vdiv(1, gap[:, :alpha])

    proj = field.matmul(m_rows, y).reshape(k, k, beta)  # proj[j, t, s] = g_j · y_t
    sym = proj[:, :alpha] ^ proj.transpose(1, 0, 2)[:, :alpha]
    q = field.vmul(sym, gap_inv[:, :, None])  # q[o, t, s] = g_o·A2·g_t
    r = proj[:, :alpha] ^ field.vmul(q, lam[:alpha, None])  # r[o, t, s] = g_o·A1·g_t
    rq = np.concatenate([r, q], axis=2)
    # column t of A1·W (of A2·W) solves V_t·x = r[others, t] (= q[...]) per stripe
    aw = np.stack([field.matmul(v_invs[t], rq[o, t]) for t, o in enumerate(others[:alpha])])
    # aw[t, i, (1|2, s)] is the row (i, 1|2, s) of the left operand, column t
    a = field.matmul(aw.reshape(alpha, -1).T, w_inv).reshape(alpha, 2, beta, alpha)
    return read_u(a.transpose(2, 0, 1, 3).reshape(beta, alpha, -1), params)  # [s, i, A1 | A2]


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


def repair_response(chunk, holder: int, failed: int, params: MsrParams) -> np.ndarray:
    """Helper's per-stripe download: the inner product g_failed·y_holder."""
    return progressive.repair_response(chunk, holder, failed, params)


def regenerate(source, failed: int, params: MsrParams, accept):
    """Rebuild node `failed` exactly from helper responses, through the
    column map [I; λ_f·I]; returns what accept(chunk) returns for the
    first candidate it takes, or None."""
    right = np.vstack([c * np.eye(params.alpha, dtype=np.int64) for c in (1, params.lam[failed])])
    return progressive.regenerate(source, failed, params, accept, right)
