"""Minimum-bandwidth regenerating code for any k <= d: the U layout, the
two-phase reconstruct and the regenerate column map, on the shared
product-matrix layer of ``progressive``.

The B = kd - k(k-1)/2 message symbols fill a symmetric d×d matrix

    U = [[A1, A2ᵀ],
         [A2,  0 ]]

with A1 k×k symmetric and A2 (d-k)×k, through one d×d index map.  Node
i stores column i of C = U·G under the [n, d] evaluation code; per-node
storage is α = d symbols per stripe, but repair needs only one symbol
per helper.

Because the right blocks of U's bottom rows are zero, rows k..d-1 of C
are codewords of the [n, k] code.  Reconstruction therefore runs in two
phases on the same accessed columns: decode the bottom rows to get A2,
subtract A2ᵀ·(bottom rows of G) from the top rows — leaving A1·G_k —
and decode those to get A1.  From exactly k columns S both phases are
plain interpolation, solved in closed form with one Vandermonde inverse
(``rscode.vandermonde_inverse``) of G_S = G[:k, S]: A2 = Y_bot·G_S⁻¹,
then A1 = (Y_top + A2ᵀ·G[k:d, S])·G_S⁻¹.  That algebra is linear in
the k·d symbols read per stripe and runs in the shared fast-path frame
of ``progressive``; its route rule ``by_matrix`` is β ≥ 2^m·B.  Past
2^(m+1) stripes, Y times the (k·d)×B decoding matrix D runs on the
product tables of ``GF.matmul``, and at β ≥ 2^m·B their k·d·2^m·B
products cost no more than one pass over Y.  Timed per call against the
algebra on the data, the rule picks the faster route, or one within
about 5 % of it, for [6,3,4] over GF(2^8), GF(2^11) and GF(2^16) and for
[10,4,7] over GF(2^8), whose crossover lies near β = 6 000 (2^8·22 =
5 632).  When the caller's acceptance test rejects, more columns are
read on the shared schedule of ``progressive``, topped up to k, the
dimension of the [n, k] code, and both phases
error-decode with block decoders into the messages of that code: the
rows of A2, then those of A1.  Either way the result is U's top rows
[A1 | A2ᵀ], which hold every message symbol.  Regeneration works
exactly as in the MSR family except the decoded vector g_i·U,
transposed via U's symmetry, *is* the lost column: no column map.  Both
procedures return what their one ``accept`` returns.
"""

from __future__ import annotations

import numpy as np

from . import progressive
from .progressive import ProductMatrixParams, read_u, symmetric_fill
from .rscode import ProgressiveDecoder, RsParams, vandermonde_inverse


class MbrParams(ProductMatrixParams):
    """Product-matrix params for any k <= d, with the [n, k] code of A2's rows."""

    family = "mbr"

    @staticmethod
    def alpha_for(k: int, d: int) -> int:  # symbols per node and stripe
        return d

    def __init__(self, n: int, k: int, d: int, beta: int, field):
        super().__init__(n, k, d, beta, field)
        self.B = k * d - k * (k - 1) // 2
        self.code_k = RsParams(n, k, field)
        self.bottom = self.G[k:d, :]  # rows multiplying A2ᵀ
        a2 = np.arange(k * (k + 1) // 2, self.B).reshape(d - k, k)  # row-major
        self.fill = np.block([[symmetric_fill(k), a2.T], [a2, np.full((d - k, d - k), self.B)]])
        # Y·D once β ≥ 2^m·B amortises its tables of 2^m·B products per input
        self.by_matrix = beta >= field.q * self.B


def encode(stripes, params: MbrParams) -> np.ndarray:
    """Chunks for all nodes, shape (n, beta, d); U is symmetric, d×d."""
    return progressive.encode(stripes, params)


def reconstruct_fast(columns: dict[int, np.ndarray], params: MbrParams) -> np.ndarray:
    """Recover all beta message stripes from exactly k columns by the
    two-phase algebra, in the shared frame of ``progressive.reconstruct_fast``."""
    return progressive.reconstruct_fast(columns, params, _two_phase)


def _two_phase(y: np.ndarray, nodes: list[int], params: MbrParams) -> np.ndarray:
    """The message stripes of y[s, t·d + r] = symbol r of node nodes[t] in
    stripe s: A2 = Y_bot·G_S⁻¹, then A1 = (Y_top + A2ᵀ·bottom_S)·G_S⁻¹,
    with G_S = G[:k, nodes] inverted in closed form."""
    field = params.field
    k, d, beta = params.k, params.d, y.shape[0]
    y = y.reshape(beta, k, d).transpose(0, 2, 1)  # y[s, r, t]
    g_inv = vandermonde_inverse(field, field.power(np.asarray(nodes)))
    a2 = field.matmul(y[:, k:].reshape(beta * (d - k), k), g_inv).reshape(beta, d - k, k)
    a2t = a2.transpose(0, 2, 1).reshape(beta * k, d - k)
    e = field.matmul(a2t, params.bottom[:, nodes])
    a1 = field.matmul(y[:, :k].reshape(beta * k, k) ^ e, g_inv)
    return read_u(np.hstack([a1, a2t]).reshape(beta, k, d), params)


def reconstruct(collector, params: MbrParams, accept):
    """Two-phase progressive reconstruction from k columns upward; returns
    what accept(stripes) returns for the first candidate it takes.

    Round one on exactly k columns is ``reconstruct_fast``; later rounds
    decode A2's rows with the [n, k] code, so ``progressive.run`` tops up
    to k columns, not d.
    """
    field = params.field
    beta, n, k, d = params.beta, params.n, params.k, params.d

    def attempt(received, decode):
        if len(received) == k:
            return reconstruct_fast(received, params)
        # checked before the XOR below, so an out-of-field symbol is named as received
        y = progressive.checked_columns(received, params).reshape(beta, -1, d)
        a2t = decode().transpose(0, 2, 1).reshape(beta * k, d - k)  # A2ᵀ
        # strip the A2ᵀ contribution; the top rows become A1·G_k
        e_full = field.matmul(a2t, params.bottom).reshape(beta, k, n)
        dec = ProgressiveDecoder(params.code_k, beta * k)  # row s*k + r: stripe s, row r
        a1 = dec.absorb({p: (y[:, t, :k] ^ e_full[:, :, p]).reshape(-1)
                         for t, p in enumerate(received)}).attempt().messages
        return read_u(np.hstack([a1, a2t]).reshape(beta, k, d), params)

    take = lambda column: np.asarray(column)[:, k:]  # rows k..d-1 carry A2
    return progressive.run(collector, k, params.code_k, beta, d - k, attempt, accept, take)


def repair_response(chunk, holder: int, failed: int, params: MbrParams) -> np.ndarray:
    """Helper's per-stripe download: inner product with the full column g_failed."""
    return progressive.repair_response(chunk, holder, failed, params)


def regenerate(source, failed: int, params: MbrParams, accept):
    """Rebuild node `failed` exactly; by U's symmetry the decoded g_i·U
    transposes into the stored column itself.  Returns what accept(chunk)
    returns for the first candidate it takes."""
    return progressive.regenerate(source, failed, params, accept)
