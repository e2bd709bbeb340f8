"""Minimum-bandwidth regenerating code for any k <= d: the U layout, the
two-phase reconstruct and the regenerate column map, on the shared
product-matrix layer of ``progressive``.

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
and decode those to get A1.  From exactly k columns S both phases are
plain interpolation, solved in closed form with one Vandermonde inverse
(``rscode.vandermonde_inverse``) of G_S = G[:k, S]: A2 = Y_bot·G_S⁻¹,
then A1 = (Y_top + A2ᵀ·G[k:d, S])·G_S⁻¹.  That algebra is linear in
the k·d symbols read per stripe, so when β > k·d and its decoding
matrix D, (k·d)×B, has at most 3·(k·d + B) nonzero coefficients (45 at
[6,3,4]; a measured crossover), it runs once on the k·d identity to
give D, and the message is one product of the columns with D.  When
the checksum test rejects, more columns are read on the shared schedule
of ``progressive``, topped up to k, the dimension of the [n, k] code,
and both phases error-decode with block decoders.  Regeneration works
exactly as in the MSR family except the decoded vector g_i·U,
transposed via U's symmetry, *is* the lost column.
"""

from __future__ import annotations

import numpy as np

from . import progressive
from .errors import InvalidParams, LengthMismatch
from .progressive import ProductMatrixParams, build_u, read_u, symmetric_fill
from .rscode import ProgressiveDecoder, RsParams, invert_submatrix, vandermonde_inverse


class MbrParams(ProductMatrixParams):
    """Product-matrix params for any k <= d, with the [n, k] code of A2's rows."""

    family = "mbr"

    @staticmethod
    def alpha_for(k: int, d: int) -> int:  # symbols per node and stripe
        return d

    def __init__(self, n: int, k: int, d: int, beta: int, field):
        if k < 1:
            raise InvalidParams(f"k={k} must be positive")
        super().__init__(n, k, d, beta, field)
        self.B = k * d - k * (k - 1) // 2
        self.code_k = RsParams(n, k, field)
        self.bottom = self.G[k:d, :]  # rows multiplying A2ᵀ
        self.ghat_k_inv = invert_submatrix(self.G[:k], range(k), field)
        self.fill1 = symmetric_fill(k)  # A1, k×k
        self.fill2 = np.arange(k * (k + 1) // 2, self.B).reshape(d - k, k)  # A2, row-major


def assemble_u(a1, a2, params: MbrParams) -> np.ndarray:
    """The full symmetric d×d information matrix.  Any leading axes index
    stripes."""
    a1, a2, k = np.asarray(a1), np.asarray(a2), params.k
    u = np.zeros(a1.shape[:-2] + (params.d, params.d), dtype=np.int64)
    u[..., :k, :k] = a1
    u[..., k:, :k] = a2
    u[..., :k, k:] = np.swapaxes(a2, -1, -2)
    return u


def encode(stripes, params: MbrParams) -> np.ndarray:
    """Chunks for all nodes, shape (n, beta, d); U is the d×d assemble_u."""
    return progressive.encode(stripes, params, assemble_u)


def reconstruct_fast(columns: dict[int, np.ndarray], params: MbrParams) -> np.ndarray:
    """Recover all beta message stripes from exactly k columns, by the
    two-phase algebra in closed form; never error-decodes.

    When beta > k·d and D is sparse enough (see the module docstring), the
    algebra runs on the k·d identity to give the access set's (k·d)×B
    decoding matrix D and the result is Y·D, Y being the β×(k·d)
    concatenated columns; otherwise it runs on Y.  A node id outside
    [0, n) or a symbol outside the field raises InvalidParams, a column
    that is not β×d LengthMismatch.
    """
    field = params.field
    nodes = list(columns)
    k, d, beta = params.k, params.d, params.beta
    if len(nodes) != k:
        raise LengthMismatch(f"fast path needs exactly k={k} columns")
    if not all(0 <= i < params.n for i in nodes):
        raise InvalidParams(f"node ids {nodes} outside [0, {params.n})")
    cols = [np.asarray(columns[i], dtype=np.int64) for i in nodes]
    if any(c.shape != (beta, d) for c in cols):
        raise LengthMismatch(f"columns must be {beta}x{d}, got {[c.shape for c in cols]}")
    y = np.concatenate(cols, axis=1)  # y[s, t·d + r] = symbol r of node nodes[t]
    if np.bitwise_or.reduce(y, axis=None) >> field.m:  # a bit at or above m, or the sign
        raise InvalidParams(f"symbol {y[(y < 0) | (y >= field.q)][0]} outside field of size {field.q}")
    # D's coefficients: k inputs for each entry of A2, k(d-k+1) for each of A1.  Y·D
    # gathers once per coefficient; the algebra spends about three passes over each
    # stripe's k·d inputs and B outputs in reshapes and read_u (measured crossover)
    nonzeros = k * k * (d - k) + k * k * (k + 1) * (d - k + 1) // 2
    if beta > k * d and nonzeros <= 3 * (k * d + params.B):  # unit stripe s reads 1 at s
        return field.matmul(y, _two_phase(np.eye(k * d, dtype=np.int64), nodes, params))
    return _two_phase(y, nodes, params)


def _two_phase(y: np.ndarray, nodes: list[int], params: MbrParams) -> np.ndarray:
    """The message stripes of y[s, t·d + r] = symbol r of node nodes[t] in
    stripe s: A2 = Y_bot·G_S⁻¹, then A1 = (Y_top + A2ᵀ·bottom_S)·G_S⁻¹,
    with G_S = G[:k, nodes] inverted in closed form."""
    field = params.field
    k, d, beta = params.k, params.d, y.shape[0]
    y = y.reshape(beta, k, d).transpose(0, 2, 1)  # y[s, r, t]
    g_inv = vandermonde_inverse(field, field.power(np.asarray(nodes)))
    a2 = field.matmul(y[:, k:].reshape(beta * (d - k), k), g_inv).reshape(beta, d - k, k)
    e = field.matmul(a2.transpose(0, 2, 1).reshape(beta * k, d - k), params.bottom[:, nodes])
    a1 = field.matmul(y[:, :k].reshape(beta * k, k) ^ e, g_inv).reshape(beta, k, k)
    return read_u(a1, a2, params)


def reconstruct(collector, params: MbrParams, verify) -> tuple[np.ndarray, int]:
    """Two-phase progressive reconstruction from k columns upward.

    Round one on exactly k columns is ``reconstruct_fast``; later rounds
    decode A2's rows with the [n, k] code, so ``progressive.run`` tops up
    to k columns, not d.  Returns (stripes, decode_rounds).
    """
    field = params.field
    beta, n, k, d = params.beta, params.n, params.k, params.d

    def attempt(rounds, received, decode):
        if rounds == 1 and len(received) == k:
            return reconstruct_fast(received, params)
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
    return progressive.repair_response(chunk, holder, failed, params)


def regenerate(source, failed: int, params: MbrParams, recover, chunk_crc) -> tuple[np.ndarray, int]:
    """Rebuild node `failed` exactly; by U's symmetry the decoded g_i·U
    transposes into the stored column itself."""
    return progressive.regenerate(source, failed, params, recover, chunk_crc, lambda t: t)
