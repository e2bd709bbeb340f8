"""Cut-set bound and one capability report.

``capabilities`` evaluates a code point and every cell of the capability
table for either code family: erasure and Byzantine fault tolerance,
security strength under colluding forgery, and redundancy ratios of the
integrity checksums on storage and bandwidth.  It builds the params and
the ``CrcParams`` that ``encode`` builds, so it refuses what ``encode``
refuses, with the same error, and reads α and B off the params.  The
families differ in α and in the dimension of the row code a collector decodes.

Conventions: ``alpha`` and ``B`` are per-stripe symbol counts (as for the
codec parameter objects); ``beta`` multiplies them where a formula depends
on the full frame.  Ratios are kept as exact fractions and rendered as
two-decimal percentages.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cluster import PARAMS
from .errors import InvalidParams
from .galois import GF
from .integrity import CrcParams, checksum_code_size


def cut_set_bound(n: int, k: int, d: int, alpha: int, beta: int) -> int:
    """Maximum file size B = sum_{i=0}^{k-1} min{alpha, (d-i)beta}."""
    if not 1 <= k <= d <= n - 1:
        raise InvalidParams(
            f"need 1 <= k <= d <= n-1, got n={n}, k={k}, d={d}"
        )
    if alpha < 1 or beta < 1:
        raise InvalidParams(f"alpha and beta must be positive, got "
                            f"alpha={alpha}, beta={beta}")
    return sum(min(alpha, (d - i) * beta) for i in range(k))


@dataclass(frozen=True)
class Capabilities:
    """A code point, then its capability cells, in the order ``analyze``
    prints them."""

    family: str
    n: int
    k: int
    d: int
    alpha: int  # per-stripe chunk height
    beta: int
    B: int  # per-stripe file size
    m: int
    r: int
    m_prime: int
    k_prime: int
    erasure_reconstruction: int
    erasure_regeneration: int
    byzantine_reconstruction: int
    byzantine_regeneration: int
    security_reconstruction: int
    security_regeneration: int
    storage_reconstruction: Fraction
    storage_regeneration_replicated: Fraction
    storage_regeneration_coded: Fraction
    bandwidth_regeneration_replicated: Fraction
    bandwidth_regeneration_coded: Fraction


def percent(ratio: Fraction) -> str:
    """Two-decimal percentage rendering, e.g. Fraction(32, 4148) -> '0.77%'."""
    return f"{float(ratio) * 100:.2f}%"


def capabilities(n: int, k: int, d: int, family: str, *, beta: int = 1,
                 m: int = 8, r: int = 32) -> Capabilities:
    """Evaluate one family's code point and every capability cell."""
    if family not in PARAMS:
        raise InvalidParams(f"unknown family {family!r}")
    params = PARAMS[family](n, k, d, beta, GF(m))
    CrcParams(r)  # refuses a width with no polynomial
    alpha, B = params.alpha, params.B
    # the coded scheme's [n-1, k'] share code needs n >= 3; below that its
    # cells take the sizes at n = 3 and vouch for nothing, as when k' > n-1
    mp, kp = checksum_code_size(max(n, 3), r)
    if m * B <= r:
        raise InvalidParams(
            f"checksum of {r} bits leaves no room for data ({m * B} bits stored)"
        )
    # A data collector error-decodes rows of its family's row code: MSR
    # decodes U's rows in the [n, d] code of U·G; MBR decodes A2's rows, then
    # A1's, in the [n, k] code, since U's bottom rows are zero past column k.
    dim = {"msr": d, "mbr": k}[family]
    # regeneration erasure tolerance counts crashes *beyond* the node under
    # repair (which is itself the (n-d)-th tolerated crash): n=d+1 gives 0;
    # its n-1 helpers form an [n-1, d] code, so it corrects (n-1-d)/2 errors;
    # an infeasible share code (k' > n-1) cannot vouch for anything
    return Capabilities(
        family=family, n=n, k=k, d=d, alpha=alpha, beta=beta, B=B, m=m, r=r,
        m_prime=mp, k_prime=kp,
        erasure_reconstruction=n - k,
        erasure_regeneration=n - d - 1,
        byzantine_reconstruction=(n - dim) // 2,
        byzantine_regeneration=max(0, min((n - 1 - d) // 2, (d - kp) // 2)),
        security_reconstruction=min(k, -((n - dim + 2) // -2)) - 1,
        security_regeneration=min(d, -((n - d + 2) // -2)) - 1,
        storage_reconstruction=Fraction(r, m * B - r),
        storage_regeneration_replicated=Fraction(r * (n - 1), beta * alpha * m),
        storage_regeneration_coded=Fraction((n - 1) * mp, beta * alpha * m),
        bandwidth_regeneration_replicated=Fraction(r, beta * m),
        bandwidth_regeneration_coded=Fraction(mp, beta * m),
    )
