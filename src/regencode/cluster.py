"""In-memory storage-cluster simulator with fault injection and metrics.

A cluster holds one framed message: the payload bits are extended with a
CRC and zero-padded to ``beta * B * m`` bits, packed into bytes once (the
frame format of ``integrity``), cut into ``beta`` stripes of B field
symbols, and encoded with the configured regenerating code.  The codecs
decode; the cluster judges, through the one ``accept`` each procedure
takes.  A collector tests each candidate's packed frame against its CRC
and unpacks bits only for the accepted one.  Every node stores its chunk
plus its row of the checksum directory (``integrity.build_directory``):
its shares of the *other* nodes' checksums, indexed by owner, with a zero
at its own index; a newcomer recovers the lost node's checksum once, from
the shares of the helpers read so far, and accepts the first candidate
chunk that matches it.

Fault injection is storage-level: a Byzantine node keeps answering the
protocol faithfully, but what it stores has been rewritten by its plan's
strategy, which applies itself node by node.  RandomCorruption flips each
stored symbol (chunk symbols and held checksum shares) independently to a
uniformly random different value.  ConsistentForgery holds one (beta,
alpha, d) array of message-row deltas, zero where nothing is forged, and
XORs each colluder's coordinate of their codewords into its chunk, so the
colluders jointly present coordinates of a valid codeword whose decoded
message still passes the CRC test; the shares they hold are left
untouched, since reconstruction never consults the checksum directory.
Every policy reads only the reachable nodes: neither crashed nor excluded.

The "network" is a call interface with per-call symbol accounting; runs are
single-threaded and deterministic for a fixed seed, fault plan and policy.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import mbr, msr
from .errors import (
    ClusterExhausted,
    DecodeFailure,
    InvalidParams,
    NoMajority,
    OverlappingSets,
    PayloadTooLarge,
)
from .integrity import (
    REPLICATED,
    SCHEMES,
    CrcParams,
    bits_at,
    build_directory,
    bytes_to_symbols,
    chunk_checksum,
    chunk_checksums,
    crc_checksum,
    crc_linear,
    crc_verify,
    recover_checksum,
    share_bits,
    symbols_to_bytes,
)
from .mbr import MbrParams
from .msr import MsrParams
from .progressive import read_u
from .rscode import encode_eval

# family name (CLI flag, chunk header, simulate config) -> params class, codec
PARAMS = {MsrParams.family: MsrParams, MbrParams.family: MbrParams}
CODECS = {MsrParams.family: msr, MbrParams.family: mbr}

HEALTHY = "healthy"
CRASHED = "crashed"
BYZANTINE = "byzantine"

SUCCESS = "SUCCESS"
FAIL = "FAIL"


@dataclass
class NodeSlot:
    chunk: np.ndarray  # beta × alpha symbols
    shares: np.ndarray  # length n: shares[i] is this node's share of node i's checksum
    status: str = HEALTHY


@dataclass
class ClusterState:
    params: object  # MsrParams or MbrParams
    crc: CrcParams
    scheme: str
    payload_bit_len: int
    nodes: list[NodeSlot]
    rng_seed: int = 0

    def clone(self) -> "ClusterState":
        return replace(self, nodes=[
            NodeSlot(s.chunk.copy(), s.shares.copy(), s.status) for s in self.nodes
        ])


@dataclass
class RunMetrics:
    outcome: str = ""  # first: the CLI prints the fields in this order
    nodes_contacted: int = 0
    symbols_downloaded: int = 0
    checksum_symbols_downloaded: int = 0
    decode_rounds: int = 0


# ---------------------------------------------------------------------------
# fault plans


@dataclass
class RandomCorruption:
    symbol_flip_rate: float = 1.0

    def apply(self, state: "ClusterState", idx: int) -> None:
        """Flip each chunk symbol of node idx, then each held share by owner (its
        own entry skipped), with probability symbol_flip_rate, to another value."""
        rng = random.Random(f"{state.rng_seed}|corrupt|{idx}")
        slot = state.nodes[idx]
        share_space = 1 << share_bits(state.scheme, state.params.n, state.crc.r)
        for values, cells, space in (
            (slot.chunk.flat, range(slot.chunk.size), 1 << state.params.field.m),
            (slot.shares, [o for o in range(state.params.n) if o != idx], share_space),
        ):
            for i in cells:
                if rng.random() < self.symbol_flip_rate:
                    new = rng.randrange(space - 1)
                    values[i] = new + (new >= int(values[i]))


@dataclass
class ConsistentForgery:
    # (beta, alpha, d) message-row deltas, zero rows where nothing is forged;
    # every colluder stores its exact coordinate of the forged codeword, so
    # the forgery is codeword-consistent across colluders by construction.
    forged_row_delta: np.ndarray

    def apply(self, state: "ClusterState", idx: int) -> None:
        """XOR node idx's column of the forged codewords into its chunk: the
        deltas times g_idx alone, not a full encode per colluder."""
        params = state.params
        delta = np.asarray(self.forged_row_delta, dtype=np.int64)
        if delta.shape != (params.beta, params.alpha, params.d):
            raise InvalidParams(f"forged row deltas of shape {delta.shape}, not (beta, alpha, d)")
        column = params.field.matmul(delta.reshape(-1, params.d), params.G[:, idx : idx + 1])
        state.nodes[idx].chunk ^= column.reshape(params.beta, params.alpha)


@dataclass
class FaultPlan:
    crashes: frozenset = dc_field(default_factory=frozenset)
    byzantine: frozenset = dc_field(default_factory=frozenset)
    strategy: object = None  # anything with apply(state, idx); None: RandomCorruption()


# ---------------------------------------------------------------------------
# store


def store(payload, params, scheme: str = REPLICATED, *, crc: CrcParams | None = None,
          seed: int = 0) -> ClusterState:
    """Frame the payload, encode it, and place chunks plus checksum shares."""
    if getattr(params, "family", None) not in CODECS:
        raise InvalidParams(f"unsupported params type {type(params).__name__}")
    if scheme not in SCHEMES:
        raise InvalidParams(f"unknown checksum scheme {scheme!r}")
    crc = crc if crc is not None else CrcParams()
    if isinstance(payload, (bytes, bytearray)):
        data, nbits = bytes(payload), 8 * len(payload)
    else:
        bits = np.asarray(payload, dtype=np.uint8)
        if bits.ndim != 1 or not np.all(bits <= 1):
            raise InvalidParams("payload must be bytes or a flat 0/1 bit array")
        data, nbits = np.packbits(bits).tobytes(), bits.size
    m = params.field.m
    capacity = params.beta * params.B * m
    if nbits + crc.r > capacity:
        raise PayloadTooLarge(
            f"payload of {nbits} bits + {crc.r}-bit CRC exceeds "
            f"{capacity}-bit frame"
        )
    # payload, then CRC, then zero pad, most-significant bit first
    nbytes = -(-capacity // 8)
    frame = bits_at(data, 0, nbits) << crc.r | crc_checksum(data, nbits, crc)
    frame <<= 8 * nbytes - nbits - crc.r
    stripes = bytes_to_symbols(frame.to_bytes(nbytes, "big"), m, params.beta * params.B)
    stripes = stripes.reshape(params.beta, params.B)
    chunks = CODECS[params.family].encode(stripes, params)
    directory = build_directory(chunk_checksums(chunks, m, crc), scheme, crc)
    nodes = [
        NodeSlot(np.array(chunks[i]), directory[i]) for i in range(params.n)
    ]
    return ClusterState(
        params=params,
        crc=crc,
        scheme=scheme,
        payload_bit_len=nbits,
        nodes=nodes,
        rng_seed=seed,
    )


# ---------------------------------------------------------------------------
# fault injection


def inject(state: ClusterState, plan: FaultPlan) -> ClusterState:
    """Return a copy of the state with the plan's faults applied."""
    crashes = frozenset(plan.crashes)
    byzantine = frozenset(plan.byzantine)
    if crashes & byzantine:
        raise OverlappingSets(
            f"nodes {sorted(crashes & byzantine)} are both crashed and Byzantine"
        )
    n = state.params.n
    for i in crashes | byzantine:
        if not 0 <= i < n:
            raise InvalidParams(f"node index {i} out of range for n={n}")
    out = state.clone()
    for i in crashes:
        out.nodes[i].status = CRASHED
    strategy = plan.strategy if plan.strategy is not None else RandomCorruption()
    if byzantine and not callable(getattr(strategy, "apply", None)):
        raise InvalidParams(f"unknown fault strategy {strategy!r}")
    for i in sorted(byzantine):
        out.nodes[i].status = BYZANTINE
        strategy.apply(out, i)
    return out


# ---------------------------------------------------------------------------
# access policies


def _reachable(state: ClusterState, order, exclude=frozenset()) -> list[int]:
    """The node ids of ``order``, in that order, neither crashed nor excluded."""
    nodes = state.nodes
    return [i for i in order if nodes[i].status != CRASHED and i not in exclude]


class SeededRandom:
    """Default policy: a seed-determined shuffle of the reachable nodes."""

    def __init__(self, seed: int | None = None):
        self.seed = seed

    def order(self, state: ClusterState, exclude=frozenset()) -> list[int]:
        avail = _reachable(state, range(len(state.nodes)), exclude)
        random.Random(f"{state.rng_seed}|policy|{self.seed}").shuffle(avail)
        return avail


class Adversarial:
    """Collector unknowingly prefers compromised nodes."""

    def order(self, state: ClusterState, exclude=frozenset()) -> list[int]:
        nodes = state.nodes
        byzantine_first = sorted(range(len(nodes)), key=lambda i: nodes[i].status != BYZANTINE)
        return _reachable(state, byzantine_first, exclude)


class ExplicitOrder:
    """Fixed access order (reachable nodes, each id once), for exhaustive sweeps."""

    def __init__(self, order):
        self._order = list(dict.fromkeys(int(i) for i in order))

    def order(self, state: ClusterState, exclude=frozenset()) -> list[int]:
        n = state.params.n
        for i in self._order:
            if not 0 <= i < n:
                raise InvalidParams(f"node index {i} out of range for n={n}")
        return _reachable(state, self._order, exclude)


# ---------------------------------------------------------------------------
# protocol drivers


@dataclass
class _MeteredSource:
    """Serves ``serve(j)`` for the nodes of ``queue`` (policy order, so no
    crashed node), in the order kept in ``read``; each item costs
    ``symbols`` symbols plus ``shares`` checksum symbols."""

    queue: deque
    serve: object
    symbols: int
    shares: int = 0
    metrics: RunMetrics = dc_field(default_factory=RunMetrics)
    read: list = dc_field(default_factory=list)

    def fetch(self, count: int):
        out = []
        while self.queue and len(out) < count:
            j = self.queue.popleft()
            out.append((j, self.serve(j)))
            self.read.append(j)
        if out:
            self.metrics.nodes_contacted += len(out)
            self.metrics.symbols_downloaded += len(out) * self.symbols
            self.metrics.checksum_symbols_downloaded += len(out) * self.shares
            self.metrics.decode_rounds += 1
        return out

    def run(self, procedure, *args) -> tuple:
        """(procedure(self, *args), or None once the source runs out; metrics)."""
        try:
            result = procedure(self, *args)
        except ClusterExhausted:
            result = None
        self.metrics.outcome = FAIL if result is None else SUCCESS
        return result, self.metrics


def run_reconstruction(state: ClusterState, policy=None) -> tuple:
    """Full data-collector protocol; returns (payload bits or None, metrics)."""
    policy = policy if policy is not None else SeededRandom()
    params = state.params
    collector = _MeteredSource(deque(policy.order(state)), lambda j: state.nodes[j].chunk,
                               params.beta * params.alpha)

    def accept(stripes):
        framed = symbols_to_bytes(stripes, params.field.m)
        if crc_verify(framed, state.payload_bit_len + state.crc.r, state.crc):
            return np.unpackbits(np.frombuffer(framed, np.uint8), count=state.payload_bit_len)
        return None

    return collector.run(CODECS[params.family].reconstruct, params, accept)


def run_regeneration(state: ClusterState, failed: int, policy=None) -> tuple:
    """Full helper protocol; returns (chunk or None, metrics)."""
    params = state.params
    if not 0 <= failed < params.n:
        raise InvalidParams(f"node index {failed} out of range for n={params.n}")
    policy = policy if policy is not None else SeededRandom()
    codec = CODECS[params.family]
    source = _MeteredSource(
        deque(policy.order(state, {failed})),
        lambda j: codec.repair_response(state.nodes[j].chunk, j, failed, params),
        params.beta, 1)
    checksum = None  # the failed node's, recovered once from the shares read so far

    def accept(chunk):
        nonlocal checksum
        if checksum is None:
            responses = {j: state.nodes[j].shares[failed] for j in source.read}
            try:
                checksum = recover_checksum(responses, failed, state.scheme, params.n, state.crc)
            except (NoMajority, DecodeFailure):
                return None
        return chunk if chunk_checksum(chunk, params.field.m, state.crc) == checksum else None

    return source.run(codec.regenerate, failed, params, accept)


def rebuild_shares(state: ClusterState, newcomer: int) -> tuple[np.ndarray, list[int]]:
    """Re-derive the newcomer's checksum shares from the surviving nodes.

    Returns the newcomer's directory row plus the owners whose checksums
    could not be recovered (those shares are zero-filled).
    """
    n, crc = state.params.n, state.crc
    checksums = [0] * n  # a zero checksum has zero shares under both schemes
    missing: list[int] = []
    for owner in range(n):
        if owner == newcomer:
            continue
        responses = {
            j: state.nodes[j].shares[owner]
            for j in _reachable(state, range(n), (owner, newcomer))
        }
        try:
            checksums[owner] = recover_checksum(responses, owner, state.scheme, n, crc)
        except (NoMajority, DecodeFailure, InvalidParams):
            missing.append(owner)
    return build_directory(checksums, state.scheme, crc)[newcomer], missing


# ---------------------------------------------------------------------------
# colluding forgery with zero CRC residue


def _gf2_kernel(residues) -> int:
    """Bitmask over ``residues`` whose XOR is zero, or 0 if none found; the
    iterable is read only up to the first dependency (at most r+1 r-bit values)."""
    basis: dict[int, tuple[int, int]] = {}
    for idx, value in enumerate(residues):
        mask = 1 << idx
        while value:
            top = value.bit_length() - 1
            if top not in basis:
                basis[top] = (value, mask)
                break
            bv, bm = basis[top]
            value ^= bv
            mask ^= bm
        if value == 0:
            return mask
    return 0


def build_msr_zero_crc_forgery(state: ClusterState, colluders) -> ConsistentForgery:
    """Forged row deltas for ``colluders`` that keep the frame CRC valid.

    The deltas scale a minimum-weight codeword whose support covers the
    colluders, so honest nodes in the support appear as correctable errors
    relative to the forged codeword.  The scale factors gamma (one per
    stripe and row) are solved over GF(2) so the decoded message delta has
    zero CRC residue; when the payload spans the whole frame the forged
    payload is guaranteed to differ from the true one.
    """
    params = state.params
    if params.family != "msr":
        raise InvalidParams("forgery construction is defined for MSR clusters")
    colluders = sorted(set(int(c) for c in colluders))
    n, d, alpha, beta = params.n, params.d, params.alpha, params.beta
    field, m, crc, L = params.field, params.field.m, state.crc, state.payload_bit_len
    if not colluders or any(not 0 <= c < n for c in colluders):
        raise InvalidParams("colluder set must be non-empty node indices")

    # support T: the colluders, then the least other nodes, n-d+1 in all
    support = sorted((colluders + [p for p in range(n) if p not in colluders])[: n - d + 1])
    # u(x) = prod_{p outside T} (x + a^p): degree d-1, support exactly T
    u = np.ones(1, dtype=np.int64)
    for p in range(n):
        if p not in support:
            u = np.append(field.vmul(u, params.code.points[p]), 0) ^ np.append(0, u)
    assert len(u) == d
    w = encode_eval(u, params.code)
    assert all(w[p] == 0 for p in range(n) if p not in support)
    assert all(w[p] != 0 for p in support)

    def residue(rows: np.ndarray) -> int:
        # CRC residue of the decoded message delta when U's rows shift by
        # rows; read_u takes each symbol from its first row-major entry of
        # U = [A1 | A2]
        data = symbols_to_bytes(read_u(rows, params), m)
        return crc_linear(data, L, crc) ^ bits_at(data, L, crc.r)

    def unit_residues():  # gamma[s, r] = 2^t, in (stripe, row, bit) order
        rows = np.zeros((beta, alpha, d), dtype=np.int64)
        for s, r, t in np.ndindex(beta, alpha, m):
            rows[s, r] = field.vmul(1 << t, u)
            yield residue(rows)
            rows[s, r] = 0

    mask = _gf2_kernel(unit_residues())
    if mask == 0:
        raise InvalidParams("no zero-residue forgery exists for this payload size")
    gamma = np.zeros(beta * alpha, dtype=np.int64)
    for idx in range(mask.bit_length()):
        gamma[idx // m] ^= (mask >> idx & 1) << idx % m
    rows = field.vmul(gamma.reshape(beta, alpha, 1), u)
    assert residue(rows) == 0
    if not bits_at(symbols_to_bytes(read_u(rows, params), m), 0, L):
        raise InvalidParams(
            "forgery does not alter the payload; use a payload that fills "
            "the frame"
        )
    return ConsistentForgery(forged_row_delta=rows)
