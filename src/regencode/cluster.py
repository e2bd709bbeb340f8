"""In-memory storage-cluster simulator with fault injection and metrics.

A cluster holds one framed message: the payload bits are extended with a
CRC, zero-padded to ``beta * B * m`` bits, cut into ``beta`` stripes of B
field symbols, and encoded with the configured regenerating code.  Every
node stores its chunk plus a directory of checksum shares vouching for the
*other* nodes' chunks.

Fault injection is storage-level: a Byzantine node keeps answering the
protocol faithfully, but what it stores has been rewritten.  RandomCorruption
flips each stored symbol (chunk symbols and held checksum shares)
independently to a uniformly random different value.  ConsistentForgery
rewrites chunk symbols so that colluders jointly present coordinates of a
valid codeword whose decoded message still passes the CRC test; the shares
they hold are left untouched, since reconstruction never consults the
checksum directory.

The "network" is a call interface with per-call symbol accounting; runs are
single-threaded and deterministic for a fixed seed, fault plan and policy.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import mbr, msr
from .errors import (
    ChecksumUnrecoverable,
    ClusterExhausted,
    DecodeFailure,
    InvalidParams,
    NoMajority,
    OverlappingSets,
    PayloadTooLarge,
)
from .integrity import (
    CODED,
    REPLICATED,
    SCHEMES,
    CrcParams,
    _peer_position,
    bits_to_symbols,
    bits_to_int,
    build_directory,
    bytes_to_bits,
    chunk_checksum,
    coded_layout,
    crc_append,
    crc_linear,
    crc_verify,
    recover_checksum,
    symbols_to_bits,
)
from .mbr import MbrParams
from .msr import MsrParams
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
    shares: dict[int, int]  # owner -> this node's share of owner's checksum
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
        nodes = [
            NodeSlot(s.chunk.copy(), dict(s.shares), s.status) for s in self.nodes
        ]
        return ClusterState(
            params=self.params,
            crc=self.crc,
            scheme=self.scheme,
            payload_bit_len=self.payload_bit_len,
            nodes=nodes,
            rng_seed=self.rng_seed,
        )


@dataclass
class RunMetrics:
    nodes_contacted: int = 0
    symbols_downloaded: int = 0
    checksum_symbols_downloaded: int = 0
    decode_rounds: int = 0
    outcome: str = ""


# ---------------------------------------------------------------------------
# fault plans


@dataclass
class RandomCorruption:
    symbol_flip_rate: float = 1.0


@dataclass
class ConsistentForgery:
    # (stripe, row) -> length-d message-row delta; every colluder stores its
    # exact coordinate of the forged codeword, so the forgery is
    # codeword-consistent across colluders by construction.
    forged_row_delta: dict[tuple[int, int], np.ndarray]


@dataclass
class FaultPlan:
    crashes: frozenset = dc_field(default_factory=frozenset)
    byzantine: frozenset = dc_field(default_factory=frozenset)
    strategy: object = None  # RandomCorruption | ConsistentForgery


# ---------------------------------------------------------------------------
# store


def _as_bits(payload) -> np.ndarray:
    if isinstance(payload, (bytes, bytearray)):
        return bytes_to_bits(bytes(payload))
    bits = np.asarray(payload, dtype=np.uint8)
    if bits.ndim != 1 or not np.all(bits <= 1):
        raise InvalidParams("payload must be bytes or a flat 0/1 bit array")
    return bits


def store(payload, params, scheme: str = REPLICATED, *, crc: CrcParams | None = None,
          seed: int = 0) -> ClusterState:
    """Frame the payload, encode it, and place chunks plus checksum shares."""
    if getattr(params, "family", None) not in CODECS:
        raise InvalidParams(f"unsupported params type {type(params).__name__}")
    if scheme not in SCHEMES:
        raise InvalidParams(f"unknown checksum scheme {scheme!r}")
    crc = crc if crc is not None else CrcParams()
    bits = _as_bits(payload)
    m = params.field.m
    capacity = params.beta * params.B * m
    if bits.size + crc.r > capacity:
        raise PayloadTooLarge(
            f"payload of {bits.size} bits + {crc.r}-bit CRC exceeds "
            f"{capacity}-bit frame"
        )
    framed = np.zeros(capacity, dtype=np.uint8)
    extended = crc_append(bits, crc)
    framed[: extended.size] = extended
    stripes = bits_to_symbols(framed, m).reshape(params.beta, params.B)
    chunks = CODECS[params.family].encode(stripes, params)
    checksums = [chunk_checksum(chunks[i], m, crc) for i in range(params.n)]
    directory = build_directory(checksums, scheme, crc)
    nodes = [
        NodeSlot(np.array(chunks[i]), directory[i]) for i in range(params.n)
    ]
    return ClusterState(
        params=params,
        crc=crc,
        scheme=scheme,
        payload_bit_len=int(bits.size),
        nodes=nodes,
        rng_seed=seed,
    )


def frame_bits(state: ClusterState, stripes) -> np.ndarray:
    """Bits of the framed message (payload ∥ CRC) for candidate stripes."""
    m = state.params.field.m
    bits = symbols_to_bits(np.asarray(stripes).reshape(-1), m)
    return bits[: state.payload_bit_len + state.crc.r]


def payload_bits(state: ClusterState, stripes) -> np.ndarray:
    return frame_bits(state, stripes)[: state.payload_bit_len]


# ---------------------------------------------------------------------------
# fault injection


def _flip_symbol(rng: random.Random, value: int, space: int) -> int:
    new = rng.randrange(space - 1)
    return new if new < value else new + 1


def _corrupt_node(state: ClusterState, idx: int, rate: float) -> None:
    rng = random.Random(f"{state.rng_seed}|corrupt|{idx}")
    slot = state.nodes[idx]
    q = 1 << state.params.field.m
    chunk = slot.chunk
    for s in range(chunk.shape[0]):
        for r in range(chunk.shape[1]):
            if rng.random() < rate:
                chunk[s, r] = _flip_symbol(rng, int(chunk[s, r]), q)
    if state.scheme == REPLICATED:
        space = 1 << state.crc.r
    else:
        space = 1 << coded_layout(state.params.n, state.crc.r).m_prime
    for owner in sorted(slot.shares):
        if rng.random() < rate:
            slot.shares[owner] = _flip_symbol(rng, slot.shares[owner], space)


def _apply_forgery(state: ClusterState, idx: int, forgery: ConsistentForgery) -> None:
    params = state.params
    chunk = state.nodes[idx].chunk
    for (s, r), vec in forgery.forged_row_delta.items():
        if not (0 <= s < params.beta and 0 <= r < params.alpha):
            raise InvalidParams(f"forged row ({s}, {r}) out of range")
        vec = np.asarray(vec, dtype=np.int64)
        if vec.shape != (params.d,):
            raise InvalidParams("forged row delta must have length d")
        cw = encode_eval(vec.tolist(), params.code)
        chunk[s, r] ^= cw[idx]


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
    strategy = plan.strategy
    if byzantine and strategy is None:
        strategy = RandomCorruption()
    for i in sorted(byzantine):
        out.nodes[i].status = BYZANTINE
        if isinstance(strategy, RandomCorruption):
            _corrupt_node(out, i, strategy.symbol_flip_rate)
        elif isinstance(strategy, ConsistentForgery):
            _apply_forgery(out, i, strategy)
        else:
            raise InvalidParams(f"unknown fault strategy {strategy!r}")
    return out


# ---------------------------------------------------------------------------
# access policies


class SeededRandom:
    """Default policy: a seed-determined shuffle of the reachable nodes."""

    def __init__(self, seed: int | None = None):
        self.seed = seed

    def order(self, state: ClusterState, exclude=frozenset()) -> list[int]:
        avail = [
            i
            for i, slot in enumerate(state.nodes)
            if slot.status != CRASHED and i not in exclude
        ]
        random.Random(f"{state.rng_seed}|policy|{self.seed}").shuffle(avail)
        return avail


class Adversarial:
    """Collector unknowingly prefers compromised nodes."""

    def order(self, state: ClusterState, exclude=frozenset()) -> list[int]:
        byz = [
            i
            for i, slot in enumerate(state.nodes)
            if slot.status == BYZANTINE and i not in exclude
        ]
        rest = [
            i
            for i, slot in enumerate(state.nodes)
            if slot.status == HEALTHY and i not in exclude
        ]
        return byz + rest


class ExplicitOrder:
    """Fixed access order (reachable nodes only), for exhaustive sweeps."""

    def __init__(self, order):
        self._order = [int(i) for i in order]

    def order(self, state: ClusterState, exclude=frozenset()) -> list[int]:
        n = state.params.n
        out = []
        for i in self._order:
            if not 0 <= i < n:
                raise InvalidParams(f"node index {i} out of range for n={n}")
            if state.nodes[i].status != CRASHED and i not in exclude:
                out.append(i)
        return out


# ---------------------------------------------------------------------------
# protocol drivers


class _MeteredCollector:
    """Serves whole chunks in policy order; crashed nodes are never queued."""

    def __init__(self, state: ClusterState, order, metrics: RunMetrics):
        self._state = state
        self._queue = deque(order)
        self._metrics = metrics

    def fetch(self, count: int):
        out = []
        while self._queue and len(out) < count:
            idx = self._queue.popleft()
            out.append((idx, self._state.nodes[idx].chunk))
        if out:
            p = self._state.params
            self._metrics.nodes_contacted += len(out)
            self._metrics.symbols_downloaded += len(out) * p.beta * p.alpha
            self._metrics.decode_rounds += 1
        return out


class _MeteredSource:
    """Serves repair responses plus one checksum share per helper."""

    def __init__(self, state: ClusterState, failed: int, order, metrics: RunMetrics):
        self._state = state
        self._failed = failed
        self._queue = deque(order)
        self._metrics = metrics
        self.shares: dict[int, int] = {}

    def fetch(self, count: int):
        state, failed, params = self._state, self._failed, self._state.params
        out = []
        while self._queue and len(out) < count:
            j = self._queue.popleft()
            slot = state.nodes[j]
            resp = CODECS[params.family].repair_response(slot.chunk, j, failed, params)
            self.shares[j] = slot.shares[failed]
            out.append((j, resp))
        if out:
            self._metrics.nodes_contacted += len(out)
            self._metrics.symbols_downloaded += len(out) * state.params.beta
            self._metrics.checksum_symbols_downloaded += len(out)
            self._metrics.decode_rounds += 1
        return out


def run_reconstruction(state: ClusterState, policy=None) -> tuple:
    """Full data-collector protocol; returns (payload bits or None, metrics)."""
    policy = policy if policy is not None else SeededRandom()
    metrics = RunMetrics()
    collector = _MeteredCollector(state, policy.order(state), metrics)

    def verify(stripes) -> bool:
        return crc_verify(frame_bits(state, stripes), state.crc)

    codec = CODECS[state.params.family]
    try:
        stripes, rounds = codec.reconstruct(collector, state.params, verify)
    except ClusterExhausted:
        metrics.outcome = FAIL
        return None, metrics
    metrics.decode_rounds = rounds
    metrics.outcome = SUCCESS
    return payload_bits(state, stripes), metrics


def run_regeneration(
    state: ClusterState, failed: int, policy=None, *, install: bool = False
) -> tuple:
    """Full helper protocol; returns (chunk or None, metrics).

    With ``install=True`` a successful run writes the regenerated chunk back
    into ``state`` and rebuilds the newcomer's checksum-share directory from
    the surviving nodes (zero-filling any share whose owner checksum cannot
    be recovered).
    """
    params = state.params
    if not 0 <= failed < params.n:
        raise InvalidParams(f"node index {failed} out of range for n={params.n}")
    policy = policy if policy is not None else SeededRandom()
    metrics = RunMetrics()
    source = _MeteredSource(state, failed, policy.order(state, {failed}), metrics)

    def recover(helpers) -> int | None:
        responses = {j: source.shares[j] for j in helpers}
        try:
            return recover_checksum(
                responses, failed, state.scheme, params.n, state.crc
            )
        except (NoMajority, DecodeFailure):
            return None

    def chunk_crc(chunk) -> int:
        return chunk_checksum(chunk, params.field.m, state.crc)

    try:
        chunk, rounds = CODECS[params.family].regenerate(
            source, failed, params, recover, chunk_crc
        )
    except (ClusterExhausted, ChecksumUnrecoverable):
        metrics.outcome = FAIL
        return None, metrics
    metrics.decode_rounds = rounds
    metrics.outcome = SUCCESS
    if install:
        slot = state.nodes[failed]
        slot.chunk = chunk.copy()
        slot.shares = rebuild_shares(state, failed)[0]
        slot.status = HEALTHY
    return chunk, metrics


def rebuild_shares(
    state: ClusterState, newcomer: int
) -> tuple[dict[int, int], list[int]]:
    """Re-derive the newcomer's checksum shares from the surviving nodes.

    Returns the share directory plus the owners whose checksums could not
    be recovered (those shares are zero-filled).
    """
    params, crc = state.params, state.crc
    shares: dict[int, int] = {}
    missing: list[int] = []
    for owner in range(params.n):
        if owner == newcomer:
            continue
        responses = {
            j: state.nodes[j].shares[owner]
            for j in range(params.n)
            if j not in (owner, newcomer) and state.nodes[j].status != CRASHED
        }
        try:
            cs = recover_checksum(responses, owner, state.scheme, params.n, crc)
        except (NoMajority, DecodeFailure, InvalidParams):
            shares[owner] = 0
            missing.append(owner)
            continue
        if state.scheme == REPLICATED:
            shares[owner] = cs
        else:
            layout = coded_layout(params.n, crc.r)
            cw = encode_eval(layout.checksum_to_message(cs), layout.code)
            shares[owner] = cw[_peer_position(newcomer, owner)]
    return shares, missing


# ---------------------------------------------------------------------------
# colluding forgery with zero CRC residue


def _gf2_kernel(residues) -> int:
    """Bitmask over ``residues`` whose XOR is zero, or 0 if none found."""
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
    relative to the forged codeword.  The scale factors are solved over
    GF(2) so the decoded message delta has zero CRC residue; when the
    payload spans the whole frame the forged payload is guaranteed to
    differ from the true one.
    """
    params = state.params
    if params.family != "msr":
        raise InvalidParams("forgery construction is defined for MSR clusters")
    colluders = sorted(set(int(c) for c in colluders))
    n, d, alpha, beta = params.n, params.d, params.alpha, params.beta
    m, crc, L = params.field.m, state.crc, state.payload_bit_len
    if not colluders or any(not 0 <= c < n for c in colluders):
        raise InvalidParams("colluder set must be non-empty node indices")

    support = list(colluders)
    for p in range(n):
        if len(support) >= n - d + 1:
            break
        if p not in colluders:
            support.append(p)
    support = sorted(support[: n - d + 1])

    # u(x) = prod_{p outside support} (x - a^p): degree d-1, support exactly T
    field = params.field
    u_vec = [1]
    for p in range(n):
        if p in support:
            continue
        root = params.code.points[p]
        nxt = [0] * (len(u_vec) + 1)
        for i, c in enumerate(u_vec):
            nxt[i] ^= field.mul(root, c)
            nxt[i + 1] ^= c
        u_vec = nxt
    assert len(u_vec) == d
    w = encode_eval(u_vec, params.code)
    assert all(w[p] == 0 for p in range(n) if p not in support)
    assert all(w[p] != 0 for p in support)

    def message_delta(gamma: np.ndarray) -> np.ndarray:
        # decoded message delta when row r of stripe s shifts by gamma[s,r]*u
        out = np.zeros((beta, params.B), dtype=np.int64)
        for s in range(beta):
            for r in range(alpha):
                g = int(gamma[s, r])
                if not g:
                    continue
                for j in range(r, alpha):
                    out[s, params.fill1[r, j]] ^= field.mul(g, u_vec[j])
                    out[s, params.fill2[r, j]] ^= field.mul(g, u_vec[alpha + j])
        return out

    def residue(delta: np.ndarray) -> int:
        bits = symbols_to_bits(delta.reshape(-1), m)
        return crc_linear(bits[:L], crc) ^ bits_to_int(bits[L : L + crc.r])

    unknowns = []  # (stripe, row, bit)
    residues = []
    gamma = np.zeros((beta, alpha), dtype=np.int64)
    for s in range(beta):
        for r in range(alpha):
            for t in range(m):
                gamma[s, r] = 1 << t
                residues.append(residue(message_delta(gamma)))
                gamma[s, r] = 0
                unknowns.append((s, r, t))
    mask = _gf2_kernel(residues)
    if mask == 0:
        raise InvalidParams(
            "no zero-residue forgery exists for this payload size"
        )
    for idx, (s, r, t) in enumerate(unknowns):
        if mask >> idx & 1:
            gamma[s, r] ^= 1 << t

    delta = message_delta(gamma)
    assert residue(delta) == 0
    bits = symbols_to_bits(delta.reshape(-1), m)
    if not bits[:L].any():
        raise InvalidParams(
            "forgery does not alter the payload; use a payload that fills "
            "the frame"
        )
    rows = {
        (s, r): np.array([field.mul(int(gamma[s, r]), c) for c in u_vec],
                         dtype=np.int64)
        for s in range(beta)
        for r in range(alpha)
        if gamma[s, r]
    }
    return ConsistentForgery(forged_row_delta=rows)
