"""The progressive retrieval driver shared by both code families.

Reconstruction and regeneration read what a fault-free run needs and
read more only when the integrity test rejects the decoded result.
Round one asks for ``first`` items (k columns to reconstruct, d repair
responses to regenerate).  Every later round asks for
``max(dim - count, 0) + 2`` more, where ``dim`` is the dimension of the
row code being decoded and ``count`` the items read so far: ``dim``
symbols are the least a row decode needs, and each error it must correct
costs two more.  That yields the ladders k, d+2, d+4, … (MSR rows),
k, k+2, … (MBR's A2 rows) and d, d+2, … (regeneration).
"""

from __future__ import annotations

import numpy as np

from .errors import ChecksumUnrecoverable, ClusterExhausted, DecodeFailure, SelfRepair
from .rscode import ProgressiveDecoder


def run(source, first: int, code, beta: int, rows: int, take, attempt, accept):
    """Fetch, decode and test until ``accept`` passes; (result, rounds).

    One block decoder over ``code`` holds beta × rows rows (stripe-major),
    fed the (beta, rows) symbols that ``take(data)`` picks from each
    fetched item.  ``attempt(rounds, received, decode)`` builds a
    candidate from the {node: data} received so far; ``decode()`` returns
    the first ``code.dim`` codeword symbols of every row, shape
    (beta, rows, dim).  The decoder is built at the first ``decode()`` and
    fed at each call, so an accepted fast path needs none.  A
    DecodeFailure counts as no candidate.  Raises ClusterExhausted once
    the source runs out.
    """
    received: dict = {}
    pending: list = []
    decoder = None

    def decode() -> np.ndarray:
        nonlocal decoder
        if decoder is None:
            decoder = ProgressiveDecoder(code, beta * rows)
        decoder.absorb({j: np.asarray(take(data)).reshape(-1) for j, data in pending})
        pending.clear()
        return decoder.attempt().codeword[:, : code.dim].reshape(beta, rows, code.dim)

    count = rounds = 0
    want = first
    while True:
        got = source.fetch(want)
        if got:
            received.update(got)
            pending.extend(got)
            count += len(got)
            rounds += 1
            try:
                candidate = attempt(rounds, received, decode)
            except DecodeFailure:
                candidate = None
            if candidate is not None and accept(candidate):
                return candidate, rounds
        if len(got) < want:
            raise ClusterExhausted(f"no verified result after reading {count} nodes")
        want = max(code.dim - count, 0) + 2


def regenerate(source, failed: int, params, recover, chunk_crc, column):
    """Rebuild node ``failed`` from helper responses; (chunk, rounds).

    ``column`` maps the decoded β×d vectors g_failed·U to the lost chunk;
    recover and chunk_crc are as for ``msr.regenerate``.
    """
    helpers: list[int] = []
    checksum = None

    def attempt(_rounds, received, decode):
        nonlocal checksum
        if failed in received:
            raise SelfRepair(f"node {failed} cannot help regenerate itself")
        helpers[:] = received
        if checksum is None:
            checksum = recover(helpers)
        return column(params.field.matmul(decode()[:, 0], params.ghat_inv))

    def accept(chunk):
        return checksum is not None and chunk_crc(chunk) == checksum

    take = lambda resp: np.asarray(resp)[:, None]
    try:
        return run(source, params.d, params.code, params.beta, 1, take, attempt, accept)
    except ClusterExhausted:
        if helpers and checksum is None:
            raise ChecksumUnrecoverable(
                f"checksum of node {failed} undetermined after {len(helpers)} helpers"
            ) from None
        raise
