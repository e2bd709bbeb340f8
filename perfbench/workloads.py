"""The three benchmark workloads.

Each workload draws its inputs from the run seed alone: payloads from
``numpy.random.default_rng(seed)``, fault sets and access orders from
``random.Random(f"{seed}|...")``.  ``make_inputs(cycle)`` draws one
cycle's inputs; ``run_cycle(inputs, rec)`` performs the cycle's ops
through the library's public entry points, checks every output against
the truth generated here, and reports each op to the recorder.  Fault
injection and file deletion are set-up: they are not timed as ops.
"""

from __future__ import annotations

import io
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

# Library entry points are called through their modules, so the tracer's
# rebinding of module attributes also covers the calls made from here.
from regencode import cli, cluster
from regencode.cluster import SUCCESS, FaultPlan, RandomCorruption, SeededRandom
from regencode.galois import GF
from regencode.integrity import CODED, REPLICATED, CrcParams, coded_layout
from regencode.msr import MsrParams

PAYLOAD_BYTES = 64 * 1024


def _stored_bytes(params, scheme: str, r: int) -> float:
    """Chunk plus held checksum-share bytes over all n nodes."""
    share_bits = r if scheme == REPLICATED else coded_layout(params.n, r).m_prime
    chunk_bits = params.beta * params.alpha * params.field.m
    return params.n * (chunk_bits + (params.n - 1) * share_bits) / 8


class Workload:
    """Seeded input source shared by the workloads."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.workdir = Path(workdir)


class Healthy(Workload):
    """MSR [6,3,4] over GF(2^8), replicated checksums, 64 KiB payloads."""

    n, k, d, m, r = 6, 3, 4, 8, 32
    beta = 10924  # the CLI's automatic beta for 64 KiB: ceil((2^19 + r) / (B m))

    def setup(self):
        self.params = MsrParams(self.n, self.k, self.d, self.beta, GF(self.m))
        self.crc = CrcParams(self.r)
        payload = self.rng.integers(0, 256, PAYLOAD_BYTES, dtype=np.uint8).tobytes()
        self.initial = cluster.store(payload, self.params, REPLICATED, crc=self.crc, seed=self.seed)

    def make_inputs(self, cycle: int) -> dict:
        rng = random.Random(f"{self.seed}|healthy|{cycle}")
        payload = self.rng.integers(0, 256, PAYLOAD_BYTES, dtype=np.uint8).tobytes()
        return {
            "payload": payload,
            "store_seed": rng.randrange(1 << 30),
            "crashed": rng.randrange(self.n),
            "recon_policy": rng.randrange(1 << 30),
            "failed": rng.randrange(self.n),
            "regen_policy": rng.randrange(1 << 30),
        }

    def run_cycle(self, inp: dict, rec):
        p, m = self.params, self.m
        payload = inp["payload"]
        state, dt = rec.time("store", lambda: cluster.store(
            payload, p, REPLICATED, crc=self.crc, seed=inp["store_seed"]))
        truth_chunks = [slot.chunk.copy() for slot in state.nodes]
        rec.add("store", dt, True, True, len(payload), 0,
                stored=_stored_bytes(p, REPLICATED, self.r))

        with rec.op("inject"):
            crashed = cluster.inject(state, FaultPlan(crashes={inp["crashed"]}))
        (bits, met), dt = rec.time("reconstruct", lambda: cluster.run_reconstruction(
            crashed, SeededRandom(inp["recon_policy"])))
        ok = met.outcome == SUCCESS
        right = ok and np.array_equal(bits, np.unpackbits(np.frombuffer(payload, np.uint8)))
        rec.add("reconstruct", dt, ok, right, len(payload),
                met.symbols_downloaded * m / 8)

        failed = inp["failed"]
        (chunk, met), dt = rec.time("regenerate", lambda: cluster.run_regeneration(
            state, failed, SeededRandom(inp["regen_policy"])))
        ok = met.outcome == SUCCESS
        right = ok and np.array_equal(chunk, truth_chunks[failed])
        rec.add("regenerate", dt, ok, right, p.beta * p.alpha * m / 8,
                met.symbols_downloaded * m / 8)


class Byzantine(Workload):
    """MSR [100,20,38] over GF(2^11), coded checksums, beta=8 full frames."""

    n, k, d, m, r, beta = 100, 20, 38, 11, 32, 8
    recon_corrupt = (n - d) // 2  # 31: the reconstruction budget
    regen_corrupt = 16  # min((n-d)//2, (d-k')//2) with k'=5: the regeneration budget

    def setup(self):
        self.params = MsrParams(self.n, self.k, self.d, self.beta, GF(self.m))
        self.crc = CrcParams(self.r)
        self.payload_bits = self.beta * self.params.B * self.m - self.r
        bits = self.rng.integers(0, 2, self.payload_bits, dtype=np.uint8)
        self.initial = cluster.store(bits, self.params, CODED, crc=self.crc, seed=self.seed)

    def make_inputs(self, cycle: int) -> dict:
        rng = random.Random(f"{self.seed}|byzantine|{cycle}")
        n = self.n
        failed = rng.randrange(n)
        return {
            "bits": self.rng.integers(0, 2, self.payload_bits, dtype=np.uint8),
            "store_seed": rng.randrange(1 << 30),
            "recon_byz": frozenset(rng.sample(range(n), self.recon_corrupt)),
            "recon_policy": rng.randrange(1 << 30),
            "failed": failed,
            "regen_byz": frozenset(rng.sample(
                [i for i in range(n) if i != failed], self.regen_corrupt)),
            "regen_policy": rng.randrange(1 << 30),
        }

    def run_cycle(self, inp: dict, rec):
        p, m = self.params, self.m
        bits = inp["bits"]
        nbytes = bits.size / 8
        state, dt = rec.time("store", lambda: cluster.store(
            bits, p, CODED, crc=self.crc, seed=inp["store_seed"]))
        truth_chunks = [slot.chunk.copy() for slot in state.nodes]
        rec.add("store", dt, True, True, nbytes, 0,
                stored=_stored_bytes(p, CODED, self.r))

        with rec.op("inject"):
            corrupt = cluster.inject(state, FaultPlan(
                byzantine=inp["recon_byz"], strategy=RandomCorruption()))
        (out, met), dt = rec.time("reconstruct", lambda: cluster.run_reconstruction(
            corrupt, SeededRandom(inp["recon_policy"])))
        ok = met.outcome == SUCCESS
        rec.add("reconstruct", dt, ok, ok and np.array_equal(out, bits), nbytes,
                met.symbols_downloaded * m / 8)

        failed = inp["failed"]
        with rec.op("inject"):
            corrupt = cluster.inject(state, FaultPlan(
                byzantine=inp["regen_byz"], strategy=RandomCorruption()))
        (chunk, met), dt = rec.time("regenerate", lambda: cluster.run_regeneration(
            corrupt, failed, SeededRandom(inp["regen_policy"])))
        ok = met.outcome == SUCCESS
        right = ok and np.array_equal(chunk, truth_chunks[failed])
        rec.add("regenerate", dt, ok, right, p.beta * p.alpha * m / 8,
                met.symbols_downloaded * m / 8)


def _cli(argv) -> tuple[int, dict]:
    """Run ``regencode.cli.main`` in-process; (exit code, its command= record)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    records = [line for line in out.getvalue().splitlines() if line.startswith("command=")]
    record = dict(tok.split("=", 1) for tok in records[0].split()) if records else {}
    return code, record


class Files(Workload):
    """MBR [6,3,4] over GF(2^8), replicated, 64 KiB files through the CLI."""

    n, k, d, m, r = 6, 3, 4, 8, 32

    def _flags(self, seed: int) -> list:
        return ["--family", "mbr", "--n", self.n, "--k", self.k, "--d", self.d,
                "--m", self.m, "--r", self.r, "--scheme", REPLICATED, "--seed", seed]

    def setup(self):
        """Write one payload file and encode it: the initial chunk set."""
        cdir = self.workdir / "initial"
        cdir.mkdir(parents=True)
        src = cdir / "input.bin"
        src.write_bytes(self.rng.integers(0, 256, PAYLOAD_BYTES, dtype=np.uint8).tobytes())
        code, _ = _cli(["encode", src, *self._flags(self.seed), "--out", cdir / "chunks"])
        if code != 0:
            raise RuntimeError("initial encode failed")

    def make_inputs(self, cycle: int) -> dict:
        rng = random.Random(f"{self.seed}|files|{cycle}")
        n = self.n
        return {
            "cycle": cycle,
            "payload": self.rng.integers(0, 256, PAYLOAD_BYTES, dtype=np.uint8).tobytes(),
            "store_seed": rng.randrange(1 << 30),
            "failed": rng.randrange(n),
            "regen_seed": rng.randrange(1 << 30),
            "truncated": rng.randrange(n),
            "probe_seed": rng.randrange(1 << 30),
            "lost": frozenset(rng.sample(range(n), n - self.k)),
            "recon_seed": rng.randrange(1 << 30),
        }

    def run_cycle(self, inp: dict, rec):
        cdir = self.workdir / f"cycle{inp['cycle']}-{rec.label}"
        chunks = cdir / "chunks"
        cdir.mkdir(parents=True)
        try:
            self._cycle(inp, rec, cdir, chunks)
        finally:
            shutil.rmtree(cdir)

    def _cycle(self, inp, rec, cdir: Path, chunks: Path):
        payload = inp["payload"]
        src = cdir / "input.bin"
        src.write_bytes(payload)
        (code, enc), dt = rec.time("store", lambda: _cli(
            ["encode", src, *self._flags(inp["store_seed"]), "--out", chunks]))
        paths = [chunks / f"node{i:03d}.rgen" for i in range(self.n)]
        truth = {i: p.read_bytes() for i, p in enumerate(paths) if p.exists()}
        ok = code == 0 and len(truth) == self.n
        rec.add("store", dt, ok, ok, len(payload), 0,
                stored=sum(len(b) for b in truth.values()))
        if not ok:
            return

        failed = inp["failed"]
        paths[failed].unlink()
        (code, record), dt = rec.time("regenerate", lambda: _cli(
            ["regenerate", chunks, "--failed", failed, "--seed", inp["regen_seed"]]))
        ok = code == 0
        right = ok and paths[failed].read_bytes() == truth[failed]
        chunk_bytes = int(enc["beta"]) * self.d * self.m / 8  # MBR: alpha = d
        rec.add("regenerate", dt, ok, right, chunk_bytes,
                int(record.get("symbols_downloaded", 0)) * self.m / 8)
        if not right:  # later ops of the cycle start from the true file set
            paths[failed].write_bytes(truth[failed])

        # Probe: one truncated file beside n-1 intact ones (>= k).  Kept out
        # of latency and throughput; counted only as attempted/failed.
        t = inp["truncated"]
        probe = cdir / "probe"
        probe.mkdir()
        (probe / paths[t].name).write_bytes(truth[t][: len(truth[t]) // 2])
        probe_out = cdir / "probe.bin"
        with rec.op("probe"):
            code, _ = _cli(["reconstruct", probe / paths[t].name,
                            *[paths[i] for i in range(self.n) if i != t],
                            "--out", probe_out, "--seed", inp["probe_seed"]])
        ok = code == 0
        rec.probe(ok, ok and probe_out.read_bytes() == payload)

        for i in inp["lost"]:
            paths[i].unlink()
        out = cdir / "out.bin"
        (code, record), dt = rec.time("reconstruct", lambda: _cli(
            ["reconstruct", chunks, "--out", out, "--seed", inp["recon_seed"]]))
        ok = code == 0
        rec.add("reconstruct", dt, ok, ok and out.read_bytes() == payload,
                len(payload), int(record.get("symbols_downloaded", 0)) * self.m / 8)


WORKLOADS = {"healthy": Healthy, "byzantine": Byzantine, "files": Files}
