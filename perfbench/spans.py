"""Span tracer that wraps the library's public functions from outside.

Each wrapped function records one span (name, start, end, parent span,
op id) and per-name counts.  Self time is a span's duration minus the
durations of its direct child spans.  Nothing under ``src/`` changes:
the wrappers are installed by rebinding every name that refers to a
traced function, in every ``regencode`` module, and removed afterwards.

A name imported with ``from .x import f`` is a second binding of ``f``
in the importing module; patching only ``x.f`` would silently miss the
calls made through it.  ``install`` therefore rebinds every module
attribute that is the original function object and then checks that no
module still holds an unwrapped original.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, class or None, attribute).  Scalar GF.mul/inv/div
# are deliberately absent: they run hundreds of thousands of times per op
# and their cost shows up as the callers' self time.
TARGETS = [
    ("galois.matmul", "regencode.galois", "GF", "matmul"),
    ("galois.vmul", "regencode.galois", "GF", "vmul"),
    ("rscode.absorb", "regencode.rscode", "ProgressiveDecoder", "absorb"),
    ("rscode.attempt", "regencode.rscode", "ProgressiveDecoder", "attempt"),
    ("rscode.gf_inverse", "regencode.rscode", None, "gf_inverse"),
    ("rscode.encode_eval", "regencode.rscode", None, "encode_eval"),
    ("rscode.decode_error_erasure", "regencode.rscode", None, "decode_error_erasure"),
    ("integrity.crc_checksum", "regencode.integrity", None, "crc_checksum"),
    ("integrity.crc_verify", "regencode.integrity", None, "crc_verify"),
    ("integrity.recover_checksum", "regencode.integrity", None, "recover_checksum"),
    ("integrity.build_directory", "regencode.integrity", None, "build_directory"),
    ("msr.encode", "regencode.msr", None, "encode"),
    ("msr.reconstruct_fast", "regencode.msr", None, "reconstruct_fast"),
    ("msr.reconstruct", "regencode.msr", None, "reconstruct"),
    ("msr.regenerate", "regencode.msr", None, "regenerate"),
    ("msr.repair_response", "regencode.msr", None, "repair_response"),
    ("mbr.encode", "regencode.mbr", None, "encode"),
    ("mbr.reconstruct", "regencode.mbr", None, "reconstruct"),
    ("mbr.regenerate", "regencode.mbr", None, "regenerate"),
    ("mbr.repair_response", "regencode.mbr", None, "repair_response"),
    ("cluster.store", "regencode.cluster", None, "store"),
    ("cluster.run_reconstruction", "regencode.cluster", None, "run_reconstruction"),
    ("cluster.run_regeneration", "regencode.cluster", None, "run_regeneration"),
    ("cluster.rebuild_shares", "regencode.cluster", None, "rebuild_shares"),
    ("cluster.inject", "regencode.cluster", None, "inject"),
    ("chunkio.pack_chunk", "regencode.chunkio", None, "pack_chunk"),
    ("chunkio.unpack_chunk", "regencode.chunkio", None, "unpack_chunk"),
    ("chunkio.read_chunk_file", "regencode.chunkio", None, "read_chunk_file"),
    ("chunkio.write_chunk_file", "regencode.chunkio", None, "write_chunk_file"),
    ("cli.encode", "regencode.cli", None, "cmd_encode"),
    ("cli.reconstruct", "regencode.cli", None, "cmd_reconstruct"),
    ("cli.regenerate", "regencode.cli", None, "cmd_regenerate"),
]

# Which workloads must exercise each span (calls > 0).  Spans of the
# families below must have zero calls on every workload not listed.
EXERCISED = {
    "galois.matmul": {"healthy", "byzantine", "files"},
    "galois.vmul": {"healthy", "byzantine"},
    "rscode.absorb": {"healthy", "byzantine", "files"},
    "rscode.attempt": {"healthy", "byzantine", "files"},
    "rscode.gf_inverse": {"healthy", "byzantine", "files"},
    "rscode.encode_eval": {"byzantine"},
    "rscode.decode_error_erasure": {"byzantine"},
    "integrity.crc_checksum": {"healthy", "byzantine", "files"},
    "integrity.crc_verify": {"healthy", "byzantine", "files"},
    "integrity.recover_checksum": {"healthy", "byzantine", "files"},
    "integrity.build_directory": {"healthy", "byzantine", "files"},
    "msr.encode": {"healthy", "byzantine"},
    "msr.reconstruct_fast": {"healthy", "byzantine"},
    "msr.reconstruct": {"healthy", "byzantine"},
    "msr.regenerate": {"healthy", "byzantine"},
    "msr.repair_response": {"healthy", "byzantine"},
    "mbr.encode": {"files"},
    "mbr.reconstruct": {"files"},
    "mbr.regenerate": {"files"},
    "mbr.repair_response": {"files"},
    "cluster.store": {"healthy", "byzantine", "files"},
    "cluster.run_reconstruction": {"healthy", "byzantine", "files"},
    "cluster.run_regeneration": {"healthy", "byzantine", "files"},
    "cluster.rebuild_shares": {"files"},
    "cluster.inject": {"healthy", "byzantine"},
    "chunkio.pack_chunk": {"files"},
    "chunkio.unpack_chunk": {"files"},
    "chunkio.read_chunk_file": {"files"},
    "chunkio.write_chunk_file": {"files"},
    "cli.encode": {"files"},
    "cli.reconstruct": {"files"},
    "cli.regenerate": {"files"},
}
ZERO_OUTSIDE = ("msr.", "mbr.", "chunkio.", "cli.")
# (workload, op kind, span) that must see no calls: the MSR fast path
# accepts in round one, so a healthy reconstruct never error-decodes.
ZERO_UNDER_OP = [("healthy", "reconstruct", "rscode.attempt")]


def _matmul_stats(st, args, result, exc):
    a, b = args[1], args[2]
    p, q = len(a), len(b)
    r = len(b[0]) if q else 0
    cells = p * q * r
    st["cells"] += cells
    if cells > st["peak_cells"]:
        st["peak_cells"] = cells


def _absorb_stats(st, args, result, exc):
    st["symbols"] += len(args[1])


def _attempt_stats(st, args, result, exc):
    if exc is not None:
        st["failed"] += 1
    else:
        st["errors_corrected"] += result.corrected_count


def _crc_stats(st, args, result, exc):
    st["bits"] += len(args[0])


def _verify_stats(st, args, result, exc):
    st["rejects"] += result is False


def _recover_stats(st, args, result, exc):
    st["failed"] += exc is not None


def _pack_stats(st, args, result, exc):
    if exc is None:
        st["bytes"] += len(result)


def _unpack_stats(st, args, result, exc):
    st["bytes"] += len(args[0])


def _reconstruction_stats(st, args, result, exc):
    if exc is not None:
        return
    metrics = result[1]
    st["ops"] += 1
    st["decode_rounds"] += metrics.decode_rounds
    st["nodes_contacted"] += metrics.nodes_contacted
    st["fast_path"] += metrics.outcome == "SUCCESS" and metrics.decode_rounds == 1


def _regeneration_stats(st, args, result, exc):
    if exc is not None:
        return
    metrics = result[1]
    st["ops"] += 1
    st["decode_rounds"] += metrics.decode_rounds
    st["nodes_contacted"] += metrics.nodes_contacted


STATS = {
    "galois.matmul": _matmul_stats,
    "rscode.absorb": _absorb_stats,
    "rscode.attempt": _attempt_stats,
    "integrity.crc_checksum": _crc_stats,
    "integrity.crc_verify": _verify_stats,
    "integrity.recover_checksum": _recover_stats,
    "chunkio.pack_chunk": _pack_stats,
    "chunkio.unpack_chunk": _unpack_stats,
    "cluster.run_reconstruction": _reconstruction_stats,
    "cluster.run_regeneration": _regeneration_stats,
}


class Tracer:
    """In-memory spans and per-name counters for one traced run."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.op_kinds: list[str] = []  # op id -> kind
        self.calls = defaultdict(int)  # name -> calls
        self.calls_by_op = defaultdict(int)  # (op kind, name) -> calls
        self.self_ns = defaultdict(int)  # name -> self time
        self.total_ns = defaultdict(int)  # name -> inclusive time
        self.stats = defaultdict(lambda: defaultdict(int))  # name -> stat -> value
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._op = -1
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def op(self, kind: str):
        """Attribute the spans opened inside to a new op of this kind."""
        self.op_kinds.append(kind)
        prev, self._op = self._op, len(self.op_kinds) - 1
        try:
            yield
        finally:
            self._op = prev

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        hook = STATS.get(name)
        tracer = self
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack, child = tracer._stack, tracer._child_ns
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_op.append(tracer._op)
            tracer.span_end.append(0)
            stack.append(idx)
            child.append(0)
            result = exc = None
            start = now()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = now()
                stack.pop()
                dur = end - start
                tracer.span_end[idx] = end
                tracer.self_ns[name] += dur - child.pop()
                tracer.total_ns[name] += dur
                if child:
                    child[-1] += dur
                tracer.calls[name] += 1
                kind = tracer.op_kinds[tracer._op] if tracer._op >= 0 else "none"
                tracer.calls_by_op[(kind, name)] += 1
                if hook is not None:
                    hook(tracer.stats[name], args, result, exc)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target at every binding site in the regencode modules."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "regencode" or key.startswith("regencode."))
        ]
        originals = []
        for name, modname, clsname, attr in TARGETS:
            owner = sys.modules[modname]
            if clsname is not None:
                cls = getattr(owner, clsname)
                fn = cls.__dict__[attr]
                self._rebind(cls, attr, fn, self._wrap(name, fn))
            else:
                fn = getattr(owner, attr)
                wrapped = self._wrap(name, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._rebind(mod, key, fn, wrapped)
            originals.append(fn)
        stale = [
            f"{mod.__name__}.{key}"
            for mod in modules
            for key, value in vars(mod).items()
            if any(value is fn for fn in originals)
        ]
        if stale:
            self.uninstall()
            raise RuntimeError(f"unwrapped bindings remain: {stale}")

    def _rebind(self, owner, key, fn, wrapped):
        setattr(owner, key, wrapped)
        self._installed.append((owner, key, fn))

    def uninstall(self):
        while self._installed:
            owner, key, fn = self._installed.pop()
            setattr(owner, key, fn)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}

        def put(key, value, unit):
            out[key] = (value, unit)

        def calls_self(name):
            put(f"{name}.calls", self.calls[name], "count")
            put(f"{name}.self_s", self.self_ns[name] / 1e9, "s")

        st = self.stats
        calls_self("galois.matmul")
        put("galois.matmul.cells", st["galois.matmul"]["cells"], "count")
        put("galois.matmul.peak_cells", st["galois.matmul"]["peak_cells"], "count")
        calls_self("galois.vmul")
        calls_self("rscode.absorb")
        put("rscode.absorb.symbols", st["rscode.absorb"]["symbols"], "count")
        calls_self("rscode.attempt")
        put("rscode.attempt.failed", st["rscode.attempt"]["failed"], "count")
        put("rscode.attempt.errors_corrected",
            st["rscode.attempt"]["errors_corrected"], "count")
        for name in ("rscode.gf_inverse", "rscode.encode_eval",
                     "rscode.decode_error_erasure"):
            calls_self(name)
        calls_self("integrity.crc_checksum")
        put("integrity.crc_checksum.bits", st["integrity.crc_checksum"]["bits"], "count")
        put("integrity.crc_verify.calls", self.calls["integrity.crc_verify"], "count")
        put("integrity.crc_verify.rejects",
            st["integrity.crc_verify"]["rejects"], "count")
        calls_self("integrity.recover_checksum")
        put("integrity.recover_checksum.failed",
            st["integrity.recover_checksum"]["failed"], "count")
        calls_self("integrity.build_directory")
        for fam, fns in (
            ("msr", ("encode", "reconstruct_fast", "reconstruct", "regenerate",
                     "repair_response")),
            ("mbr", ("encode", "reconstruct", "regenerate", "repair_response")),
        ):
            for fn in fns:
                calls_self(f"{fam}.{fn}")
        for name in ("cluster.store", "cluster.run_reconstruction",
                     "cluster.run_regeneration", "cluster.rebuild_shares"):
            calls_self(name)
        put("cluster.inject.total_s", self.total_ns["cluster.inject"] / 1e9, "s")
        rec, reg = st["cluster.run_reconstruction"], st["cluster.run_regeneration"]
        put("cluster.fast_path_ratio", rec["fast_path"] / max(1, rec["ops"]), "ratio")
        for name, s in (("run_reconstruction", rec), ("run_regeneration", reg)):
            for stat in ("decode_rounds", "nodes_contacted"):
                put(f"cluster.{name}.{stat}", s[stat] / max(1, s["ops"]), "count/op")
        calls_self("chunkio.pack_chunk")
        put("chunkio.pack_chunk.bytes", st["chunkio.pack_chunk"]["bytes"], "count")
        calls_self("chunkio.unpack_chunk")
        put("chunkio.unpack_chunk.bytes", st["chunkio.unpack_chunk"]["bytes"], "count")
        calls_self("chunkio.read_chunk_file")
        calls_self("chunkio.write_chunk_file")
        for name in ("cli.encode", "cli.reconstruct", "cli.regenerate"):
            calls_self(name)
        return out

    def fast_path_base(self) -> tuple[int, int]:
        rec = self.stats["cluster.run_reconstruction"]
        return rec["fast_path"], rec["ops"]

    def self_check(self, workload: str) -> list[str]:
        """Violations of the zero and non-zero call predictions."""
        problems = []
        for name, _, _, _ in TARGETS:
            calls = self.calls[name]
            if workload in EXERCISED[name]:
                if calls == 0:
                    problems.append(f"{name} has no calls on {workload}")
            elif name.startswith(ZERO_OUTSIDE) and calls:
                problems.append(f"{name} has {calls} calls on {workload}")
        for wl, kind, name in ZERO_UNDER_OP:
            calls = self.calls_by_op[(kind, name)]
            if wl == workload and calls:
                problems.append(f"{name} has {calls} calls under {kind} ops")
        return problems

    def write_spans(self, path) -> int:
        """Write spans as gzipped tab-separated rows; returns the span count."""
        n = len(self.span_start)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\top\top_kind\tname\tstart_ns\tend_ns\n")
            for i in range(n):
                op = self.span_op[i]
                kind = self.op_kinds[op] if op >= 0 else "none"
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{op}\t{kind}\t"
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                    f"{self.span_end[i]}\n"
                )
        return n
