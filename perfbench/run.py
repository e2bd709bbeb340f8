"""Benchmark of the regencode library: one workload per run, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload healthy --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the same checkout; without it the
run exits nonzero and prints no result.  With ``--trace 0`` the run sets
up (timed in fresh processes), runs closed-loop cycles of store,
reconstruct and regenerate for ``--seconds``, checks every output
against the truth it generated, and prints the end-to-end metrics.  With
``--trace 1`` it runs a fixed number of cycles, each once with every
library layer wrapped in spans and once without, prints the per-layer
metrics and the tracing overhead, checks the call predictions, and
writes the spans under ``perfbench/out/``.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

Times in the JSON line are speed-normalised: a fixed reference kernel is
timed just before and just after every op, and the op's wall time is
scaled by ``Reference.NOMINAL_S`` over the mean of the two readings
(set-up: one reading just before it starts).
The shared host's speed drifts by up to 2x within a minute; the scaling
removes that drift but keeps every change in the library's own speed.
The raw wall-clock values are printed beside the normalised ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
OPS = ("store", "reconstruct", "regenerate")
SETUP_REPEATS = 5
# Traced runs do a fixed number of cycles, so their counts repeat exactly
# for a given seed.
TRACE_CYCLES = {"healthy": 4, "byzantine": 24, "files": 4}


def load_library():
    """Import the library from this checkout's src/, or exit nonzero."""
    src = ROOT / "src"
    if not (src / "regencode" / "__init__.py").is_file():
        sys.exit(f"error: no library at {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import regencode

    if Path(regencode.__file__).resolve().parent != src / "regencode":
        sys.exit(f"error: regencode imported from {regencode.__file__}, not {src}")
    import workloads

    return workloads


class Reference:
    """A fixed mix of interpreter and numpy work that never calls the library.

    Its time tracks the host's current speed: scalar Python arithmetic
    and table gathers, the two kinds of work the library spends its time
    on.  One untimed pass first warms its arrays, so the cache state left
    by the previous op does not leak into the reading.  NOMINAL_S is its
    time on a quiet host, so normalised times read in seconds at that
    speed.
    """

    NOMINAL_S = 0.008

    def __init__(self):
        import numpy as np

        self._np = np
        self._table = (np.arange(1 << 16, dtype=np.int64) * 7) % 65521
        self._idx = (np.arange(200_000, dtype=np.int64) * 40503) % 65536

    def _gather(self):
        return self._table[self._idx].sum()

    def time(self) -> float:
        self._gather()
        t0 = time.perf_counter()
        s = 0
        for i in range(40_000):
            s ^= (i * 2654435761) & 0xFFFF
        self._gather()
        self._gather()
        return time.perf_counter() - t0

    def measure(self, fn):
        """(result, raw seconds, normalised seconds) of one call, scaled by
        the mean of the kernel's times just before and just after it."""
        before = self.time()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        after = self.time()
        return result, raw, raw * 2 * self.NOMINAL_S / (before + after)


class Recorder:
    """Op latencies, bytes and outcomes of one pass over the cycles."""

    def __init__(self, label: str, reference: Reference, tracer=None):
        self.label = label
        self.reference = reference
        self.tracer = tracer
        # per kind: (raw seconds, normalised seconds, bytes, read bytes)
        self.samples = {kind: [] for kind in OPS}
        self.attempted = defaultdict(int)
        self.failed = defaultdict(int)
        self.wrong = 0
        self.stored_ratio: list[float] = []
        self.probe_attempted = self.probe_failed = 0

    def op(self, kind: str):
        return self.tracer.op(kind) if self.tracer is not None else nullcontext()

    def time(self, kind: str, fn):
        """(result, timing) of one op; pass the timing on to ``add``."""
        with self.op(kind):
            result, raw, norm = self.reference.measure(fn)
        return result, (raw, norm)

    def add(self, kind, timing, ok, right, nbytes, read_bytes, stored=None):
        """Count one op; a success whose output differs from the truth is wrong."""
        self.attempted[kind] += 1
        if not ok:
            self.failed[kind] += 1
            return
        if not right:
            self.wrong += 1
        self.samples[kind].append((*timing, nbytes, read_bytes))
        if stored is not None:
            self.stored_ratio.append(stored / nbytes)

    def probe(self, ok, right):
        """A known-defect probe: counted, never timed."""
        self.probe_attempted += 1
        if not ok:
            self.probe_failed += 1
        elif not right:
            self.wrong += 1

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


def tail(latencies):
    """(value, percentile, samples, samples beyond) of the highest percentile
    with at least ten samples beyond it.  Below 20 samples that percentile
    lies under the median, so the interpolated 90th percentile is reported
    instead; it is steadier than the maximum of so few samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        value = statistics.quantiles(xs, n=10, method="inclusive")[-1] if n > 1 else xs[0]
        return value, 90, n, sum(x > value for x in xs)
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return xs[rank - 1], pct, n, n - rank


def end_to_end(rec: Recorder, normalised: bool) -> tuple[dict, list[str]]:
    """Op metrics of one recorder, name -> (value, unit), plus detail lines."""
    metrics, notes = {}, []
    col = 1 if normalised else 0
    for kind in OPS:
        s = rec.samples[kind]
        if not s:
            raise RuntimeError(f"no successful {kind} op to measure")
        lat = [x[col] for x in s]
        metrics[f"{kind}_MBps"] = (sum(x[2] for x in s) / sum(lat) / 1e6, "MB/s")
        metrics[f"{kind}_ms_p50"] = (statistics.median(lat) * 1e3, "ms")
        value, pct, n, beyond = tail(lat)
        metrics[f"{kind}_ms_tail"] = (value * 1e3, "ms")
        notes.append(f"metric={kind}_ms_tail percentile={pct} samples={n} beyond={beyond}"
                     + (" note=under_20_samples_so_interpolated_p90" if n < 20 else ""))
    for kind in ("reconstruct", "regenerate"):
        s = rec.samples[kind]
        metrics[f"{kind}_read_ratio"] = (
            sum(x[3] for x in s) / sum(x[2] for x in s), "ratio")
    metrics["stored_bytes_ratio"] = (statistics.fmean(rec.stored_ratio), "ratio")
    return metrics, notes


def outcome_lines(rec: Recorder) -> list[str]:
    attempted = rec.total_attempted + rec.probe_attempted
    failed = rec.total_failed + rec.probe_failed
    lines = [
        f"ops_failed_ratio={failed / attempted:.4f} failed={failed} "
        f"attempted={attempted} probe_failed={rec.probe_failed} "
        f"probe_attempted={rec.probe_attempted}",
        f"wrong_results={rec.wrong}",
    ]
    lines += [
        f"op={kind} attempted={rec.attempted[kind]} failed={rec.failed[kind]}"
        for kind in OPS
    ]
    return lines


def result_line(rec: Recorder, metrics: dict, wrong: int) -> str:
    return json.dumps({
        "correct": wrong == 0,
        "attempted": rec.total_attempted,
        "failed": rec.total_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def scratch_dir(tag: str) -> Path:
    path = OUT / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True)
    return path


def setup_only(args) -> int:
    """Child process: time a cold set-up of the library.

    numpy is imported first and the reference kernel is read just before
    the clock starts: interpreter and numpy start-up are the same for
    every version of the library and only add noise.
    """
    import numpy  # noqa: F401

    reference = Reference()
    speed = reference.NOMINAL_S / reference.time()
    t0 = time.perf_counter()
    wl_mod = load_library()
    work = scratch_dir("setup")
    try:
        wl_mod.WORKLOADS[args.workload](args.seed, work).setup()
        raw = time.perf_counter() - t0
    finally:
        shutil.rmtree(work)
    print(json.dumps({"raw_s": raw, "normalised_s": raw * speed}))
    return 0


def measure_setup(args) -> list[tuple[float, float]]:
    """(raw, normalised) seconds of SETUP_REPEATS set-ups, each in a fresh
    interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        out = json.loads(proc.stdout.splitlines()[-1])
        times.append((out["raw_s"], out["normalised_s"]))
    return times


def run_plain(args, wl_mod) -> int:
    reference = Reference()
    setups = measure_setup(args)
    work = scratch_dir(args.workload)
    try:
        wl = wl_mod.WORKLOADS[args.workload](args.seed, work)
        wl.setup()
        rec = Recorder("plain", reference)
        t0 = time.perf_counter()
        deadline = t0 + args.seconds
        cycles = 0
        while cycles == 0 or time.perf_counter() < deadline:
            wl.run_cycle(wl.make_inputs(cycles), rec)
            cycles += 1
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, notes = end_to_end(rec, normalised=True)
    raw, _ = end_to_end(rec, normalised=False)
    metrics["setup_s"] = (statistics.median(t[1] for t in setups), "s")
    raw["setup_s"] = (statistics.median(t[0] for t in setups), "s")
    metrics["peak_rss_MiB"] = raw["peak_rss_MiB"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    print(f"workload={args.workload} seed={args.seed} cycles={cycles} "
          f"measured_s={elapsed:.3f} threads=1")
    print("setup_samples_s=" + ",".join(f"{t[0]:.4f}" for t in setups))
    for name, (value, unit) in metrics.items():
        print(f"metric={name} value={value:.6g} raw={raw[name][0]:.6g} unit={unit}")
    for line in notes + outcome_lines(rec):
        print(line)
    print(result_line(rec, metrics, rec.wrong))
    return 0 if rec.wrong == 0 else 1


def run_traced(args, wl_mod) -> int:
    from spans import Tracer

    tracer = Tracer()
    reference = Reference()
    work = scratch_dir(args.workload)
    traced = Recorder("traced", reference, tracer)
    plain = Recorder("plain", reference)
    try:
        wl = wl_mod.WORKLOADS[args.workload](args.seed, work)
        with tracer.active(), tracer.op("setup"):
            wl.setup()
        for cycle in range(TRACE_CYCLES[args.workload]):
            inputs = wl.make_inputs(cycle)
            # alternate which pass goes first so neither gains from order
            passes = [(traced, tracer.active()), (plain, nullcontext())]
            for rec, ctx in passes if cycle % 2 == 0 else passes[::-1]:
                with ctx:
                    wl.run_cycle(inputs, rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    on, _ = end_to_end(traced, normalised=True)
    off, _ = end_to_end(plain, normalised=True)
    busy_on = sum(x[1] for kind in OPS for x in traced.samples[kind])
    busy_off = sum(x[1] for kind in OPS for x in plain.samples[kind])
    layers = tracer.layer_metrics()
    layers["trace.overhead_pct"] = (100 * (busy_on / busy_off - 1), "%")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    nspans = tracer.write_spans(OUT / f"spans-{stem}.tsv.gz")
    fast, base = tracer.fast_path_base()
    problems = tracer.self_check(args.workload)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "cycles": TRACE_CYCLES[args.workload],
        "per_layer": {k: v for k, (v, _) in layers.items()},
        "end_to_end_traced": {k: v for k, (v, _) in on.items()},
        "end_to_end_untraced": {k: v for k, (v, _) in off.items()},
        "calls_by_op": {f"{kind}|{name}": c
                        for (kind, name), c in sorted(tracer.calls_by_op.items())},
        "fast_path": [fast, base],
        "self_check": problems,
    }
    (OUT / f"trace-{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")

    print(f"workload={args.workload} seed={args.seed} traced_cycles="
          f"{TRACE_CYCLES[args.workload]} spans={nspans} "
          f"spans_file={OUT.relative_to(ROOT) / f'spans-{stem}.tsv.gz'}")
    for name, (value, unit) in layers.items():
        print(f"layer={name} value={value:.6g} unit={unit}")
    print(f"layer=cluster.fast_path_ratio accepts={fast} reconstructs={base}")
    for name, (value, unit) in on.items():
        print(f"overhead metric={name} traced={value:.6g} untraced={off[name][0]:.6g} "
              f"delta={value - off[name][0]:.6g} unit={unit}")
    for line in outcome_lines(traced):
        print(line)
    for problem in problems:
        print(f"self_check_failed {problem}", file=sys.stderr)
    print(f"self_check={'pass' if not problems else 'FAIL'}")
    if problems:
        return 1
    wrong = traced.wrong + plain.wrong
    print(result_line(traced, layers, wrong))
    return 0 if wrong == 0 else 1


def main(argv=None) -> int:
    # One thread: pin the numpy/BLAS pools before numpy is first imported;
    # set-up children inherit the setting.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TRACE_CYCLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    wl_mod = load_library()
    return run_traced(args, wl_mod) if args.trace else run_plain(args, wl_mod)


if __name__ == "__main__":
    sys.exit(main())
