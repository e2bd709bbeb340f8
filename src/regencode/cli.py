"""Command-line front end.

Subcommands: ``encode`` a file into n chunk files, ``reconstruct`` the
payload from any sufficient subset, ``regenerate`` a missing chunk file,
``simulate`` fault scenarios from a flat key=value config, and ``analyze``
code parameters and capabilities.  The parser is built once; ``main``
looks up ``cmd_<command>`` per call, so handlers rebound after import run.

Reports are structured text with stable field names: one ``key=value ...``
record per line.  Exit status is 0 on success and nonzero when the
requested operation fails.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .analysis import capabilities, cut_set_bound, percent
from .chunkio import (
    header_for_state,
    params_from_header,
    read_chunk_file,
    write_atomic,
    write_chunk_file,
)
from .cluster import (
    CRASHED,
    FAIL,
    SUCCESS,
    Adversarial,
    ClusterState,
    PARAMS,
    FaultPlan,
    NodeSlot,
    RandomCorruption,
    SeededRandom,
    build_msr_zero_crc_forgery,
    inject,
    rebuild_shares,
    run_reconstruction,
    run_regeneration,
    store,
)
from .errors import InvalidParams, MalformedChunk, RegencodeError
from .galois import GF
from .integrity import REPLICATED, SCHEMES, CrcParams


def _record(**fields) -> str:
    return " ".join(f"{k}={v}" for k, v in fields.items())


def _download_fields(params) -> dict:
    """Symbols one repair downloads (d·β) and one reconstruction (k·α·β)."""
    return {
        "repair_download_symbols": params.d * params.beta,
        "reconstruct_download_symbols": params.k * params.alpha * params.beta,
    }


# ---------------------------------------------------------------------------
# chunk-file handling


def _chunk_paths(paths) -> list[Path]:
    out = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(sorted(p.glob("*.rgen")))
        else:
            out.append(p)
    if not out:
        raise InvalidParams("no chunk files found")
    return out


def _assemble_state(paths, seed: int) -> ClusterState:
    """Cluster with healthy slots for readable files, crashed for the rest.

    A file that cannot be read or does not parse (cut short, bad header,
    body that does not fit its header) is a crashed node and gets one
    warning record.  Files with identical content (a path given twice, a
    byte-identical copy) count once; the format is canonical, so equal
    parsed contents mean equal bytes.  The chunk set is the header, less
    its node index, that a strict majority of the distinct files share; a
    file with another header (a forged header, a file from another set)
    is a crashed node too, and so is every file of a node index that two
    files of different content claim.  Without a strict majority the
    error is fatal.
    """
    entries, seen = [], {}  # seen: header -> (chunk, shares) of each distinct file
    for p in paths:
        try:
            h, chunk, shares = read_chunk_file(p)
        except (MalformedChunk, OSError) as exc:
            print(_record(warning="chunk_unreadable", path=p, detail=repr(str(exc))))
            continue
        same = seen.setdefault(h, [])
        if not any(np.array_equal(chunk, c) and np.array_equal(shares, s) for c, s in same):
            same.append((chunk, shares))
            entries.append((p, h, chunk, shares))
    if not entries:
        raise MalformedChunk(f"none of the {len(paths)} chunk files is readable")
    keys = [replace(h, node_index=0) for _, h, _, _ in entries]
    (major, votes), = Counter(keys).most_common(1)
    if 2 * votes <= len(entries):
        raise MalformedChunk(
            f"no chunk set holds a strict majority of the {len(entries)} distinct files"
        )
    for (p, _, _, _), key in zip(entries, keys):
        if key != major:
            print(_record(warning="chunk_foreign", path=p))
    entries = [e for e, key in zip(entries, keys) if key == major]
    base = entries[0][1]
    claims = Counter(h.node_index for _, h, _, _ in entries)
    for p, h, _, _ in entries:
        if claims[h.node_index] > 1:
            print(_record(warning="chunk_duplicate", path=p, node_index=h.node_index))
    entries = [e for e in entries if claims[e[1].node_index] == 1]
    params, crc = params_from_header(base)
    nodes = [
        NodeSlot(np.zeros((params.beta, params.alpha), dtype=np.int64),
                 np.zeros(params.n, dtype=np.uint64), CRASHED)
        for _ in range(params.n)
    ]
    for _, h, chunk, shares in entries:
        nodes[h.node_index] = NodeSlot(chunk, shares)
    return ClusterState(
        params=params,
        crc=crc,
        scheme=base.scheme,
        payload_bit_len=base.payload_bit_len,
        nodes=nodes,
        rng_seed=seed,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_encode(args) -> int:
    payload = Path(args.input).read_bytes()
    field = GF(args.m)
    cls = PARAMS[args.family]
    bits = 8 * len(payload)
    if args.beta:
        beta = args.beta
    else:
        alpha = cls.alpha_for(args.k, args.d)
        per_stripe = cut_set_bound(args.n, args.k, args.d, alpha, 1) * args.m
        beta = max(1, -((bits + args.r) // -per_stripe))
    params = cls(args.n, args.k, args.d, beta, field)
    state = store(
        payload, params, args.scheme, crc=CrcParams(args.r), seed=args.seed
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, slot in enumerate(state.nodes):
        write_chunk_file(
            outdir / f"node{i:03d}.rgen",
            header_for_state(state, i),
            slot.chunk,
            slot.shares,
        )
    print(_record(
        command="encode", family=args.family, n=args.n, k=args.k, d=args.d,
        beta=beta, m=args.m, r=args.r, scheme=args.scheme,
        payload_bits=bits, chunks=params.n, out=outdir,
    ))
    return 0


def cmd_reconstruct(args) -> int:
    state = _assemble_state(_chunk_paths(args.chunks), args.seed)
    bits, metrics = run_reconstruction(state, SeededRandom(args.seed))
    fields = asdict(metrics)
    if metrics.outcome == FAIL:
        print(_record(command="reconstruct", **fields))
        return 1
    write_atomic(args.out, np.packbits(bits).tobytes())
    print(_record(
        command="reconstruct", **fields,
        payload_bits=state.payload_bit_len, out=args.out,
    ))
    return 0


def cmd_regenerate(args) -> int:
    paths = _chunk_paths(args.chunks)
    state = _assemble_state(paths, args.seed)
    chunk, metrics = run_regeneration(
        state, args.failed, SeededRandom(args.seed)
    )
    fields = asdict(metrics)
    if metrics.outcome == FAIL:
        print(_record(command="regenerate", failed=args.failed, **fields))
        return 1
    shares, missing = rebuild_shares(state, args.failed)
    out = Path(args.out) if args.out else paths[0].parent / f"node{args.failed:03d}.rgen"
    header = header_for_state(state, args.failed)
    write_chunk_file(out, header, chunk, shares)
    print(_record(
        command="regenerate", failed=args.failed, **fields,
        **_download_fields(state.params), share_warnings=len(missing), out=out,
    ))
    for owner in missing:
        print(_record(warning="share_unrecovered", owner=owner))
    return 0


def cmd_analyze(args) -> int:
    report = vars(capabilities(
        args.n, args.k, args.d, args.family,
        beta=args.beta, m=args.m, r=args.r,
    ))
    names = list(report)
    cells = names.index("erasure_reconstruction")  # the code point comes first
    print(_record(command="analyze", **{name: report[name] for name in names[:cells]}))
    for name in names[cells:]:
        value = report[name]
        if isinstance(value, Fraction):
            print(_record(**{name: f"{value.numerator}/{value.denominator}",
                             name + "_pct": percent(value)}))
        else:
            print(_record(**{name: value}))
    return 0


# ---------------------------------------------------------------------------
# simulate


# Every simulate config key, declared once, with its default.  An int or
# float default's type also parses the key's value; a tuple lists the
# allowed values, default first; any other entry is kept as text.
# payload_bits (its default depends on the code), failed, crashes and
# byzantine (they depend on the trial) are parsed where they are used, and
# ``store`` rejects an unknown scheme.
_CONFIG = {
    "family": tuple(PARAMS), "n": 6, "k": 3, "d": 4, "beta": 1, "m": 8,
    "r": 32, "scheme": REPLICATED, "seed": 0, "trials": 1,
    "operation": ("reconstruct", "regenerate"),
    "policy": ("seeded_random", "adversarial"),
    "strategy": ("random_corruption", "zero_crc_forgery"),
    "rate": 1.0, "failed": "random", "crashes": "", "byzantine": "",
    "payload_bits": None, "payload_file": None, "out": None,
}


def _parse_config(path) -> dict:
    """The defaults, overridden line by line by the config's parsed values."""
    cfg = {key: v[0] if isinstance(v, tuple) else v for key, v in _CONFIG.items()}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidParams(f"{path}:{lineno}: expected key=value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG:
            raise InvalidParams(f"{path}:{lineno}: unknown key {key!r}")
        entry = _CONFIG[key]
        if isinstance(entry, tuple) and value not in entry:
            raise InvalidParams(f"unknown {key} {value!r}")
        cfg[key] = _number(key, value, type(entry)) if isinstance(entry, (int, float)) else value
    if not 0 <= cfg["rate"] <= 1:  # NaN fails both comparisons
        raise InvalidParams(f"rate={cfg['rate']} outside [0, 1]")
    if cfg["trials"] < 1:
        raise InvalidParams(f"trials={cfg['trials']} is below 1")
    if cfg["seed"] < 0:
        raise InvalidParams(f"seed={cfg['seed']} is negative")
    return cfg


def _number(key: str, text, kind=int):
    """A config value as an int (or float); a malformed one raises
    InvalidParams naming its key."""
    try:
        return kind(text)
    except ValueError:
        raise InvalidParams(f"{key}={text!r} is not a valid {kind.__name__}") from None


def _resolve_fault_set(cfg: dict, key: str, rng: random.Random, n: int,
                       taken: set) -> set:
    expr = cfg[key]
    if expr.startswith("random:"):
        count = _number(key, expr.split(":", 1)[1])
        pool = [i for i in range(n) if i not in taken]
        if not 0 <= count <= len(pool):
            raise InvalidParams(f"{key}: cannot pick {count} nodes from {len(pool)}")
        return set(rng.sample(pool, count))
    return {_number(key, tok) for tok in expr.split(",") if tok}


def cmd_simulate(args) -> int:
    cfg = _parse_config(args.config)
    n, r, seed, trials = cfg["n"], cfg["r"], cfg["seed"], cfg["trials"]
    params = PARAMS[cfg["family"]](n, cfg["k"], cfg["d"], cfg["beta"], GF(cfg["m"]))
    if cfg["payload_file"] is not None:
        truth = np.unpackbits(np.frombuffer(Path(cfg["payload_file"]).read_bytes(), np.uint8))
    else:
        size = cfg["payload_bits"]
        size = (params.beta * params.B * params.field.m - r if size is None
                else _number("payload_bits", size))
        if size < 0:  # the default is negative when the frame is shorter than r
            raise InvalidParams(f"payload_bits={size} is negative")
        truth = np.random.default_rng(seed).integers(0, 2, size=size, dtype=np.uint8)
    base = store(truth, params, cfg["scheme"], crc=CrcParams(r), seed=seed)

    lines = []
    successes = wrong = 0
    for trial in range(trials):
        rng = random.Random(f"{seed}|trial|{trial}")
        crashes = _resolve_fault_set(cfg, "crashes", rng, n, set())
        byzantine = _resolve_fault_set(cfg, "byzantine", rng, n, crashes)
        if cfg["strategy"] == "zero_crc_forgery":
            strategy = build_msr_zero_crc_forgery(base, byzantine)
        else:
            strategy = RandomCorruption(cfg["rate"])
        base.rng_seed = seed + trial
        state = inject(base, FaultPlan(crashes, byzantine, strategy))
        policy = (
            Adversarial() if cfg["policy"] == "adversarial"
            else SeededRandom(seed + trial)
        )
        if cfg["operation"] == "reconstruct":
            out, metrics = run_reconstruction(state, policy)
            expected = truth
        else:
            failed = (
                rng.randrange(n) if cfg["failed"] == "random"
                else _number("failed", cfg["failed"])
            )
            out, metrics = run_regeneration(state, failed, policy)
            expected = base.nodes[failed].chunk
        correct = metrics.outcome == SUCCESS and np.array_equal(out, expected)
        if metrics.outcome == SUCCESS:
            successes += 1
            if not correct:
                wrong += 1
        lines.append(_record(trial=trial, correct=int(correct), **asdict(metrics)))

    footer = {
        "trials": trials,
        "successes": successes,
        "wrong_successes": wrong,
        "success_rate": f"{successes / trials:.4f}",
    }
    if cfg["operation"] == "regenerate":
        saving = (params.k * params.alpha) / params.d
        footer.update(_download_fields(params), bandwidth_saving=f"{saving:.2f}x")
    lines.append(_record(**footer))
    report = "\n".join(lines)
    if cfg["out"] is not None:
        write_atomic(cfg["out"], (report + "\n").encode())
    print(report)
    return 0 if wrong == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="regencode",
        description="Regenerating-code storage simulator and chunk tool",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="split a file into n chunk files")
    enc.add_argument("input")
    enc.add_argument("--family", required=True, choices=PARAMS)
    enc.add_argument("--n", type=int, required=True)
    enc.add_argument("--k", type=int, required=True)
    enc.add_argument("--d", type=int, required=True)
    enc.add_argument("--beta", type=int, default=0,
                     help="stripes per frame (default: smallest that fits)")
    enc.add_argument("--m", type=int, default=8, help="field degree (default 8)")
    enc.add_argument("--r", type=int, default=32,
                     help="checksum width in bits (default 32)")
    enc.add_argument("--scheme", choices=SCHEMES, default=REPLICATED)
    enc.add_argument("--seed", type=int, default=0)
    enc.add_argument("--out", default=".", help="output directory")

    rec = sub.add_parser("reconstruct", help="rebuild the payload from chunks")
    rec.add_argument("chunks", nargs="+", help="chunk files or directories")
    rec.add_argument("--out", required=True, help="output payload file")
    rec.add_argument("--seed", type=int, default=0)

    reg = sub.add_parser("regenerate", help="rebuild one node's chunk file")
    reg.add_argument("chunks", nargs="+", help="surviving chunk files or dirs")
    reg.add_argument("--failed", type=int, required=True)
    reg.add_argument("--out", default=None, help="output chunk file")
    reg.add_argument("--seed", type=int, default=0)

    sim = sub.add_parser("simulate", help="run trials from a config file")
    sim.add_argument("--config", required=True)

    ana = sub.add_parser("analyze", help="print parameters and capabilities")
    ana.add_argument("--family", required=True, choices=PARAMS)
    ana.add_argument("--n", type=int, required=True)
    ana.add_argument("--k", type=int, required=True)
    ana.add_argument("--d", type=int, required=True)
    ana.add_argument("--beta", type=int, default=1)
    ana.add_argument("--m", type=int, default=11,
                     help="field degree used in the ratio formulas (default 11)")
    ana.add_argument("--r", type=int, default=32)
    return ap


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (RegencodeError, OSError) as exc:
        print(
            _record(error=type(exc).__name__, detail=repr(str(exc))),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
