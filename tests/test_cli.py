import argparse
import hashlib
import os
import random
import re
import struct
import subprocess
import sys

import pytest

from regencode import cli
from regencode.chunkio import read_chunk_file
from regencode.cli import main

HEADER_FMT = ">4sBBBBIHHHIBQBHQ"
HEADER_LEN = struct.calcsize(HEADER_FMT)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def encode_dir(capsys, tmp_path, family="msr", n=6, k=3, d=4, m=8, r=32,
               payload=b"regenerating codes keep data alive", seed=0,
               scheme="replicated", beta=0):
    src = tmp_path / "payload.bin"
    src.write_bytes(payload)
    out = tmp_path / "chunks"
    code, _, err = run(
        capsys, "encode", src, "--family", family, "--n", n, "--k", k,
        "--d", d, "--m", m, "--r", r, "--seed", seed, "--scheme", scheme,
        "--beta", beta, "--out", out,
    )
    assert code == 0, err
    return src, out


@pytest.mark.parametrize("family", ["msr", "mbr"])
@pytest.mark.parametrize("scheme", ["replicated", "coded"])
def test_encode_reconstruct_round_trip(capsys, tmp_path, family, scheme):
    payload = bytes(random.Random(9).randrange(256) for _ in range(301))
    # a 32-bit checksum has no coded layout at n=6 (k' > n-1); use r=8
    r = 8 if scheme == "coded" else 32
    src, chunks = encode_dir(
        capsys, tmp_path, family=family, scheme=scheme, r=r, payload=payload
    )
    dst = tmp_path / "out.bin"
    code, out, _ = run(capsys, "reconstruct", chunks, "--out", dst)
    assert code == 0
    assert "outcome=SUCCESS" in out
    assert dst.read_bytes() == payload


@pytest.mark.parametrize("r", [4, 16, 64])
def test_checksum_widths_round_trip(capsys, tmp_path, r):
    # every checksum width but the default: reconstruct with one node gone,
    # then regenerate it byte for byte
    payload = bytes(random.Random(r).randrange(256) for _ in range(500))
    src, chunks = encode_dir(capsys, tmp_path, r=r, payload=payload)
    lost = chunks / "node001.rgen"
    original = lost.read_bytes()
    assert original[22] == r
    lost.unlink()
    dst = tmp_path / "out.bin"
    assert run(capsys, "reconstruct", chunks, "--out", dst)[0] == 0
    assert dst.read_bytes() == payload
    assert run(capsys, "regenerate", chunks, "--failed", 1)[0] == 0
    assert lost.read_bytes() == original


@pytest.mark.parametrize("payload", [b"", b"\xa7"])
def test_tiny_payloads(capsys, tmp_path, payload):
    src, chunks = encode_dir(capsys, tmp_path, payload=payload, beta=1)
    dst = tmp_path / "out.bin"
    code, out, _ = run(capsys, "reconstruct", chunks, "--out", dst)
    assert code == 0
    assert dst.read_bytes() == payload


def test_reconstruct_after_losing_n_minus_k_chunks(capsys, tmp_path):
    payload = bytes(range(256))
    src, chunks = encode_dir(capsys, tmp_path, payload=payload)
    for i in (1, 4, 5):  # n - k = 3 losses
        (chunks / f"node{i:03d}.rgen").unlink()
    dst = tmp_path / "out.bin"
    code, out, _ = run(capsys, "reconstruct", chunks, "--out", dst)
    assert code == 0
    assert dst.read_bytes() == payload


def test_reconstruct_below_k_fails(capsys, tmp_path):
    # two chunks, fewer than k = 3: one short round of 2 × 14 symbols, then
    # the run fails, and no payload file is written
    src, chunks = encode_dir(capsys, tmp_path)
    for i in (0, 1, 4, 5):
        (chunks / f"node{i:03d}.rgen").unlink()
    code, out, err = run(capsys, "reconstruct", chunks, "--out", tmp_path / "o")
    assert code == 1, err
    assert out == ("command=reconstruct outcome=FAIL nodes_contacted=2 "
                   "symbols_downloaded=28 checksum_symbols_downloaded=0 decode_rounds=1\n")
    assert not (tmp_path / "o").exists()


def test_reconstruct_detects_corrupt_chunk(capsys, tmp_path):
    seed = 5
    src, chunks = encode_dir(capsys, tmp_path, seed=seed)
    # corrupt the first node the seeded policy will fetch, forcing a
    # checksum miss in round one and an error-correcting second round
    order = list(range(6))
    random.Random(f"{seed}|policy|{seed}").shuffle(order)
    victim = chunks / f"node{order[0]:03d}.rgen"
    raw = bytearray(victim.read_bytes())
    raw[HEADER_LEN] ^= 0x55
    victim.write_bytes(bytes(raw))
    dst = tmp_path / "out.bin"
    code, out, _ = run(
        capsys, "reconstruct", chunks, "--out", dst, "--seed", seed
    )
    assert code == 0
    assert "decode_rounds=2" in out
    assert dst.read_bytes() == src.read_bytes()


@pytest.mark.parametrize("family", ["msr", "mbr"])
def test_regenerate_restores_identical_chunk_file(capsys, tmp_path, family):
    src, chunks = encode_dir(capsys, tmp_path, family=family)
    lost = chunks / "node003.rgen"
    original = lost.read_bytes()
    lost.unlink()
    code, out, _ = run(capsys, "regenerate", chunks, "--failed", 3)
    assert code == 0
    assert "outcome=SUCCESS" in out
    assert "share_warnings=0" in out
    assert lost.read_bytes() == original
    dst = tmp_path / "out.bin"
    assert run(capsys, "reconstruct", chunks, "--out", dst)[0] == 0
    assert dst.read_bytes() == src.read_bytes()


def test_regenerate_reports_download_symbols(capsys, tmp_path):
    src, chunks = encode_dir(capsys, tmp_path, beta=2, payload=b"tiny")
    (chunks / "node000.rgen").unlink()
    code, out, _ = run(capsys, "regenerate", chunks, "--failed", 0)
    assert code == 0
    assert "repair_download_symbols=8" in out  # d*beta = 4*2
    assert "reconstruct_download_symbols=12" in out  # k*alpha*beta = 3*2*2
    assert "symbols_downloaded=8" in out


@pytest.mark.parametrize("seed", range(4))
def test_regenerate_drops_out_of_width_shares(capsys, tmp_path, seed):
    # coded shares at n = 14 are m' = 4 bits in one byte each; node000's
    # shares of owners 1 and 13 set to 0xFF fit no share and count as
    # missing: seeds 2 and 3 read node000 among the first d helpers, and
    # all four seeds rebuild owner 13's share from the other holders
    payload = random.Random(11).randbytes(100_001)
    _, chunks = encode_dir(capsys, tmp_path, n=14, k=5, d=8, scheme="coded", payload=payload)
    lost = chunks / "node001.rgen"
    original = lost.read_bytes()
    lost.unlink()
    helper = chunks / "node000.rgen"
    raw = bytearray(helper.read_bytes())
    raw[-1] = raw[-13] = 0xFF
    helper.write_bytes(raw)
    code, out, err = run(capsys, "regenerate", chunks, "--failed", 1, "--seed", seed)
    assert code == 0, err
    assert "share_unrecovered" not in out
    assert lost.read_bytes() == original


def test_regenerate_failure_record(capsys, tmp_path):
    # two helpers, fewer than d = 4: one short round, then the run fails,
    # and no chunk file is written
    _, chunks = encode_dir(capsys, tmp_path, payload=random.Random(1).randbytes(3000))
    for i in (1, 3, 4, 5):
        (chunks / f"node{i:03d}.rgen").unlink()
    code, out, err = run(capsys, "regenerate", chunks, "--failed", 1)
    assert code == 1, err
    assert out == ("command=regenerate failed=1 outcome=FAIL nodes_contacted=2 "
                   "symbols_downloaded=1002 checksum_symbols_downloaded=2 decode_rounds=1\n")
    assert sorted(p.name for p in chunks.iterdir()) == ["node000.rgen", "node002.rgen"]


def test_regenerate_warns_of_unrecovered_share(capsys, tmp_path):
    # coded shares at n = 14 are one byte each, owner 13's last: set to 0xFF
    # (out of the 4-bit width) in six of the 12 other holders, they leave
    # fewer than k' = 8 shares of owner 13's checksum, so the newcomer's
    # share of it is zero-filled and named in a warning; node 1's own
    # checksum and chunk are still recovered exactly
    payload = random.Random(1).randbytes(3000)
    _, chunks = encode_dir(capsys, tmp_path, n=14, k=5, d=8, scheme="coded", payload=payload)
    lost = chunks / "node001.rgen"
    _, chunk, shares = read_chunk_file(lost)
    lost.unlink()
    for i in (0, 2, 3, 4, 5, 6):
        holder = chunks / f"node{i:03d}.rgen"
        raw = bytearray(holder.read_bytes())
        raw[-1] = 0xFF
        holder.write_bytes(raw)
    code, out, err = run(capsys, "regenerate", chunks, "--failed", 1)
    assert code == 0, err
    assert "outcome=SUCCESS" in out and "share_warnings=1" in out
    assert warning_lines(out) == ["warning=share_unrecovered owner=13"]
    _, got_chunk, got_shares = read_chunk_file(lost)
    assert (got_chunk == chunk).all()
    assert got_shares[-1] == 0 and (got_shares[:-1] == shares[:-1]).all()


def test_mbr_d_equals_k_byzantine_reconstruct(capsys, tmp_path):
    # MBR [7,3,3]: A2 is empty, so round two's decoder holds no rows.  The
    # low bit of body byte 60 of node000 is flipped; --seed 2 and --seed 5
    # read node000 in round one, and 6 of 7 good files decode in round two
    payload = random.Random(1).randbytes(3000)
    _, chunks = encode_dir(capsys, tmp_path, family="mbr", n=7, k=3, d=3, payload=payload)
    victim = chunks / "node000.rgen"
    raw = bytearray(victim.read_bytes())
    raw[HEADER_LEN + 60] ^= 0x01
    victim.write_bytes(raw)
    for seed in (2, 5):
        dst = tmp_path / f"out{seed}.bin"
        code, out, err = run(capsys, "reconstruct", chunks, "--seed", seed, "--out", dst)
        assert code == 0, err
        assert "decode_rounds=2" in out
        assert dst.read_bytes() == payload


def encode_other(capsys, tmp_path):
    other = tmp_path / "other"
    other.mkdir()
    src2 = tmp_path / "p2.bin"
    src2.write_bytes(b"different payload entirely....")
    assert run(
        capsys, "encode", src2, "--family", "msr", "--n", "6", "--k", "3",
        "--d", "4", "--out", other,
    )[0] == 0
    return other


def warning_lines(out):
    return [line for line in out.splitlines() if line.startswith("warning=")]


def test_mixed_chunk_sets_rejected(capsys, tmp_path):
    # the one file of another set is rejected as a crashed node; the
    # five files of the majority set still suffice
    src, a = encode_dir(capsys, tmp_path, seed=1)
    other = encode_other(capsys, tmp_path)
    (a / "node001.rgen").write_bytes((other / "node001.rgen").read_bytes())
    dst = tmp_path / "o"
    code, out, _ = run(capsys, "reconstruct", a, "--out", dst)
    assert code == 0
    assert dst.read_bytes() == src.read_bytes()
    assert warning_lines(out) == [f"warning=chunk_foreign path={a / 'node001.rgen'}"]


def test_no_majority_chunk_set_is_fatal(capsys, tmp_path):
    _, a = encode_dir(capsys, tmp_path, seed=1)
    other = encode_other(capsys, tmp_path)
    for i in (0, 2, 4):
        name = f"node{i:03d}.rgen"
        (a / name).write_bytes((other / name).read_bytes())
    code, _, err = run(capsys, "reconstruct", a, "--out", tmp_path / "o")
    assert code == 1
    assert "error=MalformedChunk" in err


@pytest.mark.parametrize("victim", [0, 3])
def test_forged_header_is_a_crashed_node(capsys, tmp_path, victim):
    # a header claiming 8 fewer payload bits outvotes nobody, whichever
    # file is parsed first
    src, chunks = encode_dir(capsys, tmp_path)
    path = chunks / f"node{victim:03d}.rgen"
    raw = bytearray(path.read_bytes())
    fields = list(struct.unpack_from(HEADER_FMT, raw))
    fields[-1] -= 8
    struct.pack_into(HEADER_FMT, raw, 0, *fields)
    path.write_bytes(bytes(raw))
    dst = tmp_path / "o"
    code, out, _ = run(capsys, "reconstruct", chunks, "--out", dst)
    assert code == 0
    assert dst.read_bytes() == src.read_bytes()
    assert warning_lines(out) == [f"warning=chunk_foreign path={path}"]


@pytest.mark.parametrize("command", ["reconstruct", "regenerate"])
def test_foreign_polynomial_is_an_unreadable_node(capsys, tmp_path, command):
    # the field's polynomial is fixed by m: a file whose prim_poly bytes
    # (8-11) name another primitive polynomial of degree 8 is unreadable,
    # a crashed node, and the other five files of n = 6 suffice
    src, chunks = encode_dir(capsys, tmp_path)
    victim = chunks / "node002.rgen"
    original = victim.read_bytes()
    victim.write_bytes(original[:8] + (0x12D).to_bytes(4, "big") + original[12:])
    if command == "reconstruct":
        dst = tmp_path / "o"
        code, out, _ = run(capsys, "reconstruct", chunks, "--out", dst)
        assert dst.read_bytes() == src.read_bytes()
    else:
        code, out, _ = run(capsys, "regenerate", chunks, "--failed", 2)
        assert victim.read_bytes() == original
    assert code == 0
    assert warning_lines(out) == [
        f"warning=chunk_unreadable path={victim} detail='generator or polynomials "
        "2, 0x12d, 0x4c11db7 are not those of m=8, r=32'"
    ]


def test_duplicate_node_index_crashes_both_files(capsys, tmp_path):
    # a second file claims node 2 with other content (one body byte differs)
    src, chunks = encode_dir(capsys, tmp_path)
    copy = chunks / "node006.rgen"
    raw = bytearray((chunks / "node002.rgen").read_bytes())
    raw[HEADER_LEN] ^= 0x55
    copy.write_bytes(bytes(raw))
    dst = tmp_path / "o"
    code, out, _ = run(capsys, "reconstruct", chunks, "--out", dst)
    assert code == 0
    assert dst.read_bytes() == src.read_bytes()
    assert sorted(warning_lines(out)) == [
        f"warning=chunk_duplicate path={chunks / name} node_index=2"
        for name in ("node002.rgen", "node006.rgen")
    ]


@pytest.mark.parametrize("command", ["reconstruct", "regenerate"])
@pytest.mark.parametrize("repeat", ["path", "copy"])
def test_identical_files_count_once(capsys, tmp_path, command, repeat):
    # exactly k (reconstruct) or d (regenerate) distinct files, one of them
    # given twice: as a repeated path, or as a byte-identical copy
    src, chunks = encode_dir(capsys, tmp_path)
    lost = (chunks / "node005.rgen").read_bytes()
    keep = 3 if command == "reconstruct" else 4
    for i in range(keep, 6):
        (chunks / f"node{i:03d}.rgen").unlink()
    args = [chunks]
    if repeat == "path":
        args.append(chunks / "node001.rgen")
    else:
        (chunks / "backup.rgen").write_bytes((chunks / "node000.rgen").read_bytes())
    dst = tmp_path / "o"
    if command == "reconstruct":
        code, out, _ = run(capsys, "reconstruct", *args, "--out", dst)
    else:
        code, out, _ = run(capsys, "regenerate", *args, "--failed", 5, "--out", dst)
    assert warning_lines(out) == []
    assert code == 0
    assert "outcome=SUCCESS" in out
    assert dst.read_bytes() == (src.read_bytes() if command == "reconstruct" else lost)


def test_truncated_chunk_file(capsys, tmp_path):
    # cut inside its header, the file is a crashed node like any other
    # unreadable one; the other five of n=6 files still suffice
    src, chunks = encode_dir(capsys, tmp_path)
    victim = chunks / "node000.rgen"
    victim.write_bytes(victim.read_bytes()[: HEADER_LEN - 2])
    dst = tmp_path / "o"
    code, out, _ = run(capsys, "reconstruct", chunks, "--out", dst)
    assert code == 0
    assert dst.read_bytes() == src.read_bytes()
    warnings = [line for line in out.splitlines() if line.startswith("warning=")]
    assert len(warnings) == 1
    assert warnings[0].startswith(f"warning=chunk_unreadable path={victim} detail=")


def test_directory_without_chunk_files(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("not a chunk file")
    code, out, err = run(capsys, "reconstruct", empty, "--out", tmp_path / "o")
    assert code == 1 and not out
    assert err == "error=InvalidParams detail='no chunk files found'\n"
    assert not (tmp_path / "o").exists()


def test_no_readable_chunk_file_is_fatal(capsys, tmp_path):
    # every file cut inside its header: one warning per file, then the
    # fatal error record
    _, chunks = encode_dir(capsys, tmp_path)
    paths = sorted(chunks.glob("*.rgen"))
    for p in paths:
        p.write_bytes(p.read_bytes()[: HEADER_LEN - 2])
    code, out, err = run(capsys, "reconstruct", chunks, "--out", tmp_path / "o")
    assert code == 1
    detail = f"'file too short for header ({HEADER_LEN - 2} bytes)'"
    assert out.splitlines() == [
        f"warning=chunk_unreadable path={p} detail={detail}" for p in paths
    ]
    assert err == "error=MalformedChunk detail='none of the 6 chunk files is readable'\n"


@pytest.mark.parametrize("command", ["reconstruct", "regenerate"])
def test_truncated_body_is_a_crashed_node(capsys, tmp_path, command):
    # cut to half its length, the file keeps its header but loses its body;
    # the other five of n=6 files still suffice
    src, chunks = encode_dir(capsys, tmp_path, payload=bytes(range(256)) * 4)
    victim = chunks / "node002.rgen"
    original = victim.read_bytes()
    victim.write_bytes(original[: len(original) // 2])
    assert len(original) // 2 > HEADER_LEN
    if command == "reconstruct":
        dst = tmp_path / "out.bin"
        code, out, _ = run(capsys, "reconstruct", chunks, "--out", dst)
        assert code == 0
        assert dst.read_bytes() == src.read_bytes()
    else:
        code, out, _ = run(capsys, "regenerate", chunks, "--failed", 2)
        assert code == 0
        assert victim.read_bytes() == original
    warnings = [line for line in out.splitlines() if line.startswith("warning=")]
    assert len(warnings) == 1
    assert warnings[0].startswith(f"warning=chunk_unreadable path={victim} detail=")


@pytest.mark.parametrize("command", ["reconstruct", "regenerate"])
def test_forged_node_count_is_a_crashed_node(capsys, tmp_path, command):
    # a coded-scheme header claiming n=2 has no share layout; the file is
    # unreadable, not a fatal parameter error, and the other five suffice
    src, chunks = encode_dir(capsys, tmp_path, scheme="coded", r=8)
    victim = chunks / "node000.rgen"
    original = victim.read_bytes()
    raw = bytearray(original)
    fields = list(struct.unpack_from(HEADER_FMT, raw))
    fields[6] = 2  # n
    struct.pack_into(HEADER_FMT, raw, 0, *fields)
    victim.write_bytes(bytes(raw))
    warning = (f"warning=chunk_unreadable path={victim} "
               "detail='coded checksum scheme needs n >= 3, got 2'\n")
    if command == "reconstruct":
        dst = tmp_path / "out.bin"
        code, out, _ = run(capsys, "reconstruct", chunks, "--out", dst)
        assert dst.read_bytes() == src.read_bytes()
        report = ("command=reconstruct outcome=SUCCESS nodes_contacted=3 "
                  "symbols_downloaded=36 checksum_symbols_downloaded=0 "
                  f"decode_rounds=1 payload_bits=272 out={dst}\n")
    else:
        code, out, _ = run(capsys, "regenerate", chunks, "--failed", 0)
        assert victim.read_bytes() == original
        report = ("command=regenerate failed=0 outcome=SUCCESS nodes_contacted=4 "
                  "symbols_downloaded=24 checksum_symbols_downloaded=4 "
                  "decode_rounds=1 repair_download_symbols=24 "
                  "reconstruct_download_symbols=36 share_warnings=0 "
                  f"out={victim}\n")
    assert code == 0
    assert out == warning + report


def test_analyze_large_deployment_figures(capsys):
    code, out, _ = run(
        capsys, "analyze", "--family", "msr", "--n", "100", "--k", "20",
        "--d", "38",
    )
    assert code == 0
    assert "alpha=19" in out and "B=380" in out
    assert "storage_reconstruction_pct=0.77%" in out
    code, out, _ = run(
        capsys, "analyze", "--family", "msr", "--n", "100", "--k", "20",
        "--d", "38", "--beta", "1000",
    )
    assert code == 0
    assert "storage_regeneration_replicated_pct=1.52%" in out
    assert "bandwidth_regeneration_replicated_pct=0.29%" in out
    assert "storage_regeneration_coded_pct=0.33%" in out
    assert "bandwidth_regeneration_coded_pct=0.06%" in out


def test_analyze_output_pinned(capsys):
    # the whole report: record order and every field, not substrings
    code, out, err = run(
        capsys, "analyze", "--family", "msr", "--n", "100", "--k", "20",
        "--d", "38", "--beta", "1000",
    )
    assert (code, err) == (0, "")
    assert out == (
        "command=analyze family=msr n=100 k=20 d=38 alpha=19 beta=1000 B=380 "
        "m=11 r=32 m_prime=7 k_prime=5\n"
        "erasure_reconstruction=80\n"
        "erasure_regeneration=61\n"
        "byzantine_reconstruction=31\n"
        "byzantine_regeneration=16\n"
        "security_reconstruction=19\n"
        "security_regeneration=31\n"
        "storage_reconstruction=1/130624 storage_reconstruction_pct=0.00%\n"
        "storage_regeneration_replicated=36/2375 "
        "storage_regeneration_replicated_pct=1.52%\n"
        "storage_regeneration_coded=63/19000 storage_regeneration_coded_pct=0.33%\n"
        "bandwidth_regeneration_replicated=4/1375 "
        "bandwidth_regeneration_replicated_pct=0.29%\n"
        "bandwidth_regeneration_coded=7/11000 bandwidth_regeneration_coded_pct=0.06%\n"
    )
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ef0f584525d701f5a6a97e67dd1f1b35a8f57efabae1471867eb1f4912e6fbf7"
    )
    code, out, _ = run(
        capsys, "analyze", "--family", "mbr", "--n", "6", "--k", "3",
        "--d", "4", "--m", "4", "--r", "8",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c083e23eab83c1212ca7b25ea35062736be4f027985e2743c373053e4d60d763"
    )


def test_analyze_two_nodes(capsys):
    # the replicated scheme works at n = 2, so the report is printed; the
    # coded cells show k' = 4 > n - 1 shares and no regeneration tolerance
    code, out, err = run(
        capsys, "analyze", "--family", "mbr", "--n", "2", "--k", "1", "--d", "1",
        "--m", "16", "--r", "8",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == (
        "command=analyze family=mbr n=2 k=1 d=1 alpha=1 beta=1 B=1 "
        "m=16 r=8 m_prime=2 k_prime=4"
    )
    assert "byzantine_regeneration=0\n" in out
    assert "storage_regeneration_coded=1/8 storage_regeneration_coded_pct=12.50%\n" in out


def test_analyze_rejects_bad_parameters(capsys):
    code, _, err = run(
        capsys, "analyze", "--family", "mbr", "--n", "4", "--k", "5",
        "--d", "3",
    )
    assert code == 1
    assert "error=InvalidParams" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["msr", "6", "3", "4", "--m", "17"], id="m17"),
    pytest.param(["msr", "100", "20", "38", "--m", "4"], id="n100-m4"),
    pytest.param(["msr", "6", "3", "4", "--m", "16", "--r", "24"], id="r24"),
    pytest.param(["msr", "10", "3", "6"], id="msr-10-3-6"),
    pytest.param(["msr", "2", "1", "1"], id="msr-2-1-1"),
    pytest.param(["msr", "40", "10", "18", "--m", "8"], id="msr-40-10-18-m8"),
    pytest.param(["mbr", "4", "5", "3"], id="mbr-4-5-3"),
])
def test_analyze_refuses_what_encode_refuses(capsys, tmp_path, argv):
    # analyze builds the params encode builds, so the same flags fail both
    # with one error record, byte for byte
    family, n, k, d, *rest = argv
    flags = ["--family", family, "--n", n, "--k", k, "--d", d, *rest]
    code, out, err = run(capsys, "analyze", *flags)
    assert (code, out, err.startswith("error=InvalidParams ")) == (1, "", True)
    src = tmp_path / "in.bin"
    src.write_bytes(b"x" * 100)
    assert run(capsys, "encode", src, *flags, "--out", tmp_path / "out") == (1, "", err)


def write_config(tmp_path, **kv):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in kv.items()))
    return cfg


def test_simulate_is_deterministic(capsys, tmp_path):
    cfg = write_config(
        tmp_path, family="msr", n=6, k=3, d=4, beta=2, m=8, seed=21,
        trials=6, operation="reconstruct", byzantine="random:1",
        crashes="random:1",
    )
    first = run(capsys, "simulate", "--config", cfg)
    second = run(capsys, "simulate", "--config", cfg)
    assert first == second
    assert first[0] == 0
    assert "wrong_successes=0" in first[1]


def test_simulate_regenerate_footer(capsys, tmp_path):
    cfg = write_config(
        tmp_path, family="msr", n=6, k=3, d=4, beta=2, seed=2, trials=3,
        operation="regenerate", failed="random",
    )
    code, out, _ = run(capsys, "simulate", "--config", cfg)
    assert code == 0
    assert "repair_download_symbols=8" in out
    assert "reconstruct_download_symbols=12" in out
    assert "bandwidth_saving=1.50x" in out


def test_simulate_forgery_exit_code(capsys, tmp_path):
    cfg = write_config(
        tmp_path, family="msr", n=6, k=3, d=4, beta=8, m=4, r=32, seed=3,
        trials=2, operation="reconstruct", byzantine="0,3",
        strategy="zero_crc_forgery", policy="adversarial",
    )
    code, out, _ = run(capsys, "simulate", "--config", cfg)
    assert code == 1
    assert "wrong_successes=2" in out
    assert out.count("correct=0") == 2


def test_simulate_report_file(capsys, tmp_path):
    report = tmp_path / "report.txt"
    cfg = write_config(
        tmp_path, family="mbr", n=6, k=3, d=4, seed=0, trials=2,
        operation="reconstruct", out=report,
    )
    code, out, _ = run(capsys, "simulate", "--config", cfg)
    assert code == 0
    assert report.read_text() == out


def fail_replace(monkeypatch):
    def boom(src, dst):
        raise OSError("replace failed")
    monkeypatch.setattr(os, "replace", boom)


def test_reconstruct_output_write_is_atomic(capsys, tmp_path, monkeypatch):
    src, chunks = encode_dir(capsys, tmp_path)
    dst = tmp_path / "out.bin"
    dst.write_bytes(b"previous contents")
    fail_replace(monkeypatch)
    code, _, err = run(capsys, "reconstruct", chunks, "--out", dst)
    assert code == 1 and "error=OSError" in err
    assert dst.read_bytes() == b"previous contents"
    assert not list(tmp_path.glob("*.tmp"))


def test_simulate_report_write_is_atomic(capsys, tmp_path, monkeypatch):
    report = tmp_path / "report.txt"
    report.write_text("previous report\n")
    cfg = write_config(
        tmp_path, family="mbr", n=6, k=3, d=4, seed=0, trials=2,
        operation="reconstruct", out=report,
    )
    fail_replace(monkeypatch)
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 1 and "error=OSError" in err
    assert report.read_text() == "previous report\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_simulate_config_skips_blank_and_comment_lines(capsys, tmp_path):
    plain = write_config(tmp_path, family="msr", n=6, k=3, d=4, seed=4, trials=2,
                         byzantine="random:1")
    want = run(capsys, "simulate", "--config", plain)
    assert want[0] == 0 and "wrong_successes=0" in want[1] and not want[2]
    lines = plain.read_text().splitlines()
    commented = tmp_path / "commented.cfg"
    commented.write_text("# a comment\n\n" + "\n  \n#n=99\n".join(lines) + "\n\n")
    assert run(capsys, "simulate", "--config", commented) == want


def test_simulate_rejects_zero_trials(capsys, tmp_path):
    cfg = write_config(tmp_path, family="msr", n=6, k=3, d=4, trials=0)
    code, out, err = run(capsys, "simulate", "--config", cfg)
    assert code == 1 and not out
    assert err == "error=InvalidParams detail='trials=0 is below 1'\n"


def test_simulate_config_validation(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate=1\n")
    code, _, err = run(capsys, "simulate", "--config", bad)
    assert code == 1 and "unknown key" in err
    bad.write_text("just some words\n")
    code, _, err = run(capsys, "simulate", "--config", bad)
    assert code == 1 and "expected key=value" in err
    cfg = write_config(tmp_path, operation="defragment")
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 1 and "unknown operation" in err


@pytest.mark.parametrize("key,value,extra", [
    ("n", "abc", {}),
    ("rate", "x", {}),
    ("crashes", "1,x", {}),
    ("byzantine", "random:-1", {}),
    ("rate", "nan", {"byzantine": "random:1"}),  # injected nothing, yet marked a node Byzantine
    ("rate", "1.5", {"byzantine": "random:1"}),
    ("failed", "two", {"operation": "regenerate"}),
    ("seed", "-1", {}),
    ("payload_bits", "-5", {}),
    ("payload_bits", None, {"r": 64}),  # unset: the default, 48 frame bits - r
    ("trials", "0", {}),
])
def test_simulate_rejects_malformed_numbers(capsys, tmp_path, key, value, extra):
    # each once escaped as a ValueError traceback or ran its trials
    kv = {"family": "msr", "n": 6, "k": 3, "d": 4, **extra, **({} if value is None else {key: value})}
    cfg = write_config(tmp_path, **kv)
    code, out, err = run(capsys, "simulate", "--config", cfg)
    assert code == 1 and not out
    assert err.count("error=InvalidParams") == 1
    assert re.search(rf"detail=.{key}[=:]", err)  # the detail names the key
    assert "Traceback" not in err


def test_simulate_payload_file(capsys, tmp_path):
    blob = tmp_path / "blob.bin"
    blob.write_bytes(bytes(random.Random(3).randrange(256) for _ in range(40)))
    cfg = write_config(
        tmp_path, family="msr", n=6, k=3, d=4, beta=8, trials=2, seed=8,
        payload_file=blob, crashes="random:2",
    )
    code, out, _ = run(capsys, "simulate", "--config", cfg)
    assert code == 0
    assert "successes=2" in out and "wrong_successes=0" in out


def test_console_script_entry_point(tmp_path):
    # the child imports the package under test, installed or not
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "regencode.cli", "analyze", "--family", "mbr",
         "--n", "6", "--k", "3", "--d", "4"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "command=analyze" in proc.stdout


# one argv per subcommand; the handlers are replaced, so no file is read
COMMAND_ARGV = {
    "encode": ["encode", "in.bin", "--family", "msr", "--n", "6", "--k", "3", "--d", "4"],
    "reconstruct": ["reconstruct", "chunks", "--out", "out.bin"],
    "regenerate": ["regenerate", "chunks", "--failed", "1"],
    "simulate": ["simulate", "--config", "sim.cfg"],
    "analyze": ["analyze", "--family", "mbr", "--n", "6", "--k", "3", "--d", "4"],
}


@pytest.mark.parametrize("command", list(COMMAND_ARGV))
def test_main_calls_the_handler_bound_at_call_time(monkeypatch, command):
    # a handler rebound on the module after import (a tracer's wrapper)
    # is the one main runs, with the parsed arguments, and its exit code
    calls = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: calls.append(args) or 7)
    assert main(COMMAND_ARGV[command]) == 7
    assert [args.command for args in calls] == [command]


def test_main_does_not_rebuild_the_parser(capsys, monkeypatch):
    def rebuilt():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    code, out, _ = run(capsys, *COMMAND_ARGV["analyze"])
    assert code == 0 and out.startswith("command=analyze ")


FAMILIES, SCHEMES = ["msr", "mbr"], ["replicated", "coded"]
# per subcommand, each declared argument in order: (name, nargs, type,
# default, choices, required, help)
DECLARED = {
    "encode": [
        ("input", None, None, None, None, True, None),
        ("--family", None, None, None, FAMILIES, True, None),
        ("--n", None, int, None, None, True, None),
        ("--k", None, int, None, None, True, None),
        ("--d", None, int, None, None, True, None),
        ("--beta", None, int, 0, None, False, "stripes per frame (default: smallest that fits)"),
        ("--m", None, int, 8, None, False, "field degree (default 8)"),
        ("--r", None, int, 32, None, False, "checksum width in bits (default 32)"),
        ("--scheme", None, None, "replicated", SCHEMES, False, None),
        ("--seed", None, int, 0, None, False, None),
        ("--out", None, None, ".", None, False, "output directory"),
    ],
    "reconstruct": [
        ("chunks", "+", None, None, None, True, "chunk files or directories"),
        ("--out", None, None, None, None, True, "output payload file"),
        ("--seed", None, int, 0, None, False, None),
    ],
    "regenerate": [
        ("chunks", "+", None, None, None, True, "surviving chunk files or dirs"),
        ("--failed", None, int, None, None, True, None),
        ("--out", None, None, None, None, False, "output chunk file"),
        ("--seed", None, int, 0, None, False, None),
    ],
    "simulate": [
        ("--config", None, None, None, None, True, None),
    ],
    "analyze": [
        ("--family", None, None, None, FAMILIES, True, None),
        ("--n", None, int, None, None, True, None),
        ("--k", None, int, None, None, True, None),
        ("--d", None, int, None, None, True, None),
        ("--beta", None, int, 1, None, False, None),
        ("--m", None, int, 11, None, False, "field degree used in the ratio formulas (default 11)"),
        ("--r", None, int, 32, None, False, None),
    ],
}


def test_parser_declarations_pinned():
    # the declarations, not the rendered help, whose layout differs
    # between argparse versions
    ap = cli.build_parser()
    assert (ap.prog, ap.description) == (
        "regencode", "Regenerating-code storage simulator and chunk tool")
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    assert (sub.dest, sub.required) == ("command", True)
    assert [(a.dest, a.help) for a in sub._choices_actions] == [
        ("encode", "split a file into n chunk files"),
        ("reconstruct", "rebuild the payload from chunks"),
        ("regenerate", "rebuild one node's chunk file"),
        ("simulate", "run trials from a config file"),
        ("analyze", "print parameters and capabilities"),
    ]
    declared = {
        name: [
            (", ".join(a.option_strings) or a.dest, a.nargs, a.type,
             a.default, None if a.choices is None else list(a.choices), a.required, a.help)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
        ]
        for name, parser in sub.choices.items()
    }
    assert declared == DECLARED
