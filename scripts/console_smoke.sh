#!/usr/bin/env bash
# Console-script smoke: --help, then encode, reconstruct, regenerate and
# simulate through the installed `regencode` command, with `cmp` against
# the inputs.  Run it from the repository root (it reads README.md) after
# `pip install -e .`.  It works in a new `mktemp -d` directory and leaves
# it in place.
set -e
dir=$(mktemp -d)
# --help, at the top level and for each subcommand: exit 0, a usage
# line naming the command, and no traceback
for cmd in "" encode reconstruct regenerate simulate analyze; do
  regencode $cmd --help > "$dir/help.txt" 2>&1
  grep -q "^usage: regencode ${cmd:+$cmd }" "$dir/help.txt"
  if grep -q "Traceback" "$dir/help.txt"; then exit 1; fi
done
python -c "import os, sys; sys.stdout.buffer.write(os.urandom(100001))" > "$dir/in.bin"
regencode encode --family msr --n 6 --k 3 --d 4 --out "$dir/chunks" "$dir/in.bin"
mv "$dir/chunks/node001.rgen" "$dir/node001.orig"
regencode reconstruct "$dir/chunks" --out "$dir/out.bin"
cmp "$dir/in.bin" "$dir/out.bin"
regencode regenerate "$dir/chunks" --failed 1 --out "$dir/node001.rgen"
cmp "$dir/node001.orig" "$dir/node001.rgen"
# files with identical content count once: exactly k = 3 chunk files
# plus a byte-identical copy of one, then also a repeated path
mkdir "$dir/k3"
cp "$dir/chunks/node000.rgen" "$dir/chunks/node002.rgen" "$dir/chunks/node003.rgen" "$dir/k3/"
cp "$dir/k3/node000.rgen" "$dir/k3/backup.rgen"
regencode reconstruct "$dir/k3" --out "$dir/k3.bin"
cmp "$dir/in.bin" "$dir/k3.bin"
rm "$dir/k3.bin"
regencode reconstruct "$dir/k3" "$dir/k3/node000.rgen" --out "$dir/k3.bin"
cmp "$dir/in.bin" "$dir/k3.bin"
python -c "import os, sys; sys.stdout.buffer.write(os.urandom(300000))" > "$dir/big.bin"
# fast-path routes: MSR [6,3,4] above, MSR [14,5,8] (beta = 5 001 and
# D's 20-symbol rows pack for the row kernel) take the decoding-matrix
# route (one product with D).  MBR takes it at beta >= 2^m * B: MBR
# [6,3,4] over GF(2^8) (beta = 11 112 >= 2^8 * 9) does, MBR [10,4,7]
# (beta = 4 546 < 2^8 * 22) runs its algebra on the data, and so does
# MBR [6,3,4] at --m 11 on in.bin (beta = 8 082 < 2^11 * 9).  On
# big.bin, beta = 24 243 >= 2^11 * 9: Y·D splits D's 9 columns into
# lane groups of 4, 4 and 1.  At --m 11 the MSR beta is about 12 000,
# past 2^12, so products with up to 4 columns take one group with
# uint16 lanes.  MBR [15,4,7] over GF(2^4) is a full-length code: its
# 15 nodes take every nonzero point of the field.  MSR [6,3,4] at
# --r 4 and --r 16 runs the narrow checksums through the byte table
# (r = 4 has a register narrower than a byte).  MSR [14,5,8] at
# --m 11 --scheme coded has beta = 3 637, so each chunk is 160 028
# bits, 4 past a byte: its checksums and coded shares come from
# chunks whose packed rows end inside a byte.  MBR [6,3,4] over
# GF(2^8) comes last: the Byzantine step below runs on its chunks
for run in "in.bin msr --n 14 --k 5 --d 8" "in.bin mbr --n 10 --k 4 --d 7" \
           "in.bin msr --n 6 --k 3 --d 4 --m 11" "in.bin mbr --n 6 --k 3 --d 4 --m 11" \
           "big.bin mbr --n 6 --k 3 --d 4 --m 11" "in.bin mbr --n 15 --k 4 --d 7 --m 4" \
           "in.bin msr --n 6 --k 3 --d 4 --r 4" "in.bin msr --n 6 --k 3 --d 4 --r 16" \
           "in.bin msr --n 14 --k 5 --d 8 --m 11 --scheme coded" \
           "in.bin mbr --n 6 --k 3 --d 4"; do
  set -- $run
  input="$dir/$1"
  shift
  rm -rf "$dir/chunks" "$dir/out.bin" "$dir/node001.orig" "$dir/node001.rgen"
  regencode encode --family "$@" --out "$dir/chunks" "$input"
  mv "$dir/chunks/node001.rgen" "$dir/node001.orig"
  regencode reconstruct "$dir/chunks" --out "$dir/out.bin"
  cmp "$input" "$dir/out.bin"
  regencode regenerate "$dir/chunks" --failed 1 --out "$dir/node001.rgen"
  cmp "$dir/node001.orig" "$dir/node001.rgen"
done
# a Byzantine node: one body byte of node000 flipped (no body checksum
# catches it); --seed 5 reads nodes 0, 3, 4 first, so round one's
# candidate fails the CRC and round two decodes around the error
mv "$dir/node001.orig" "$dir/chunks/node001.rgen"
rm "$dir/out.bin"
python -c "import sys; p = sys.argv[1]; b = bytearray(open(p, 'rb').read()); b[42] ^= 0xFF; open(p, 'wb').write(b)" "$dir/chunks/node000.rgen"
regencode reconstruct "$dir/chunks" --seed 5 --out "$dir/out.bin" > "$dir/record.txt"
cat "$dir/record.txt"
grep -q "decode_rounds=2" "$dir/record.txt"
cmp "$dir/in.bin" "$dir/out.bin"
# MBR [7,3,3]: d = k leaves A2 empty, so round two's decoder holds no
# rows.  The low bit of body byte 60 of node000 is flipped; --seed 2
# reads node000 in round one, so round two decodes around the error,
# with no traceback
rm -rf "$dir/chunks" "$dir/out.bin"
regencode encode --family mbr --n 7 --k 3 --d 3 --out "$dir/chunks" "$dir/in.bin"
python -c "import sys; p = sys.argv[1]; b = bytearray(open(p, 'rb').read()); b[42 + 60] ^= 0x01; open(p, 'wb').write(b)" "$dir/chunks/node000.rgen"
status=0
regencode reconstruct "$dir/chunks" --seed 2 --out "$dir/out.bin" > "$dir/record.txt" 2> "$dir/err.txt" || status=$?
cat "$dir/record.txt" "$dir/err.txt"
if grep -q "Traceback" "$dir/err.txt"; then exit 1; fi
test "$status" -eq 0
grep -q "decode_rounds=" "$dir/record.txt"
if grep -Eq "decode_rounds=1( |$)" "$dir/record.txt"; then exit 1; fi
cmp "$dir/in.bin" "$dir/out.bin"
# coded checksum shares: MSR [14,5,8] --scheme coded, so regenerate
# recovers the lost node's checksum by decoding its RS-coded shares
rm -rf "$dir/chunks" "$dir/node001.rgen"
regencode encode --family msr --n 14 --k 5 --d 8 --scheme coded --out "$dir/chunks" "$dir/in.bin"
mv "$dir/chunks/node001.rgen" "$dir/node001.orig"
regencode regenerate "$dir/chunks" --failed 1 --out "$dir/node001.rgen"
cmp "$dir/node001.orig" "$dir/node001.rgen"
# a Byzantine helper: one body byte of node000 flipped; --seed 2 reads
# node000 in round one, so that candidate fails the CRC and round two
# (d + 2 = 10 helpers) decodes around the error
rm "$dir/node001.rgen"
python -c "import sys; p = sys.argv[1]; b = bytearray(open(p, 'rb').read()); b[42] ^= 0xFF; open(p, 'wb').write(b)" "$dir/chunks/node000.rgen"
regencode regenerate "$dir/chunks" --failed 1 --seed 2 --out "$dir/node001.rgen" > "$dir/record.txt"
cat "$dir/record.txt"
grep -q "decode_rounds=2" "$dir/record.txt"
cmp "$dir/node001.orig" "$dir/node001.rgen"
# out-of-width shares: node000's shares of owners 13 (last byte) and 1
# (13th from the end) set to 0xFF fit no 4-bit coded share and count
# as missing.  --seed 2 reads node000 in round one, which leaves 7
# shares of node001's checksum, fewer than k' = 8, so round two reads
# two more; owner 13's share is rebuilt from the other holders
rm -rf "$dir/chunks" "$dir/node001.orig" "$dir/node001.rgen"
regencode encode --family msr --n 14 --k 5 --d 8 --scheme coded --out "$dir/chunks" "$dir/in.bin"
mv "$dir/chunks/node001.rgen" "$dir/node001.orig"
python -c "import sys; p = sys.argv[1]; b = bytearray(open(p, 'rb').read()); b[-1] = b[-13] = 0xFF; open(p, 'wb').write(b)" "$dir/chunks/node000.rgen"
regencode regenerate "$dir/chunks" --failed 1 --seed 2 --out "$dir/node001.rgen" > "$dir/record.txt"
cat "$dir/record.txt"
grep -q "decode_rounds=2" "$dir/record.txt"
if grep -q "share_unrecovered" "$dir/record.txt"; then exit 1; fi
cmp "$dir/node001.orig" "$dir/node001.rgen"
# a GF(2^11) Byzantine decode past round one at n = 100: MSR [100,20,38]
# --scheme coded on in.bin (beta = 192), node005 crashed, and the low
# bit of two body bytes flipped in 8 chunk files (a 0xFF flip could
# put a symbol past 2^11, and that node would be an unreadable
# erasure, not an error).  --seed 1 reads a flipped node in round one,
# so the ladder climbs past it.  The decode's (3648x38)·(38x38)
# message products and the regenerate's (192x38)·(38x19) column maps
# take split product tables.  The regenerate's --seed 3 also reads a
# flipped helper in round one, so its ladder climbs too, with a liar
# inside a round whose responses come from one stacked product
rm -rf "$dir/chunks" "$dir/out.bin"
regencode encode --family msr --n 100 --k 20 --d 38 --m 11 --scheme coded --out "$dir/chunks" "$dir/in.bin"
mv "$dir/chunks/node005.rgen" "$dir/node005.orig"
python -c "
import sys
for p in sys.argv[1:]:
    b = bytearray(open(p, 'rb').read()); b[100] ^= 0x01; b[5000] ^= 0x01; open(p, 'wb').write(b)
" $(for i in 3 17 29 41 58 66 80 97; do printf '%s/chunks/node%03d.rgen ' "$dir" "$i"; done)
regencode reconstruct "$dir/chunks" --seed 1 --out "$dir/out.bin" > "$dir/record.txt"
cat "$dir/record.txt"
grep -q "decode_rounds=" "$dir/record.txt"
if grep -Eq "decode_rounds=1( |$)" "$dir/record.txt"; then exit 1; fi
cmp "$dir/in.bin" "$dir/out.bin"
regencode regenerate "$dir/chunks" --failed 5 --seed 3 --out "$dir/node005.rgen" > "$dir/record.txt"
cat "$dir/record.txt"
grep -q "decode_rounds=" "$dir/record.txt"
if grep -Eq "decode_rounds=1( |$)" "$dir/record.txt"; then exit 1; fi
cmp "$dir/node005.orig" "$dir/node005.rgen"
# a foreign polynomial: the prim_poly bytes (8-11) of one MSR [6,3,4]
# file rewritten to 0x12D, another primitive polynomial of degree 8.
# m = 8 fixes the polynomial, so that file is unreadable, a crashed
# node with one warning record, and the other five suffice
rm -rf "$dir/chunks" "$dir/out.bin"
regencode encode --family msr --n 6 --k 3 --d 4 --out "$dir/chunks" "$dir/in.bin"
python -c "import sys; p = sys.argv[1]; b = bytearray(open(p, 'rb').read()); b[8:12] = (0x12D).to_bytes(4, 'big'); open(p, 'wb').write(b)" "$dir/chunks/node002.rgen"
status=0
regencode reconstruct "$dir/chunks" --out "$dir/out.bin" > "$dir/record.txt" 2> "$dir/err.txt" || status=$?
cat "$dir/record.txt" "$dir/err.txt"
if grep -q "Traceback" "$dir/err.txt"; then exit 1; fi
test "$status" -eq 0
test "$(grep -c "^warning=chunk_unreadable path=$dir/chunks/node002.rgen " "$dir/record.txt")" -eq 1
test "$(grep -c "^warning=" "$dir/record.txt")" -eq 1
cmp "$dir/in.bin" "$dir/out.bin"
# simulate: a valid config runs its trials; a malformed number or an
# unknown key is one error record on stderr, exit 1, and no traceback
printf 'family=msr\nn=6\nk=3\nd=4\nbyzantine=random:1\ntrials=3\n' > "$dir/sim.cfg"
regencode simulate --config "$dir/sim.cfg" > "$dir/sim.txt"
cat "$dir/sim.txt"
grep -q "wrong_successes=0" "$dir/sim.txt"
# the README's example, taken from README.md: MSR [13,5,8], m = 6,
# r = 16, coded, 100 regenerate trials with 2 random liars
sed -n '/^cat > sim.cfg <<EOF$/,/^EOF$/p' README.md | sed '1d;$d' > "$dir/readme.cfg"
grep -q "trials=100" "$dir/readme.cfg"
regencode simulate --config "$dir/readme.cfg" > "$dir/sim.txt"
tail -n 1 "$dir/sim.txt"
grep -q "wrong_successes=0" "$dir/sim.txt"
for bad in 'family=msr\nn=abc\n' 'family=msr\nfrobnicate=1\n'; do
  printf "$bad" > "$dir/bad.cfg"
  status=0
  regencode simulate --config "$dir/bad.cfg" > "$dir/sim.txt" 2> "$dir/err.txt" || status=$?
  cat "$dir/err.txt"
  test "$status" -eq 1
  test "$(grep -c "error=InvalidParams" "$dir/err.txt")" -eq 1
  if grep -q "Traceback" "$dir/err.txt"; then exit 1; fi
done
# analyze prints the whole capability report of MSR [100,20,38]
# with beta = 1000, record for record
regencode analyze --family msr --n 100 --k 20 --d 38 --beta 1000 > "$dir/analyze.txt"
cat "$dir/analyze.txt"
echo "ef0f584525d701f5a6a97e67dd1f1b35a8f57efabae1471867eb1f4912e6fbf7  $dir/analyze.txt" | sha256sum -c -
# the sharp collusion threshold: at MSR [6,3,4], ceil((n-d+2)/2) = 2
# colluders pass a zero-residue forgery through the CRC check (both
# trials wrong, exit 1); one colluder cannot (exit 0)
for case in "0,1 2 1" "0 0 0"; do
  set -- $case
  printf 'family=msr\nn=6\nk=3\nd=4\nbeta=2000\nstrategy=zero_crc_forgery\npolicy=adversarial\ntrials=2\nbyzantine=%s\n' "$1" > "$dir/forge.cfg"
  status=0
  regencode simulate --config "$dir/forge.cfg" > "$dir/forge.txt" || status=$?
  cat "$dir/forge.txt"
  grep -q "wrong_successes=$2" "$dir/forge.txt"
  test "$status" -eq "$3"
done
