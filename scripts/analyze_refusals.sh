#!/usr/bin/env bash
# Analyze refuses what encode refuses, and accepts what encode builds,
# through the installed `regencode` command.  Run it after
# `pip install -e .`.  It works in a new `mktemp -d` directory and leaves
# it in place.
set -e
dir=$(mktemp -d)
printf 'regenerating codes keep data alive' > "$dir/in.bin"
# analyze builds the params and checksum encode builds: MSR [10,3,6]
# breaks d = 2k-2, and no CRC polynomial has width 24.  Both commands
# exit 1 with one identical error record on stderr and no traceback
for flags in "--n 10 --k 3 --d 6" "--n 6 --k 3 --d 4 --m 16 --r 24"; do
  status=0
  regencode analyze --family msr $flags 2> "$dir/analyze.err" || status=$?
  test "$status" -eq 1
  status=0
  regencode encode --family msr $flags --out "$dir/chunks" "$dir/in.bin" 2> "$dir/encode.err" || status=$?
  test "$status" -eq 1
  cat "$dir/analyze.err" "$dir/encode.err"
  if grep -q "Traceback" "$dir/analyze.err" "$dir/encode.err"; then exit 1; fi
  test "$(grep -c "^error=InvalidParams " "$dir/analyze.err")" -eq 1
  cmp "$dir/analyze.err" "$dir/encode.err"
done
# the other half: one 32-bit CRC covers the whole frame, so MBR [2,1,1]
# at beta = 15 leaves 88 data bits (one stripe alone holds only 8).
# analyze reports the deployment, encode stores an 11-byte file in it and
# reconstruct returns that file byte for byte
flags="--family mbr --n 2 --k 1 --d 1 --m 8 --beta 15"
regencode analyze $flags > "$dir/analyze.txt"
cat "$dir/analyze.txt"
grep -q "^storage_reconstruction=4/11 " "$dir/analyze.txt"
printf 'eleven byte' > "$dir/small.bin"
regencode encode $flags --out "$dir/small" "$dir/small.bin"
regencode reconstruct --out "$dir/small.out" "$dir/small"
cmp "$dir/small.bin" "$dir/small.out"
