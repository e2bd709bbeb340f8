#!/usr/bin/env bash
# Analyze refuses what encode refuses, through the installed `regencode`
# command.  Run it after `pip install -e .`.  It works in a new
# `mktemp -d` directory and leaves it in place.
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
