#!/bin/sh
# A wrapper file that cannot be written is an error of the run, in --jobs as
# in the default mode: "error: could not write <file>" and a nonzero exit.
# Usage: jobs_rejects_unwritable_wrapper_dir.sh <bench_fault_sim> <work dir>
set -u
bin=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"
wdir=$dir/missing/d
for mode in jobs default; do
  if [ $mode = jobs ]; then set -- --jobs; else set --; fi
  if "$bin" "$@" --circuits c17 --patterns 256 --reps 1 --threads 1 \
      --wrapper-dir "$wdir" --out "$dir/out.json" 2> "$dir/stderr.txt"; then
    echo "$mode mode: exit 0 although $wdir does not exist"
    exit 1
  fi
  cat "$dir/stderr.txt"
  grep -qF "error: could not write $wdir/wrapper_c17.bench" "$dir/stderr.txt" ||
    { echo "$mode mode: no write error reported"; exit 1; }
done
