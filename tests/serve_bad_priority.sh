#!/bin/sh
# --serve must contain a malformed `priority=` on a submission line as one
# per-job parse-stage "error" report: the server exits 0 and streams exactly
# one report for the one submission.
# Usage: serve_bad_priority.sh <bench_fault_sim> <work dir>
set -eu
bin=$1
dir=$2
mkdir -p "$dir"
rm -f "$dir/stream.jsonl"
printf 'c17 priority=x\nSTOP\n' |
  "$bin" --serve --stream "$dir/stream.jsonl" --health "$dir/health.json"
test "$(wc -l < "$dir/stream.jsonl")" -eq 1
grep -q '^{"name": "c17", "status": "error"' "$dir/stream.jsonl"
