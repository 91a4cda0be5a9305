#!/bin/sh
# The default (per-circuit) mode and --jobs plan every circuit through the
# same run_plan_job, so they must agree: byte-identical wrapper files, and
# each circuit's bist_plan fields equal to its --jobs report.
# Usage: bench_modes_agree.sh <bench_fault_sim> <work dir>
set -eu
bin=$1
dir=$2
circuits=c17,c432s,c880s
rm -rf "$dir"
mkdir -p "$dir/default" "$dir/jobs"
set -- --circuits $circuits --patterns 1024 --podem-backtracks 50 --threads 2
"$bin" "$@" --reps 1 --wrapper-dir "$dir/default" --out "$dir/default.json"
"$bin" "$@" --jobs --wrapper-dir "$dir/jobs" --out "$dir/jobs.json"
for c in $(echo $circuits | tr , ' '); do
  cmp "$dir/default/wrapper_$c.bench" "$dir/jobs/wrapper_$c.bench"
done
python3 - "$dir/default.json" "$dir/jobs.json" $circuits <<'PY'
import json, sys

default = {c["name"]: c for c in json.load(open(sys.argv[1]))["circuits"]}
jobs = {j["name"]: j for j in json.load(open(sys.argv[2]))["jobs"]}
keys = ("chosen_length", "topoff_patterns", "test_time", "rom_bits",
        "area_bits", "final_coverage", "selfsim_cycles", "selfsim_coverage")
for name in sys.argv[3].split(","):
    plan, job = default[name]["bist_plan"], jobs[name]
    for k in keys:
        if plan[k] != job[k]:
            sys.exit(f"{name}: {k} {plan[k]} (default) != {job[k]} (--jobs)")
print("default mode and --jobs agree")
PY
