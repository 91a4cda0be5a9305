#!/usr/bin/env python3
"""Measure the benchmark's baseline and write perfbench/BASELINE.json.

    python3 perfbench/baseline.py [--seeds 1-10] [--out perfbench/BASELINE.json]

Run from the root of a checkout, on an otherwise idle machine.  For every
workload in BENCHMARK.json it runs the untraced benchmark once per seed and
records each end-to-end metric's median, quartiles and spread (interquartile
distance over the median, with quartiles from statistics.quantiles(n=4)).  It
then makes one traced run at seed 0 and records:

- each layer's share of the traced job time;
- the tracing overhead;
- the job fingerprints the run printed.

It takes about twenty minutes on a 4-core machine.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Self times that partition a traced job; the sweep's phases are inside
# tpg.sweep_s.
PARTITION = ["netlist.parse_s", "store.key_s", "store.load_s", "fault.build_s",
             "fault.lfsr_sim_s", "tpg.sweep_s", "store.publish_s",
             "bist.schedule_s", "bist.synth_s", "bist.verify_s"]
SWEEP_PHASES = ["fault.podem_s", "tpg.compact_s", "bist.compress_s"]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run\n{p.stdout}")
    fingerprints = [l.split()[2:4] for l in lines if l.startswith("fingerprint ")]
    print(f"{workload} seed={seed} trace={trace} {time.time() - t0:.1f}s", flush=True)
    return {k: v["value"] for k, v in result["metrics"].items()}, fingerprints


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def layer_shares(m):
    total = sum(m[k] for k in PARTITION)
    shares = {k: m[k] / total for k in PARTITION}
    shares.update({k: m[k] / total for k in SWEEP_PHASES})
    return total, shares


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=str(ROOT / "perfbench" / "BASELINE.json"))
    a = ap.parse_args()
    lo, hi = (int(x) for x in a.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    out = {"machine": f"{platform.machine()}, {os.cpu_count()} cores, Release build; "
                      f"seeds {lo}-{hi}, --seconds {seconds}",
           "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        per_metric = {}
        for seed in range(lo, hi + 1):
            metrics, _ = run(name, seed, seconds, 0)
            for k, v in metrics.items():
                per_metric.setdefault(k, []).append(v)
        traced, fingerprints = run(name, 0, seconds, 1)
        total, shares = layer_shares(traced)
        out["workloads"][name] = {
            "end_to_end": {k: summary(v) for k, v in per_metric.items()},
            "traced_seed0": {
                "traced_job_s": total,
                "layer_share": shares,
                "trace_untraced_s": traced["trace.untraced_s"],
                "trace_overhead_s": traced["trace.overhead_s"],
                "service_queue_wait_p50_s": traced["service.queue_wait_p50_s"],
                "service_queue_wait_p95_s": traced["service.queue_wait_p95_s"],
            },
            "fingerprints_seed0": {job: fp for job, fp in fingerprints},
        }
    Path(a.out).write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {a.out}")


if __name__ == "__main__":
    main()
