#!/usr/bin/env python3
"""Job-level benchmark of the BIST plan pipeline.

    python3 perfbench/run.py --workload cold_ecc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout.  Builds the jobbench program (and the
library it links) from source into .bench_build/, runs one workload and
prints jobbench's output; its last line is the result JSON
({"correct", "attempted", "failed", "metrics"}).  The metric names and units
are checked against BENCHMARK.json before the result is printed.  Exits
non-zero without a result line when the build, the run or that check fails.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "pipeline" / "job.hpp"
    ).is_file():
        raise RuntimeError("the program sources are missing next to perfbench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "jobbench", "-j", "4"],
        stdout=sys.stderr, check=True)
    return BUILD / "jobbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def metric_problem(result, trace):
    """Why a result object breaks the output contract, or None."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return f"metrics differ: missing {missing}, extra {extra}, units {units}"
    return None


def run_jobbench(exe, args):
    workdir = ROOT / ".bench_build" / f"work-{os.getpid()}"
    try:
        proc = subprocess.run(
            [str(exe), *args, "--workdir", str(workdir)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, proc.stdout


def selfcheck(exe):
    rc, out = run_jobbench(exe, ["--selfcheck"])
    sys.stdout.write(out)
    bad = rc != 0
    for line in out.splitlines():
        m = re.match(r"selfcheck (\S+)( traced)? (\{.*)$", line)
        if not m:
            continue
        label, trace = m.group(1) + (m.group(2) or ""), bool(m.group(2))
        problem = metric_problem(json.loads(m.group(3)), trace)
        print(f"{'FAIL' if problem else 'ok  '} {label}: every BENCHMARK.json "
              f"metric printed with its unit{' (' + problem + ')' if problem else ''}")
        bad = bad or problem is not None
    print("selfcheck", "failed" if bad else "passed")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    a = ap.parse_args()
    if not a.selfcheck and not a.workload:
        ap.error("--workload is required")
    if a.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        exe = build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    if a.selfcheck:
        return selfcheck(exe)

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(traces / f"{a.workload}_{a.seed}.json")]
    try:
        rc, out = run_jobbench(exe, args)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = out.rstrip("\n").splitlines()
    if rc != 0 or not lines:
        sys.stderr.write(out)
        log(f"jobbench exited with code {rc}")
        return 1
    try:
        problem = metric_problem(json.loads(lines[-1]), a.trace)
    except (ValueError, AttributeError) as e:
        problem = f"last line is not a result object ({e})"
    if problem:
        sys.stderr.write(out)
        log(problem)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
