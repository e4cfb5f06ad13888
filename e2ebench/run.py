#!/usr/bin/env python3
"""End-to-end sweep benchmark for swft: one workload, one run.

    python3 e2ebench/run.py --workload latency_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Builds the driver (e2ebench/) and
the swft library from that checkout into $CARGO_TARGET_DIR/e2ebench
(default .bench_build/e2ebench), runs the workload, and prints a machine
metadata line followed, as the last stdout line, by the JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Build output and progress go to stderr. A copy of both lines is kept under
<build dir>/results/. See e2ebench/README.md.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("latency_sweep", "large_torus", "fault_recovery")
DEV_SEED = 1  # the seed the benchmark was built and tuned with
HOLDOUT_SEED = 2  # reserved: a later performance claim must also hold on it
RUN_TIMEOUT_S = 170


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def build():
    """Configure (once) and build the driver; returns the executable path."""
    bdir = build_dir() / "build"
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "e2ebench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return bdir / "e2ebench"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_driver(exe, workload, seed, seconds, trace, extra=()):
    """Runs the driver once; returns (machine, result) dicts, or raises."""
    work = build_dir() / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", str(work), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    machine = json.loads(lines[-2])
    machine["machine"]["git_commit"] = git_commit()
    machine["machine"]["cpu_model"] = cpu_model()
    return machine, json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        exe = build()
        machine, result = run_driver(exe, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        return 1
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**machine, "result": result}, indent=1) + "\n")
    print(json.dumps(machine))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
