#!/usr/bin/env python3
"""Compare two commits with interleaved run pairs of the end-to-end benchmark.

    python3 e2ebench/compare.py BASE_DIR HEAD_DIR --workload large_torus \\
        [--pairs 10] [--seed 2] [--seconds N]

BASE_DIR and HEAD_DIR are two source checkouts (e.g. `git clone` + `git
checkout` of the parent and the change). Each pair runs both sides once,
alternating which goes first; each side builds and runs its own copy of
e2ebench/run.py. Refuses to compare when the two copies of the benchmark
differ, when any run fails the correctness gate, or when the machine
metadata (everything but git_commit) differs between any two runs.

For every end-to-end metric it prints each side's median and quartiles,
the head/base ratio of the medians, and how many pairs the head won. The
verdict follows the benchmark's rule: "better" when head wins at least 9/10
of the pairs and the medians differ by more than the base's quartile
spread; "worse" when head's median is worse than base's by more than the
metric's bound; else "unresolved" if the base spread exceeds the bound,
otherwise "within bound".
"""
import argparse
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys


def bench_digest(checkout):
    h = hashlib.sha256()
    files = [checkout / "BENCHMARK.json"] + sorted((checkout / "e2ebench").rglob("*"))
    for f in files:
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(checkout)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"compare: run failed in {checkout} (exit {proc.returncode})")
    machine, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"compare: {checkout} failed the correctness gate ({result['failed']} points)")
    return machine["machine"], result["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=pathlib.Path)
    ap.add_argument("head", type=pathlib.Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    if bench_digest(sides["base"]) != bench_digest(sides["head"]):
        sys.exit("compare: the two checkouts carry different benchmark code or settings")
    spec = json.loads((sides["base"] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    values = {"base": {}, "head": {}}
    machines = []
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            machine, metrics = run_once(sides[side], args.workload, args.seed, seconds)
            machines.append({k: v for k, v in machine.items() if k != "git_commit"})
            for name, m in metrics.items():
                values[side].setdefault(name, []).append(m["value"])
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    if any(m != machines[0] for m in machines):
        sys.exit("compare: machine metadata differs between runs; refusing to diff")

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} interleaved pairs")
    print("machine " + json.dumps(machines[0]))
    for name, base in values["base"].items():
        head = values["head"][name]
        lower = bounds.get(name, {}).get("better", "lower") == "lower"
        bound = bounds.get(name, {}).get("bound", 0.0)
        bq, hq = statistics.quantiles(base, n=4), statistics.quantiles(head, n=4)
        bmed, hmed = statistics.median(base), statistics.median(head)
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        worse = (hmed - bmed) / bmed if lower else (bmed - hmed) / bmed
        spread = (bq[2] - bq[0]) / bmed
        if wins >= 0.9 * len(base) and abs(hmed - bmed) > bq[2] - bq[0]:
            verdict = "better"
        elif worse > bound:
            verdict = "worse"
        elif spread > bound:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        print(f"{name:14s} base {bmed:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
              f"head {hmed:.6g} [{hq[0]:.6g}, {hq[2]:.6g}]  head/base {hmed / bmed:.4f}  "
              f"head won {wins}/{len(base)}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
