#!/usr/bin/env python3
"""Tiny-scale self-check of the end-to-end benchmark.

    python3 e2ebench/selfcheck.py

Runs every workload at toy size (a few short points, --toy) and asserts:
  * the output parses, and the last line has exactly the keys correct,
    attempted, failed and metrics, preceded by a machine metadata line;
  * --trace 0 emits exactly the end_to_end metrics of BENCHMARK.json and
    --trace 1 exactly the per_layer ones, each with its unit;
  * the clean run passes the correctness gate, and a deliberately corrupted
    result is caught: a wrong row checked against the dense engine
    (--corrupt row) and a wrong cache entry served to the warm replay
    (--corrupt cache).
Exits 0 when every check holds, 1 otherwise.
"""
import json
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (e2ebench/run.py, next to this file)

MACHINE_KEYS = ("nproc", "pool_threads", "compiler", "build_type", "simd_isa", "git_commit")


def check_run(problems, what, machine, result, expected_units, expect_correct):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys are {sorted(result)}")
        return
    missing = [k for k in MACHINE_KEYS if k not in machine.get("machine", {})]
    if missing:
        problems.append(f"{what}: machine metadata lacks {missing}")
    units = {name: m.get("unit") for name, m in result["metrics"].items()}
    if expected_units is not None and units != expected_units:
        extra = sorted(set(units) - set(expected_units))
        absent = sorted(set(expected_units) - set(units))
        wrong = sorted(k for k in set(units) & set(expected_units)
                       if units[k] != expected_units[k])
        problems.append(f"{what}: metrics differ (extra {extra}, absent {absent}, unit {wrong})")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            problems.append(f"{what}: {name} has no numeric value")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{what}: attempted is {result['attempted']!r}")
    if expect_correct and (result["correct"] is not True or result["failed"] != 0):
        problems.append(f"{what}: clean run failed the gate ({result['failed']} points)")
    if not expect_correct and (result["correct"] is not False or result["failed"] < 1):
        problems.append(f"{what}: corrupted result was not caught")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    exe = run.build()
    cases = [(w, trace, None) for w in run.WORKLOADS for trace in (0, 1)]
    cases += [(w, 0, corrupt) for w in run.WORKLOADS for corrupt in ("row", "cache")]
    cases += [(run.WORKLOADS[0], 1, "row")]
    for workload, trace, corrupt in cases:
        what = f"{workload} trace={trace}" + (f" corrupt={corrupt}" if corrupt else "")
        extra = ["--toy"] + (["--corrupt", corrupt] if corrupt else [])
        try:
            machine, result = run.run_driver(exe, workload, run.DEV_SEED, 1, trace, extra)
        except (RuntimeError, ValueError, IndexError) as e:
            problems.append(f"{what}: {e}")
            continue
        check_run(problems, what, machine, result, units[trace], corrupt is None)
        print(f"checked {what}: correct={result['correct']} failed={result['failed']}",
              file=sys.stderr)
    for p in problems:
        print("SELF-CHECK FAIL:", p)
    print(f"self-check: {len(cases)} runs, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
