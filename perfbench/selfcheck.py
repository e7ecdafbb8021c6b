#!/usr/bin/env python3
"""Toy-size self-check of the benchmark, from the root of a checkout:

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json once untraced and once traced at
toy sizes, and checks that each run reports correct outputs and every
declared metric by name, with its declared unit and a finite value.
Then checks that the benchmark refuses to run, without printing a
result, from a directory holding only BENCHMARK.json and perfbench/.
Exits 0 when everything holds."""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_run(spec, workload, trace):
    p = run_bench(ROOT, workload, trace)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return [f"exited {p.returncode}: {p.stderr[-1000:]}"]
    r = json.loads(lines[-1])
    errors = []
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(r)}")
    if r.get("correct") is not True:
        errors.append(f"correct is {r.get('correct')}: {p.stderr[-1000:]}")
    if not (isinstance(r.get("attempted"), int) and r["attempted"] >= 1 and isinstance(r.get("failed"), int)):
        errors.append(f"attempted {r.get('attempted')}, failed {r.get('failed')}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = r.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        errors.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')}, declared {m['unit']}")
        v = got.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            errors.append(f"{m['name']}: value {v!r}")
        elif not trace and v == 0:
            errors.append(f"{m['name']}: end-to-end metric is 0")
    return errors


def check_bare_directory(spec):
    """Only BENCHMARK.json and the benchmark's paths: no source to build."""
    bare = os.path.join(ROOT, ".perfbench-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        p = run_bench(bare, spec["workloads"][0]["name"], 0)
        if p.returncode == 0 or '"correct"' in p.stdout:
            return [f"bare directory: exited {p.returncode} with output {p.stdout[-300:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors = check_run(spec, w["name"], trace)
            status = "ok" if not errors else "FAIL"
            print(f"{w['name']:16s} trace {trace}: {status}")
            for e in errors:
                print(f"    {e}")
            failures += bool(errors)
    errors = check_bare_directory(spec)
    print(f"bare directory refused: {'ok' if not errors else 'FAIL'}")
    for e in errors:
        print(f"    {e}")
    failures += bool(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
