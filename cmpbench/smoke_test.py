#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 cmpbench/smoke_test.py

Runs every workload of BENCHMARK.json at tiny size for a few queries, timed
and traced, and asserts that every metric named in BENCHMARK.json prints with
its unit, that failed_frac is 0, and that a deliberately corrupted reference
is caught (every answer then fails the gate). Takes a few minutes; exits non-zero on failure.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(ROOT, "cmpbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace), "--scale", "tiny"]
    if corrupt:
        cmd.append("--corrupt-reference")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, f"{cmd} exited {out.returncode}:\n{out.stderr[-3000:]}"
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    failures = []

    def check(cond, msg):
        if not cond:
            failures.append(msg)
            print(f"FAIL {msg}", flush=True)

    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            lines, r = run(w, trace)
            tag = f"{w} trace={trace}"
            check(set(r) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys {sorted(r)}")
            check(set(r["metrics"]) == {m["name"] for m in expected[trace]},
                  f"{tag}: metrics {sorted(r['metrics'])}")
            for m in expected[trace]:
                got = r["metrics"].get(m["name"], {})
                check(got.get("unit") == m["unit"], f"{tag}: {m['name']} unit {got.get('unit')}")
                printed = re.compile(rf"^metric {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}(\s|$)")
                check(any(printed.match(l) for l in lines), f"{tag}: {m['name']} not printed with its unit")
            check(any(l.startswith("metric failed_frac = 0.0 1") for l in lines), f"{tag}: failed_frac is not 0")
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                  f"{tag}: correct={r['correct']} failed={r['failed']} attempted={r['attempted']}")
            print(f"ok   {tag}: {r['attempted']} queries, {len(r['metrics'])} metrics", flush=True)

        _, r = run(w, 0, corrupt=True)
        check(not r["correct"] and r["failed"] == r["attempted"] >= 1,
              f"{w}: corrupted reference not caught (failed {r['failed']} of {r['attempted']})")
        print(f"ok   {w}: corrupted reference fails {r['failed']} of {r['attempted']} answers", flush=True)

    if failures:
        sys.exit(f"{len(failures)} smoke-test failures")
    print("smoke test passed")


if __name__ == "__main__":
    main()
