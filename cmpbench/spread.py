#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 cmpbench/spread.py --seeds 1-10 [--workload flight-q4 ...] [--trace 0]

Runs each workload once per seed, one run at a time, with the command and
run length from BENCHMARK.json. For every metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and their distance as a share
of the median, next to the metric's bound. A benchmark is steady when each
spread, set-up time apart, stays well below its bound. Raw results go to
.bench_build/spread-<workload>-trace<t>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    for w in workloads:
        results = []
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s), "--seconds", str(seconds),
                                      "--trace", args.trace]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{w} seed {s}: exit {out.returncode}\n{out.stderr[-2000:]}")
            r = json.loads(lines[-1])
            results.append({"seed": s, **r})
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"{w} seed={s} correct={r['correct']} attempted={r['attempted']} failed={r['failed']} {vals}",
                  flush=True)
        path = os.path.join(ROOT, ".bench_build", f"spread-{w}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(results, fh, indent=1)
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if share < bound / 3 else "  WIDE" if share > bound else "  >1/3")
            print(f"  {w:16s} {name:26s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={share:.4f} bound={bound}{flag}", flush=True)


if __name__ == "__main__":
    main()
