#!/usr/bin/env python3
"""Run one COMPARE benchmark workload and print its metrics.

    python3 cmpbench/run.py --workload flight-q4 --seed 1 --seconds 8 --trace 0

Run from the root of a checkout. The first run builds the program and the
benchmark from source with sbt (into .bench_build and the sbt target
directories); later runs reuse the build while the sources are unchanged.
The JVM is then launched directly, so sbt start-up is never measured.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See cmpbench/README.md.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(BENCH_DIR, "target", "classpath.txt")
STAMP = os.path.join(WORK, "build.stamp")

HEAP = "3g"  # driver heap, fixed so both sides of a comparison get the same
# The throughput collector with a fixed young generation: G1's adaptive sizing
# kept latency falling for 40 s of queries, ParallelGC settles in about 10 s.
GC = ["-XX:+UseParallelGC", "-Xmn1g"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600

# The module opens Spark's own launcher adds on JDK 17+.
JVM_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]


def fail(msg, code=2):
    print(f"cmpbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads from the checkout, in a stable order."""
    skip = {"target", ".bsp", ".bench_build"}
    tops = ["build.sbt", "project", "src/main", "jobs", os.path.relpath(BENCH_DIR, ROOT)]
    for top in tops:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            yield path
            continue
        for d, dirs, files in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in skip)
            for f in sorted(files):
                if f.endswith((".scala", ".sbt", ".properties", ".java")):
                    yield os.path.join(d, f)


def source_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(digest):
    """Compile with sbt unless the sources match the last build."""
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == digest:
                return
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH", 1)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    log = os.path.join(WORK, "logs", "build.log")
    tmp = os.path.join(WORK, "tmp")  # keeps sbt's native-library scratch in the checkout
    with open(log, "w") as fh:
        # A session of its own, so a timeout also stops the JVM the sbt script starts.
        proc = subprocess.Popen(["sbt", "--batch", "-Dsbt.log.noformat=true", f"-Djava.io.tmpdir={tmp}",
                                 f"-Djna.tmpdir={tmp}", "writeClasspath"],
                                cwd=BENCH_DIR, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, start_new_session=True)
        try:
            rc = proc.wait(timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            rc = "timeout"
    if rc != 0:
        with open(log) as fh:
            sys.stderr.write("".join(fh.readlines()[-40:]))
        fail(f"build failed ({rc}); full log in {log}", 1)
    with open(STAMP, "w") as fh:
        fh.write(digest + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["flight-q4", "flight-q2-wide", "tpcds-q3-star"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full",
                    help="tiny inputs for the smoke test")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="smoke test: corrupt the reference, so every answer must fail the gate")
    args = ap.parse_args()

    for need in ("build.sbt", "src/main/scala"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found next to {os.path.basename(BENCH_DIR)}/: "
                 "run from the root of a full checkout of the program")

    for d in ("logs", "tmp"):
        os.makedirs(os.path.join(WORK, d), exist_ok=True)
    digest = source_digest()
    build(digest)
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()

    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    # Spark gets half the CPUs; the driver thread (planning, Phi_p), the JIT
    # and the collector keep the rest instead of competing with its tasks.
    cores = max(1, len(os.sched_getaffinity(0)) // 2)
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", *GC,
           *[f"--add-opens={m}=ALL-UNNAMED" for m in JVM_OPENS],
           "-Djdk.reflect.useDirectMethodHandle=false",
           f"-Djava.io.tmpdir={os.path.join(WORK, 'tmp')}",
           "-cp", cp, "cmpbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--scale", args.scale,
           "--corrupt-reference", "1" if args.corrupt_reference else "0",
           "--cores", str(cores), "--work-dir", WORK,
           "--provenance", f"commit={commit()},source={digest},heap={HEAP}"]
    log = os.path.join(WORK, "logs", f"{args.workload}-seed{args.seed}-trace{args.trace}.log")
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"run exceeded {RUN_TIMEOUT_S} s; log in {log}", 1)
    sys.stdout.write(out)
    if proc.returncode != 0:
        with open(log) as fh:
            sys.stderr.write("".join(fh.readlines()[-30:]))
        fail(f"benchmark exited with {proc.returncode}; log in {log}", 1)


if __name__ == "__main__":
    main()
