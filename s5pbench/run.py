#!/usr/bin/env python3
"""Run one S5P benchmark workload and print its result as the last line.

    python3 s5pbench/run.py --workload social-k256 --seed 12 --seconds 30 --trace 0

Run from the repository root. The first run builds the benchmark and the
program's sources with sbt (offline) into s5pbench/target; later runs reuse
that build while the sources are unchanged. Each run then starts one JVM
(s5pbench.Main) that sets up Spark and times S5P.partition calls; with
--trace 1 it runs the PartitionJob path and the per-phase split instead.
The JVM's log goes to s5pbench/out/.
"""
import argparse
import hashlib
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
OUT = os.path.join(BENCH, "out")
STAMP = os.path.join(BENCH, "target", "bench-build.stamp")
CLASSPATH = os.path.join(BENCH, "target", "bench-classpath.txt")
JVM_HEAP = "3g"


def source_digest():
    h = hashlib.sha256()
    roots = [PROGRAM_SRC, os.path.join(BENCH, "src")]
    files = [os.path.join(BENCH, "build.sbt"),
             os.path.join(BENCH, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile with sbt unless the stamp matches the current sources;
    return the runtime classpath."""
    digest = source_digest()
    if os.path.exists(STAMP) and os.path.exists(CLASSPATH):
        with open(STAMP) as fh:
            if fh.read().strip() == digest:
                with open(CLASSPATH) as cp:
                    return cp.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g")
    # sbt keeps its own state under target/ too, so a build writes only
    # inside the checkout.
    state = os.path.join(BENCH, "target")
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         f"-Dsbt.global.base={state}/sbt-global", f"-Dsbt.boot.directory={state}/sbt-boot",
         f"-Dsbt.ivy.home={state}/ivy", "compile", "export Runtime/fullClasspath"],
        cwd=BENCH, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        sys.exit("s5pbench: build failed")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    classpath = lines[-1].strip()
    os.makedirs(os.path.dirname(STAMP), exist_ok=True)
    with open(CLASSPATH, "w") as fh:
        fh.write(classpath + "\n")
    with open(STAMP, "w") as fh:
        fh.write(digest + "\n")
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="social-k256, web-k64 or social-k256-sparse-ids")
    ap.add_argument("--seed", type=int, default=None,
                    help="generator seed (default: the registry seed of the graph)")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(PROGRAM_SRC):
        sys.exit(f"s5pbench: program sources not found at {PROGRAM_SRC}")
    classpath = build()

    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", f"-Xms{JVM_HEAP}", f"-Xmx{JVM_HEAP}", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           "-cp", classpath, "s5pbench.Main",
           "--workload", args.workload, "--trace", str(args.trace),
           "--seconds", str(args.seconds), "--out", OUT]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    log_path = os.path.join(OUT, f"{args.workload}-trace{args.trace}.log")
    with open(log_path, "w") as log:
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=log, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        sys.exit(f"s5pbench: run failed with exit code {proc.returncode}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
