#!/usr/bin/env python3
"""The repository benchmark: build the driver from source, run one workload.

    python3 perfbench/run.py --workload <paper_sweep|serve_churn|tcp_query>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It configures and builds
perfbench/CMakeLists.txt (which compiles the program's libraries from
src/) into .bench_build/perfbench, refuses to run a binary older than
the sources, prints a host and build stamp, then runs the workload. The
last stdout line is the driver binary's JSON result; a traced run also
writes its spans under .bench_build/perfbench/traces/. Workloads and
metrics are described in perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "abrr_perfbench")
WORKLOADS = ("paper_sweep", "serve_churn", "tcp_query")
RUN_TIMEOUT_S = 175


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def source_files():
    """Every file the binary is built from: src/ and this directory."""
    out = []
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".txt")):
                    out.append(os.path.join(dirpath, name))
    return out


def build():
    os.makedirs(BUILD, exist_ok=True)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "abrr_perfbench",
                      "-j", "3"])
        for cmd in steps:
            # Build output goes to stderr: stdout ends with the result line.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, check=False)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}", 3)


def check_fresh(files):
    if not os.path.exists(BINARY):
        fail(f"no binary at {BINARY} after the build", 3)
    built = os.path.getmtime(BINARY)
    stale = [f for f in files if os.path.getmtime(f) > built]
    if stale:
        fail("REFUSING TO RUN: the benchmark binary is older than "
             f"{len(stale)} source file(s), e.g. "
             f"{os.path.relpath(stale[0], ROOT)}", 3)


def stamp(args, files):
    digest = hashlib.sha256()
    for f in files:
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    sha = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if got.returncode == 0:
            sha = got.stdout.strip()
    compiler = "unknown"
    cache = os.path.join(BUILD, "CMakeCache.txt")
    with open(cache) as fh:
        for line in fh:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1].strip()
    print(f'stamp {{"git_sha": "{sha}", "src_sha256": "{digest.hexdigest()}",'
          f' "cxx": "{compiler}", "preset": "Release", '
          f'"cpus": {os.cpu_count()}, "workload": "{args.workload}", '
          f'"seed": {args.seed}}}', flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"{ROOT} is not a checkout of the repository (no src/)", 2)
    build()
    files = source_files()
    check_fresh(files)
    stamp(args, files)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
