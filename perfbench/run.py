#!/usr/bin/env python3
"""Builds and runs the fpsm benchmark (see perfbench/WORKLOADS.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload signup|audit|retrain --seed N \
        --seconds S --trace 0|1

It configures perfbench/CMakeLists.txt (a Release build of src/ plus the
perfbench binary) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, builds it, and runs the binary. The binary's last stdout line is the
JSON result; its exit code is passed through. Extra flags (--scale,
--corpus-entries, --setups) go to the binary unchanged; the smoke test uses
them.
"""
import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over src/ and perfbench/, so a run names the code it measured
    even where there is no git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmake_dir = os.path.join(build_dir, "cmake")
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        jobs = str(len(os.sched_getaffinity(0)))
        subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(cmake_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["signup", "audit", "retrain"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no fpsm sources under {ROOT}/src; run from a full checkout")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    sha = git_sha()
    if sha == "unknown":
        sha = "source-" + source_digest()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir, "--git-sha", sha] + extra
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
