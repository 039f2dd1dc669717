#!/usr/bin/env python3
"""Builds meshbcast and the meshbench binary from source, then runs one
workload and prints its result.

    python3 perfbench/run.py --workload lossy-arq --seed 7 --seconds 30 --trace 0

Run it from the repository root.  The library is configured, built and
installed from the repository's own CMakeLists.txt into the build
directory (`$CARGO_TARGET_DIR`, default `.bench_build`), and meshbench
(perfbench/CMakeLists.txt) is built against that install.  Build output
goes to stderr; stdout ends with the result line
{"correct", "attempted", "failed", "metrics"}.  The exit status is 0 only
when every output check passed.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lossy-arq", "service-mix", "bulk-1m")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit("perfbench: build step failed: " + " ".join(cmd))


def configure_and_build(src, build, extra):
    if not os.path.exists(os.path.join(build, "build.ninja")):
        run_quiet(["cmake", "-S", src, "-B", build, "-G", "Ninja",
                   "-DCMAKE_BUILD_TYPE=Release"] + extra)
    run_quiet(["cmake", "--build", build, "-j", "4"])


def build(root):
    """Builds the library and meshbench; returns meshbench's path."""
    if not os.path.exists(os.path.join(root, "CMakeLists.txt")):
        sys.exit("perfbench: no CMakeLists.txt at %s; run from the "
                 "repository root" % root)
    out = build_dir()
    prefix = os.path.join(out, "prefix")
    lib = os.path.join(out, "meshbcast")
    configure_and_build(root, lib, ["-DMESHBCAST_BUILD_TESTS=OFF",
                                    "-DMESHBCAST_BUILD_BENCH=OFF",
                                    "-DMESHBCAST_BUILD_EXAMPLES=OFF"])
    run_quiet(["cmake", "--install", lib, "--prefix", prefix])
    bench = os.path.join(out, "perfbench")
    configure_and_build(HERE, bench, ["-DCMAKE_PREFIX_PATH=" + prefix])
    return os.path.join(bench, "meshbench")


def git_rev(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        result = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def source_digest(root):
    """SHA-256 over the library sources, so a result names the code it
    measured even where there is no git checkout."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    meshbench = build(root)
    scratch = os.path.join(build_dir(), "run", str(os.getpid()))
    cmd = [meshbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--rev", git_rev(root),
           "--source-digest", source_digest(root)]
    try:
        status = subprocess.run(cmd).returncode
    finally:
        for name in os.listdir(scratch) if os.path.isdir(scratch) else ():
            os.remove(os.path.join(scratch, name))
        if os.path.isdir(scratch):
            os.rmdir(scratch)
    sys.exit(status)


if __name__ == "__main__":
    main()
