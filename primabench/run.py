#!/usr/bin/env python3
"""Run one workload of the PRIMA benchmark.

    python3 primabench/run.py --workload brep_hot --seed 1 --seconds 10 --trace 0

Builds the kernel and the benchmark binary from this checkout's sources
(CMake, into $CARGO_TARGET_DIR or .bench_build), then runs the binary. Its
last line of standard output is the result object. Extra arguments
(--cursor-assembly-threads, --buffer-shards) pass through to the binary.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "prima.h")):
        sys.exit("primabench: no PRIMA sources next to the benchmark "
                 "(expected src/core/prima.h)")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", "primabench"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "primabench")


def main(argv):
    os.chdir(ROOT)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("primabench: build failed: %s" % e)
    args = list(argv)
    if "--trace" in args and "--trace-file" not in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] == "1":
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            name = "run"
            if "--workload" in args and args.index("--workload") + 1 < len(args):
                name = args[args.index("--workload") + 1]
            if "--seed" in args and args.index("--seed") + 1 < len(args):
                name += "-seed" + args[args.index("--seed") + 1]
            args += ["--trace-file", os.path.join(traces, name + ".json")]
    args += ["--db-dir", os.path.join(build_dir, "db")]
    return subprocess.run([binary] + args, check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
