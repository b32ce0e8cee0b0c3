#!/usr/bin/env python3
"""Run one workload of the herc end-to-end benchmark.

    python3 perfbench/run.py --workload edit|browse|runs --seed N \
        --seconds S --trace 0|1 [--tiny]

Builds `herc` and the benchmark driver from this checkout's sources
(Release, into $CARGO_TARGET_DIR or .bench_build), then runs the driver.
The last line of standard output is the JSON result.  See README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s (building, on the first run, comes on top).
RUN_TIMEOUT_S = 170


def build(build_root):
    """Configures once, then (re)builds the two targets; returns their paths."""
    cmake_dir = os.path.join(build_root, "cmake")
    log_path = os.path.join(build_root, "build.log")
    os.makedirs(build_root, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "herc",
                  "herc_perfbench", "-j", str(os.cpu_count() or 2)])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                raise RuntimeError("build failed: " + " ".join(step))
    return (os.path.join(cmake_dir, "herc_perfbench"),
            os.path.join(cmake_dir, "herc", "examples", "herc"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["edit", "browse", "runs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small histories, for the test suite")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("perfbench: no herc source tree next to perfbench/\n")
        return 2

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    try:
        driver, herc = build(build_root)
    except (OSError, RuntimeError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2

    work = os.path.join(build_root, "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--herc", herc, "--work", work,
           "--out", os.path.join(build_root, "artefacts")]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
