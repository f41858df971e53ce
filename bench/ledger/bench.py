#!/usr/bin/env python3
"""Build cake_ledger from source if needed, then run one workload.

    python3 bench/ledger/bench.py --workload W --seed N --seconds S --trace 0|1

Every argument is passed on to cake_ledger unchanged. The build tree is
.bench_build/ledger under the repository root; build output goes to stderr,
so the last line of stdout stays cake_ledger's JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
BINARY = os.path.join(BUILD, "cake_ledger")


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("bench.py: no CAKE source tree at " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "cake_ledger",
                    "-j", "4"],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("bench.py: build failed: %s" % err)
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
