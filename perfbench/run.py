#!/usr/bin/env python3
"""Build the benchmark harness from this checkout's sources, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload net_tx|fs_tenants|fs_block \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the current directory) and is incremental. Build output goes to stderr;
the harness's last stdout line is the JSON result. Exits non-zero, without a
result, when the sources or the build are missing.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def cached_source_dir(build):
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build_harness():
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.join(root, "perfbench")
    if cached_source_dir(build) not in (None, HERE):
        shutil.rmtree(build)  # configured from another checkout
    if not any(os.path.exists(os.path.join(build, f)) for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    compile_cmd = ["cmake", "--build", build, "-j", "3"]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    exe = os.path.join(build, "lxfi_perfbench")
    return exe if os.path.isfile(exe) else None


def main():
    exe = build_harness()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
