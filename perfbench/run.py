#!/usr/bin/env python3
"""End-to-end benchmark of the CASA flows.

Run from the repository root:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 25 --trace 0

Builds perfbench/ (which compiles the libraries under src/) into
.bench_build/perfbench as a Release build, then runs the casa_perfbench
program with the given arguments. Its last line of stdout is the JSON
result; build output goes to stderr. See perfbench/README.md.
"""
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build() -> str:
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under src/ next to perfbench/")
    build_dir = os.path.join(ROOT, BUILD_DIR)
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "casa_perfbench", "-j", jobs],
        check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "casa_perfbench")


def _have(tool: str) -> bool:
    return any(os.access(os.path.join(d, tool), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep) if d)


def main() -> int:
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
