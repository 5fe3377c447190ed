#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload cold-fuse --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and run outputs
(stores, traces) to .bench_out/<workload>-<pid>/. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
"""
import fcntl
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def build(build_dir: Path) -> Path:
    build_dir.mkdir(parents=True, exist_ok=True)
    # Runs may start side by side; one builds while the others wait.
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                       stdout=sys.stderr, check=True)
    return build_dir / "kf_perfbench"


def main() -> int:
    root = Path.cwd()
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run([str(binary)] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
