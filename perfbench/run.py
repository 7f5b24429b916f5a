#!/usr/bin/env python3
"""Builds the perfbench binary from the checkout's sources and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload dense_batch --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR when set (a path relative to the
repository root), else to .bench_build. Build output goes to stderr; the
binary's standard output is passed through unchanged, so the last line is the
JSON result. The exit code is the binary's, or non-zero when the build fails.
"""

import os
import subprocess
import sys
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build(out):
    cache = out / "CMakeCache.txt"
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs()])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S, check=False)
        if r.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def source_digest():
    """CRC-32 over the library and benchmark sources, in path order."""
    crc = 0
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in (".cc", ".h", ".txt", ".py"):
                crc = zlib.crc32(str(p.relative_to(ROOT)).encode(), crc)
                crc = zlib.crc32(p.read_bytes(), crc)
    return f"{crc:08x}"


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12",
                        "HEAD"], capture_output=True, text=True, check=False)
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "none"


def main():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print("perfbench: repository sources (src/) not found", file=sys.stderr)
        return 2
    out = build_dir()
    binary = build(out)
    if binary is None:
        return 3
    cmd = [str(binary), *sys.argv[1:],
           "--source-digest", source_digest(), "--commit", commit(),
           "--scratch", os.path.relpath(out, ROOT)]
    try:
        r = subprocess.run(cmd, cwd=str(ROOT), timeout=RUN_TIMEOUT_S,
                           check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
