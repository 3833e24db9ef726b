#!/usr/bin/env python3
"""Build the step benchmark from source and run one workload.

    python3 stepbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is its own CMake package
(stepbench/CMakeLists.txt) compiled against src/ into .bench_build/stepbench;
the root build files are not used. DC_* variables of the caller are removed
from the benchmark's environment, so every run sees the library defaults.
Spans of traced runs are written under .bench_out/. The last line of standard
output is the benchmark's JSON result; build logs go to standard error.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "stepbench"
BUILD_DIR = ROOT / ".bench_build" / "stepbench"
OUT_DIR = ROOT / ".bench_out"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"stepbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "core" / "model.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs], cwd=ROOT,
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    exe = BUILD_DIR / "stepbench"
    if not exe.is_file():
        fail("build produced no stepbench binary")
    return exe


def source_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "stepbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    try:
        exe = build()
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    OUT_DIR.mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("DC_")}
    cmd = [str(exe), *sys.argv[1:], "--out-dir", str(OUT_DIR),
           "--source-commit", source_commit(),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 3)
    sys.stdout.write(proc.stdout.decode(errors="replace"))
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode)


if __name__ == "__main__":
    main()
