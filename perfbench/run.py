#!/usr/bin/env python3
"""Client-observed benchmark of the trout binaries.

Builds `trout` and the `perfbench` harness from this checkout's source, then
runs one workload and passes its output through; the last line of standard
output is the JSON result.

    python3 perfbench/run.py --workload predict_open --seed 1 --seconds 10 --trace 0

Build outputs go to $CARGO_TARGET_DIR (default .bench_build). Each run's
scratch files go under .bench_work/ and are removed afterwards, except the
traced runs' span dumps in .bench_work/spans/.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("predict_open", "ingest_recover")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for extra in (["-p", "trout-cli"], ["--manifest-path", "perfbench/Cargo.toml"]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "trout-cli").is_dir():
        fail(f"no trout source tree at {ROOT}; the benchmark builds trout from source")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build(target)
    work = ROOT / ".bench_work" / f"{a.workload}-seed{a.seed}-trace{a.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--trout", str(target / "release" / "trout"),
        "--work", str(work),
        "--rev", revision(),
    ]
    try:
        code = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, TROUT_THREADS="1")).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
