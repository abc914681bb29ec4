#!/usr/bin/env python3
"""Build and run the time-to-bug benchmark from the root of a checkout.

    python3 ttbench/run.py --workload fig6-fuzz|campaign|orchestrated \
        --seed N --seconds S --trace 0|1

Builds the release `campaign` binary (the orchestrated workload's worker)
and the benchmark itself into $CARGO_TARGET_DIR (default `.bench_build`),
then runs the benchmark. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Scratch corpora and workdirs live
under `.bench_out/` and are removed when the run ends; the last result of
each workload and mode is kept in `.bench_out/results/`.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"ttbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", *args],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail(f"build failed: cargo build {' '.join(args)}")


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} is not a nodefz-rs checkout (no Cargo.toml / crates)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build(["-p", "nodefz-orchestrate", "--bin", "campaign"], target)
    build(["--manifest-path", str(BENCH_DIR / "Cargo.toml")], target)

    argv = sys.argv[1:]
    if "--workload" in argv:
        out = ROOT / ".bench_out"
        argv += [
            "--worker-bin", str(target / "release" / "campaign"),
            "--scratch", str(out / "scratch"),
            "--results", str(out / "results"),
        ]
    try:
        done = subprocess.run(
            [str(target / "release" / "nodefz-ttbench"), *argv],
            cwd=ROOT,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
