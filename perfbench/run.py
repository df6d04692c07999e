#!/usr/bin/env python3
"""Builds `abq` and the benchmark from source, then runs one benchmark run.

Usage, from the repository root:

    python3 perfbench/run.py --workload narrow|wide|clustered \\
        --seed N --seconds S --trace 0|1

Both binaries are built with `cargo --offline --release` into
`$CARGO_TARGET_DIR` (default `.bench_build`). Build output goes to stderr;
stdout carries the benchmark's own lines, the last of which is the JSON
result. Scratch files live under `.bench_work/`. Exits non-zero, without a
result, when the sources are missing or the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def describe(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def commit():
    # Only this checkout's own history counts, not that of a repository
    # it may sit inside.
    top = describe(["git", "rev-parse", "--show-toplevel"])
    if top == "unknown" or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown"
    return describe(["git", "rev-parse", "HEAD"])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["narrow", "wide", "clustered"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()

    env = dict(os.environ)
    target = os.path.abspath(os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build")))
    env["CARGO_TARGET_DIR"] = target
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no Cargo.toml at the repository root", file=sys.stderr)
        return 1
    if not cargo_build(["--bin", "abq"], env):
        return 1
    if not cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env):
        return 1

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", a.trace,
        "--abq", os.path.join(target, "release", "abq"),
        "--work", os.path.join(ROOT, ".bench_work"),
        "--rustc", describe(["rustc", "--version"]),
        "--commit", commit(),
    ]
    # A session of its own, so every process the run starts can be
    # stopped together once it ends, however it ends (a SIGTERM to this
    # script unwinds through the `finally` below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return rc


if __name__ == "__main__":
    sys.exit(main())
