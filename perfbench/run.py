#!/usr/bin/env python3
"""Builds esrd and the benchmark from source, then runs one benchmark pass.

Run from the root of a checkout:

    python3 perfbench/run.py --workload update-closed --seed 1 --seconds 20 --trace 0

An optional `--ckpt-bytes <n>` turns on esrd's checkpoint byte policy in
every daemon (off by default and in every workload BENCHMARK.json lists).

Build outputs go to $CARGO_TARGET_DIR (default .bench_build), run outputs
(result and trace files) to .bench_out. The last line of stdout is the
run's JSON result. For a correct run its metric names are checked against
BENCHMARK.json before it is printed. A run whose output check failed
prints `"correct": false` and exits 1.
"""

import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("update-closed", "read-closed", "mixed-open", "restart")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    opts = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace", "--ckpt-bytes"):
            fail(f"unknown argument {flag}")
        value = next(it, None)
        if value is None:
            fail(f"{flag} needs a value")
        opts[flag] = value
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        if flag not in opts:
            fail(f"{flag} is required")
    if opts["--workload"] not in WORKLOADS:
        fail(f"unknown workload {opts['--workload']}; one of {', '.join(WORKLOADS)}")
    for flag in ("--seed", "--seconds", "--trace", "--ckpt-bytes"):
        if flag in opts and not opts[flag].isdigit():
            fail(f"{flag} must be a whole number")
    if opts["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    return opts


def build(target_dir):
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates/runtime")):
        fail("run from the root of a checkout of the repository (no Cargo.toml/crates here)")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "esrd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 3)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]


def main():
    opts = parse_args(sys.argv[1:])
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench"), "--esrd", os.path.join(release, "esrd"),
           "--out", ".bench_out"]
    for flag, value in opts.items():
        cmd += [flag, value]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S}s", 4)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if proc.returncode not in (0, 1):
        fail(f"benchmark exited with {proc.returncode}", proc.returncode or 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the benchmark printed no result line", 6)
    want = expected_metrics(opts["--trace"])
    if result["correct"] and sorted(result["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}", 5)
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
